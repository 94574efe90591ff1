#!/usr/bin/env python3
"""RJoin benchmark runner.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the repository root. Builds perfbench/ (and through it the library
sources under src/) with optimisation into $CARGO_TARGET_DIR, default
.bench_build/, then runs one repetition of the workload per fresh process
until --seconds is used up (at least three), and prints a metric table and,
as the last line of stdout, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones: traced repetitions record spans and write Chrome trace JSON
under <build>/traces/, and untraced repetitions in between give the
tracing overhead. Metric values are medians over the repetitions. Times
are process CPU time scaled to the reference speed: the reference kernel
(calibrate.cc) runs between repetitions, and each repetition's CPU times
are multiplied by NOMINAL_KERNEL_S over the mean kernel time measured just
before and after it. The wall clock is printed for reading only.

The run fails (exit 1) when any query's answers differ from the reference
evaluator, when the exact counters differ between repetitions of one seed, or
when a reduced form of the workload gives different answers or counters at
S=1 and S=3. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REP_TIMEOUT_S = 150
MIN_REPS = 3
# The reference kernel's CPU time at the reference speed. Only the unit of
# the scaled times depends on it; it is about what the kernel takes on a
# quiet 2.1 GHz Xeon vCPU.
NOMINAL_KERNEL_S = 0.5
# End-to-end metrics taken from a repetition's CPU times, with the power of
# the speed factor that turns each into reference-speed time.
SCALED = {"tuples_per_ref_s": ("tuples_per_cpu_s", -1),
          "answers_per_ref_s": ("answers_per_cpu_s", -1),
          "setup_s": ("setup_s", 1)}


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    return os.path.abspath(os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build"))


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "workload",
                                       "experiment.h")):
        fail(f"RJoin sources not found under {ROOT}/src")
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", out, "-j", "4"], check=True,
                   stdout=sys.stderr)
    return out


def source_sha1():
    """Digest of the sources a checkout without .git is built from."""
    digest = hashlib.sha1()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()


def git_sha():
    try:
        return subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "none"


def run_rep(binary, args):
    try:
        proc = subprocess.run([binary] + args, capture_output=True,
                              text=True, timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"repetition {args} exceeded {REP_TIMEOUT_S} s")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        fail(f"rjoin_bench {' '.join(args)} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_kernel(binary):
    """CPU seconds of one run of the reference kernel."""
    proc = subprocess.run([binary], capture_output=True, text=True,
                          timeout=REP_TIMEOUT_S)
    if proc.returncode != 0:
        fail(f"{binary} exited {proc.returncode}")
    return float(proc.stdout.split()[0])


def e2e_value(rep, name):
    if name in SCALED:
        key, power = SCALED[name]
        return rep["e2e"][key] * rep["speed"] ** power
    return rep["e2e"][name]


def answers_ok(rep):
    c = rep["check"]
    return c["missing"] == 0 and c["spurious"] == 0


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    opts = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = opts.seconds or spec["run_seconds"]
    out = build()
    binary = os.path.join(out, "rjoin_bench")
    kernel = os.path.join(out, "rjoin_calibrate")
    if opts.selftest:
        sys.exit(subprocess.run([os.path.join(out, "rjoin_bench_selftest")])
                 .returncode)
    base = ["--workload", opts.workload, "--seed", str(opts.seed)]
    trace_dir = os.path.join(out, "traces")
    if opts.trace:
        os.makedirs(trace_dir, exist_ok=True)
    # One unmeasured repetition first: the machine, not the program, is
    # cold after the build or an idle spell, and the first run reads slow.
    warmup = run_rep(binary, base)
    print("provenance: " + json.dumps({
        "git_sha": git_sha(), "source_sha1": source_sha1(),
        "build_type": warmup["build_type"], "nproc": int(warmup["nproc"])}))
    traced, untraced, durations, kernel_s = [], [], [], []
    start = time.monotonic()
    kernel_s.append(run_kernel(kernel))
    while True:
        reps = len(traced) + len(untraced)
        elapsed = time.monotonic() - start
        min_reps = 2 * MIN_REPS if opts.trace else MIN_REPS
        if reps >= min_reps and (
                elapsed + statistics.median(durations) > seconds):
            break
        t0 = time.monotonic()
        if opts.trace and reps % 2 == 0:
            path = os.path.join(
                trace_dir, f"{opts.workload}-seed{opts.seed}-rep{reps}.json")
            rep = run_rep(binary, base + ["--trace-out", path])
            traced.append(rep)
        else:
            rep = run_rep(binary, base)
            untraced.append(rep)
        kernel_s.append(run_kernel(kernel))
        rep["speed"] = NOMINAL_KERNEL_S / statistics.mean(kernel_s[-2:])
        durations.append(time.monotonic() - t0)
    reps = traced + untraced

    # Determinism guard: exact counters repeat bit-for-bit across processes.
    exact = warmup["exact"]
    deterministic = all(r["exact"] == exact for r in reps)
    if not deterministic:
        print("determinism: exact counters differ between repetitions: " +
              json.dumps([r["exact"] for r in reps]))
    # The shard count must not change a single answer or counter.
    small = [run_rep(binary, base + ["--reduced", "--shards", s])
             for s in ("1", "3")]
    same = small[0]["exact"] == small[1]["exact"]
    deterministic = deterministic and same and all(
        answers_ok(r) for r in small)
    print(f"determinism: reduced {opts.workload} S=1 vs S=3 "
          f"{'identical' if same else 'DIFFER'}: "
          f"{small[0]['exact']['answer_digest']} / "
          f"{small[1]['exact']['answer_digest']}")

    attempted = sum(int(r["check"]["expected"]) for r in reps)
    failed = sum(int(r["check"]["missing"] + r["check"]["spurious"])
                 for r in reps)
    correct = deterministic and all(answers_ok(r) for r in reps + [warmup])
    for i, r in enumerate([warmup] + reps + small):
        if not answers_ok(r):
            print(f"run.py: repetition {i} ({r['workload']} seed "
                  f"{int(r['seed'])}, shards {int(r['shards'])}): "
                  f"answers differ from the reference: {r['check']}",
                  file=sys.stderr)

    if opts.trace:
        wanted = spec["per_layer"]
        values = {m["name"]: statistics.median(r["layer"][m["name"]]
                                               for r in traced)
                  for m in wanted if m["name"] != "trace.overhead"}
        tps_on = statistics.median(e2e_value(r, "tuples_per_ref_s")
                                   for r in traced)
        tps_off = statistics.median(e2e_value(r, "tuples_per_ref_s")
                                    for r in untraced)
        values["trace.overhead"] = 1.0 - tps_on / tps_off
        print(f"tracing: traced {tps_on:.2f} vs untraced {tps_off:.2f} "
              f"tuples per reference-second; spans in {trace_dir}")
    else:
        wanted = spec["end_to_end"]
        values = {m["name"]: statistics.median(e2e_value(r, m["name"])
                                               for r in reps)
                  for m in wanted
                  if not m["name"].startswith("tuple_ref_ms_")}
        # Per-tuple times pool across repetitions: one sample per tuple.
        samples = sorted(ms * r["speed"] for r in reps
                         for ms in r["tuple_cpu_ms"])
        for p in (50, 95):
            rank = max(1, math.ceil(p / 100 * len(samples)))
            values[f"tuple_ref_ms_p{p}"] = samples[rank - 1]
        print(f"tuple_ref_ms: {len(samples)} samples")

    # The wall clock, for reading only: on a shared host it follows the
    # hypervisor's steal, so no metric is taken from it.
    stream_s = statistics.median(r["stream_s"] for r in reps)
    setup_s = statistics.median(r["setup_wall_s"] for r in reps)
    steal = statistics.median(r["layer"]["host.steal_share"] for r in reps)
    print(f"wall clock (medians): {reps[0]['tuples'] / stream_s:.2f} "
          f"tuples/s, set-up {setup_s:.4f} s, host steal share {steal:.4f}")
    cpu_tps = statistics.median(r["e2e"]["tuples_per_cpu_s"] for r in reps)
    print(f"unscaled: {cpu_tps:.2f} tuples per CPU-second; reference kernel "
          f"{statistics.median(kernel_s):.4f} s median of {len(kernel_s)} "
          f"(min {min(kernel_s):.4f}, max {max(kernel_s):.4f}, nominal "
          f"{NOMINAL_KERNEL_S})")
    error_rate = failed / attempted if attempted else float(failed > 0)
    print(f"workload {opts.workload} seed {opts.seed}: {len(reps)} "
          f"repetitions of {int(reps[0]['tuples'])} tuples, "
          f"shards {int(reps[0]['shards']) or 'serial'}; answer_error_rate "
          f"{error_rate:.6g} ({failed} of {attempted} rows); exact "
          f"counters {'repeat' if deterministic else 'DIFFER'}")
    for m in wanted:
        print(f"  {m['name']:<40} {values[m['name']]:>16.6g} {m['unit']}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
