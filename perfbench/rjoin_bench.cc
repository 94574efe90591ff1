// One repetition of one benchmark workload, in a fresh process so the
// process-wide interners, pools and thread-local route memos start cold.
//
//   rjoin_bench --workload <name> --seed <n> [--trace-out <file>]
//               [--reduced] [--shards <s>]
//
// Prints one JSON object on stdout: end-to-end and per-layer measurements,
// the exact counters the determinism guard compares, and the answer check.
// perfbench/run.py runs it repeatedly and aggregates.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/interner.h"
#include "workloads.h"

#if !defined(__OPTIMIZE__)
#error "the benchmark refuses an unoptimised build"
#endif

extern char** environ;

namespace rjoin::perfbench {
namespace {

/// Nearest-rank percentile, p in [0, 1].
template <typename T>
double Percentile(std::vector<T> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t rank = static_cast<size_t>(
      std::ceil(p * static_cast<double>(v.size())));
  return static_cast<double>(v[std::clamp<size_t>(rank, 1, v.size()) - 1]);
}

double Ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

/// Exact fingerprint of a histogram: count, sum, min, max and every
/// 0.1-percentile bucket bound.
uint64_t Fingerprint(const stats::LogHistogram& h) {
  uint64_t f = 1469598103934665603ULL;
  auto mix = [&](uint64_t v) { f = (f ^ v) * 1099511628211ULL; };
  mix(h.count());
  mix(h.sum());
  mix(h.min());
  mix(h.max());
  for (int p = 1; p <= 1000; ++p) mix(h.Percentile(p / 10.0));
  return f;
}

std::string Hex(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// The program reads RJOIN_* variables as defaults for knobs; the benchmark
/// sets every knob itself and refuses to run with any of them in scope.
bool RefuseRjoinEnvironment() {
  bool found = false;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "RJOIN_", 6) == 0) {
      std::cerr << "rjoin_bench: refusing to run with " << *e
                << " set; the benchmark sets every knob explicitly\n";
      found = true;
    }
  }
  return found;
}

std::string JsonNumber(double v) {
  std::ostringstream s;
  s.precision(17);
  s << (std::isfinite(v) ? v : 0.0);
  return s.str();
}

class JsonObject {
 public:
  void Num(const std::string& key, double v) { Raw(key, JsonNumber(v)); }
  void Str(const std::string& key, const std::string& v) {
    Raw(key, "\"" + v + "\"");
  }
  void Raw(const std::string& key, const std::string& json) {
    body_ += (body_.empty() ? "" : ",") + ("\"" + key + "\":" + json);
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

int Main(int argc, char** argv) {
  std::string workload_name;
  uint64_t seed = 1;
  std::string trace_out;
  bool reduced = false;
  int shards = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      workload_name = argv[++i];
    } else if (arg == "--seed" && has_value) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--trace-out" && has_value) {
      trace_out = argv[++i];
    } else if (arg == "--shards" && has_value) {
      shards = std::atoi(argv[++i]);
    } else if (arg == "--reduced") {
      reduced = true;
    } else {
      std::cerr << "rjoin_bench: unknown argument " << arg << "\n";
      return 2;
    }
  }
  if (RefuseRjoinEnvironment()) return 2;
  std::optional<WorkloadSpec> spec = MakeWorkload(workload_name, seed, reduced);
  if (!spec.has_value()) {
    std::cerr << "rjoin_bench: unknown workload '" << workload_name << "'\n";
    return 2;
  }
  if (shards > 0) spec->config.shards = static_cast<uint32_t>(shards);
  const workload::ExperimentConfig config = spec->config;
  const double tuples = static_cast<double>(config.num_tuples);
  const double nodes = static_cast<double>(config.num_nodes);

  SpanLog spans(!trace_out.empty());
  WorkloadRun run(std::move(*spec), &spans);
  run.Setup();
  run.Stream();

  core::RJoinEngine& engine = run.experiment().engine();
  const CounterSnapshot& b = run.before;
  const CounterSnapshot& a = run.after;
  const uint64_t answers = a.answers - b.answers;
  const uint64_t msgs = a.messages - b.messages;
  const uint64_t qpl = a.qpl - b.qpl;
  const stats::LogHistogram latency =
      a.histograms.answer_latency.DiffFrom(b.histograms.answer_latency);
  const stats::LogHistogram hops =
      a.histograms.route_hops.DiffFrom(b.histograms.route_hops);
  const stats::LogHistogram depth =
      a.histograms.rewrite_depth.DiffFrom(b.histograms.rewrite_depth);
  const stats::LogHistogram stalls =
      a.histograms.stall_ns.DiffFrom(b.histograms.stall_ns);
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const double peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
  const size_t stored_queries = engine.CountStoredQueries();
  const size_t stored_tuples = engine.CountStoredTuples();

  const AnswerCheck check = run.Verify();

  JsonObject e2e;
  // Throughput and set-up in process CPU time: the wall clock of a
  // shared virtual machine follows the hypervisor's steal (see README.md).
  e2e.Num("tuples_per_cpu_s", tuples / run.stream_cpu_s);
  e2e.Num("answers_per_cpu_s",
          static_cast<double>(answers) / run.stream_cpu_s);
  e2e.Num("setup_s", run.setup_cpu_s);
  e2e.Num("peak_rss_mb", peak_rss_mb);
  e2e.Num("msgs_per_node_per_tuple",
          static_cast<double>(msgs) / (nodes * tuples));
  e2e.Num("answer_latency_vt_p50", static_cast<double>(latency.Percentile(50)));
  e2e.Num("answer_latency_vt_p99", static_cast<double>(latency.Percentile(99)));
  // The complement of the answer error rate: a metric that reads 1 when
  // every query's answers match the reference.
  e2e.Num("answer_accuracy", std::max(0.0, 1.0 - check.ErrorRate()));

  JsonObject layer;
  const stats::AllocCounts allocs_a = a.allocs;
  const stats::AllocCounts allocs_b = b.allocs;
  auto per_tuple = [&](int plane) {
    return static_cast<double>(allocs_a.counts[plane] -
                               allocs_b.counts[plane]) /
           tuples;
  };
  uint64_t allocs_all = 0;
  for (int p = 0; p < stats::kNumAllocPlanes; ++p) {
    allocs_all += allocs_a.counts[p] - allocs_b.counts[p];
  }
  layer.Num("core.allocs_per_tuple.other", per_tuple(0));
  layer.Num("core.allocs_per_tuple.tuple", per_tuple(1));
  layer.Num("core.allocs_per_tuple.residual", per_tuple(2));
  layer.Num("core.allocs_per_tuple.message", per_tuple(3));
  layer.Num("core.allocs_per_tuple.pool_capacity", per_tuple(4));
  layer.Num("core.allocs_per_answer",
            Ratio(static_cast<double>(allocs_all),
                  static_cast<double>(answers)));
  layer.Num("core.answers_per_qpl",
            Ratio(static_cast<double>(answers), static_cast<double>(qpl)));
  layer.Num("core.rewrite_depth_p99",
            static_cast<double>(depth.Percentile(99)));
  layer.Num("core.stored_queries", static_cast<double>(stored_queries));
  layer.Num("core.stored_tuples", static_cast<double>(stored_tuples));
  layer.Num("core.interned_keys",
            static_cast<double>(core::KeyInterner::Global().size()));
  layer.Num("core.ric_msgs_per_node_per_tuple",
            static_cast<double>(a.ric_messages - b.ric_messages) /
                (nodes * tuples));
  layer.Num("dht.msgs", static_cast<double>(msgs));
  layer.Num("dht.msgs_per_answer",
            Ratio(static_cast<double>(msgs), static_cast<double>(answers)));
  layer.Num("dht.route_hops_p50", static_cast<double>(hops.Percentile(50)));
  layer.Num("dht.route_hops_p99", static_cast<double>(hops.Percentile(99)));
  const double hits =
      static_cast<double>(a.route_cache.hits - b.route_cache.hits);
  const double misses =
      static_cast<double>(a.route_cache.misses - b.route_cache.misses);
  layer.Num("dht.route_cache_hit_rate", Ratio(hits, hits + misses));
  const double epochs =
      static_cast<double>(a.scheduler.epochs - b.scheduler.epochs);
  const double rounds = static_cast<double>(a.scheduler.equivalent_rounds -
                                            b.scheduler.equivalent_rounds);
  layer.Num("runtime.epochs", epochs);
  layer.Num("runtime.overlap_ratio",
            rounds == 0 ? 0.0 : 1.0 - epochs / rounds);
  layer.Num("runtime.watermark_stalls",
            static_cast<double>(a.scheduler.watermark_stalls -
                                b.scheduler.watermark_stalls));
  layer.Num("runtime.stall_s", static_cast<double>(stalls.sum()) * 1e-9);
  layer.Num("runtime.mailbox_batch_width",
            Ratio(static_cast<double>(a.mailbox.envelopes -
                                      b.mailbox.envelopes),
                  static_cast<double>(a.mailbox.batches - b.mailbox.batches)));
  layer.Num("runtime.cpu_per_wall", run.stream_cpu_s / run.stream_s);
  layer.Num("process.ctx_switches",
            static_cast<double>(a.ctx_switches - b.ctx_switches));
  layer.Num("host.steal_share",
            Ratio(static_cast<double>(a.host_steal - b.host_steal),
                  static_cast<double>(a.host_ticks - b.host_ticks)));
  layer.Num("core.replica_updates",
            static_cast<double>(a.replication.replica_updates -
                                b.replication.replica_updates));
  layer.Num("core.replica_bytes_per_tuple",
            static_cast<double>(a.replication.replica_bytes -
                                b.replication.replica_bytes) /
                tuples);
  layer.Num("core.handoff_bytes",
            static_cast<double>(a.churn.handoff_bytes - b.churn.handoff_bytes));
  layer.Num("core.promoted_records",
            static_cast<double>(a.replication.promoted_records -
                                b.replication.promoted_records));
  const double lookahead =
      run.experiment().runtime() != nullptr
          ? static_cast<double>(run.experiment().runtime()->lookahead())
          : 1.0;
  layer.Num("core.recovery_rounds_p99",
            Percentile(engine.promotion_recovery_ticks(), 0.99) / lookahead);
  layer.Num("core.answers_lost",
            static_cast<double>(a.replication.answers_lost -
                                b.replication.answers_lost));

  if (spans.enabled()) {
    auto p50 = [&](const char* name) {
      return Percentile(spans.Durations(name), 0.50);
    };
    layer.Num("workload.build_s", spans.TotalSeconds("workload.build"));
    layer.Num("core.prime_s", spans.TotalSeconds("core.prime"));
    layer.Num("core.submit_s", spans.TotalSeconds("core.submit"));
    layer.Num("core.submit_us_p50", p50("core.submit") * 1e-3);
    layer.Num("runtime.query_drain_s",
              spans.TotalSeconds("runtime.query_drain"));
    layer.Num("core.publish_s", spans.TotalSeconds("core.publish"));
    layer.Num("core.publish_us_p50", p50("core.publish") * 1e-3);
    const double pump_s = spans.TotalSeconds("runtime.pump");
    layer.Num("runtime.pump_s", pump_s);
    layer.Num("runtime.pump_share", pump_s / run.stream_s);
    layer.Num("core.sweep_s", spans.TotalSeconds("core.sweep"));
    layer.Num("core.sweep_ms_p50", p50("core.sweep") * 1e-6);
    layer.Num("core.churn_schedule_s",
              spans.TotalSeconds("core.churn_schedule"));
    const double gen_s = spans.TotalSeconds("workload.gen");
    layer.Num("workload.gen_s", gen_s);
    layer.Num("workload.gen_share", gen_s / run.stream_s);
    std::map<std::string, double> self =
        spans.SelfSecondsByLayer(run.stream_start_ns, run.stream_end_ns);
    double in_layers_s = 0;
    for (const char* name : {"workload", "core", "runtime", "bench"}) {
      layer.Num(std::string("self_s.") + name, self[name]);
      if (std::strcmp(name, "bench") != 0) in_layers_s += self[name];
    }
    // The share of the stream phase spent inside calls into a layer, not
    // in the benchmark's own loop and framing.
    layer.Num("trace.span_coverage", in_layers_s / run.stream_s);
    if (!spans.WriteChromeTrace(trace_out)) {
      std::cerr << "rjoin_bench: cannot write " << trace_out << "\n";
      return 1;
    }
  }

  JsonObject exact;
  exact.Str("answers", std::to_string(answers));
  exact.Str("dht_msgs", std::to_string(msgs));
  exact.Str("qpl", std::to_string(qpl));
  exact.Str("replica_bytes",
            std::to_string(a.replication.replica_bytes -
                           b.replication.replica_bytes));
  exact.Str("answer_latency_vt", Hex(Fingerprint(latency)));
  exact.Str("answer_digest", Hex(check.digest));

  JsonObject verdict;
  verdict.Num("expected", static_cast<double>(check.expected));
  verdict.Num("delivered", static_cast<double>(check.delivered));
  verdict.Num("missing", static_cast<double>(check.missing));
  verdict.Num("spurious", static_cast<double>(check.spurious));
  verdict.Num("queries_mismatched",
              static_cast<double>(check.queries_mismatched));

  JsonObject out;
  out.Str("workload", workload_name);
  out.Num("seed", static_cast<double>(seed));
  out.Num("shards", run.experiment().shard_count());  // 0: serial pump
  out.Num("tuples", tuples);
  out.Str("build_type", PERFBENCH_BUILD_TYPE);
  out.Num("nproc", static_cast<double>(sysconf(_SC_NPROCESSORS_ONLN)));
  out.Num("setup_wall_s", run.setup_s);
  out.Num("stream_s", run.stream_s);
  // Per-tuple CPU times; run.py pools them across repetitions into
  // tuple_cpu_ms_p50 and tuple_cpu_ms_p95.
  std::string samples;
  for (double ms : run.tuple_cpu_ms) {
    samples += (samples.empty() ? "" : ",") + JsonNumber(ms);
  }
  out.Raw("tuple_cpu_ms", "[" + samples + "]");
  out.Raw("e2e", e2e.str());
  out.Raw("layer", layer.str());
  out.Raw("exact", exact.str());
  out.Raw("check", verdict.str());
  std::cout << out.str() << std::endl;
  return 0;
}

}  // namespace
}  // namespace rjoin::perfbench

int main(int argc, char** argv) { return rjoin::perfbench::Main(argc, argv); }
