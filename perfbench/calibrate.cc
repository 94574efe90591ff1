// Reference kernel for the benchmark's time metrics. It does a fixed amount
// of hash-map and sort work over a working set of tens of megabytes, like
// the engine's probe and answer paths, and prints the process CPU seconds
// it took. run.py runs it between repetitions and scales every CPU time of
// a repetition by (nominal kernel time) / (measured kernel time): on a
// shared virtual machine the speed of a CPU-second moves by tens of percent
// within minutes with the neighbours' load, and the kernel slows down with
// the program (see README.md, "Reference-speed time"). The kernel is the
// benchmark's own code, so a change to the program does not move it.

#include <time.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <unordered_map>
#include <vector>

namespace {

double CpuSeconds() {
  timespec t{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &t);
  return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_nsec) * 1e-9;
}

uint64_t Next(uint64_t* x) {
  *x ^= *x << 13;
  *x ^= *x >> 7;
  *x ^= *x << 17;
  return *x;
}

}  // namespace

int main() {
  constexpr int kRounds = 2;
  constexpr int kOps = 1 << 20;
  constexpr uint64_t kKeys = 3000000;
  const double start = CpuSeconds();
  uint64_t x = 88172645463325252ull;
  uint64_t sum = 0;
  std::unordered_map<uint64_t, uint64_t> map;
  map.reserve(kOps);
  for (int round = 0; round < kRounds; ++round) {
    for (int i = 0; i < kOps; ++i) map[Next(&x) % kKeys] += i;
    for (int i = 0; i < kOps; ++i) {
      auto it = map.find(Next(&x) % kKeys);
      if (it != map.end()) sum += it->second;
    }
    std::vector<uint64_t> v(kOps / 2);
    for (uint64_t& e : v) e = Next(&x);
    std::sort(v.begin(), v.end());
    sum += v[v.size() / 2];
  }
  const double seconds = CpuSeconds() - start;
  // The checksum keeps the work from being optimised away.
  std::printf("%.9f %llu\n", seconds, static_cast<unsigned long long>(sum));
  return 0;
}
