#ifndef RJOIN_PERFBENCH_SPANS_H_
#define RJOIN_PERFBENCH_SPANS_H_

#include <time.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace rjoin::perfbench {

/// Wall clock of every benchmark timing, in nanoseconds.
inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// CPU time of the whole process (every thread), in nanoseconds. The
/// kernel leaves out the time the hypervisor steals from a virtual CPU, so
/// on a shared host this follows the program's own work where the wall
/// clock follows the neighbours.
inline uint64_t CpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ULL +
         static_cast<uint64_t>(ts.tv_nsec);
}

/// One timed call into a layer. `name` is "<layer>.<call>" for calls into
/// the program ("core.publish") and a bare word for the benchmark's own
/// framing spans ("setup", "tuple", "verify").
struct Span {
  const char* name = "";
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  int32_t parent = -1;  ///< index of the enclosing span, -1 at the root
  int64_t tuple = -1;   ///< stream position of the tuple, -1 outside
};

/// In-memory span recorder. Disabled, Begin/End cost one branch and record
/// nothing, so the untraced run measures the program alone.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {
    if (enabled_) spans_.reserve(1 << 16);
  }

  bool enabled() const { return enabled_; }

  /// Opens a span nested in the innermost open one; returns its handle.
  int32_t Begin(const char* name, int64_t tuple = -1) {
    if (!enabled_) return -1;
    const int32_t parent = open_.empty() ? -1 : open_.back();
    spans_.push_back(Span{name, NowNs(), 0, parent, tuple});
    open_.push_back(static_cast<int32_t>(spans_.size() - 1));
    return open_.back();
  }

  void End(int32_t handle) {
    if (handle < 0) return;
    spans_[static_cast<size_t>(handle)].end_ns = NowNs();
    open_.pop_back();
  }

  /// RAII form of Begin/End.
  class Scope {
   public:
    Scope(SpanLog* log, const char* name, int64_t tuple = -1)
        : log_(log), handle_(log->Begin(name, tuple)) {}
    ~Scope() { log_->End(handle_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog* log_;
    int32_t handle_;
  };

  /// Total duration of every span called `name`, in seconds.
  double TotalSeconds(const std::string& name) const;

  /// Durations of every span called `name`, in nanoseconds.
  std::vector<uint64_t> Durations(const std::string& name) const;

  /// Self time (duration minus the time its children cover) of the spans
  /// starting in [from_ns, to_ns), summed per layer, in seconds; the layer
  /// is the name's prefix before the first '.', and framing spans count
  /// under "bench".
  std::map<std::string, double> SelfSecondsByLayer(uint64_t from_ns,
                                                   uint64_t to_ns) const;

  /// Writes the spans as Chrome trace-event JSON (loads in Perfetto and
  /// chrome://tracing): one complete event per span, the parent index and
  /// tuple position in its args.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
};

}  // namespace rjoin::perfbench

#endif  // RJOIN_PERFBENCH_SPANS_H_
