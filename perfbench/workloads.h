#ifndef RJOIN_PERFBENCH_WORKLOADS_H_
#define RJOIN_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "reference.h"
#include "spans.h"
#include "stats/trace.h"
#include "workload/experiment.h"

namespace rjoin::perfbench {

/// One benchmark workload: the experiment's every knob, set explicitly, and
/// how the stream is driven.
struct WorkloadSpec {
  std::string name;
  /// config.pipeline_stream picks the loop. Closed (false, the paper's
  /// method): each tuple's cascade is drained before the next publication.
  /// Open (true): one publication per tuple_gap of virtual time, however
  /// many cascades are in flight.
  workload::ExperimentConfig config;
  /// Seed of the data: the stream-history priming draws, the queries and
  /// the tuple stream. config.seed drives everything else: ring
  /// positions, query owners, publishers, transport and engine randomness,
  /// and the churn trace.
  uint64_t data_seed = 1;
};

/// The workload names the benchmark knows, in a fixed order.
const std::vector<std::string>& WorkloadNames();

/// Builds workload `name` for `seed`. The data is the same for every seed:
/// answer volume grows as the fourth power of the stream length, so a
/// different stream per seed would change the work by tens of percent and
/// drown any change to the program; the seed varies the overlay, the
/// placement and the churn trace instead. `reduced` shrinks the workload to
/// 64 nodes, 400 queries, 120 tuples and 60-tuple windows (the determinism
/// and self-test size). Returns nullopt for an unknown name.
std::optional<WorkloadSpec> MakeWorkload(const std::string& name,
                                         uint64_t seed, bool reduced);

/// Program counters the benchmark diffs over the stream phase.
struct CounterSnapshot {
  uint64_t messages = 0;
  uint64_t ric_messages = 0;
  uint64_t qpl = 0;
  uint64_t answers = 0;
  stats::AllocCounts allocs;
  dht::RouteCache::Stats route_cache;
  runtime::ShardedRuntime::SchedulerStats scheduler;
  runtime::ShardedRuntime::MailboxStats mailbox;
  stats::Tracer::HistogramSet histograms;
  core::RJoinEngine::ReplicationStats replication;
  core::RJoinEngine::ChurnStats churn;
  uint64_t cpu_ns = 0;  ///< CPU time of the process, CpuNs()
  uint64_t ctx_switches = 0;
  /// All CPUs' ticks and the ticks the hypervisor stole from them
  /// (/proc/stat; both 0 where it is unreadable).
  uint64_t host_ticks = 0;
  uint64_t host_steal = 0;
  uint64_t wall_ns = 0;

  static CounterSnapshot Read(workload::Experiment& experiment);
};

/// Drives one workload through workload::Experiment's public seams with the
/// benchmark's own stream loop, timing every call into a layer.
class WorkloadRun {
 public:
  WorkloadRun(WorkloadSpec spec, SpanLog* spans);
  ~WorkloadRun();
  WorkloadRun(const WorkloadRun&) = delete;
  WorkloadRun& operator=(const WorkloadRun&) = delete;

  /// Experiment construction, stream-history priming, query submission and
  /// the query drain.
  void Setup();
  /// Streams every tuple, then drains.
  void Stream();
  /// Checks every query's delivered answers against the reference.
  AnswerCheck Verify();

  workload::Experiment& experiment() { return *experiment_; }
  /// Every published tuple, as published (pub_time, seq_no set).
  const std::vector<sql::TuplePtr>& history() const { return history_; }

  // Measurements in seconds unless noted. The *_cpu_* ones are process
  // CPU time (CpuNs), the others wall-clock time (NowNs).
  double setup_cpu_s = 0;
  double setup_s = 0;
  double stream_cpu_s = 0;
  double stream_s = 0;
  uint64_t stream_start_ns = 0;
  uint64_t stream_end_ns = 0;
  /// One sample per tuple: its publication and the pumps that close its
  /// slot, without the window sweep.
  std::vector<double> tuple_cpu_ms;

  /// Stream-phase counters: the value after the stream minus before.
  CounterSnapshot before;
  CounterSnapshot after;

 private:
  void ReleaseChurnUpTo(sim::SimTime until);
  void RecordTuple(const core::TupleRef& t, const std::string& relation,
                   const std::vector<sql::Value>& values);

  WorkloadSpec spec_;
  SpanLog* spans_;
  std::unique_ptr<workload::Experiment> experiment_;
  std::vector<dht::NodeIndex> participants_;
  std::unique_ptr<Rng> placement_rng_;
  std::vector<uint64_t> query_ids_;
  std::vector<workload::ChurnEvent> churn_trace_;
  size_t churn_cursor_ = 0;
  // Published tuples, recorded into reserved flat buffers so the stream
  // loop allocates nothing on the benchmark's side; materialized after.
  std::vector<uint32_t> rec_relation_;
  std::vector<uint64_t> rec_pub_time_;
  std::vector<uint64_t> rec_seq_no_;
  std::vector<sql::Value> rec_values_;
  std::vector<sql::TuplePtr> history_;
};

}  // namespace rjoin::perfbench

#endif  // RJOIN_PERFBENCH_WORKLOADS_H_
