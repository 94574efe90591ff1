#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <fstream>

#include "util/logging.h"

namespace rjoin::perfbench {
namespace {

// The paper's Section 8 shape at 0.25 scale.
constexpr size_t kNodes = 250;
constexpr size_t kQueries = 5000;

// Stream lengths, sized so one repetition (set-up, stream, verification)
// takes a few seconds on a 4-thread x86 box; see perfbench/README.md.
constexpr size_t kClosedTuples = 300;
constexpr size_t kWindowedTuples = 250;
constexpr size_t kChurnTuples = 200;

workload::ExperimentConfig PaperShape(uint64_t seed, size_t tuples,
                                      bool reduced) {
  workload::ExperimentConfig c;
  c.num_nodes = reduced ? 64 : kNodes;
  c.num_queries = reduced ? 400 : kQueries;
  c.num_tuples = reduced ? 120 : tuples;
  c.way = 4;
  c.workload.num_relations = 10;
  c.workload.num_attributes = 10;
  c.workload.num_values = 100;
  c.workload.zipf_theta = 0.9;
  c.policy = core::PlannerPolicy::kRic;
  c.charge_ric = true;
  // The complete level set with finite Delta: every answer is checkable.
  c.rewrite_levels = core::RewriteIndexLevels::kValuePreferred;
  c.reuse_ric_info = true;
  c.attr_replication = 1;
  c.replication = 1;
  c.window = std::nullopt;
  c.sweep_every = 32;
  c.tuple_gap = 16;
  c.node_positions = std::nullopt;
  c.keep_history = false;
  // The serial sim::Simulator pump, the program's default.
  c.shards = workload::ExperimentConfig::kForceSerial;
  c.round_width = 0;
  c.pipeline_stream = false;
  c.seed = seed;
  c.churn = std::nullopt;
  c.warmup_observations = 64;
  c.checkpoints.clear();
  return c;
}

/// Reads the aggregate "cpu" line of /proc/stat: user nice system idle
/// iowait irq softirq steal ... (ticks).
void ReadHostTicks(uint64_t* total, uint64_t* steal) {
  std::ifstream stat("/proc/stat");
  std::string label;
  stat >> label;
  if (label != "cpu") return;
  uint64_t field = 0;
  for (int i = 0; i < 8 && stat >> field; ++i) {
    *total += field;
    if (i == 7) *steal = field;
  }
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {
      "answers_closed", "windowed_sharded", "churn_r2", "faults_r2"};
  return names;
}

std::optional<WorkloadSpec> MakeWorkload(const std::string& name,
                                         uint64_t seed, bool reduced) {
  WorkloadSpec w;
  w.name = name;
  if (name == "answers_closed") {
    w.config = PaperShape(seed, kClosedTuples, reduced);
  } else if (name == "windowed_sharded") {
    w.config = PaperShape(seed, kWindowedTuples, reduced);
    sql::WindowSpec window;
    window.use_windows = true;
    window.unit = sql::WindowSpec::Unit::kTuples;
    window.kind = sql::WindowSpec::Kind::kSliding;
    window.size = reduced ? 60 : 100;  // slides within the reduced stream
    w.config.window = window;
    w.config.sweep_every = 16;
    w.config.pipeline_stream = true;
    w.config.shards = 3;
  } else if (name == "churn_r2" || name == "faults_r2") {
    w.config = PaperShape(seed, kChurnTuples, reduced);
    w.config.replication = 2;
    // The sharded runtime at one shard: the same round schedule as S=3.
    w.config.shards = 1;
    workload::ChurnSpec churn;
    churn.spare_nodes = 8;
    churn.joins = 4;
    churn.leaves = 4;
    churn.settle_ticks = 64;
    churn.seed = 0;
    // faults_r2 adds silent crashes. The program loses answers after a
    // crash on a few percent of seeds, at r=2 and r=3 alike (see
    // README.md, "Known defect"), so only churn_r2 is gated.
    if (name == "faults_r2") {
      workload::FaultPlan faults;
      faults.crashes = 4;
      faults.correlated = 0;
      faults.crash_during_handoff = false;
      faults.crash_then_rejoin = false;
      faults.seed = 0;
      churn.faults = faults;
    } else {
      churn.faults = std::nullopt;
    }
    w.config.churn = churn;
  } else {
    return std::nullopt;
  }
  return w;
}

CounterSnapshot CounterSnapshot::Read(workload::Experiment& experiment) {
  CounterSnapshot s;
  const stats::MetricsRegistry& m = experiment.metrics();
  s.messages = m.total_messages();
  s.ric_messages = m.total_ric_messages();
  s.qpl = m.total_qpl();
  s.answers = m.answers_delivered();
  s.allocs = stats::ReadAllocCounts();
  s.route_cache = dht::RouteCache::Aggregate();
  s.scheduler = runtime::ShardedRuntime::AggregateScheduler();
  s.mailbox = runtime::ShardedRuntime::AggregateMailbox();
  s.histograms = stats::Tracer::Global().AggregateHistograms();
  s.replication = experiment.engine().replication_stats();
  s.churn = experiment.engine().churn_stats();
  s.cpu_ns = CpuNs();
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  s.ctx_switches = static_cast<uint64_t>(ru.ru_nvcsw + ru.ru_nivcsw);
  ReadHostTicks(&s.host_ticks, &s.host_steal);
  s.wall_ns = NowNs();
  return s;
}

WorkloadRun::WorkloadRun(WorkloadSpec spec, SpanLog* spans)
    : spec_(std::move(spec)), spans_(spans) {}

WorkloadRun::~WorkloadRun() = default;

void WorkloadRun::Setup() {
  const workload::ExperimentConfig& c = spec_.config;
  const uint64_t start = NowNs();
  const uint64_t start_cpu = CpuNs();
  SpanLog::Scope setup(spans_, "setup");
  {
    SpanLog::Scope s(spans_, "workload.build");
    experiment_ = std::make_unique<workload::Experiment>(c);
  }
  core::RJoinEngine& engine = experiment_->engine();
  // Query owners and publishers come from the participants only: churn
  // spares and joined nodes may leave, stranding an answer destination.
  for (dht::NodeIndex n : experiment_->network().AliveNodes()) {
    if (n < c.num_nodes) participants_.push_back(n);
  }
  placement_rng_ = std::make_unique<Rng>(c.seed ^ 0x9a9a9a);
  {
    SpanLog::Scope s(spans_, "core.prime");
    workload::TupleGenerator warm(c.workload, &experiment_->catalog(),
                                  spec_.data_seed * 29 + 11);
    std::vector<workload::TupleGenerator::Batch> batches;
    warm.NextBatch(c.warmup_observations, &batches);
    for (const auto& batch : batches) {
      RJOIN_CHECK(engine.ObserveStreamHistoryBulk(batch.relation, batch.rows)
                      .ok());
    }
  }
  std::vector<sql::Query> queries;
  {
    SpanLog::Scope s(spans_, "workload.query_gen");
    workload::QueryGenerator qgen(c.workload, &experiment_->catalog(),
                                  spec_.data_seed * 7 + 1);
    queries.reserve(c.num_queries);
    for (size_t i = 0; i < c.num_queries; ++i) {
      queries.push_back(qgen.Next(c.way, c.window.value_or(sql::WindowSpec{})));
    }
  }
  query_ids_.reserve(queries.size());
  for (sql::Query& q : queries) {
    const dht::NodeIndex owner =
        participants_[placement_rng_->NextBounded(participants_.size())];
    SpanLog::Scope s(spans_, "core.submit");
    auto id = engine.SubmitQuery(owner, std::move(q));
    RJOIN_CHECK(id.ok()) << id.status().ToString();
    query_ids_.push_back(*id);
  }
  {
    SpanLog::Scope s(spans_, "runtime.query_drain");
    experiment_->RunToQuiescence();
  }
  setup_cpu_s = static_cast<double>(CpuNs() - start_cpu) * 1e-9;
  setup_s = static_cast<double>(NowNs() - start) * 1e-9;
}

void WorkloadRun::ReleaseChurnUpTo(sim::SimTime until) {
  const workload::ChurnSpec& spec = *spec_.config.churn;
  core::RJoinEngine& engine = experiment_->engine();
  // Victim slots resolve to node indices: spares were created right after
  // the participants; the j-th join takes the next index in trace order.
  const auto spare_base = static_cast<dht::NodeIndex>(spec_.config.num_nodes);
  const auto join_base = static_cast<dht::NodeIndex>(spec_.config.num_nodes +
                                                     spec.spare_nodes);
  for (; churn_cursor_ < churn_trace_.size() &&
         churn_trace_[churn_cursor_].time <= until;
       ++churn_cursor_) {
    const workload::ChurnEvent& e = churn_trace_[churn_cursor_];
    if (e.kind == workload::ChurnOpKind::kJoin) {
      RJOIN_CHECK(engine.ScheduleJoin(e.time, e.join_id, 0).ok());
      continue;
    }
    const dht::NodeIndex victim =
        e.victim_slot < spec.spare_nodes
            ? spare_base + static_cast<dht::NodeIndex>(e.victim_slot)
            : join_base + static_cast<dht::NodeIndex>(e.victim_slot -
                                                      spec.spare_nodes);
    if (e.kind == workload::ChurnOpKind::kCrash) {
      RJOIN_CHECK(
          engine.ScheduleCrash(e.time, victim, e.crash_successors).ok());
    } else {
      RJOIN_CHECK(engine.ScheduleLeave(e.time, victim).ok());
    }
  }
}

void WorkloadRun::RecordTuple(const core::TupleRef& t,
                              const std::string& relation,
                              const std::vector<sql::Value>& values) {
  const auto& names = experiment_->catalog().relation_names();
  rec_relation_.push_back(static_cast<uint32_t>(
      std::find(names.begin(), names.end(), relation) - names.begin()));
  rec_pub_time_.push_back(t->pub_time);
  rec_seq_no_.push_back(t->seq_no);
  rec_values_.insert(rec_values_.end(), values.begin(), values.end());
}

void WorkloadRun::Stream() {
  const workload::ExperimentConfig& c = spec_.config;
  workload::Experiment& x = *experiment_;
  core::RJoinEngine& engine = x.engine();
  const size_t arity = c.workload.num_attributes;
  rec_relation_.reserve(c.num_tuples);
  rec_pub_time_.reserve(c.num_tuples);
  rec_seq_no_.reserve(c.num_tuples);
  rec_values_.reserve(c.num_tuples * arity);
  tuple_cpu_ms.reserve(c.num_tuples);
  workload::TupleGenerator tgen(c.workload, &x.catalog(),
                                spec_.data_seed * 13 + 5);
  workload::TupleGenerator::Draw d;
  if (c.churn.has_value()) {
    size_t joins = 0, leaves = 0, crashes = 0;
    churn_trace_ = workload::GenerateChurnTrace(
        *c.churn, c.num_tuples, x.NowTime(),
        std::max<sim::SimTime>(1, c.num_tuples * c.tuple_gap),
        c.seed * 77 + 3, &joins, &leaves, &crashes);
  }

  before = CounterSnapshot::Read(x);
  stream_start_ns = before.wall_ns;
  for (size_t i = 0; i < c.num_tuples; ++i) {
    const auto pos = static_cast<int64_t>(i);
    SpanLog::Scope tuple(spans_, "tuple", pos);
    if (c.churn.has_value()) {
      SpanLog::Scope s(spans_, "core.churn_schedule", pos);
      ReleaseChurnUpTo(x.NowTime() + c.tuple_gap);
    }
    dht::NodeIndex publisher;
    {
      SpanLog::Scope s(spans_, "workload.gen", pos);
      publisher =
          participants_[placement_rng_->NextBounded(participants_.size())];
      tgen.Next(&d);
    }
    const uint64_t t0 = CpuNs();
    {
      const int32_t span = spans_->Begin("core.publish", pos);
      auto t = engine.PublishTuple(publisher, d.relation, d.values);
      spans_->End(span);
      RJOIN_CHECK(t.ok()) << t.status().ToString();
      RecordTuple(*t, d.relation, d.values);
    }
    // The tuple's sample ends with the pump that closes its publication
    // slot: the drain plus the clock advance (closed loop) or the advance
    // alone (open loop). The window sweep, which the closed loop runs
    // between the two as Experiment::Run does, is left out of it in both.
    const bool sweep = (i + 1) % c.sweep_every == 0;
    uint64_t sweep_ns = 0;
    if (!c.pipeline_stream) {
      {
        SpanLog::Scope s(spans_, "runtime.pump", pos);
        x.RunToQuiescence();
      }
      if (sweep) {
        SpanLog::Scope s(spans_, "core.sweep", pos);
        const uint64_t s0 = CpuNs();
        engine.SweepWindows();
        sweep_ns = CpuNs() - s0;
      }
    }
    {
      SpanLog::Scope s(spans_, "runtime.pump", pos);
      x.RunUntilTime(x.NowTime() + c.tuple_gap);
    }
    tuple_cpu_ms.push_back(static_cast<double>(CpuNs() - t0 - sweep_ns) *
                           1e-6);
    if (sweep && c.pipeline_stream) {
      SpanLog::Scope s(spans_, "core.sweep", pos);
      engine.SweepWindows();
    }
  }
  {
    // Leaves pushed past the stream end by their settle gap, cascades
    // still in flight in the open loop, and the last window sweep.
    SpanLog::Scope drain(spans_, "stream");
    if (c.churn.has_value()) {
      SpanLog::Scope s(spans_, "core.churn_schedule");
      ReleaseChurnUpTo(UINT64_MAX);
    }
    {
      SpanLog::Scope s(spans_, "runtime.pump");
      x.RunToQuiescence();
    }
    SpanLog::Scope s(spans_, "core.sweep");
    engine.SweepWindows();
  }
  after = CounterSnapshot::Read(x);
  stream_end_ns = after.wall_ns;
  stream_s = static_cast<double>(stream_end_ns - stream_start_ns) * 1e-9;
  stream_cpu_s = static_cast<double>(after.cpu_ns - before.cpu_ns) * 1e-9;

  // The stream as sql::Tuples for the reference, built after the clock.
  const auto& names = x.catalog().relation_names();
  history_.clear();
  history_.reserve(rec_relation_.size());
  for (size_t i = 0; i < rec_relation_.size(); ++i) {
    history_.push_back(sql::MakeTuple(
        names[rec_relation_[i]],
        std::vector<sql::Value>(rec_values_.begin() + i * arity,
                                rec_values_.begin() + (i + 1) * arity),
        rec_pub_time_[i], rec_seq_no_[i], i));
  }
}

AnswerCheck WorkloadRun::Verify() {
  SpanLog::Scope verify(spans_, "verify");
  std::vector<core::InputQueryPtr> held;
  std::vector<CheckedQuery> queries;
  queries.reserve(query_ids_.size());
  for (uint64_t id : query_ids_) {
    held.push_back(experiment_->engine().FindQuery(id));
    RJOIN_CHECK(held.back() != nullptr) << "query " << id << " vanished";
    queries.push_back(
        CheckedQuery{id, &held.back()->spec(), held.back()->ins_time()});
  }
  HashJoinReference reference(&experiment_->catalog(), &history_);
  return CheckAnswers(reference, queries, experiment_->engine().answers());
}

}  // namespace rjoin::perfbench
