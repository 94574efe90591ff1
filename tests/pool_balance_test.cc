// Pool-balance suite: every pooled record the engine acquires must be
// released — TuplePool records (flat tuple plane), SlabPool nodes (stored
// queries / ALTT entries), and MessagePool envelopes. The scenarios are the
// three lifetimes that historically leaked in refcounted designs: windowed
// GC sweeps, live topology churn with state handoff, and ALTT Delta-expiry.
//
// Also holds the batched-probe-kernel equivalence tests: the tight-loop
// value-id kernel (RJoinEngine::ProbeTupleSpans) probes large stored spans
// for one-time queries, and its answers must match the brute-force
// CentralizedEvaluator oracle row for row.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "core/engine.h"
#include "core/messages.h"
#include "core/slab_pool.h"
#include "core/tuple_ref.h"
#include "dht/chord_network.h"
#include "dht/transport.h"
#include "sim/latency.h"
#include "sim/simulator.h"
#include "sql/evaluator.h"
#include "stats/metrics.h"
#include "workload/experiment.h"
#include "workload/generator.h"

namespace rjoin::core {
namespace {

// ------------------------------------------------------ pool balance ----

/// Per-node slab pools must balance while the engine is live:
/// acquired - released == live for both the query pool and the ALTT pool.
void ExpectSlabPoolsBalanced(const RJoinEngine& engine) {
  for (dht::NodeIndex n = 0; n < engine.num_nodes(); ++n) {
    const NodeState& st = engine.state_of(n);
    EXPECT_EQ(st.query_pool.acquired() - st.query_pool.released(),
              st.query_pool.live())
        << "query_pool imbalance at node " << n;
    EXPECT_EQ(st.altt_pool.acquired() - st.altt_pool.released(),
              st.altt_pool.live())
        << "altt_pool imbalance at node " << n;
  }
}

/// A value type that counts its live instances, so a test can see which
/// pool nodes exist.
struct Counted {
  static inline int live = 0;
  Counted() { ++live; }
  Counted(const Counted&) { ++live; }
  Counted& operator=(const Counted&) = default;
  ~Counted() { --live; }
};

TEST(PoolBalanceTest, SlabPoolConstructsOnlyHandedOutNodes) {
  Counted::live = 0;
  {
    SlabPool<Counted> pool(64);
    EXPECT_EQ(Counted::live, 0);
    std::vector<uint32_t> held;
    for (int i = 0; i < 3; ++i) held.push_back(pool.Allocate());
    // The first slab holds 64 nodes; only the three handed out exist.
    EXPECT_EQ(Counted::live, 3);

    // A freed node keeps its (reset) value and is handed out again.
    pool.Free(held[1]);
    EXPECT_EQ(Counted::live, 3);
    EXPECT_EQ(pool.Allocate(), held[1]);
    EXPECT_EQ(pool.allocated(), 3u);
    EXPECT_EQ(Counted::live, 3);

    // Past the first slab: the doubled second slab (128) is built only as
    // far as the high-water mark reaches.
    for (int i = 0; i < 70; ++i) held.push_back(pool.Allocate());
    EXPECT_EQ(pool.allocated(), 73u);
    EXPECT_EQ(Counted::live, 73);

    for (uint32_t idx : held) pool.Free(idx);
    EXPECT_EQ(pool.live(), 0u);
    EXPECT_EQ(pool.acquired() - pool.released(), pool.live());
    EXPECT_EQ(pool.recycled(), 1u);
    // Every index comes back from the freelist: nothing new is built.
    for (int i = 0; i < 73; ++i) pool.Allocate();
    EXPECT_EQ(pool.allocated(), 73u);
    EXPECT_EQ(pool.recycled(), 74u);
    EXPECT_EQ(pool.acquired() - pool.released(), pool.live());
    EXPECT_EQ(Counted::live, 73);
  }
  // The pool destroyed exactly the nodes it constructed.
  EXPECT_EQ(Counted::live, 0);
}

TEST(PoolBalanceTest, WindowedGcHeavyRunReturnsEveryPooledRecord) {
  const TuplePool::Stats tuples_before = TuplePool::Global().stats();
  const MessagePool::GlobalStats msgs_before = MessagePool::Aggregate();
  {
    workload::ExperimentConfig cfg;
    cfg.num_nodes = 48;
    cfg.num_queries = 48;
    cfg.num_tuples = 160;
    cfg.workload.num_relations = 4;
    cfg.workload.num_attributes = 3;
    cfg.workload.num_values = 8;
    sql::WindowSpec window;
    window.use_windows = true;
    window.unit = sql::WindowSpec::Unit::kTuples;
    window.kind = sql::WindowSpec::Kind::kSliding;
    window.size = 16;
    cfg.window = window;
    cfg.sweep_every = 8;  // GC-heavy: sweep every 8 tuples.
    cfg.tuple_gap = 4;
    workload::Experiment experiment(cfg);
    auto result = experiment.Run();
    EXPECT_EQ(result.num_tuples, cfg.num_tuples);
    ExpectSlabPoolsBalanced(experiment.engine());
  }
  // With the experiment destroyed, every tuple record and envelope the run
  // acquired must have been released (released == acquired, as deltas
  // against whatever other tests left outstanding).
  const TuplePool::Stats tuples_after = TuplePool::Global().stats();
  EXPECT_GT(tuples_after.released, tuples_before.released);
  EXPECT_EQ(tuples_after.outstanding(), tuples_before.outstanding());
  const MessagePool::GlobalStats msgs_after = MessagePool::Aggregate();
  EXPECT_GT(msgs_after.released, msgs_before.released);
  EXPECT_EQ(msgs_after.outstanding(), msgs_before.outstanding());
}

TEST(PoolBalanceTest, ChurnRunReturnsEveryPooledRecord) {
  const TuplePool::Stats tuples_before = TuplePool::Global().stats();
  const MessagePool::GlobalStats msgs_before = MessagePool::Aggregate();
  {
    workload::ExperimentConfig cfg;
    cfg.num_nodes = 48;
    cfg.num_queries = 40;
    cfg.num_tuples = 120;
    cfg.workload.num_relations = 4;
    cfg.workload.num_attributes = 3;
    cfg.workload.num_values = 8;
    workload::ChurnSpec churn;
    churn.rate = 0.5;  // Heavy: one churn op per two tuples.
    churn.spare_nodes = 6;
    cfg.churn = churn;
    workload::Experiment experiment(cfg);
    auto result = experiment.Run();
    EXPECT_EQ(result.num_tuples, cfg.num_tuples);
    const auto& cs = experiment.engine().churn_stats();
    EXPECT_GT(cs.joins_applied + cs.leaves_applied, 0u)
        << "churn run applied no topology changes";
    ExpectSlabPoolsBalanced(experiment.engine());
  }
  const TuplePool::Stats tuples_after = TuplePool::Global().stats();
  EXPECT_EQ(tuples_after.outstanding(), tuples_before.outstanding());
  const MessagePool::GlobalStats msgs_after = MessagePool::Aggregate();
  EXPECT_EQ(msgs_after.outstanding(), msgs_before.outstanding());
}

TEST(PoolBalanceTest, CrashRunReturnsEveryPooledRecord) {
  // Silent failures with replication on: replica slices hold extra TupleRef
  // pins and mirror traffic rides pooled envelopes; crashes drop whole
  // nodes' state and promotions re-install it. Every acquire must still
  // balance — in the per-node slabs, the global tuple plane, and the
  // envelope pool.
  const TuplePool::Stats tuples_before = TuplePool::Global().stats();
  const MessagePool::GlobalStats msgs_before = MessagePool::Aggregate();
  {
    workload::ExperimentConfig cfg;
    cfg.num_nodes = 48;
    cfg.num_queries = 40;
    cfg.num_tuples = 120;
    cfg.workload.num_relations = 4;
    cfg.workload.num_attributes = 3;
    cfg.workload.num_values = 8;
    cfg.replication = 2;
    workload::ChurnSpec churn;
    churn.rate = 0.25;
    churn.spare_nodes = 8;
    workload::FaultPlan faults;
    faults.crashes = 4;
    churn.faults = faults;
    cfg.churn = churn;
    workload::Experiment experiment(cfg);
    auto result = experiment.Run();
    EXPECT_EQ(result.num_tuples, cfg.num_tuples);
    const auto& cs = experiment.engine().churn_stats();
    EXPECT_EQ(cs.crashes_applied, 4u);
    EXPECT_GT(experiment.engine().replication_stats().replica_updates, 0u);
    ExpectSlabPoolsBalanced(experiment.engine());
  }
  const TuplePool::Stats tuples_after = TuplePool::Global().stats();
  EXPECT_EQ(tuples_after.outstanding(), tuples_before.outstanding());
  const MessagePool::GlobalStats msgs_after = MessagePool::Aggregate();
  EXPECT_EQ(msgs_after.outstanding(), msgs_before.outstanding());
}

// Engine-level harness (mirrors engine_features_test.cc) for scenarios
// needing direct control over the clock and EngineConfig.
struct Harness {
  Harness(size_t nodes, EngineConfig cfg, sql::Catalog cat, uint64_t seed = 7)
      : catalog(std::move(cat)),
        network(dht::ChordNetwork::Create(nodes, seed)),
        latency(1),
        metrics(network->num_total()),
        transport(network.get(), &simulator, &latency, &metrics,
                  Rng(seed * 31)),
        engine(cfg, &catalog, network.get(), &transport, &simulator,
               &metrics) {}

  sql::Catalog catalog;
  std::unique_ptr<dht::ChordNetwork> network;
  sim::Simulator simulator;
  sim::FixedLatency latency;
  stats::MetricsRegistry metrics;
  dht::Transport transport;
  RJoinEngine engine;
};

TEST(PoolBalanceTest, DeltaExpiryDrainsAlttPool) {
  const TuplePool::Stats tuples_before = TuplePool::Global().stats();
  {
    workload::WorkloadParams wp;
    wp.num_relations = 3;
    wp.num_attributes = 2;
    wp.num_values = 4;
    wp.zipf_theta = 0.4;
    auto catalog = workload::BuildCatalog(wp);

    EngineConfig cfg;
    cfg.altt_delta = 32;  // Finite Delta: ALTT entries expire.
    Harness h(24, cfg, std::move(*catalog), 19);

    workload::TupleGenerator tgen(wp, &h.catalog, 3);
    workload::TupleGenerator::Draw d;
    auto publish = [&](int i) {
      tgen.Next(&d);
      ASSERT_TRUE(h.engine
                      .PublishTuple(static_cast<dht::NodeIndex>(i % 24),
                                    d.relation, d.values)
                      .ok());
      h.simulator.Run();
      h.simulator.RunUntil(h.simulator.Now() + 4);
    };

    for (int i = 0; i < 30; ++i) publish(i);
    // Let every entry from the first burst age past Delta, then publish a
    // second burst: appends at the same attribute buckets trim expired
    // heads back into the slab freelist.
    h.simulator.RunUntil(h.simulator.Now() + 2 * cfg.altt_delta);
    for (int i = 30; i < 60; ++i) publish(i);

    uint64_t altt_released = 0;
    for (dht::NodeIndex n = 0; n < h.engine.num_nodes(); ++n) {
      altt_released += h.engine.state_of(n).altt_pool.released();
    }
    EXPECT_GT(altt_released, 0u) << "Delta-expiry freed no ALTT entries";
    ExpectSlabPoolsBalanced(h.engine);
  }
  // ALTT entries own TupleRefs; expiry plus teardown must return every
  // record to the flat tuple pool.
  const TuplePool::Stats tuples_after = TuplePool::Global().stats();
  EXPECT_GT(tuples_after.released, tuples_before.released);
  EXPECT_EQ(tuples_after.outstanding(), tuples_before.outstanding());
}

// --------------------------------- batched probe kernel equivalence ----

std::vector<std::string> SortedRowKeys(const std::vector<Answer>& answers) {
  std::vector<std::string> keys;
  keys.reserve(answers.size());
  for (const auto& a : answers) keys.push_back(sql::AnswerRowKey(a.row));
  std::sort(keys.begin(), keys.end());
  return keys;
}

std::vector<std::string> SortedRowKeys(
    const std::vector<std::vector<sql::Value>>& rows) {
  std::vector<std::string> keys;
  keys.reserve(rows.size());
  for (const auto& r : rows) keys.push_back(sql::AnswerRowKey(r));
  std::sort(keys.begin(), keys.end());
  return keys;
}

class BatchProbeKernelTest : public ::testing::TestWithParam<uint64_t> {};

// One-time queries submitted after a long stream probe the full stored
// state in one ProbeStoredState pass per bound relation — the widest spans
// the batch kernel ever sees. The answers must equal the scalar oracle's
// bag over the pre-submission history.
TEST_P(BatchProbeKernelTest, OneTimeProbeMatchesScalarOracle) {
  const uint64_t seed = GetParam();
  workload::WorkloadParams wp;
  wp.num_relations = 3;
  wp.num_attributes = 2;
  wp.num_values = 3;  // Tiny domain: large same-key spans, frequent joins.
  wp.zipf_theta = 0.4;
  auto catalog = workload::BuildCatalog(wp);

  EngineConfig cfg;
  cfg.keep_history = true;
  cfg.altt_delta = EngineConfig::kInfiniteDelta;  // Full ALTT history.
  Harness h(24, cfg, std::move(*catalog), seed);

  workload::TupleGenerator tgen(wp, &h.catalog, seed * 5 + 2);
  workload::TupleGenerator::Draw d;
  for (int i = 0; i < 50; ++i) {
    tgen.Next(&d);
    ASSERT_TRUE(h.engine
                    .PublishTuple(static_cast<dht::NodeIndex>(i % 24),
                                  d.relation, d.values)
                    .ok());
    h.simulator.Run();
    h.simulator.RunUntil(h.simulator.Now() + 2);
  }

  sql::CentralizedEvaluator oracle(&h.catalog);
  workload::QueryGenerator qgen(wp, &h.catalog, seed * 3 + 1);
  for (int i = 0; i < 4; ++i) {
    sql::Query spec = qgen.Next(2 + (i % 2));
    spec.distinct = (i % 2 == 1);  // Exercise the kernel's DISTINCT path.
    auto qid = h.engine.SubmitOneTimeQuery(static_cast<dht::NodeIndex>(i),
                                           spec);
    ASSERT_TRUE(qid.ok()) << qid.status().ToString();
    h.simulator.Run();

    auto iq = h.engine.FindQuery(*qid);
    ASSERT_NE(iq, nullptr);
    std::vector<sql::TuplePtr> past;
    for (const auto& t : h.engine.history()) {
      if (t->pub_time <= iq->ins_time()) past.push_back(t);
    }
    // One-time eligibility is pubT <= insT: the oracle's insT bound runs
    // the other way, so restrict the history and evaluate from time 0.
    const auto expected = oracle.Evaluate(iq->spec(), 0, past);
    EXPECT_EQ(SortedRowKeys(h.engine.AnswersFor(*qid)),
              SortedRowKeys(expected))
        << iq->spec().ToString();
  }
}

// Continuous queries trigger the same kernel span-by-span as tuples
// arrive; interleaving submissions and publications covers both the OnEval
// trigger walk and mid-stream stored-state probes.
TEST_P(BatchProbeKernelTest, InterleavedStreamMatchesScalarOracle) {
  const uint64_t seed = GetParam();
  workload::WorkloadParams wp;
  wp.num_relations = 3;
  wp.num_attributes = 2;
  wp.num_values = 3;
  wp.zipf_theta = 0.5;
  auto catalog = workload::BuildCatalog(wp);

  EngineConfig cfg;
  cfg.keep_history = true;
  Harness h(24, cfg, std::move(*catalog), seed);

  workload::QueryGenerator qgen(wp, &h.catalog, seed * 3 + 1);
  workload::TupleGenerator tgen(wp, &h.catalog, seed * 5 + 2);
  workload::TupleGenerator::Draw d;
  std::vector<uint64_t> qids;
  for (int i = 0; i < 45; ++i) {
    if (i % 15 == 0) {  // A new query every 15 tuples, mid-stream.
      auto qid = h.engine.SubmitQuery(static_cast<dht::NodeIndex>(i % 24),
                                      qgen.Next(2));
      ASSERT_TRUE(qid.ok());
      qids.push_back(*qid);
    }
    tgen.Next(&d);
    ASSERT_TRUE(h.engine
                    .PublishTuple(static_cast<dht::NodeIndex>(i % 24),
                                  d.relation, d.values)
                    .ok());
    h.simulator.Run();
    h.simulator.RunUntil(h.simulator.Now() + 2);
  }

  sql::CentralizedEvaluator oracle(&h.catalog);
  for (uint64_t qid : qids) {
    auto iq = h.engine.FindQuery(qid);
    ASSERT_NE(iq, nullptr);
    const auto expected =
        oracle.Evaluate(iq->spec(), iq->ins_time(), h.engine.history());
    EXPECT_EQ(SortedRowKeys(h.engine.AnswersFor(qid)),
              SortedRowKeys(expected))
        << iq->spec().ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BatchProbeKernelTest,
                         ::testing::Values(1, 2, 3, 4, 5));

}  // namespace
}  // namespace rjoin::core
