// Fault-injection battery for successor-list replication and silent-failure
// recovery (docs/failures.md): nodes CRASH — no goodbye, no handoff — while
// the tuple stream runs, the successor detects ownership at the topology
// generation bump and promotes its replica slices, and the suite asserts
// the three hard properties: (1) with replication factor r=2, killing any
// single node loses zero answers against the uncrashed centralized oracle;
// (2) the answer stream stays bit-identical for any shard count under any
// seeded FaultPlan trace; (3) a promoted owner's per-key state equals the
// state a graceful leave of the same node would have handed off.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "core/interner.h"
#include "core/node_state.h"
#include "core/slab_pool.h"
#include "core/slice_codec.h"
#include "dht/chord_network.h"
#include "dht/transport.h"
#include "runtime/shard_router.h"
#include "runtime/sharded_runtime.h"
#include "sim/latency.h"
#include "sim/simulator.h"
#include "sql/evaluator.h"
#include "stats/metrics.h"
#include "util/random.h"
#include "workload/churn.h"
#include "workload/experiment.h"
#include "workload/generator.h"

namespace rjoin {
namespace {

constexpr uint32_t kNilQ = core::SlabPool<core::StoredQuery>::kNil;
constexpr uint32_t kNilC = core::SlabPool<core::TupleChunk>::kNil;
constexpr uint32_t kNilA = core::SlabPool<core::AlttEntry>::kNil;

// ----------------------------------------------------- serial crashes ----

/// Minimal harness with a replication knob: explicit crashes between
/// publishes, oracle checks at the end (mirrors churn_runtime_test's
/// SerialHarness). `shards` > 0 runs the engine on the sharded runtime;
/// 0 keeps the serial simulator. Hops draw their delay from `latency_model`
/// (one tick each when none is given).
struct FaultHarness {
  explicit FaultHarness(size_t nodes, uint32_t replication, uint64_t seed = 7,
                        uint32_t shards = 0,
                        std::unique_ptr<sim::LatencyModel> latency_model =
                            std::make_unique<sim::FixedLatency>(1))
      : network(dht::ChordNetwork::Create(nodes, seed)),
        latency(std::move(latency_model)),
        metrics(network->num_total()),
        transport(network.get(), &simulator, latency.get(), &metrics,
                  Rng(seed * 31)),
        engine(Config(replication), &catalog, network.get(), &transport,
               &simulator, &metrics) {
    if (shards > 0) {
      runtime = std::make_unique<runtime::ShardedRuntime>(
          runtime::ShardedRuntime::Options{
              .shards = shards, .lookahead = runtime::AutoRoundWidth(*latency)},
          network->num_total(), &metrics);
      router = std::make_unique<runtime::ShardRouter>(runtime.get(), seed * 31);
      transport.set_router(router.get());
      engine.AttachRuntime(runtime.get());
    }
  }

  void Run() {
    if (runtime != nullptr) {
      runtime->Run();
    } else {
      simulator.Run();
    }
  }

  void RunUntil(sim::SimTime t) {
    if (runtime != nullptr) {
      runtime->RunUntil(t);
    } else {
      simulator.RunUntil(t);
    }
  }

  sim::SimTime Now() const {
    return runtime != nullptr ? runtime->Now() : simulator.Now();
  }

  static core::EngineConfig Config(uint32_t replication) {
    core::EngineConfig cfg;
    cfg.keep_history = true;
    cfg.replication = replication;
    return cfg;
  }

  static sql::Catalog MakeCatalog() {
    sql::Catalog c;
    EXPECT_TRUE(c.AddRelation(sql::Schema("R", {"A", "B", "C"})).ok());
    EXPECT_TRUE(c.AddRelation(sql::Schema("S", {"A", "B", "C"})).ok());
    EXPECT_TRUE(c.AddRelation(sql::Schema("P", {"A", "B", "C"})).ok());
    return c;
  }

  uint64_t Submit(dht::NodeIndex owner, const std::string& text) {
    auto id = engine.SubmitQuerySql(owner, text);
    EXPECT_TRUE(id.ok()) << id.status().ToString();
    Run();
    return *id;
  }

  /// Publishes without running the event loop.
  void PublishAsync(dht::NodeIndex node, const std::string& rel,
                    const std::vector<int64_t>& ints) {
    std::vector<sql::Value> vals;
    vals.reserve(ints.size());
    for (int64_t v : ints) vals.push_back(sql::Value::Int(v));
    auto t = engine.PublishTuple(node, rel, vals);
    EXPECT_TRUE(t.ok()) << t.status().ToString();
  }

  void Publish(dht::NodeIndex node, const std::string& rel,
               const std::vector<int64_t>& ints) {
    PublishAsync(node, rel, ints);
    Run();
  }

  void Crash(dht::NodeIndex victim, uint32_t take_successors = 0) {
    ASSERT_TRUE(engine.ScheduleCrash(Now(), victim, take_successors).ok());
    Run();
  }

  std::vector<std::string> OracleRows(uint64_t qid) {
    sql::CentralizedEvaluator oracle(&catalog);
    auto iq = engine.FindQuery(qid);
    EXPECT_NE(iq, nullptr);
    std::vector<std::string> rows;
    for (const auto& row :
         oracle.Evaluate(iq->spec(), iq->ins_time(), engine.history())) {
      rows.push_back(sql::AnswerRowKey(row));
    }
    std::sort(rows.begin(), rows.end());
    return rows;
  }

  std::vector<std::string> GotRows(uint64_t qid) {
    std::vector<std::string> rows;
    for (const auto& a : engine.AnswersFor(qid)) {
      rows.push_back(sql::AnswerRowKey(a.row));
    }
    std::sort(rows.begin(), rows.end());
    return rows;
  }

  sql::Catalog catalog = MakeCatalog();
  std::unique_ptr<dht::ChordNetwork> network;
  sim::Simulator simulator;
  std::unique_ptr<sim::LatencyModel> latency;
  stats::MetricsRegistry metrics;
  dht::Transport transport;
  core::RJoinEngine engine;
  // Declared last so worker threads join (and shard heaps drain into
  // still-live pools) before the rest of the stack is destroyed.
  std::unique_ptr<runtime::ShardedRuntime> runtime;
  std::unique_ptr<runtime::ShardRouter> router;
};

TEST(SerialCrashTest, ReplicatedCrashesLoseNothing) {
  // r=2: every slice lives at its owner and the owner's first successor.
  // Crash 11 of 16 nodes one at a time — each promotion must recover the
  // full slice, so the late matching tuple still joins completely.
  FaultHarness h(16, /*replication=*/2);
  const uint64_t q = h.Submit(0, "SELECT R.B, S.C FROM R, S WHERE R.A=S.A");
  h.Publish(1, "R", {7, 10, 11});
  h.Publish(1, "R", {8, 12, 13});

  size_t crashes = 0;
  for (dht::NodeIndex victim = 3; victim < 16 && h.network->num_alive() > 4;
       ++victim) {
    h.Crash(victim);
    EXPECT_TRUE(h.network->ValidSuccessorLists())
        << "successor lists broken after crashing node " << victim;
    ++crashes;
  }
  EXPECT_EQ(h.engine.churn_stats().crashes_applied, crashes);
  EXPECT_EQ(h.engine.churn_stats().handoff_messages, 0u)
      << "silent failures must not emit goodbye handoffs";
  EXPECT_GT(h.engine.replication_stats().replica_updates, 0u);

  h.Publish(2, "S", {7, 20, 21});
  h.Publish(2, "S", {8, 22, 23});
  EXPECT_EQ(h.GotRows(q), h.OracleRows(q));
  EXPECT_EQ(h.engine.AnswersFor(q).size(), 2u);
}

TEST(SerialCrashTest, UnreplicatedCrashStaysSoundButMayLose) {
  // r=1 (replication off): crashed state is simply gone. The engine must
  // neither crash nor invent answers — delivered rows are a subset of the
  // oracle's.
  FaultHarness h(16, /*replication=*/1);
  const uint64_t q = h.Submit(0, "SELECT R.B, S.C FROM R, S WHERE R.A=S.A");
  h.Publish(1, "R", {7, 10, 11});

  for (dht::NodeIndex victim = 3; victim < 16 && h.network->num_alive() > 4;
       ++victim) {
    h.Crash(victim);
  }
  EXPECT_EQ(h.engine.replication_stats().replica_updates, 0u);
  EXPECT_EQ(h.engine.replication_stats().promotions_emitted, 0u);

  h.Publish(2, "S", {7, 20, 21});
  const auto got = h.GotRows(q);
  const auto expected = h.OracleRows(q);
  EXPECT_TRUE(std::includes(expected.begin(), expected.end(), got.begin(),
                            got.end()))
      << "crash without replication produced rows the oracle does not have";
}

TEST(SerialCrashTest, CorrelatedCrashTakesAdjacentSuccessors) {
  FaultHarness h(16, /*replication=*/2);
  h.Publish(1, "R", {7, 10, 11});
  h.Crash(3, /*take_successors=*/2);
  EXPECT_EQ(h.engine.churn_stats().crashes_applied, 3u);
  EXPECT_EQ(h.network->num_alive(), 13u);
  EXPECT_TRUE(h.network->ValidSuccessorLists());
}

TEST(SerialCrashTest, CrashOfLastNodeIsRejected) {
  FaultHarness h(2, /*replication=*/2);
  h.Crash(0);
  EXPECT_EQ(h.engine.churn_stats().crashes_applied, 1u);
  // The survivor cannot crash: its range would be ownerless.
  h.Crash(1);
  EXPECT_EQ(h.engine.churn_stats().crashes_applied, 1u);
  EXPECT_EQ(h.engine.churn_stats().ops_rejected, 1u);
}

// ------------------------------------------ successor-list repair (dht) ----

TEST(SuccessorListRepairTest, EveryChurnOpLeavesValidLists) {
  // Regression for the graceful-leave gap: LeaveNode (and CrashNode) must
  // repair the successor lists of the departed node's predecessors, not
  // just splice the ring. Walk a seeded mixed sequence and revalidate the
  // ground truth after every single operation.
  auto network = dht::ChordNetwork::Create(32, 17);
  ASSERT_TRUE(network->ValidSuccessorLists());
  Rng rng(991);
  size_t joins = 0;
  for (int op = 0; op < 40 && network->num_alive() > 4; ++op) {
    const uint64_t pick = rng.NextBounded(3);
    const auto alive = network->AliveNodes();  // ring order, any may die
    if (pick == 0) {
      auto added = network->JoinAndSplice(
          dht::NodeId::FromKey("repair-join:" + std::to_string(joins++)),
          alive.front());
      ASSERT_TRUE(added.ok()) << added.status().ToString();
    } else {
      // Remove a random alive node, half gracefully, half by crash — both
      // paths share the splice-and-repair.
      const dht::NodeIndex victim = alive[rng.NextBounded(alive.size())];
      if (pick == 1) {
        ASSERT_TRUE(network->LeaveNode(victim).ok());
      } else {
        ASSERT_TRUE(network->CrashNode(victim).ok());
      }
    }
    ASSERT_TRUE(network->ValidSuccessorLists())
        << "op " << op << " left a stale successor list";
  }
}

// ------------------------------------------------- sharded equivalence ----

workload::ExperimentConfig BaseFailureConfig() {
  workload::ExperimentConfig cfg;
  cfg.num_nodes = 40;
  cfg.num_queries = 100;
  cfg.num_tuples = 48;
  cfg.way = 3;
  cfg.workload.num_relations = 6;
  cfg.workload.num_attributes = 4;
  cfg.workload.num_values = 25;
  cfg.seed = 9;
  cfg.keep_history = true;  // oracle checks
  cfg.replication = 2;
  return cfg;
}

struct RunOutput {
  workload::ExperimentResult result;
  std::vector<std::string> answers;  // (query, row, time) render
  uint64_t total_messages = 0;
  uint64_t total_qpl = 0;
  size_t stored_queries = 0;
  size_t stored_tuples = 0;
  core::RJoinEngine::ChurnStats churn;
  core::RJoinEngine::ReplicationStats replication;
  std::vector<uint64_t> recovery_ticks;
  /// Per-query sorted row keys + history render, for oracle comparison.
  std::map<uint64_t, std::vector<std::string>> per_query_rows;
  std::map<uint64_t, std::vector<std::string>> oracle_rows;
};

RunOutput RunWith(workload::ExperimentConfig cfg, uint32_t shards) {
  cfg.shards = shards;
  workload::Experiment e(cfg);
  RunOutput out;
  out.result = e.Run();
  for (const core::Answer& a : e.engine().answers()) {
    out.answers.push_back(std::to_string(a.query_id) + "|" +
                          sql::AnswerRowKey(a.row) + "|" +
                          std::to_string(a.delivered_at));
    out.per_query_rows[a.query_id].push_back(sql::AnswerRowKey(a.row));
  }
  out.total_messages = e.metrics().total_messages();
  out.total_qpl = e.metrics().total_qpl();
  out.stored_queries = e.engine().CountStoredQueries();
  out.stored_tuples = e.engine().CountStoredTuples();
  out.churn = e.engine().churn_stats();
  out.replication = e.engine().replication_stats();
  out.recovery_ticks = e.engine().promotion_recovery_ticks();

  sql::CentralizedEvaluator oracle(&e.catalog());
  for (uint64_t qid = 1; qid <= cfg.num_queries; ++qid) {
    auto iq = e.engine().FindQuery(qid);
    if (iq == nullptr) continue;
    std::vector<std::string> rows;
    for (const auto& row :
         oracle.Evaluate(iq->spec(), iq->ins_time(), e.engine().history())) {
      rows.push_back(sql::AnswerRowKey(row));
    }
    std::sort(rows.begin(), rows.end());
    out.oracle_rows[qid] = std::move(rows);
  }
  for (auto& [qid, rows] : out.per_query_rows) {
    std::sort(rows.begin(), rows.end());
  }
  return out;
}

void ExpectIdentical(const RunOutput& a, const RunOutput& b) {
  // Bit-identical answer streams: same rows, same order, same virtual
  // delivery times — under crashes, promotions, and mirror traffic.
  EXPECT_EQ(a.answers, b.answers);
  EXPECT_EQ(a.result.final_snapshot.storage, b.result.final_snapshot.storage);
  EXPECT_EQ(a.total_messages, b.total_messages);
  EXPECT_EQ(a.total_qpl, b.total_qpl);
  EXPECT_EQ(a.stored_queries, b.stored_queries);
  EXPECT_EQ(a.stored_tuples, b.stored_tuples);
  EXPECT_EQ(a.churn.joins_applied, b.churn.joins_applied);
  EXPECT_EQ(a.churn.leaves_applied, b.churn.leaves_applied);
  EXPECT_EQ(a.churn.crashes_applied, b.churn.crashes_applied);
  EXPECT_EQ(a.churn.handoff_messages, b.churn.handoff_messages);
  EXPECT_EQ(a.churn.handoffs_installed, b.churn.handoffs_installed);
  EXPECT_EQ(a.churn.forwarded_messages, b.churn.forwarded_messages);
  // The replication ledger is part of the determinism surface.
  EXPECT_EQ(a.replication.replica_updates, b.replication.replica_updates);
  EXPECT_EQ(a.replication.replica_slices, b.replication.replica_slices);
  EXPECT_EQ(a.replication.replica_bytes, b.replication.replica_bytes);
  EXPECT_EQ(a.replication.promotions_emitted,
            b.replication.promotions_emitted);
  EXPECT_EQ(a.replication.promotions_installed,
            b.replication.promotions_installed);
  EXPECT_EQ(a.replication.promoted_records, b.replication.promoted_records);
  EXPECT_EQ(a.replication.answers_lost, b.replication.answers_lost);
  EXPECT_EQ(a.recovery_ticks, b.recovery_ticks);
}

void ExpectMatchesOracle(const RunOutput& out) {
  size_t checked = 0;
  for (const auto& [qid, expected] : out.oracle_rows) {
    auto it = out.per_query_rows.find(qid);
    const std::vector<std::string> got =
        it == out.per_query_rows.end() ? std::vector<std::string>{}
                                       : it->second;
    EXPECT_EQ(got, expected) << "query " << qid;
    ++checked;
  }
  EXPECT_GT(checked, 0u);
}

void ExpectSubsetOfOracle(const RunOutput& out) {
  for (const auto& [qid, got] : out.per_query_rows) {
    auto it = out.oracle_rows.find(qid);
    ASSERT_NE(it, out.oracle_rows.end()) << "answers for unknown query";
    const std::vector<std::string>& expected = it->second;
    EXPECT_TRUE(std::includes(expected.begin(), expected.end(), got.begin(),
                              got.end()))
        << "query " << qid << " delivered rows the oracle does not have";
  }
}

TEST(FailureRuntimeTest, SingleKillWithR2LosesZeroAnswers) {
  // The acceptance scenario: one silent kill mid-run, replication_factor=2
  // — the delivered answers must equal the uncrashed centralized oracle's,
  // at every shard count, bit-identically.
  workload::ExperimentConfig cfg = BaseFailureConfig();
  workload::ChurnSpec churn;
  churn.spare_nodes = 1;
  workload::FaultPlan faults;
  faults.crashes = 1;
  churn.faults = faults;
  cfg.churn = churn;
  const RunOutput s1 = RunWith(cfg, 1);
  EXPECT_EQ(s1.churn.crashes_applied, 1u);
  EXPECT_EQ(s1.churn.handoff_messages, 0u)
      << "a silent kill must not emit goodbye handoffs";
  EXPECT_GT(s1.replication.promotions_emitted, 0u);
  EXPECT_GT(s1.replication.replica_updates, 0u);
  EXPECT_GT(s1.answers.size(), 0u);
  ExpectMatchesOracle(s1);
  ExpectIdentical(s1, RunWith(cfg, 4));
  ExpectIdentical(s1, RunWith(cfg, 7));  // uneven partition
}

TEST(FailureRuntimeTest, MultiKillSweepWithR2StaysComplete) {
  // Several independent (non-correlated) kills across the stream: every
  // orphaned range has a live replica, so completeness still holds.
  workload::ExperimentConfig cfg = BaseFailureConfig();
  workload::ChurnSpec churn;
  churn.spare_nodes = 6;
  workload::FaultPlan faults;
  faults.crashes = 6;
  churn.faults = faults;
  cfg.churn = churn;
  const RunOutput s1 = RunWith(cfg, 1);
  EXPECT_EQ(s1.churn.crashes_applied, 6u);
  ExpectMatchesOracle(s1);
  ExpectIdentical(s1, RunWith(cfg, 4));
  ExpectIdentical(s1, RunWith(cfg, 7));
}

TEST(FailureRuntimeTest, SingleKillWithoutReplicationIsSoundSubset) {
  // Same trace, replication off: loss is allowed (and measured by the
  // bench), but the engine must stay sound and deterministic.
  workload::ExperimentConfig cfg = BaseFailureConfig();
  cfg.replication = 1;
  workload::ChurnSpec churn;
  churn.spare_nodes = 1;
  workload::FaultPlan faults;
  faults.crashes = 1;
  churn.faults = faults;
  cfg.churn = churn;
  const RunOutput s1 = RunWith(cfg, 1);
  EXPECT_EQ(s1.churn.crashes_applied, 1u);
  EXPECT_EQ(s1.replication.replica_updates, 0u);
  ExpectSubsetOfOracle(s1);
  ExpectIdentical(s1, RunWith(cfg, 4));
}

TEST(FailureRuntimeTest, CorrelatedKillWorstCaseIsBoundedAndDeterministic) {
  // Correlated kill of a victim plus its adjacent successor defeats r=2 for
  // ranges whose both copies died: loss is expected, but it must stay a
  // strict subset (no invented or duplicated rows), the run must terminate,
  // and every shard count must agree bit-for-bit on what was lost.
  workload::ExperimentConfig cfg = BaseFailureConfig();
  workload::ChurnSpec churn;
  churn.spare_nodes = 2;
  workload::FaultPlan faults;
  faults.crashes = 2;
  faults.correlated = 1;
  churn.faults = faults;
  cfg.churn = churn;
  const RunOutput s1 = RunWith(cfg, 1);
  // Each crash event kills the victim plus one ring successor.
  EXPECT_EQ(s1.churn.crashes_applied, 4u);
  ExpectSubsetOfOracle(s1);
  ExpectIdentical(s1, RunWith(cfg, 4));
  ExpectIdentical(s1, RunWith(cfg, 7));
}

TEST(FailureRuntimeTest, CrashDuringHandoffRaceRecovers) {
  // Crashes pinned one tick after a join/leave: the StateHandoff is still
  // in flight when the ring changes under it. Reforwarding plus promotion
  // must still deliver the complete answer set.
  workload::ExperimentConfig cfg = BaseFailureConfig();
  workload::ChurnSpec churn;
  churn.joins = 4;
  churn.leaves = 4;
  churn.spare_nodes = 6;
  workload::FaultPlan faults;
  faults.crashes = 2;
  faults.crash_during_handoff = true;
  churn.faults = faults;
  cfg.churn = churn;
  const RunOutput s1 = RunWith(cfg, 1);
  EXPECT_EQ(s1.churn.crashes_applied, 2u);
  EXPECT_GT(s1.churn.joins_applied + s1.churn.leaves_applied, 0u);
  ExpectMatchesOracle(s1);
  ExpectIdentical(s1, RunWith(cfg, 4));
  ExpectIdentical(s1, RunWith(cfg, 7));
}

TEST(FailureRuntimeTest, CrashThenRejoinRaceRecovers) {
  // Every crash is followed by a fresh join that may land inside the
  // promoted region: the promoted owner hands the recovered slice onward.
  workload::ExperimentConfig cfg = BaseFailureConfig();
  workload::ChurnSpec churn;
  churn.spare_nodes = 3;
  workload::FaultPlan faults;
  faults.crashes = 3;
  faults.crash_then_rejoin = true;
  churn.faults = faults;
  cfg.churn = churn;
  const RunOutput s1 = RunWith(cfg, 1);
  EXPECT_EQ(s1.churn.crashes_applied, 3u);
  EXPECT_EQ(s1.churn.joins_applied, 3u);  // the rejoins
  ExpectMatchesOracle(s1);
  ExpectIdentical(s1, RunWith(cfg, 4));
}

class SeededFaultTraceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SeededFaultTraceTest, MixedFaultStormStaysEquivalent) {
  // Seeded mixed storm: graceful churn + silent kills interleaved, r=3.
  workload::ExperimentConfig cfg = BaseFailureConfig();
  cfg.seed = GetParam();
  cfg.num_queries = 60;
  cfg.replication = 3;
  workload::ChurnSpec churn;
  churn.joins = 6;
  churn.leaves = 4;
  churn.spare_nodes = 8;
  churn.seed = GetParam() * 131 + 7;
  workload::FaultPlan faults;
  faults.crashes = 4;
  faults.seed = GetParam() * 17 + 3;
  churn.faults = faults;
  cfg.churn = churn;
  const RunOutput s1 = RunWith(cfg, 1);
  EXPECT_EQ(s1.churn.crashes_applied, 4u);
  ExpectMatchesOracle(s1);
  ExpectIdentical(s1, RunWith(cfg, 4));
  ExpectIdentical(s1, RunWith(cfg, 7));
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeededFaultTraceTest,
                         ::testing::Values(21, 22, 23));

// ------------------------------------- promoted-state equality property ----

/// The record multiset of one node's primary per-key state, one string per
/// record: stored-query content fingerprints, stored tuple ids, and live
/// ALTT (tuple, expiry) pairs. Replica entries and DISTINCT bookkeeping
/// are deliberately excluded — they are caches, not state the paper's
/// operators observe.
std::map<core::KeyId, std::vector<std::string>> RecordParts(
    const core::RJoinEngine& eng, dht::NodeIndex n, uint64_t now) {
  const core::NodeState& st = eng.state_of(n);
  std::map<core::KeyId, std::vector<std::string>> parts;
  st.queries.ForEach([&](core::KeyId key, const core::BucketList& bucket) {
    for (uint32_t cur = bucket.head; cur != kNilQ;
         cur = st.query_pool.at(cur).next) {
      parts[key].push_back(
          "q:" + std::to_string(
                     st.query_pool.at(cur).value.residual.ContentFingerprint64()));
    }
  });
  st.tuples.ForEach([&](core::KeyId key, const core::TupleBucket& bucket) {
    for (uint32_t cur = bucket.head; cur != kNilC;
         cur = st.tuple_chunks.at(cur).next) {
      const core::TupleChunk& chunk = st.tuple_chunks.at(cur).value;
      for (uint32_t i = 0; i < chunk.count; ++i) {
        parts[key].push_back("t:" +
                             std::to_string(chunk.refs[i]->tuple_id));
      }
    }
  });
  st.altt.ForEach([&](core::KeyId key, const core::BucketList& bucket) {
    for (uint32_t cur = bucket.head; cur != kNilA;
         cur = st.altt_pool.at(cur).next) {
      const core::AlttEntry& e = st.altt_pool.at(cur).value;
      if (e.expires < now) continue;  // lazily-expired entries don't count
      parts[key].push_back("a:" + std::to_string(e.tuple->tuple_id) + "@" +
                           std::to_string(e.expires));
    }
  });
  return parts;
}

/// Sorts each key's record strings and joins them; keys without records
/// drop out.
std::map<core::KeyId, std::string> JoinParts(
    std::map<core::KeyId, std::vector<std::string>> parts) {
  std::map<core::KeyId, std::string> digest;
  for (auto& [key, v] : parts) {
    std::sort(v.begin(), v.end());
    std::string joined;
    for (const std::string& s : v) {
      joined += s;
      joined += '|';
    }
    if (!joined.empty()) digest[key] = std::move(joined);
  }
  return digest;
}

/// Digest of one node's primary per-key state: RecordParts plus the raw
/// rate bucket.
std::map<core::KeyId, std::string> StateDigest(const core::RJoinEngine& eng,
                                               dht::NodeIndex n,
                                               uint64_t now) {
  const core::NodeState& st = eng.state_of(n);
  std::map<core::KeyId, std::vector<std::string>> parts =
      RecordParts(eng, n, now);
  std::vector<core::KeyId> rate_keys;
  st.rates.AppendTrackedKeys(&rate_keys);
  for (core::KeyId key : rate_keys) {
    uint64_t epoch = 0, current = 0, previous = 0;
    if (st.rates.PeekKey(key, &epoch, &current, &previous)) {
      parts[key].push_back("r:" + std::to_string(epoch) + ":" +
                           std::to_string(current) + ":" +
                           std::to_string(previous));
    }
  }
  return JoinParts(std::move(parts));
}

/// The record multiset `holder` keeps as a replica of `key`, in
/// RecordParts' form ("" when it holds none).
std::string ReplicaDigest(const core::RJoinEngine& eng, dht::NodeIndex holder,
                          core::KeyId key, uint64_t now) {
  const core::ReplicaStore* store = eng.state_of(holder).replicas.get();
  const core::ReplicaStore::Entry* entry =
      store == nullptr ? nullptr : store->entries.Find(key);
  if (entry == nullptr) return "";
  std::map<core::KeyId, std::vector<std::string>> parts;
  std::vector<std::string>& v = parts[key];
  for (const auto& q : entry->queries) {
    v.push_back("q:" + std::to_string(q.record.ContentFingerprint64()));
  }
  for (const auto& t : entry->tuples) {
    v.push_back("t:" + std::to_string(t.record->tuple_id));
  }
  for (const auto& a : entry->altt) {
    if (a.record.expires < now) continue;
    v.push_back("a:" + std::to_string(a.record.tuple->tuple_id) + "@" +
                std::to_string(a.record.expires));
  }
  auto digest = JoinParts(std::move(parts));
  return digest.empty() ? "" : digest.begin()->second;
}

/// Convergence: after quiescence, every key an alive node owns is held,
/// record for record, by each of the node's replication-1 successors.
/// Returns the number of (key, replica) pairs compared.
size_t ExpectReplicasConverged(const FaultHarness& h, uint32_t replication) {
  const uint64_t now = h.Now();
  core::KeyInterner& in = core::KeyInterner::Global();
  size_t compared = 0;
  for (dht::NodeIndex n : h.network->AliveNodes()) {
    std::vector<dht::NodeIndex> succs;
    h.network->SuccessorsOf(n, replication - 1, &succs);
    for (const auto& [key, want] : JoinParts(RecordParts(h.engine, n, now))) {
      if (h.network->SuccessorOf(in.ring_id(key)) != n) continue;
      for (dht::NodeIndex s : succs) {
        EXPECT_EQ(ReplicaDigest(h.engine, s, key, now), want)
            << "replica of key " << key << " (owner " << n << ") at node "
            << s << " diverges from the owner's slice";
        ++compared;
      }
    }
  }
  return compared;
}

/// When a crash strikes relative to the victim's traffic.
enum class CrashTiming {
  /// Every cascade has drained: the victim's replicas are current.
  kDrained,
  /// Right after a tuple store at the victim (applied one tick later at
  /// the latest): the mirror of that store is still in flight.
  kMirrorInFlight,
};

/// Property: for the same seeded operation script, crashing a node under
/// r=2 leaves the network in exactly the state a graceful leave of that
/// node would have — per key: same StoredQuery set, same tuple multiset,
/// same live ALTT expiries, same rate buckets. Runs the crash script and
/// its graceful twin in lockstep on a fixed virtual clock and compares
/// every alive node's digest.
void ExpectCrashEqualsGracefulLeave(CrashTiming timing, uint32_t shards,
                                    sim::SimTime hop_delay = 1) {
  SCOPED_TRACE("shards=" + std::to_string(shards) +
               " hop_delay=" + std::to_string(hop_delay));
  constexpr size_t kNodes = 20;
  constexpr uint64_t kStep = 48;  // drains every cascade before the next op
  FaultHarness crashed(kNodes, /*replication=*/2, /*seed=*/13, shards,
                       std::make_unique<sim::FixedLatency>(hop_delay));
  FaultHarness graceful(kNodes, /*replication=*/2, /*seed=*/13, shards,
                        std::make_unique<sim::FixedLatency>(hop_delay));

  auto both_submit = [&](dht::NodeIndex owner, const std::string& text) {
    crashed.Submit(owner, text);
    graceful.Submit(owner, text);
  };
  auto advance_to = [&](uint64_t t) {
    crashed.RunUntil(t);
    graceful.RunUntil(t);
  };
  auto kill = [&](dht::NodeIndex v) {
    ASSERT_TRUE(crashed.engine.ScheduleCrash(crashed.Now(), v).ok());
    ASSERT_TRUE(graceful.engine.ScheduleLeave(graceful.Now(), v).ok());
    crashed.Run();
    graceful.Run();
  };
  // The node storing the value-level copy of `rel`.A = a.
  auto value_owner = [&](const std::string& rel, int64_t a) {
    core::KeyInterner& in = core::KeyInterner::Global();
    const core::KeyId key = in.InternValue(rel, "A", sql::Value::Int(a));
    return std::make_pair(key, crashed.network->SuccessorOf(in.ring_id(key)));
  };
  auto stored_tuples = [&](dht::NodeIndex n, core::KeyId key) -> uint32_t {
    const core::TupleBucket* b = crashed.engine.state_of(n).tuples.Find(key);
    return b == nullptr ? 0 : b->size;
  };

  both_submit(0, "SELECT R.B, S.C FROM R, S WHERE R.A=S.A");
  both_submit(1, "SELECT R.C, P.B FROM R, P WHERE R.B=P.B");
  both_submit(2, "SELECT DISTINCT S.B, P.C FROM S, P WHERE S.A=P.A");
  advance_to(kStep);

  Rng rng(515);
  const std::vector<dht::NodeIndex> drained_victims = {5, 9, 13};
  size_t kills = 0;
  const char* rels[] = {"R", "S", "P"};
  uint64_t t = kStep;
  for (int step = 0; step < 18; ++step) {
    const dht::NodeIndex publisher = rng.NextBounded(3);
    const std::string rel = rels[rng.NextBounded(3)];
    int64_t a = 5 + static_cast<int64_t>(rng.NextBounded(4));
    const int64_t b = 20 + static_cast<int64_t>(rng.NextBounded(3));
    const int64_t c = 30 + static_cast<int64_t>(rng.NextBounded(5));
    const bool kill_step = step % 6 == 5 && kills < 3;
    if (kill_step && timing == CrashTiming::kMirrorInFlight) {
      // Pick a value whose value-level store lands on a node that owns no
      // query and publishes nothing, step until the store has run, and
      // crash that node at once: its mirror of the store is still in
      // flight when the crash is applied.
      auto [key, victim] = value_owner(rel, a);
      while (victim <= 2) std::tie(key, victim) = value_owner(rel, ++a);
      const uint32_t before = stored_tuples(victim, key);
      crashed.PublishAsync(publisher, rel, {a, b, c});
      graceful.PublishAsync(publisher, rel, {a, b, c});
      uint64_t now = crashed.Now();
      while (stored_tuples(victim, key) == before) {
        ASSERT_LT(now, t + kStep) << "the store never reached node " << victim;
        advance_to(++now);
      }
      kill(victim);
      ++kills;
    } else {
      crashed.Publish(publisher, rel, {a, b, c});
      graceful.Publish(publisher, rel, {a, b, c});
      if (kill_step) kill(drained_victims[kills++]);
    }
    t += kStep;
    advance_to(t);
  }
  ASSERT_EQ(crashed.engine.churn_stats().crashes_applied, 3u);
  ASSERT_EQ(graceful.engine.churn_stats().leaves_applied, 3u);
  EXPECT_GT(crashed.engine.replication_stats().promotions_installed, 0u);

  // Same splice, same survivors.
  const auto alive = crashed.network->AliveNodes();
  ASSERT_EQ(alive, graceful.network->AliveNodes());

  for (dht::NodeIndex n : alive) {
    const auto got = StateDigest(crashed.engine, n, t);
    const auto want = StateDigest(graceful.engine, n, t);
    EXPECT_EQ(got, want) << "node " << n
                         << ": promoted state diverges from the graceful"
                            " handoff twin";
  }

  // Both twins keep their slab pools balanced through the churn.
  for (dht::NodeIndex n = 0; n < crashed.engine.num_nodes(); ++n) {
    const core::NodeState& st = crashed.engine.state_of(n);
    EXPECT_EQ(st.query_pool.acquired() - st.query_pool.released(),
              st.query_pool.live());
    EXPECT_EQ(st.altt_pool.acquired() - st.altt_pool.released(),
              st.altt_pool.live());
  }
}

TEST(PromotionPropertyTest, CrashedStateEqualsGracefulHandoffState) {
  for (uint32_t shards : {0u, 1u, 4u, 7u}) {
    ExpectCrashEqualsGracefulLeave(CrashTiming::kDrained, shards);
  }
}

TEST(PromotionPropertyTest, CrashWithMirrorInFlightEqualsGracefulHandoff) {
  // Regression: the promotion used to copy the survivor's replicas at the
  // crash barrier and drop the victim's last, still-in-flight mirror.
  for (uint32_t shards : {0u, 1u, 4u, 7u}) {
    ExpectCrashEqualsGracefulLeave(CrashTiming::kMirrorInFlight, shards);
  }
  // A zero-delay model: the sharded runtime defers every cross-node hop
  // to its one-tick lookahead.
  ExpectCrashEqualsGracefulLeave(CrashTiming::kMirrorInFlight, /*shards=*/4,
                                 /*hop_delay=*/0);
}

TEST(PromotionPropertyTest, ZeroDelayCrashInTheStoreTickKeepsTheStore) {
  // A store and a crash at the victim in the same tick, the crash applied
  // at the closing rendezvous of RunUntil(tick): the store's mirror leaves
  // at the crash time itself and, deferred to the one-tick lookahead,
  // lands one tick past the zero-delay model's maximum. The survivor
  // (ring successor) runs before the victim within a tick, so a notice due
  // then would promote before the mirror lands.
  FaultHarness h(16, /*replication=*/2, /*seed=*/7, /*shards=*/4,
                 std::make_unique<sim::FixedLatency>(0));
  h.Submit(0, "SELECT R.B, S.C FROM R, S WHERE R.A=S.A");
  core::KeyInterner& in = core::KeyInterner::Global();
  // A value key owned by a node whose ring neighbours both have lower
  // indices: the predecessor publishes (one direct hop, runs before the
  // victim's crash event) and the successor survives.
  core::KeyId key = core::kInvalidKeyId;
  dht::NodeIndex victim = 0, pred = 0, succ = 0;
  int64_t a = 0;
  for (; a < 4096; ++a) {
    key = in.InternValue("R", "A", sql::Value::Int(a));
    victim = h.network->SuccessorOf(in.ring_id(key));
    pred = h.network->node(victim).predecessor();
    succ = h.network->node(victim).successor();
    if (pred < victim && succ < victim) break;
  }
  ASSERT_LT(a, 4096);
  auto stored = [&](dht::NodeIndex n) -> uint32_t {
    const core::TupleBucket* b = h.engine.state_of(n).tuples.Find(key);
    return b == nullptr ? 0 : b->size;
  };

  h.PublishAsync(pred, "R", {a, 1, 2});
  const sim::SimTime t0 = h.Now();
  h.RunUntil(t0);
  ASSERT_EQ(stored(victim), 0u);
  ASSERT_TRUE(h.engine.ScheduleCrash(t0 + 1, victim).ok());
  h.RunUntil(t0 + 1);
  ASSERT_EQ(h.engine.churn_stats().crashes_applied, 1u);
  ASSERT_EQ(h.Now(), t0 + 1) << "the crash must close the store's tick";
  h.Run();

  EXPECT_EQ(h.engine.replication_stats().promotions_installed, 1u);
  EXPECT_EQ(stored(succ), 1u) << "the last mirror of the store was lost";
}

// ------------------------------------------------ delta mirrors ----

/// A random two-way equi-join over R, S and P.
std::string RandomJoinQuery(Rng& rng) {
  const char* rels[] = {"R", "S", "P"};
  const size_t x = rng.NextBounded(3);
  const size_t y = (x + 1 + rng.NextBounded(2)) % 3;
  const std::string a = rng.NextBounded(2) == 0 ? "A" : "B";
  const std::string lhs = rels[x];
  const std::string rhs = rels[y];
  return "SELECT " + lhs + ".B, " + rhs + ".C FROM " + lhs + ", " + rhs +
         " WHERE " + lhs + "." + a + "=" + rhs + "." + a;
}

/// Publishes `count` random tuples from nodes 0..2, twelve per tick, so
/// busy owners store (and mirror) several records within one tick.
void PublishBursts(FaultHarness& h, Rng& rng, int count) {
  const char* rels[] = {"R", "S", "P"};
  for (int i = 0; i < count; ++i) {
    const dht::NodeIndex publisher = rng.NextBounded(3);
    const std::string rel = rels[rng.NextBounded(3)];
    h.PublishAsync(publisher, rel,
                   {static_cast<int64_t>(rng.NextBounded(8)),
                    static_cast<int64_t>(rng.NextBounded(8)),
                    static_cast<int64_t>(rng.NextBounded(10))});
    if (i % 12 == 11) h.RunUntil(h.Now() + 3);
  }
  h.Run();
}

/// Property: under non-FIFO hop delays, every replica converges to its
/// owner's slice once the network is quiet, and crashing owners then
/// loses no answer. Busy owners mirror one key several times per tick, and
/// a mirror that lands late must never roll a replica back.
void ExpectDeltaMirrorsConverge(uint32_t replication, uint32_t shards) {
  SCOPED_TRACE("replication=" + std::to_string(replication) +
               " shards=" + std::to_string(shards));
  FaultHarness h(16, replication, /*seed=*/3, shards,
                 std::make_unique<sim::UniformLatency>(1, 8));
  Rng rng(4242);
  std::vector<uint64_t> queries;
  for (int i = 0; i < 40; ++i) {
    queries.push_back(h.Submit(rng.NextBounded(3), RandomJoinQuery(rng)));
  }
  PublishBursts(h, rng, 240);
  EXPECT_GT(ExpectReplicasConverged(h, replication), 0u);

  // Crash the three owners holding the most records, one at a time; none
  // owns a query or publishes, so every answer must still arrive.
  for (int kill = 0; kill < 3; ++kill) {
    dht::NodeIndex victim = dht::kInvalidNode;
    size_t most = 0;
    for (dht::NodeIndex n : h.network->AliveNodes()) {
      size_t records = 0;
      for (const auto& [key, v] : RecordParts(h.engine, n, h.Now())) {
        records += v.size();
      }
      if (n > 2 && records > most) {
        most = records;
        victim = n;
      }
    }
    ASSERT_NE(victim, dht::kInvalidNode);
    h.Crash(victim);
  }
  EXPECT_EQ(h.engine.replication_stats().promotions_installed, 3u);
  EXPECT_GT(ExpectReplicasConverged(h, replication), 0u);

  PublishBursts(h, rng, 120);
  for (uint64_t q : queries) {
    EXPECT_EQ(h.GotRows(q), h.OracleRows(q)) << "query " << q;
  }
  EXPECT_EQ(h.engine.replication_stats().answers_lost, 0u);
}

TEST(DeltaMirrorTest, ReplicasConvergeUnderNonFifoLatency) {
  for (uint32_t replication : {2u, 3u}) {
    for (uint32_t shards : {0u, 1u, 4u, 7u}) {
      ExpectDeltaMirrorsConverge(replication, shards);
    }
  }
}

/// Hops take one tick, or eight while `slow` is set.
class SwitchedLatency : public sim::LatencyModel {
 public:
  sim::SimTime Delay(Rng&) override { return slow ? 8 : 1; }
  sim::SimTime max_delay() const override { return 8; }
  bool slow = false;
};

/// The delta/base race, pinned serially at r=3. An owner O mirrors to its
/// successors {s1, s2}; a join between s1 and s2 makes O send s1 a base
/// (RefreshReplicasAround). With `delta_first`, the delta of a stored tuple
/// leaves before the base but lands after it: the base already holds the
/// tuple, so the delta must not add it again. Otherwise the base leaves
/// first but lands after the delta: the base must not drop the tuple. Then
/// O crashes, s1 promotes, and a matching tuple joins each stored tuple
/// exactly once, as the oracle says.
void ExpectDeltaAndBaseApplyOnce(bool delta_first) {
  SCOPED_TRACE(delta_first ? "delta first" : "base first");
  auto model = std::make_unique<SwitchedLatency>();
  SwitchedLatency* latency = model.get();
  FaultHarness h(16, /*replication=*/3, /*seed=*/5, /*shards=*/0,
                 std::move(model));
  // R's attribute keys look busy, so RIC indexes the query under S.A and
  // the S tuple's rewrite probes the R tuple's value key.
  for (int64_t i = 0; i < 64; ++i) {
    ASSERT_TRUE(h.engine
                    .ObserveStreamHistory(
                        "R", {sql::Value::Int(100 + i), sql::Value::Int(i),
                              sql::Value::Int(i)})
                    .ok());
  }
  const uint64_t q = h.Submit(0, "SELECT R.B, S.C FROM R, S WHERE R.A=S.A");

  // The value key R.A=a of an owner that neither owns the query nor
  // publishes, and a joiner position between its two replica targets.
  core::KeyInterner& in = core::KeyInterner::Global();
  int64_t a = 0;
  core::KeyId key = core::kInvalidKeyId;
  dht::NodeIndex owner = 0;
  for (; owner <= 2; ++a) {
    key = in.InternValue("R", "A", sql::Value::Int(a));
    owner = h.network->SuccessorOf(in.ring_id(key));
  }
  --a;
  const dht::NodeIndex s1 = h.network->node(owner).successor();
  const dht::NodeIndex s2 = h.network->node(s1).successor();
  dht::NodeId joiner;
  for (int i = 0;; ++i) {
    joiner = dht::NodeId::FromKey("race-join:" + std::to_string(i));
    if (dht::InIntervalOpenClosed(joiner, h.network->node(s1).id(),
                                  h.network->node(s2).id())) {
      break;
    }
  }
  auto stored = [&]() -> uint32_t {
    const core::TupleBucket* b = h.engine.state_of(owner).tuples.Find(key);
    return b == nullptr ? 0 : b->size;
  };
  // The key already holds a tuple, so the join's base carries the key.
  h.Publish(1, "R", {a, 5, 6});
  ASSERT_EQ(stored(), 1u);
  auto join_now = [&] {
    ASSERT_TRUE(h.engine.ScheduleJoin(h.Now(), joiner, 0).ok());
    h.RunUntil(h.Now());
    ASSERT_EQ(h.engine.churn_stats().joins_applied, 1u);
  };
  // The record of the next published tuple: ids count publications.
  const std::string tuple_record =
      "t:" + std::to_string(h.engine.history().size() + 1);
  auto s1_holds_tuple = [&] {
    return ReplicaDigest(h.engine, s1, key, h.Now()).find(tuple_record) !=
           std::string::npos;
  };

  latency->slow = true;
  if (delta_first) {
    h.PublishAsync(1, "R", {a, 7, 8});
    uint64_t now = h.Now();
    while (stored() == 1) h.RunUntil(++now);
    latency->slow = false;
    join_now();  // same tick: the base follows the slow delta out
    h.RunUntil(h.Now() + 2);
    EXPECT_TRUE(s1_holds_tuple()) << "the base should have landed first";
  } else {
    join_now();
    latency->slow = false;
    const sim::SimTime base_sent = h.Now();
    h.PublishAsync(1, "R", {a, 7, 8});
    h.RunUntil(base_sent + 7);
    ASSERT_EQ(stored(), 2u) << "the store must beat the slow base";
    EXPECT_TRUE(s1_holds_tuple()) << "the delta should have landed first";
  }
  h.Run();
  ASSERT_EQ(stored(), 2u);
  EXPECT_EQ(ReplicaDigest(h.engine, s1, key, h.Now()),
            JoinParts(RecordParts(h.engine, owner, h.Now()))[key]);
  EXPECT_GT(ExpectReplicasConverged(h, 3), 0u);

  h.Crash(owner);
  EXPECT_EQ(h.engine.replication_stats().promotions_installed, 1u);
  h.Publish(2, "S", {a, 9, 10});
  EXPECT_EQ(h.GotRows(q), h.OracleRows(q));
  EXPECT_EQ(h.GotRows(q).size(), 2u);
}

TEST(DeltaMirrorTest, DeltaLandingAfterItsBaseAppliesOnce) {
  ExpectDeltaAndBaseApplyOnce(/*delta_first=*/true);
}

TEST(DeltaMirrorTest, DeltaLandingBeforeAnOlderBaseSurvivesIt) {
  ExpectDeltaAndBaseApplyOnce(/*delta_first=*/false);
}

TEST(DeltaMirrorTest, ZeroDelayHandoffBaseCoversTheOldOwnersDelta) {
  // Every hop takes zero ticks, serially: a store at the old owner A, the
  // join that hands its key to J, and J's base all happen in one tick, so
  // only the sequence number orders A's delta before J's base. J's counter
  // starts below A's; the install moves it past A's, or the replica both
  // owners' mirrors reach at r=3 would hold the tuple twice.
  FaultHarness h(16, /*replication=*/3, /*seed=*/11, /*shards=*/0,
                 std::make_unique<sim::FixedLatency>(0));
  h.Submit(0, "SELECT R.B, S.C FROM R, S WHERE R.A=S.A");
  core::KeyInterner& in = core::KeyInterner::Global();
  int64_t a = 0;
  core::KeyId key = core::kInvalidKeyId;
  dht::NodeIndex owner = 0;
  for (; owner <= 2; ++a) {
    key = in.InternValue("R", "A", sql::Value::Int(a));
    owner = h.network->SuccessorOf(in.ring_id(key));
  }
  --a;
  // A joiner between A's predecessor and the key takes the key from A.
  const dht::NodeId& pred =
      h.network->node(h.network->node(owner).predecessor()).id();
  dht::NodeId joiner;
  for (int i = 0;; ++i) {
    joiner = dht::NodeId::FromKey("handoff-join:" + std::to_string(i));
    if (dht::InIntervalOpenClosed(joiner, pred, h.network->node(owner).id()) &&
        dht::InIntervalOpenClosed(in.ring_id(key), pred, joiner)) {
      break;
    }
  }
  h.Publish(1, "R", {a, 5, 6});  // A mirrors the key before the race
  h.PublishAsync(1, "R", {a, 7, 8});
  const sim::SimTime t = h.Now();
  h.RunUntil(t);  // the store and its delta, all in tick t
  ASSERT_TRUE(h.engine.ScheduleJoin(t, joiner, 0).ok());
  h.Run();
  ASSERT_EQ(h.Now(), t);
  ASSERT_EQ(h.engine.churn_stats().handoffs_installed, 1u);
  const dht::NodeIndex new_owner = h.network->SuccessorOf(in.ring_id(key));
  ASSERT_NE(new_owner, owner);
  EXPECT_GT(ExpectReplicasConverged(h, 3), 0u);
  EXPECT_EQ(JoinParts(RecordParts(h.engine, new_owner, t))[key],
            "t:1|t:2|");
}

}  // namespace
}  // namespace rjoin
