// Tests of the batched ingest hot path: RJoinEngine::PublishBatch and
// ObserveStreamHistoryBulk must be observationally identical to the
// equivalent sequence of per-tuple calls — same answers, same message
// counts, same stored state — while error paths must leave no partial state.
//
// Also holds the answer-sink tests: the flat answer log and its lazily
// built answers() view must deliver exactly the rows, order and times a
// per-answer materializing sink would, serially and on the sharded runtime.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "core/engine.h"
#include "dht/chord_network.h"
#include "dht/transport.h"
#include "runtime/shard_router.h"
#include "runtime/sharded_runtime.h"
#include "sim/latency.h"
#include "sim/simulator.h"
#include "sql/evaluator.h"
#include "sql/schema.h"
#include "stats/metrics.h"
#include "workload/generator.h"

namespace rjoin::core {
namespace {

struct Harness {
  /// `shards` > 0 routes the engine through the sharded parallel runtime
  /// (the RJOIN_SHARDS path); 0 keeps the serial simulator.
  Harness(size_t nodes, EngineConfig cfg, uint64_t seed = 7,
          uint32_t shards = 0)
      : catalog(TestCatalog()),
        network(dht::ChordNetwork::Create(nodes, seed)),
        latency(std::make_unique<sim::FixedLatency>(1)),
        metrics(network->num_total()),
        transport(network.get(), &simulator, latency.get(), &metrics,
                  Rng(seed * 31)),
        engine(cfg, &catalog, network.get(), &transport, &simulator,
               &metrics) {
    if (shards > 0) {
      runtime = std::make_unique<runtime::ShardedRuntime>(
          runtime::ShardedRuntime::Options{
              .shards = shards,
              .lookahead = runtime::AutoRoundWidth(*latency)},
          network->num_total(), &metrics);
      router =
          std::make_unique<runtime::ShardRouter>(runtime.get(), seed * 31);
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

  static sql::Catalog TestCatalog() {
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

  sql::Catalog catalog;
  std::unique_ptr<dht::ChordNetwork> network;
  sim::Simulator simulator;
  std::unique_ptr<sim::LatencyModel> latency;
  stats::MetricsRegistry metrics;
  dht::Transport transport;
  RJoinEngine engine;
  // Declared last so worker threads join (and shard heaps drain into
  // still-live pools) before the rest of the stack is destroyed.
  std::unique_ptr<runtime::ShardedRuntime> runtime;
  std::unique_ptr<runtime::ShardRouter> router;
};

std::vector<sql::Value> Row(std::vector<int64_t> ints) {
  std::vector<sql::Value> vals;
  vals.reserve(ints.size());
  for (int64_t v : ints) vals.push_back(sql::Value::Int(v));
  return vals;
}

std::vector<std::string> SortedRowKeys(const std::vector<Answer>& answers) {
  std::vector<std::string> keys;
  keys.reserve(answers.size());
  for (const Answer& a : answers) {
    keys.push_back(std::to_string(a.query_id) + "/" +
                   sql::AnswerRowKey(a.row));
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

// The workload both harnesses of the equivalence tests run: two continuous
// joins, then the same tuple stream — via PublishTuple in one and
// PublishBatch in the other.
const char* kQueryRS = "SELECT R.B, S.B FROM R, S WHERE R.A = S.A";
const char* kQuerySP = "SELECT S.C, P.C FROM S, P WHERE S.B = P.B";

std::vector<std::pair<std::string, std::vector<int64_t>>> StreamRows() {
  return {
      {"R", {1, 10, 100}}, {"R", {2, 20, 200}}, {"R", {1, 11, 101}},
      {"S", {1, 5, 50}},   {"S", {2, 5, 51}},   {"S", {3, 6, 52}},
      {"P", {9, 5, 90}},   {"P", {9, 6, 91}},
  };
}

void RunQueries(Harness& h) {
  h.Submit(0, kQueryRS);
  h.Submit(1, kQuerySP);
}

TEST(PublishBatchTest, BatchOfOneEqualsPublishTuple) {
  EngineConfig cfg;
  Harness single(64, cfg);
  Harness batched(64, cfg);
  RunQueries(single);
  RunQueries(batched);

  for (const auto& [rel, ints] : StreamRows()) {
    auto t = single.engine.PublishTuple(3, rel, Row(ints));
    ASSERT_TRUE(t.ok()) << t.status().ToString();
    single.simulator.Run();

    std::vector<std::vector<sql::Value>> rows;
    rows.push_back(Row(ints));
    auto b = batched.engine.PublishBatch(3, rel, std::move(rows));
    ASSERT_TRUE(b.ok()) << b.status().ToString();
    ASSERT_EQ(b->size(), 1u);
    batched.simulator.Run();

    EXPECT_EQ((*t)->seq_no, (*b)[0]->seq_no);
    EXPECT_EQ((*t)->pub_time, (*b)[0]->pub_time);
  }

  EXPECT_EQ(single.metrics.total_messages(), batched.metrics.total_messages());
  EXPECT_EQ(single.metrics.total_qpl(), batched.metrics.total_qpl());
  EXPECT_EQ(single.metrics.total_storage(), batched.metrics.total_storage());
  EXPECT_EQ(single.engine.CountStoredTuples(),
            batched.engine.CountStoredTuples());
  EXPECT_EQ(single.engine.CountStoredQueries(),
            batched.engine.CountStoredQueries());
  EXPECT_FALSE(single.engine.answers().empty());
  EXPECT_EQ(SortedRowKeys(single.engine.answers()),
            SortedRowKeys(batched.engine.answers()));
}

TEST(PublishBatchTest, WholeBatchEqualsSequentialPublishes) {
  EngineConfig cfg;
  Harness single(64, cfg);
  Harness batched(64, cfg);
  RunQueries(single);
  RunQueries(batched);

  // Sequential publishes without intermediate Run(): the messages enter the
  // network exactly as one batch per relation would send them.
  for (const auto& [rel, ints] : StreamRows()) {
    if (rel != "R") continue;
    ASSERT_TRUE(single.engine.PublishTuple(3, rel, Row(ints)).ok());
  }
  std::vector<std::vector<sql::Value>> r_rows;
  for (const auto& [rel, ints] : StreamRows()) {
    if (rel == "R") r_rows.push_back(Row(ints));
  }
  auto b = batched.engine.PublishBatch(3, "R", std::move(r_rows));
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  EXPECT_EQ(b->size(), 3u);

  single.simulator.Run();
  batched.simulator.Run();

  // Sequence numbers continue from the same counter in the same order.
  EXPECT_EQ((*b)[0]->seq_no + 1, (*b)[1]->seq_no);
  EXPECT_EQ((*b)[1]->seq_no + 1, (*b)[2]->seq_no);

  EXPECT_EQ(single.metrics.total_messages(), batched.metrics.total_messages());
  EXPECT_EQ(single.metrics.total_qpl(), batched.metrics.total_qpl());
  EXPECT_EQ(single.engine.CountStoredTuples(),
            batched.engine.CountStoredTuples());
  EXPECT_EQ(SortedRowKeys(single.engine.answers()),
            SortedRowKeys(batched.engine.answers()));
}

TEST(PublishBatchTest, UnknownRelationPublishesNothing) {
  EngineConfig cfg;
  cfg.keep_history = true;
  Harness h(64, cfg);
  const uint64_t msgs_before = h.metrics.total_messages();

  std::vector<std::vector<sql::Value>> rows;
  rows.push_back(Row({1, 2, 3}));
  auto b = h.engine.PublishBatch(0, "NoSuchRelation", std::move(rows));
  ASSERT_FALSE(b.ok());
  EXPECT_EQ(b.status().code(), StatusCode::kNotFound);

  h.simulator.Run();
  EXPECT_EQ(h.metrics.total_messages(), msgs_before);
  EXPECT_TRUE(h.engine.history().empty());
}

TEST(PublishBatchTest, ArityMismatchAnywhereInBatchIsAtomic) {
  EngineConfig cfg;
  cfg.keep_history = true;
  Harness h(64, cfg);

  // First row valid, second row too short: nothing may be published, no
  // sequence number may be consumed.
  std::vector<std::vector<sql::Value>> rows;
  rows.push_back(Row({1, 2, 3}));
  rows.push_back(Row({4, 5}));
  auto b = h.engine.PublishBatch(0, "R", std::move(rows));
  ASSERT_FALSE(b.ok());
  EXPECT_EQ(b.status().code(), StatusCode::kInvalidArgument);

  h.simulator.Run();
  EXPECT_EQ(h.metrics.total_messages(), 0u);
  EXPECT_EQ(h.engine.CountStoredTuples(), 0u);
  EXPECT_TRUE(h.engine.history().empty());

  // The failed batch must not have burned sequence numbers: the next publish
  // starts where a fresh engine would.
  auto t = h.engine.PublishTuple(0, "R", Row({1, 2, 3}));
  ASSERT_TRUE(t.ok());
  EXPECT_EQ((*t)->seq_no, 1u);
}

TEST(PublishBatchTest, EmptyBatchIsANoOp) {
  EngineConfig cfg;
  Harness h(64, cfg);
  auto b = h.engine.PublishBatch(0, "R", {});
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  EXPECT_TRUE(b->empty());
  h.simulator.Run();
  EXPECT_EQ(h.metrics.total_messages(), 0u);
}

TEST(PublishBatchTest, AttrReplicationShardsCycleLikeSequentialPublishes) {
  EngineConfig cfg;
  cfg.attr_replication = 3;
  Harness single(64, cfg);
  Harness batched(64, cfg);
  Harness unreplicated(64, EngineConfig{});
  RunQueries(single);
  RunQueries(batched);
  RunQueries(unreplicated);

  for (const auto& [rel, ints] : StreamRows()) {
    ASSERT_TRUE(single.engine.PublishTuple(3, rel, Row(ints)).ok());
    ASSERT_TRUE(unreplicated.engine.PublishTuple(3, rel, Row(ints)).ok());
  }
  // Same global publication order (R rows, then S, then P) in both engines,
  // so seq_no % replication — the shard assignment — matches row for row.
  for (const auto& [rel, ints] : StreamRows()) {
    std::vector<std::vector<sql::Value>> one;
    one.push_back(Row(ints));
    ASSERT_TRUE(batched.engine.PublishBatch(3, rel, std::move(one)).ok());
  }
  single.simulator.Run();
  batched.simulator.Run();
  unreplicated.simulator.Run();

  EXPECT_EQ(single.metrics.total_messages(), batched.metrics.total_messages());
  EXPECT_EQ(single.metrics.total_qpl(), batched.metrics.total_qpl());
  EXPECT_EQ(SortedRowKeys(single.engine.answers()),
            SortedRowKeys(batched.engine.answers()));
  // Replication spreads load but must not duplicate or lose answers; the
  // batched path under r=3 delivers the same rows as an unreplicated engine.
  EXPECT_EQ(SortedRowKeys(batched.engine.answers()),
            SortedRowKeys(unreplicated.engine.answers()));
}

TEST(ObserveBulkTest, BulkObservationsDriveTheSameRicDecisions) {
  // Prime two engines with identical stream history — one per tuple, one
  // bulk — then submit the same query under the RIC policy. If the recorded
  // rates differ, the indexing decision and therefore the traffic differ.
  EngineConfig cfg;
  cfg.policy = PlannerPolicy::kRic;
  Harness per_tuple(64, cfg);
  Harness bulk(64, cfg);

  std::vector<std::vector<sql::Value>> hot_r, cold_s;
  for (int64_t i = 0; i < 40; ++i) hot_r.push_back(Row({1, i, i}));
  for (int64_t i = 0; i < 2; ++i) cold_s.push_back(Row({1, i, i}));

  for (const auto& row : hot_r) {
    ASSERT_TRUE(per_tuple.engine.ObserveStreamHistory("R", row).ok());
  }
  for (const auto& row : cold_s) {
    ASSERT_TRUE(per_tuple.engine.ObserveStreamHistory("S", row).ok());
  }
  ASSERT_TRUE(bulk.engine.ObserveStreamHistoryBulk("R", hot_r).ok());
  ASSERT_TRUE(bulk.engine.ObserveStreamHistoryBulk("S", cold_s).ok());

  RunQueries(per_tuple);
  RunQueries(bulk);
  EXPECT_EQ(per_tuple.metrics.total_messages(), bulk.metrics.total_messages());
  EXPECT_EQ(per_tuple.metrics.total_ric_messages(),
            bulk.metrics.total_ric_messages());
  EXPECT_EQ(per_tuple.engine.CountStoredQueries(),
            bulk.engine.CountStoredQueries());
}

TEST(ObserveBulkTest, BulkValidatesEveryRowFirst) {
  EngineConfig cfg;
  cfg.policy = PlannerPolicy::kRic;
  Harness h(64, cfg);

  std::vector<std::vector<sql::Value>> rows;
  rows.push_back(Row({1, 2, 3}));
  rows.push_back(Row({1}));  // Bad arity.
  auto s = h.engine.ObserveStreamHistoryBulk("R", rows);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(h.engine.ObserveStreamHistoryBulk("NoSuchRelation", {}).code(),
            StatusCode::kNotFound);

  // Nothing was recorded: an engine that never observed anything makes the
  // same (rate-blind) indexing decision and spends the same traffic.
  Harness fresh(64, cfg);
  h.Submit(0, kQueryRS);
  fresh.Submit(0, kQueryRS);
  EXPECT_EQ(h.metrics.total_messages(), fresh.metrics.total_messages());
}

TEST(TupleGeneratorBatchTest, NextBatchGroupsByRelationPreservingOrder) {
  workload::WorkloadParams params;
  params.num_relations = 4;
  params.num_attributes = 3;
  auto catalog = workload::BuildCatalog(params);

  // Two generators with the same seed: Next() defines the reference stream.
  workload::TupleGenerator reference(params, catalog.get(), 17);
  workload::TupleGenerator grouped(params, catalog.get(), 17);

  constexpr size_t kN = 100;
  std::vector<workload::TupleGenerator::Draw> draws;
  for (size_t i = 0; i < kN; ++i) draws.push_back(reference.Next());
  const auto batches = grouped.NextBatch(kN);

  size_t total = 0;
  for (const auto& b : batches) {
    EXPECT_FALSE(b.rows.empty());
    total += b.rows.size();
    // Row order within a group follows draw order; verify against the
    // reference stream filtered to this relation.
    size_t next = 0;
    for (const auto& d : draws) {
      if (d.relation != b.relation) continue;
      ASSERT_LT(next, b.rows.size());
      EXPECT_EQ(d.values.size(), b.rows[next].size());
      for (size_t v = 0; v < d.values.size(); ++v) {
        EXPECT_EQ(d.values[v].ToKeyString(), b.rows[next][v].ToKeyString());
      }
      ++next;
    }
    EXPECT_EQ(next, b.rows.size());
  }
  EXPECT_EQ(total, kN);

  // Relations must not repeat across groups.
  for (size_t i = 0; i < batches.size(); ++i) {
    for (size_t j = i + 1; j < batches.size(); ++j) {
      EXPECT_NE(batches[i].relation, batches[j].relation);
    }
  }
}

// ------------------------------------------- sharded-runtime equivalence --
//
// Batched ingest must stay observationally identical to per-tuple ingest
// when the engine runs on the sharded parallel runtime (the RJOIN_SHARDS
// path): same MultiSend envelope chains, same emission-seq draws, same
// barrier schedule.

/// Runs the standard two-query workload with `batched` choosing the ingest
/// path, on `shards` workers (0 = serial).
std::unique_ptr<Harness> RunShardedWorkload(bool batched, uint32_t shards) {
  auto harness =
      std::make_unique<Harness>(64, EngineConfig{}, /*seed=*/7, shards);
  Harness& h = *harness;
  RunQueries(h);
  if (batched) {
    // Group consecutive same-relation rows exactly as the stream emits
    // them, preserving the global publication order.
    const auto stream = StreamRows();
    size_t i = 0;
    while (i < stream.size()) {
      const std::string rel = stream[i].first;
      std::vector<std::vector<sql::Value>> rows;
      while (i < stream.size() && stream[i].first == rel) {
        rows.push_back(Row(stream[i].second));
        ++i;
      }
      EXPECT_TRUE(h.engine.PublishBatch(3, rel, std::move(rows)).ok());
      h.Run();
    }
  } else {
    for (const auto& [rel, ints] : StreamRows()) {
      EXPECT_TRUE(h.engine.PublishTuple(3, rel, Row(ints)).ok());
      h.Run();
    }
  }
  return harness;
}

void ExpectEquivalent(Harness& a, Harness& b) {
  EXPECT_EQ(a.metrics.total_messages(), b.metrics.total_messages());
  EXPECT_EQ(a.metrics.total_qpl(), b.metrics.total_qpl());
  EXPECT_EQ(a.metrics.total_storage(), b.metrics.total_storage());
  EXPECT_EQ(a.engine.CountStoredTuples(), b.engine.CountStoredTuples());
  EXPECT_EQ(a.engine.CountStoredQueries(), b.engine.CountStoredQueries());
  EXPECT_FALSE(a.engine.answers().empty());
  EXPECT_EQ(SortedRowKeys(a.engine.answers()),
            SortedRowKeys(b.engine.answers()));
}

TEST(ShardedBatchTest, BatchEqualsSinglesOnTheShardedRuntime) {
  auto singles = RunShardedWorkload(/*batched=*/false, /*shards=*/4);
  auto batched = RunShardedWorkload(/*batched=*/true, /*shards=*/4);
  ExpectEquivalent(*singles, *batched);
}

TEST(ShardedBatchTest, ShardedBatchMatchesOneShardBitIdentically) {
  auto s1p = RunShardedWorkload(/*batched=*/true, /*shards=*/1);
  auto s4p = RunShardedWorkload(/*batched=*/true, /*shards=*/4);
  Harness& s1 = *s1p;
  Harness& s4 = *s4p;
  ExpectEquivalent(s1, s4);
  // Bit-identical, not just same multiset: delivery order and times match.
  ASSERT_EQ(s1.engine.answers().size(), s4.engine.answers().size());
  for (size_t i = 0; i < s1.engine.answers().size(); ++i) {
    EXPECT_EQ(s1.engine.answers()[i].query_id,
              s4.engine.answers()[i].query_id);
    EXPECT_EQ(s1.engine.answers()[i].delivered_at,
              s4.engine.answers()[i].delivered_at);
    EXPECT_EQ(sql::AnswerRowKey(s1.engine.answers()[i].row),
              sql::AnswerRowKey(s4.engine.answers()[i].row));
  }
}

TEST(ShardedBatchTest, ObserveBulkMatchesSinglesOnTheShardedRuntime) {
  // Identical stream history — bulk vs per-tuple — then the same RIC-driven
  // workload on 4 shards: any rate divergence changes indexing decisions
  // and therefore traffic.
  Harness bulk(64, EngineConfig{}, /*seed=*/7, /*shards=*/4);
  Harness singles(64, EngineConfig{}, /*seed=*/7, /*shards=*/4);

  std::vector<std::pair<std::string, std::vector<int64_t>>> history = {
      {"R", {1, 10, 100}}, {"R", {1, 11, 101}}, {"S", {1, 5, 50}},
      {"S", {2, 5, 51}},   {"P", {9, 5, 90}},
  };
  std::vector<std::vector<sql::Value>> r_rows, s_rows, p_rows;
  for (const auto& [rel, ints] : history) {
    ASSERT_TRUE(singles.engine.ObserveStreamHistory(rel, Row(ints)).ok());
    auto& bucket = rel == "R" ? r_rows : (rel == "S" ? s_rows : p_rows);
    bucket.push_back(Row(ints));
  }
  ASSERT_TRUE(bulk.engine.ObserveStreamHistoryBulk("R", r_rows).ok());
  ASSERT_TRUE(bulk.engine.ObserveStreamHistoryBulk("S", s_rows).ok());
  ASSERT_TRUE(bulk.engine.ObserveStreamHistoryBulk("P", p_rows).ok());

  RunQueries(bulk);
  RunQueries(singles);
  for (const auto& [rel, ints] : StreamRows()) {
    ASSERT_TRUE(bulk.engine.PublishTuple(3, rel, Row(ints)).ok());
    ASSERT_TRUE(singles.engine.PublishTuple(3, rel, Row(ints)).ok());
    bulk.Run();
    singles.Run();
  }
  ExpectEquivalent(bulk, singles);
}

// ------------------------------------------------------ flat answer log --
//
// The engine stores answers as flat records in an append-only log and
// materializes sql::Value rows only when answers()/AnswersFor() ask.
// AnswerTap is the reference: a sink that materializes every AnswerDeliver
// at delivery — the representation the log replaced — keyed by the
// delivering event and merged in EventKey order, as the per-shard staging
// merges at barriers.

class AnswerTap : public dht::MessageHandler {
 public:
  explicit AnswerTap(Harness* h) : h_(h) { h->transport.set_handler(this); }

  void HandleMessage(dht::NodeIndex self, MessageTask&& task) override {
    if (task.kind() == MessageKind::kAnswerDeliver) Record(task.answer());
    h_->engine.HandleMessage(self, std::move(task));
  }

  /// Every delivered row in delivery order (DISTINCT duplicates included).
  std::vector<Answer> Rows() {
    std::lock_guard<std::mutex> lock(mu_);
    std::stable_sort(
        staged_.begin(), staged_.end(),
        [](const auto& a, const auto& b) { return a.first < b.first; });
    std::vector<Answer> rows;
    for (const auto& [key, answer] : staged_) rows.push_back(answer);
    return rows;
  }

 private:
  void Record(const AnswerDeliver& m) {
    const bool sharded = h_->runtime != nullptr;
    Answer a{m.query_id, {},
             sharded ? h_->runtime->Now() : h_->simulator.Now()};
    for (uint16_t i = 0; i < m.row_len; ++i) {
      a.row.push_back(ValueInterner::Global().value(m.row[i]));
    }
    // Serially every key is equal and the stable sort keeps arrival order.
    const runtime::EventKey key =
        sharded ? h_->runtime->CurrentEventKey() : runtime::EventKey{};
    std::lock_guard<std::mutex> lock(mu_);
    staged_.emplace_back(key, std::move(a));
  }

  Harness* h_;
  std::mutex mu_;
  std::vector<std::pair<runtime::EventKey, Answer>> staged_;
};

std::string AnswerKey(const Answer& a) {
  return std::to_string(a.query_id) + "@" + std::to_string(a.delivered_at) +
         "/" + sql::AnswerRowKey(a.row);
}

std::vector<std::string> AnswerKeys(const std::vector<Answer>& answers) {
  std::vector<std::string> keys;
  for (const Answer& a : answers) keys.push_back(AnswerKey(a));
  return keys;
}

/// Submits two- and three-way joins (DISTINCT when asked), each from two
/// owners, and publishes a seeded stream over a 3-value domain in bursts
/// of four tuples per run: joins complete often, rows repeat, and answers
/// of one run land on every shard at interleaved times. Returns the query
/// ids.
std::vector<uint64_t> RunDenseWorkload(Harness& h, bool distinct,
                                       int tuples) {
  const std::string select = distinct ? "SELECT DISTINCT " : "SELECT ";
  const std::vector<std::string> queries = {
      select + "R.B, S.B FROM R, S WHERE R.A = S.A",
      select + "S.C, P.C FROM S, P WHERE S.B = P.B",
      select + "R.A, P.C FROM R, S, P WHERE R.A = S.A AND S.B = P.B",
  };
  const dht::NodeIndex owners[] = {60, 5, 40, 20, 50, 30};
  std::vector<uint64_t> ids;
  for (size_t i = 0; i < 2 * queries.size(); ++i) {
    ids.push_back(h.Submit(owners[i], queries[i % queries.size()]));
  }
  const char* relations[] = {"R", "S", "P"};
  Rng rng(11);
  for (int i = 0; i < tuples; ++i) {
    const char* rel = relations[rng.NextBounded(3)];
    const auto row = Row({rng.NextInt(0, 2), rng.NextInt(0, 2),
                          rng.NextInt(0, 2)});
    EXPECT_TRUE(
        h.engine.PublishTuple(static_cast<dht::NodeIndex>(i % 64), rel, row)
            .ok());
    if (i % 4 == 3) h.Run();
  }
  h.Run();
  return ids;
}

class AnswerLogTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(AnswerLogTest, ViewEqualsMaterializedDeliveriesInOrder) {
  Harness h(64, EngineConfig{}, /*seed=*/7, /*shards=*/GetParam());
  AnswerTap tap(&h);
  RunDenseWorkload(h, /*distinct=*/false, /*tuples=*/40);
  const std::vector<Answer> expected = tap.Rows();
  ASSERT_GT(expected.size(), 50u);
  EXPECT_EQ(AnswerKeys(h.engine.answers()), AnswerKeys(expected));
}

TEST_P(AnswerLogTest, SecondCallAppendsOnlyNewDeliveries) {
  Harness h(64, EngineConfig{}, /*seed=*/7, /*shards=*/GetParam());
  AnswerTap tap(&h);
  RunDenseWorkload(h, /*distinct=*/false, /*tuples=*/25);
  const std::vector<Answer>& first = h.engine.answers();
  const std::vector<std::string> first_keys = AnswerKeys(first);
  ASSERT_FALSE(first_keys.empty());
  // Nothing delivered in between: the same view, not rebuilt.
  const Answer* data = first.data();
  EXPECT_EQ(&h.engine.answers(), &first);
  EXPECT_EQ(h.engine.answers().data(), data);

  for (const auto& [rel, ints] : StreamRows()) {
    ASSERT_TRUE(h.engine.PublishTuple(5, rel, Row(ints)).ok());
    h.Run();
  }
  const std::vector<Answer> all = tap.Rows();
  ASSERT_GT(all.size(), first_keys.size());
  const std::vector<std::string> second = AnswerKeys(h.engine.answers());
  EXPECT_EQ(second, AnswerKeys(all));
  // The rows the first call returned are still the view's prefix.
  EXPECT_TRUE(std::equal(first_keys.begin(), first_keys.end(),
                         second.begin()));
}

TEST_P(AnswerLogTest, AnswersForIsAFilterOfAnswers) {
  Harness h(64, EngineConfig{}, /*seed=*/7, /*shards=*/GetParam());
  const std::vector<uint64_t> ids =
      RunDenseWorkload(h, /*distinct=*/false, /*tuples=*/40);
  size_t total = 0;
  for (uint64_t id : ids) {
    std::vector<Answer> filtered;
    for (const Answer& a : h.engine.answers()) {
      if (a.query_id == id) filtered.push_back(a);
    }
    EXPECT_FALSE(filtered.empty()) << "query " << id;
    EXPECT_EQ(AnswerKeys(h.engine.AnswersFor(id)), AnswerKeys(filtered));
    total += filtered.size();
  }
  EXPECT_EQ(total, h.engine.answers().size());
  EXPECT_TRUE(h.engine.AnswersFor(9999).empty());
}

TEST_P(AnswerLogTest, DistinctSuppressionIsExact) {
  Harness h(64, EngineConfig{}, /*seed=*/7, /*shards=*/GetParam());
  AnswerTap tap(&h);
  RunDenseWorkload(h, /*distinct=*/true, /*tuples=*/40);
  // Reference dedup over the materialized rows: the first delivery of each
  // (query, row) is kept, every later one is suppressed.
  std::set<std::string> seen;
  std::vector<std::string> kept;
  uint64_t suppressed = 0;
  for (const Answer& a : tap.Rows()) {
    const std::string row =
        std::to_string(a.query_id) + "/" + sql::AnswerRowKey(a.row);
    if (seen.insert(row).second) {
      kept.push_back(AnswerKey(a));
    } else {
      ++suppressed;
    }
  }
  ASSERT_GT(suppressed, 0u);
  EXPECT_EQ(h.engine.distinct_suppressed(), suppressed);
  EXPECT_EQ(AnswerKeys(h.engine.answers()), kept);
}

INSTANTIATE_TEST_SUITE_P(Shards, AnswerLogTest, ::testing::Values(0, 1, 4, 7),
                         [](const auto& info) {
                           return info.param == 0
                                      ? std::string("Serial")
                                      : "S" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace rjoin::core
