// Tests of the interned key-id plane: KeyInterner identity/lookup
// semantics, concurrent intern/lookup (run under TSan in CI), the
// KeyIdMap flat container, ProjectionSet fingerprint semantics (including
// the deliberate collision behavior), node-state slab pooling, and
// id-stability plus bit-identical answers across shard counts.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/answer_log.h"
#include "core/engine.h"
#include "core/interner.h"
#include "core/key_map.h"
#include "core/node_state.h"
#include "core/slab_pool.h"
#include "dht/chord_network.h"
#include "dht/transport.h"
#include "runtime/shard_router.h"
#include "runtime/sharded_runtime.h"
#include "sim/latency.h"
#include "sim/simulator.h"
#include "sql/parser.h"
#include "sql/schema.h"
#include "stats/metrics.h"

namespace rjoin::core {
namespace {

// ------------------------------------------------------------ KeyInterner --

TEST(KeyInternerTest, InternIsIdempotent) {
  KeyInterner in;
  const KeyId a = in.Intern("alpha", Level::kAttribute);
  const KeyId b = in.Intern("beta", Level::kValue);
  EXPECT_NE(a, b);
  EXPECT_EQ(in.Intern("alpha", Level::kAttribute), a);
  EXPECT_EQ(in.Intern("beta", Level::kValue), b);
  EXPECT_EQ(in.size(), 2u);
  EXPECT_EQ(in.stats().misses, 2u);
  EXPECT_EQ(in.stats().hits, 2u);
}

TEST(KeyInternerTest, EntriesRoundTrip) {
  KeyInterner in;
  const KeyId a = in.InternAttribute("R", "A");
  EXPECT_EQ(in.text(a), AttributeKey("R", "A").text);
  EXPECT_EQ(in.level(a), Level::kAttribute);
  EXPECT_EQ(in.ring_id(a), KeyRingId(AttributeKey("R", "A")));

  const KeyId v = in.InternValue("R", "A", sql::Value::Int(42));
  EXPECT_EQ(in.text(v), ValueKey("R", "A", sql::Value::Int(42)).text);
  EXPECT_EQ(in.level(v), Level::kValue);
  EXPECT_EQ(in.ring_id(v), KeyRingId(ValueKey("R", "A", sql::Value::Int(42))));

  // The boundary IndexKey form interns to the same id as the builders.
  EXPECT_EQ(in.Intern(AttributeKey("R", "A")), a);
}

TEST(KeyInternerTest, FindMissesWithoutInserting) {
  KeyInterner in;
  EXPECT_EQ(in.Find("never-interned"), kInvalidKeyId);
  EXPECT_EQ(in.size(), 0u);
  const KeyId a = in.Intern("present", Level::kAttribute);
  EXPECT_EQ(in.Find("present"), a);
}

TEST(KeyInternerTest, SameTextAtBothLevelsStaysDistinct) {
  // A sharded attribute key's text can equal a value key's text: with
  // shard suffix "#3", AttributeKey(R, A)+shard 3 and ValueKey(R, A, "#3")
  // concatenate identically. Identity is the (text, level) pair, so the
  // two intern to distinct ids that share a ring position — exactly the
  // seed's IndexKey{text, level} semantics.
  KeyInterner in;
  const KeyId attr = in.WithShard(in.InternAttribute("R", "A"), 3);
  const KeyId value = in.InternValue("R", "A", sql::Value::Str("#3"));
  ASSERT_EQ(in.text(attr), in.text(value));
  EXPECT_NE(attr, value);
  EXPECT_EQ(in.level(attr), Level::kAttribute);
  EXPECT_EQ(in.level(value), Level::kValue);
  EXPECT_EQ(in.ring_id(attr), in.ring_id(value));
  EXPECT_EQ(in.Find(in.text(attr), Level::kAttribute), attr);
  EXPECT_EQ(in.Find(in.text(value), Level::kValue), value);
}

TEST(KeyInternerTest, WithShardMatchesBoundaryForm) {
  KeyInterner in;
  const KeyId base = in.InternAttribute("R", "A");
  EXPECT_EQ(in.WithShard(base, 0), base);
  const KeyId s3 = in.WithShard(base, 3);
  EXPECT_EQ(in.text(s3), ShardedAttributeKey("R", "A", 3).text);
  EXPECT_EQ(in.level(s3), Level::kAttribute);
}

// The structured (attribute KeyId, ValueId) form must name the very key
// the text form names: same id, same text, same ring position.
TEST(KeyInternerTest, StructuredValueKeyEqualsTextForm) {
  const std::vector<sql::Value> values = {
      sql::Value::Int(-7),
      sql::Value::Int(INT64_MIN),
      sql::Value::Int(INT64_MAX),
      sql::Value::Int(int64_t{1} << 40),
      sql::Value::Str("#3"),  // looks like a shard suffix
      sql::Value::Str("plain"),
  };
  KeyInterner in;
  const KeyId attr = in.InternAttribute("R", "A");
  for (const sql::Value& v : values) {
    SCOPED_TRACE(v.ToDisplayString());
    const ValueId vid = ValueInterner::Global().Intern(v);
    const KeyId by_text = in.InternValue("R", "A", v);
    EXPECT_EQ(in.InternValue(attr, vid), by_text);
    EXPECT_EQ(in.InternValue(attr, vid), by_text);  // the hit path
    EXPECT_EQ(in.level(by_text), Level::kValue);
    EXPECT_EQ(in.ring_id(by_text), KeyRingId(ValueKey("R", "A", v)));
  }
  // "#3" at value level stays distinct from the sharded attribute key with
  // the same text, as in SameTextAtBothLevelsStaysDistinct.
  const KeyId hash3 =
      in.InternValue(attr, ValueInterner::Global().Intern(
                               sql::Value::Str("#3")));
  EXPECT_NE(hash3, in.WithShard(attr, 3));
  EXPECT_EQ(in.text(hash3), in.text(in.WithShard(attr, 3)));
}

TEST(KeyInternerTest, StructuredFirstSightInternsTheTextKey) {
  KeyInterner in;
  const KeyId attr = in.InternAttribute("S", "B");
  const sql::Value v = sql::Value::Int(-123456789012);
  const KeyId id = in.InternValue(attr, ValueInterner::Global().Intern(v));
  EXPECT_EQ(in.size(), 2u);
  EXPECT_EQ(in.text(id), ValueKey("S", "B", v).text);
  EXPECT_EQ(in.level(id), Level::kValue);
  EXPECT_EQ(in.ring_id(id), KeyRingId(ValueKey("S", "B", v)));
  EXPECT_EQ(in.InternValue("S", "B", v), id);
  EXPECT_EQ(in.Find(ValueKey("S", "B", v).text, Level::kValue), id);
  // Int(3) and Str("3") render the same key text, so both pairs name the
  // one key whichever is seen first.
  const KeyId int3 =
      in.InternValue(attr, ValueInterner::Global().Intern(sql::Value::Int(3)));
  EXPECT_EQ(in.InternValue(attr, ValueInterner::Global().Intern(
                                     sql::Value::Str("3"))),
            int3);
  EXPECT_EQ(in.size(), 3u);
}

// Threads racing the first sight of the same pairs (across pair-index
// resizes) all get one id per pair. Run under TSan in CI.
TEST(KeyInternerTest, ConcurrentStructuredFirstSightAgrees) {
  KeyInterner in;
  const KeyId attr = in.InternAttribute("R", "C");
  constexpr int kThreads = 4;
  constexpr int kValues = 3000;
  std::vector<ValueId> vids;
  for (int k = 0; k < kValues; ++k) {
    vids.push_back(ValueInterner::Global().Intern(
        sql::Value::Str("race-" + std::to_string(k))));
  }
  std::vector<std::vector<KeyId>> ids(kThreads,
                                      std::vector<KeyId>(kValues, 0));
  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) {
      }
      for (int k = 0; k < kValues; ++k) {
        ids[t][k] = in.InternValue(attr, vids[k]);
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 1; t < kThreads; ++t) EXPECT_EQ(ids[t], ids[0]);
  EXPECT_EQ(in.size(), static_cast<uint32_t>(kValues + 1));
  for (int k = 0; k < kValues; ++k) {
    EXPECT_EQ(ids[0][k],
              in.Find(in.text(attr) + kKeySep + "race-" + std::to_string(k),
                      Level::kValue));
  }
}

TEST(KeyInternerTest, SurvivesIndexResizes) {
  // Push well past the initial 1024-slot index so reads span resizes.
  KeyInterner in;
  std::vector<KeyId> ids;
  for (int i = 0; i < 5000; ++i) {
    ids.push_back(in.Intern("key-" + std::to_string(i), Level::kValue));
  }
  EXPECT_EQ(in.size(), 5000u);
  for (int i = 0; i < 5000; ++i) {
    EXPECT_EQ(in.Find("key-" + std::to_string(i)), ids[i]);
    EXPECT_EQ(in.text(ids[i]), "key-" + std::to_string(i));
  }
}

// The concurrency shape the sharded runtime produces: many threads
// interning overlapping key sets (mostly hits) while also looking up
// entries interned by other threads. Run under TSan in CI.
TEST(KeyInternerTest, ConcurrentInternAndLookupAgree) {
  KeyInterner in;
  constexpr int kThreads = 8;
  constexpr int kKeys = 2000;  // spans several index resizes
  std::vector<std::vector<KeyId>> ids(kThreads,
                                      std::vector<KeyId>(kKeys, 0));
  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) {
      }
      for (int k = 0; k < kKeys; ++k) {
        const std::string text = "shared-" + std::to_string(k);
        const KeyId id = in.Intern(text, Level::kValue);
        ids[t][k] = id;
        // Entry fields must be fully visible through the published id.
        EXPECT_EQ(in.text(id), text);
        EXPECT_EQ(in.Find(text), id);
      }
    });
  }
  for (auto& th : threads) th.join();
  // Every thread resolved every text to the same id.
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(ids[t], ids[0]);
  }
  EXPECT_EQ(in.size(), static_cast<uint32_t>(kKeys));
}

// The churn shape: while worker-like threads keep interning/looking up the
// steady-state key population, a "churn" thread interns waves of brand-new
// keys (the joiner's re-sharded attribute keys and fresh value keys churn
// traces produce) and immediately resolves them. Mixes first-sight inserts
// with concurrent hits across index resizes. Run under TSan in CI.
TEST(KeyInternerTest, ChurnInterleavedInternAndLookupStress) {
  KeyInterner in;
  constexpr int kWorkers = 6;
  constexpr int kSteadyKeys = 600;
  constexpr int kChurnWaves = 40;
  constexpr int kKeysPerWave = 50;
  std::atomic<int> ready{0};
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kWorkers; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < kWorkers + 1) {
      }
      uint64_t rounds = 0;
      // At least one full round regardless of scheduling (a single-core
      // host can let the churn thread finish first).
      do {
        for (int k = 0; k < kSteadyKeys; ++k) {
          const std::string text = "steady-" + std::to_string(k);
          const KeyId id = in.Intern(text, Level::kValue);
          EXPECT_EQ(in.Find(text, Level::kValue), id);
          EXPECT_EQ(in.text(id), text);
        }
        ++rounds;
      } while (!stop.load(std::memory_order_acquire));
      EXPECT_GT(rounds, 0u) << "worker " << t << " never completed a round";
    });
  }
  std::thread churn([&] {
    ready.fetch_add(1);
    while (ready.load() < kWorkers + 1) {
    }
    for (int wave = 0; wave < kChurnWaves; ++wave) {
      for (int k = 0; k < kKeysPerWave; ++k) {
        const std::string text =
            "churn-" + std::to_string(wave) + "-" + std::to_string(k);
        const KeyId id = in.Intern(text, Level::kAttribute);
        EXPECT_EQ(in.Find(text, Level::kAttribute), id);
        EXPECT_EQ(in.level(id), Level::kAttribute);
      }
    }
    stop.store(true, std::memory_order_release);
  });
  churn.join();
  for (auto& th : threads) th.join();
  EXPECT_EQ(in.size(),
            static_cast<uint32_t>(kSteadyKeys + kChurnWaves * kKeysPerWave));
}

// ------------------------------------------------- handoff emission order --

TEST(HandoffOrderTest, KeysInRangeSortedIgnoresMapInsertionOrder) {
  // ROADMAP note: KeyIdMap iteration order is unspecified — nothing
  // ordering-sensitive may consume it. Handoff extraction therefore sorts
  // by ring id: two maps holding the same key set in reversed insertion
  // order must emit the identical sequence.
  KeyInterner in;
  std::vector<KeyId> keys;
  for (int i = 0; i < 64; ++i) {
    keys.push_back(in.Intern("hk-" + std::to_string(i), Level::kValue));
  }
  KeyIdMap<uint64_t> forward, backward;
  for (size_t i = 0; i < keys.size(); ++i) forward[keys[i]] = i;
  for (size_t i = keys.size(); i-- > 0;) backward[keys[i]] = i;

  const dht::NodeId whole_low = dht::NodeId::FromKey("range-anchor");
  const auto a =
      KeysInRangeSorted(forward, in, whole_low, whole_low);  // whole ring
  const auto b = KeysInRangeSorted(backward, in, whole_low, whole_low);
  ASSERT_EQ(a.size(), keys.size());
  EXPECT_EQ(a, b) << "emission depends on KeyIdMap insertion order";
  // And the order really is ring order.
  for (size_t i = 1; i < a.size(); ++i) {
    EXPECT_TRUE(in.ring_id(a[i - 1]) < in.ring_id(a[i]) ||
                (in.ring_id(a[i - 1]) == in.ring_id(a[i]) && a[i - 1] < a[i]))
        << "not sorted by ring id at " << i;
  }
}

TEST(HandoffOrderTest, KeysInRangeSortedFiltersByRingInterval) {
  KeyInterner in;
  KeyIdMap<int> m;
  std::vector<KeyId> keys;
  for (int i = 0; i < 200; ++i) {
    const KeyId id = in.Intern("fk-" + std::to_string(i), Level::kValue);
    m[id] = i;
    keys.push_back(id);
  }
  // Pick an interval (low, high] from two interned ring positions.
  std::vector<KeyId> sorted = keys;
  SortKeysByRingId(&sorted, in);
  const dht::NodeId low = in.ring_id(sorted[40]);
  const dht::NodeId high = in.ring_id(sorted[120]);
  const auto got = KeysInRangeSorted(m, in, low, high);
  // (low, high]: sorted[41..120] inclusive — 80 keys.
  ASSERT_EQ(got.size(), 80u);
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], sorted[41 + i]);
    EXPECT_TRUE(dht::InIntervalOpenClosed(in.ring_id(got[i]), low, high));
  }
  // Same-level same-ring-text tie break: both levels of one text emit
  // attribute first (Level::kAttribute < Level::kValue).
  KeyIdMap<int> tied;
  const KeyId attr = in.Intern("tie-text", Level::kAttribute);
  const KeyId value = in.Intern("tie-text", Level::kValue);
  tied[value] = 1;
  tied[attr] = 2;
  const dht::NodeId anchor = in.ring_id(attr);
  const auto pair = KeysInRangeSorted(tied, in, anchor, anchor);
  ASSERT_EQ(pair.size(), 2u);
  EXPECT_EQ(pair[0], attr);
  EXPECT_EQ(pair[1], value);
}

// --------------------------------------------------------------- KeyIdMap --

TEST(KeyIdMapTest, InsertFindGrow) {
  KeyIdMap<uint64_t> m;
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.Find(7), nullptr);
  for (KeyId k = 0; k < 1000; ++k) m[k] = k * 3;
  EXPECT_EQ(m.size(), 1000u);
  for (KeyId k = 0; k < 1000; ++k) {
    ASSERT_NE(m.Find(k), nullptr);
    EXPECT_EQ(*m.Find(k), k * 3);
  }
  EXPECT_EQ(m.Find(1000), nullptr);

  uint64_t sum = 0;
  size_t visited = 0;
  m.ForEach([&](KeyId, uint64_t& v) {
    sum += v;
    ++visited;
  });
  EXPECT_EQ(visited, 1000u);
  EXPECT_EQ(sum, 3u * (999u * 1000u) / 2u);

  m.clear();
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.Find(3), nullptr);
  m[3] = 9;  // reusable after clear
  EXPECT_EQ(*m.Find(3), 9u);
}

// ---------------------------------------------------------- ProjectionSet --

TEST(ProjectionSetTest, DeduplicatesAndGrowsPastInline) {
  ProjectionSet set;
  for (uint64_t i = 1; i <= 100; ++i) {
    EXPECT_TRUE(set.Insert(i * 0x9e3779b9u)) << i;
  }
  EXPECT_EQ(set.size(), 100u);
  for (uint64_t i = 1; i <= 100; ++i) {
    EXPECT_FALSE(set.Insert(i * 0x9e3779b9u)) << i;
  }
  EXPECT_EQ(set.size(), 100u);
}

TEST(ProjectionSetTest, ZeroFingerprintIsValid) {
  ProjectionSet set;
  EXPECT_TRUE(set.Insert(0));
  EXPECT_FALSE(set.Insert(0));
  EXPECT_EQ(set.size(), 1u);
}

// The documented collision trade-off: the set stores 64-bit fingerprints,
// not projections, so two *different* projections that fingerprint to the
// same 64-bit value are treated as one — the second is suppressed. (The
// engine's DISTINCT rule accepts this ~n^2/2^64 false-suppression rate in
// exchange for never storing projection strings.)
TEST(ProjectionSetTest, CollidingFingerprintsAreSuppressed) {
  ProjectionSet set;
  const uint64_t fp = 0xdeadbeefcafef00dull;
  EXPECT_TRUE(set.Insert(fp));   // projection A
  EXPECT_FALSE(set.Insert(fp));  // different projection B, same fingerprint
  EXPECT_EQ(set.size(), 1u);

  // The zero alias is part of the same trade: a projection hashing to 0
  // and one hashing to the alias constant collide.
  EXPECT_TRUE(set.Insert(0));
  EXPECT_FALSE(set.Insert(0x9e3779b97f4a7c15ull));
}

// A non-DISTINCT stored query never inserts, so its set must cost one
// null pointer and no heap memory, whatever is moved around.
TEST(ProjectionSetTest, EmptySetOwnsNoHeapMemory) {
  static_assert(sizeof(ProjectionSet) == sizeof(void*));
  const stats::AllocCounts before = stats::ReadAllocCounts();
  std::vector<ProjectionSet> sets(8);
  ProjectionSet moved = std::move(sets[3]);
  sets[5] = std::move(moved);
  const stats::AllocCounts after = stats::ReadAllocCounts();
  // Only the vector's own buffer.
  uint64_t allocs = 0;
  for (int p = 0; p < stats::kNumAllocPlanes; ++p) {
    allocs += after.counts[p] - before.counts[p];
  }
  EXPECT_EQ(allocs, 1u);
  for (const ProjectionSet& set : sets) {
    EXPECT_FALSE(set.allocated());
    EXPECT_EQ(set.size(), 0u);
  }
  EXPECT_TRUE(sets[0].Insert(7));
  EXPECT_TRUE(sets[0].allocated());
  EXPECT_EQ(sets[0].size(), 1u);
}

// ---------------------------------------------------------------- AnswerLog --

TEST(AnswerLogTest, RecordsRoundTripAcrossBlocks) {
  // Enough records of varying width to fill several 64 KiB blocks.
  AnswerLog log;
  constexpr int kRecords = 20000;
  ValueId row[kMaxSelectItems];
  for (int i = 0; i < kRecords; ++i) {
    const uint16_t len = static_cast<uint16_t>(1 + i % kMaxSelectItems);
    for (uint16_t c = 0; c < len; ++c) row[c] = static_cast<ValueId>(i + c);
    log.Append(uint64_t{1} << 40 | static_cast<uint64_t>(i),
               uint64_t{3} << 35 | static_cast<uint64_t>(i) * 7, row, len);
  }
  EXPECT_EQ(log.size(), static_cast<size_t>(kRecords));
  int i = 0;
  log.ForEach([&](const AnswerLog::Record& r) {
    const uint16_t len = static_cast<uint16_t>(1 + i % kMaxSelectItems);
    EXPECT_EQ(r.query_id, uint64_t{1} << 40 | static_cast<uint64_t>(i));
    EXPECT_EQ(r.delivered_at,
              uint64_t{3} << 35 | static_cast<uint64_t>(i) * 7);
    ASSERT_EQ(r.row_len, len);
    for (uint16_t c = 0; c < len; ++c) {
      EXPECT_EQ(r.row[c], static_cast<ValueId>(i + c));
    }
    ++i;
  });
  EXPECT_EQ(i, kRecords);
}

TEST(AnswerLogTest, CursorResumesAndClearReusesBlocks) {
  AnswerLog log;
  const ValueId row[2] = {5, 6};
  AnswerLog::Cursor cursor;
  std::vector<uint64_t> seen;
  auto read = [&] {
    log.ReadFrom(&cursor, [&](const AnswerLog::Record& r) {
      seen.push_back(r.query_id);
    });
  };
  read();
  EXPECT_TRUE(seen.empty());
  // Resume across a block boundary: 3000 two-column records fill more
  // than one block.
  for (uint64_t q = 0; q < 3000; ++q) {
    log.Append(q, q, row, 2);
    if (q % 1000 == 999) read();
  }
  read();  // nothing new
  ASSERT_EQ(seen.size(), 3000u);
  for (uint64_t q = 0; q < 3000; ++q) EXPECT_EQ(seen[q], q);

  // Clear keeps the blocks: refilling to the same size allocates nothing.
  log.Clear();
  EXPECT_EQ(log.size(), 0u);
  size_t records = 0;
  log.ForEach([&](const AnswerLog::Record&) { ++records; });
  EXPECT_EQ(records, 0u);
  const stats::AllocCounts before = stats::ReadAllocCounts();
  for (uint64_t q = 0; q < 3000; ++q) log.Append(q + 1, q, row, 2);
  const stats::AllocCounts after = stats::ReadAllocCounts();
  EXPECT_EQ(after.pool_capacity(), before.pool_capacity());
  uint64_t expect = 1;
  log.ForEach([&](const AnswerLog::Record& r) {
    EXPECT_EQ(r.query_id, expect++);
  });
  EXPECT_EQ(expect, 3001u);
}

// ---------------------------------------------------------------- SlabPool --

TEST(SlabPoolTest, RecyclesThroughFreelist) {
  SlabPool<AlttEntry> pool(4);  // tiny slabs to force growth
  std::vector<uint32_t> idx;
  for (int i = 0; i < 10; ++i) idx.push_back(pool.Allocate());
  EXPECT_EQ(pool.allocated(), 10u);
  EXPECT_EQ(pool.live(), 10u);
  for (uint32_t i : idx) pool.Free(i);
  EXPECT_EQ(pool.live(), 0u);
  // Steady state: re-allocation reuses freed nodes, no new storage.
  for (int i = 0; i < 10; ++i) pool.Allocate();
  EXPECT_EQ(pool.allocated(), 10u);
  EXPECT_EQ(pool.live(), 10u);
}

TEST(SlabPoolTest, FreeDropsOwnedResources) {
  SlabPool<AlttEntry> pool;
  const uint32_t idx = pool.Allocate();
  TuplePool& tuples = TuplePool::Global();
  const uint64_t released_before = tuples.stats().released;
  TupleRef tuple =
      tuples.Make("R", {sql::Value::Int(1)}, 1, 1, 1);
  pool.at(idx).value = AlttEntry{std::move(tuple), 5};
  pool.Free(idx);
  EXPECT_EQ(tuples.stats().released, released_before + 1)
      << "Free must release the tuple reference back to the pool";
}

// ------------------------------------- id stability across shard counts --

struct Harness {
  explicit Harness(size_t nodes, uint32_t shards = 0, uint64_t seed = 7)
      : catalog(TestCatalog()),
        network(dht::ChordNetwork::Create(nodes, seed)),
        latency(1),
        metrics(network->num_total()),
        transport(network.get(), &simulator, &latency, &metrics,
                  Rng(seed * 31)),
        engine(EngineConfig{}, &catalog, network.get(), &transport,
               &simulator, &metrics) {
    if (shards > 0) {
      runtime = std::make_unique<runtime::ShardedRuntime>(
          runtime::ShardedRuntime::Options{shards, 1}, network->num_total(),
          &metrics);
      router = std::make_unique<runtime::ShardRouter>(runtime.get(),
                                                      seed * 31);
      transport.set_router(router.get());
      engine.AttachRuntime(runtime.get());
    }
  }

  static sql::Catalog TestCatalog() {
    sql::Catalog c;
    EXPECT_TRUE(c.AddRelation(sql::Schema("R", {"A", "B"})).ok());
    EXPECT_TRUE(c.AddRelation(sql::Schema("S", {"A", "B"})).ok());
    return c;
  }

  void Run() {
    if (runtime != nullptr) {
      runtime->Run();
    } else {
      simulator.Run();
    }
  }

  sql::Catalog catalog;
  std::unique_ptr<dht::ChordNetwork> network;
  sim::Simulator simulator;
  sim::FixedLatency latency;
  stats::MetricsRegistry metrics;
  dht::Transport transport;
  RJoinEngine engine;
  // Declared last: workers join before transport/simulator go away.
  std::unique_ptr<runtime::ShardedRuntime> runtime;
  std::unique_ptr<runtime::ShardRouter> router;
};

std::vector<sql::Value> Row(int64_t a, int64_t b) {
  return {sql::Value::Int(a), sql::Value::Int(b)};
}

/// One fixed workload: a join query plus an interleaved R/S stream.
void RunWorkload(Harness& h) {
  auto parsed = sql::Parser::Parse(
      "SELECT R.B, S.B FROM R, S WHERE R.A = S.A WINDOW 8 TUPLES");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_TRUE(h.engine.SubmitQuery(0, std::move(*parsed)).ok());
  h.Run();
  for (int i = 0; i < 48; ++i) {
    const char* rel = (i % 2 == 0) ? "R" : "S";
    ASSERT_TRUE(h.engine.PublishTuple(1, rel, Row(i % 5, i)).ok());
    h.Run();
  }
}

std::vector<std::string> AnswerStrings(const RJoinEngine& engine) {
  std::vector<std::string> out;
  for (const Answer& a : engine.answers()) {
    std::string s = std::to_string(a.query_id) + "@" +
                    std::to_string(a.delivered_at) + ":";
    for (const sql::Value& v : a.row) s += v.ToKeyString() + ",";
    out.push_back(std::move(s));
  }
  return out;
}

TEST(KeyIdStabilityTest, IdsAndAnswersInvariantAcrossShardCounts) {
  // The workload's key texts, resolved through the global interner before,
  // between, and after runs at different shard counts: ids must never
  // change once assigned (append-only interner), and the engines must
  // produce bit-identical answer streams — id values never order behavior.
  KeyInterner& in = KeyInterner::Global();

  Harness serial(24, /*shards=*/0);
  RunWorkload(serial);
  const std::vector<std::string> serial_answers =
      AnswerStrings(serial.engine);
  ASSERT_FALSE(serial_answers.empty());

  std::vector<std::string> texts;
  std::vector<KeyId> ids_before;
  for (const char* attr : {"A", "B"}) {
    for (const char* rel : {"R", "S"}) {
      texts.push_back(AttributeKey(rel, attr).text);
      for (int v = 0; v < 5; ++v) {
        texts.push_back(ValueKey(rel, attr, sql::Value::Int(v)).text);
      }
    }
  }
  for (const std::string& t : texts) ids_before.push_back(in.Find(t));
  // The attribute-level keys of the workload must exist by now.
  EXPECT_NE(in.Find(AttributeKey("R", "A").text), kInvalidKeyId);

  for (uint32_t shards : {1u, 4u, 7u}) {
    Harness sharded(24, shards);
    RunWorkload(sharded);
    EXPECT_EQ(AnswerStrings(sharded.engine), serial_answers)
        << "answers diverged at S=" << shards;
    for (size_t i = 0; i < texts.size(); ++i) {
      EXPECT_EQ(in.Find(texts[i]), ids_before[i])
          << "id of '" << texts[i] << "' changed at S=" << shards;
    }
  }
}

}  // namespace
}  // namespace rjoin::core
