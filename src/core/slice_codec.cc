#include "core/slice_codec.h"

#include <algorithm>
#include <map>
#include <memory>
#include <utility>

#include "core/engine.h"
#include "stats/alloc_tracker.h"

namespace rjoin::core {

namespace {

constexpr uint32_t kNil = SlabPool<StoredQuery>::kNil;

/// ApplyBase's per-record-kind step: the base's records (at `version`),
/// then the held records newer than the base, in their arrival order.
template <typename T>
void Rebase(std::vector<Versioned<T>>& held, std::vector<T>& base,
            MirrorVersion version) {
  std::vector<Versioned<T>> merged;
  merged.reserve(base.size() + held.size());
  for (T& rec : base) merged.push_back({version, std::move(rec)});
  for (Versioned<T>& r : held) {
    if (r.version > version) merged.push_back(std::move(r));
  }
  held.swap(merged);
}

/// TakeUpTo's per-record-kind step: moves records versioned at or before
/// time `t` into `out`, keeping the rest in order.
template <typename T>
void TakeRecords(std::vector<Versioned<T>>& held, uint64_t t,
                 std::vector<T>* out, uint64_t* max_seq) {
  size_t kept = 0;
  for (Versioned<T>& r : held) {
    if (r.version.at <= t) {
      *max_seq = std::max(*max_seq, r.version.seq);
      out->push_back(std::move(r.record));
    } else {
      if (&held[kept] != &r) held[kept] = std::move(r);
      ++kept;
    }
  }
  held.resize(kept);
}

}  // namespace

void ReplicaStore::Entry::ApplyDelta(ReplicaUpdate& delta) {
  if (delta.version <= base) return;  // The base already holds the record.
  switch (delta.record) {
    case MirrorRecord::kQuery:
      queries.push_back({delta.version, std::move(delta.query)});
      return;  // Storing a residual leaves the rate bucket alone.
    case MirrorRecord::kTuple:
      tuples.push_back({delta.version, std::move(delta.tuple)});
      break;
    case MirrorRecord::kAltt:
      altt.push_back(
          {delta.version, AlttEntry{std::move(delta.tuple), delta.expires}});
      break;
    case MirrorRecord::kRate:
      break;
  }
  OfferRate(delta.version, delta.rate_epoch, delta.rate_current,
            delta.rate_previous);
}

void ReplicaStore::Entry::OfferRate(MirrorVersion version, uint64_t epoch,
                                    uint64_t current, uint64_t previous) {
  if (version <= rate) return;
  rate = version;
  rate_epoch = epoch;
  rate_current = current;
  rate_previous = previous;
}

void ReplicaStore::Entry::ApplyBase(KeySlice&& slice, MirrorVersion version) {
  if (version <= base) return;  // A newer base already covers this one.
  base = version;
  Rebase(queries, slice.queries, version);
  Rebase(tuples, slice.tuples, version);
  Rebase(altt, slice.altt, version);
  OfferRate(version, slice.rate_epoch, slice.rate_current,
            slice.rate_previous);
}

KeySlice ReplicaStore::Entry::TakeUpTo(KeyId key, uint64_t t,
                                       uint64_t* max_seq) {
  KeySlice s;
  s.key = key;
  TakeRecords(queries, t, &s.queries, max_seq);
  TakeRecords(tuples, t, &s.tuples, max_seq);
  TakeRecords(altt, t, &s.altt, max_seq);
  if (rate.at <= t) {
    *max_seq = std::max(*max_seq, rate.seq);
    s.rate_epoch = std::exchange(rate_epoch, 0);
    s.rate_current = std::exchange(rate_current, 0);
    s.rate_previous = std::exchange(rate_previous, 0);
  }
  return s;
}

uint64_t SliceBatch::ApproxBytes() const {
  uint64_t bytes = 64;  // header: from + range + emission time
  for (const KeySlice& s : slices) {
    bytes += s.queries.size() * 64;
    for (const TupleRef& t : s.tuples) bytes += 32 + 8 * (t ? t->arity : 0);
    for (const AlttEntry& e : s.altt) {
      bytes += 40 + 8 * (e.tuple ? e.tuple->arity : 0);
    }
    if (s.has_rate()) bytes += 32;
    if (kind == SliceKind::kMirror) bytes += 4;  // interned u32 key id
  }
  return bytes;
}

KeySlice Extract(NodeState& st, KeyId key, ExtractMode mode, uint64_t now) {
  const bool move = mode == ExtractMode::kMove;
  KeySlice s;
  s.key = key;
  if (BucketList* bucket = st.queries.Find(key)) {
    for (uint32_t cur = bucket->head; cur != kNil;) {
      StoredQuery& sq = st.query_pool.at(cur).value;
      const uint32_t next = st.query_pool.at(cur).next;
      if (!move) {
        s.queries.push_back(sq.residual);
      } else {
        if (sq.residual.origin()->spec().distinct) {
          st.distinct_fingerprints.Erase(StoredFingerprint(key, sq.residual));
        }
        s.queries.push_back(std::move(sq.residual));
        s.projections.push_back(std::move(sq.seen_projections));
        BucketUnlink(st.query_pool, *bucket, kNil, cur);
      }
      cur = next;
    }
  }
  if (TupleBucket* bucket = st.tuples.Find(key)) {
    TupleBucketForEach(st.tuple_chunks, *bucket, [&](TupleRef& t) {
      s.tuples.push_back(move ? std::move(t) : t);
    });
    if (move) TupleBucketClear(st.tuple_chunks, *bucket);
  }
  if (BucketList* dq = st.altt.Find(key)) {
    for (uint32_t cur = dq->head; cur != kNil;) {
      AlttEntry& e = st.altt_pool.at(cur).value;
      const uint32_t next = st.altt_pool.at(cur).next;
      // Expired entries stay behind: the owner's amortized expiry would
      // have discarded them anyway.
      if (e.expires >= now) s.altt.push_back(move ? std::move(e) : e);
      if (move) BucketUnlink(st.altt_pool, *dq, kNil, cur);
      cur = next;
    }
  }
  if (move) {
    st.rates.ExtractKey(key, &s.rate_epoch, &s.rate_current, &s.rate_previous);
  } else {
    st.rates.PeekKey(key, &s.rate_epoch, &s.rate_current, &s.rate_previous);
  }
  return s;
}

void RJoinEngine::InstallQuery(dht::NodeIndex self, KeyId key,
                               StoredQuery&& sq) {
  NodeState& st = state(self);
  Metrics().AddQpl(self);
  const bool distinct = sq.residual.origin()->spec().distinct;
  uint64_t fp = 0;
  if (distinct) {
    fp = StoredFingerprint(key, sq.residual);
    // An identical rewritten query was already indexed at the new owner
    // after the responsibility change: set semantics keep one copy.
    if (st.distinct_fingerprints.Contains(fp)) return;
  }

  // Probe the destination's pre-handoff state, exactly as OnEval probes on
  // arrival: tuples that landed here after the ring change but before this
  // batch are precisely the ones the moved query has never seen. (Moved
  // tuples of the same batch install after the queries, so they are not
  // visible here — those pairs were already evaluated at the old owner.)
  ProbeStoredState(self, key, sq);

  if (IsExpired(sq.residual)) return;  // Window closed while in flight.
  if (distinct) st.distinct_fingerprints.Insert(fp);
  AppendStoredQuery(st, st.queries[key], std::move(sq));
  Metrics().AddStore(self);
}

void RJoinEngine::Install(dht::NodeIndex self, SliceBatch& b) {
  NodeState& st = state(self);
  const uint64_t now = Now();
  const bool promoted = b.kind == SliceKind::kPromote;
  // Every mirror this node sends from here on orders after the sender's.
  st.mirror_seq = std::max(st.mirror_seq, b.seq);

  // One decision per slice: install it here, or — when responsibility
  // moved again while the batch was in flight (chained churn) — re-forward
  // it to the current owner (std::map: deterministic emission order).
  std::map<dht::NodeIndex, std::unique_ptr<SliceBatch>> reforward;
  size_t kept = 0;
  for (size_t i = 0; i < b.slices.size(); ++i) {
    KeySlice& slice = b.slices[i];
    const dht::NodeIndex owner =
        network_->SuccessorOf(interner_->ring_id(slice.key));
    if (owner == self) {
      if (i != kept) b.slices[kept] = std::move(slice);
      ++kept;
      continue;
    }
    std::unique_ptr<SliceBatch>& out = reforward[owner];
    if (out == nullptr) {
      out = std::make_unique<SliceBatch>();
      out->from = self;
      out->range = b.range;
      out->emitted_at = b.emitted_at;  // recovery measures the full trip
      out->seq = st.mirror_seq;
      out->kind = b.kind;  // a split promotion is still a promotion
    }
    out->slices.push_back(std::move(slice));
  }
  b.slices.resize(kept);

  // Snapshot pre-handoff stored-query counts for every key that receives
  // tuples or ALTT entries: the moved-tuple trigger walk below must visit
  // pre-existing queries only (moved queries append behind them in pass A,
  // and every moved-vs-moved pair was already evaluated at the old owner).
  // Counts are offset by one so 0 still means "key not snapshotted".
  KeyIdMap<uint32_t> pre_counts;
  for (const KeySlice& s : b.slices) {
    if (s.tuples.empty() && s.altt.empty()) continue;
    uint32_t n = 0;
    if (const BucketList* bucket = st.queries.Find(s.key)) {
      for (uint32_t cur = bucket->head; cur != kNil;
           cur = st.query_pool.at(cur).next) {
        ++n;
      }
    }
    pre_counts[s.key] = n + 1;
  }

  // The limited trigger walk shared by moved tuples and moved ALTT
  // entries: visit at most *budget pre-existing stored queries; drops
  // shrink the budget so later moved tuples stay inside the pre-existing
  // prefix.
  auto trigger_preexisting = [&](KeyId key, const TupleRef& tuple) {
    uint32_t* budget = pre_counts.Find(key);
    BucketList* bucket = st.queries.Find(key);
    if (budget == nullptr || bucket == nullptr) return;
    uint32_t remaining = *budget - 1;  // counts are stored offset by one
    uint32_t prev = kNil;
    uint32_t cur = bucket->head;
    while (cur != kNil && remaining > 0) {
      --remaining;
      StoredQuery& sq = st.query_pool.at(cur).value;
      const uint32_t next = st.query_pool.at(cur).next;
      if (WindowClosedByTuple(sq.residual, tuple)) {
        // A dropped pre-existing entry shrinks the prefix later moved
        // tuples may visit (the offset keeps the slot >= 1).
        DropStoredQuery(self, key, *bucket, prev, cur);
        --(*budget);
        cur = next;
        continue;
      }
      TryTrigger(self, sq, key, tuple);
      prev = cur;
      cur = next;
    }
  };

  // The passes keep the batch's record order: all queries, then tuples,
  // then ALTT entries, then rates. The triggers a tuple fires depend on
  // which queries are already stored, so this order is part of the
  // answer stream.
  uint64_t installed_records = 0;
  // Pass A: stored queries (probe pre-handoff tuples/ALTT, then store).
  for (KeySlice& s : b.slices) {
    for (size_t i = 0; i < s.queries.size(); ++i) {
      ++installed_records;
      ProjectionSet seen;
      if (i < s.projections.size()) seen = std::move(s.projections[i]);
      InstallQuery(self, s.key,
                   StoredQuery{std::move(s.queries[i]), std::move(seen)});
    }
  }
  // Pass B: value-level tuples (trigger pre-existing queries, then store).
  for (KeySlice& s : b.slices) {
    for (TupleRef& t : s.tuples) {
      Metrics().AddQpl(self);
      ++installed_records;
      trigger_preexisting(s.key, t);
      {
        stats::AllocScope plane(stats::AllocPlane::kTuple);
        TupleBucketAppend(st.tuple_chunks, st.tuples[s.key], std::move(t));
      }
      Metrics().AddStore(self);
    }
  }
  // Pass C: ALTT entries — same walk, then append with the ORIGINAL
  // absolute expiry, so the Section 4 Delta bound spans the handoff.
  for (KeySlice& s : b.slices) {
    for (AlttEntry& e : s.altt) {
      if (e.expires < now) continue;  // Delta elapsed in flight.
      Metrics().AddQpl(self);
      ++installed_records;
      trigger_preexisting(s.key, e.tuple);
      stats::AllocScope plane(stats::AllocPlane::kTuple);
      const uint32_t idx = BucketAppend(st.altt_pool, st.altt[s.key]);
      st.altt_pool.at(idx).value = std::move(e);
    }
  }
  // Pass D: rates merge (RIC observations migrate; see docs/churn.md).
  for (const KeySlice& s : b.slices) {
    if (!s.has_rate()) continue;
    if (promoted) ++installed_records;
    st.rates.MergeSlice(s.key, s.rate_epoch, s.rate_current,
                        s.rate_previous);
  }

  ChurnSinkCounters counters;
  const uint64_t trip_ticks = now >= b.emitted_at ? now - b.emitted_at : 0;
  if (promoted) {
    // Promotions use the handoff install but count on their own ledger:
    // their latency is the crash-recovery metric, not handoff recovery.
    AddReplicaCounters(ReplicaSinkCounters{
        .promotions_installed = 1, .promoted_records = installed_records});
    RecordPromotionTicks(trip_ticks);
  } else {
    counters.installed = 1;
    counters.recovery_ticks = trip_ticks;
  }
  for (auto& [owner, out] : reforward) {
    ++counters.reforwarded;
    transport_->SendDirect(self, owner,
                           MessageTask(StateHandoff{std::move(out)}));
  }
  AddChurnCounters(counters);

  // Replication: the moved (or promoted) slices now live here, so their
  // owner changed — send this node's successors a base for each, replacing
  // the stale copies, so a later crash promotes current data, not the
  // pre-churn snapshot. Slices travel in ring order, so the bases go out in
  // ring order too.
  if (config_.replication <= 1) return;
  for (const KeySlice& s : b.slices) {
    const bool live_altt =
        std::any_of(s.altt.begin(), s.altt.end(),
                    [&](const AlttEntry& e) { return e.expires >= now; });
    if (!s.queries.empty() || !s.tuples.empty() || live_altt ||
        s.has_rate()) {
      MirrorBase(self, s.key);
    }
  }
}

void RJoinEngine::PromoteReplicas(dht::NodeIndex owner,
                                  const dht::KeyRange& range,
                                  uint64_t crash_time) {
  ReplicaStore* store = state(owner).replicas.get();
  if (store == nullptr) return;  // The survivor crashed too: nothing left.
  SliceBatch batch;
  batch.from = owner;
  batch.range = range;
  batch.emitted_at = crash_time;
  batch.kind = SliceKind::kPromote;
  for (KeyId key :
       KeysInRangeSorted(store->entries, *interner_, range.low, range.high)) {
    // Only records mirrored up to the crash are the victim's: newer ones
    // come from an owner that took the key over after the crash. Take,
    // don't copy: a second orphaned range overlapping this key (correlated
    // kills) must not promote the records twice.
    KeySlice slice =
        store->entries.Find(key)->TakeUpTo(key, crash_time, &batch.seq);
    if (!slice.empty()) batch.slices.push_back(std::move(slice));
  }
  if (batch.slices.empty()) return;
  // The survivor is the new owner: promotion is the graceful-leave install
  // (probe pre-existing state, keep ALTT expiries, merge rates, re-forward
  // keys that moved again), run in place.
  Install(owner, batch);
}

bool RJoinEngine::AcceptsMirror(dht::NodeIndex self, KeyId key,
                                dht::NodeIndex from) {
  if (crashed_[self]) return false;  // Mail to the dead.
  // A mirror for a key this node *owns* is stale by construction (mirrors
  // target the owner's successors, never the owner): ownership moved here
  // after it was emitted. The one exception is a crashed owner's last
  // mirrors: they land before the promotion notice runs here (ApplyCrash),
  // and the promotion installs them.
  return transport_->CachedSuccessorOf(key, interner_->ring_id(key)) !=
             self ||
         crashed_[from];
}

void RJoinEngine::OnReplicaUpdate(dht::NodeIndex self, ReplicaUpdate& msg) {
  if (!AcceptsMirror(self, msg.key, msg.from)) return;
  // The replica store grows like a pool: per-key vectors double, so a
  // delta costs no allocation of its own.
  stats::AllocScope plane(stats::AllocPlane::kPoolCapacity);
  Replicas(self).entries[msg.key].ApplyDelta(msg);
}

void RJoinEngine::OnReplicaBase(dht::NodeIndex self, SliceBatch& b) {
  KeySlice& slice = b.slices.front();
  if (!AcceptsMirror(self, slice.key, b.from)) return;
  stats::AllocScope plane(stats::AllocPlane::kPoolCapacity);
  Replicas(self).entries[slice.key].ApplyBase(
      std::move(slice), MirrorVersion{b.emitted_at, b.seq});
}

}  // namespace rjoin::core
