#ifndef RJOIN_CORE_SLICE_CODEC_H_
#define RJOIN_CORE_SLICE_CODEC_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/interner.h"
#include "core/key.h"
#include "core/key_map.h"
#include "core/messages.h"
#include "core/node_state.h"
#include "core/residual.h"
#include "core/tuple_ref.h"
#include "dht/chord_network.h"
#include "dht/id.h"

namespace rjoin::core {

// ---------------------------------------------------------------------------
// The per-key slice codec. RJoin keeps all state of a key at the key's
// owner: stored queries, value-level tuples, ALTT entries and the rate
// bucket. Every ring change moves that slice, and the three movers share
// one format (docs/churn.md, docs/failures.md):
//   - handoff: a graceful join/leave moves a key range to its new owner;
//   - mirror:  an owner pushes a base copy of one key to its r-1
//     successors where ownership or the successor window changes (the
//     records stored in between follow as one-record ReplicaUpdate deltas);
//   - promote: after a silent crash, the survivor installs its replicas.
// ---------------------------------------------------------------------------

/// One key's NodeState slice. Queries travel as bare Residuals; the
/// DISTINCT projection memory rides in `projections` (parallel to
/// `queries`) on handoffs only — replicas never keep it, and promotion
/// stays answer-correct without it (owner-side answer-row fingerprints
/// and target-side stored-residual fingerprints cover DISTINCT). Tuples
/// keep arrival order; ALTT entries keep their original absolute expiry,
/// so the Section 4 Delta bound spans the move. The rate bucket is raw
/// (epoch, current, previous) — empty when both counts are 0.
struct KeySlice {
  KeyId key = kInvalidKeyId;
  std::vector<Residual> queries;
  std::vector<ProjectionSet> projections;
  std::vector<TupleRef> tuples;
  std::vector<AlttEntry> altt;
  uint64_t rate_epoch = 0;
  uint64_t rate_current = 0;
  uint64_t rate_previous = 0;

  bool has_rate() const { return rate_current > 0 || rate_previous > 0; }
  bool empty() const {
    return queries.empty() && tuples.empty() && altt.empty() && !has_rate();
  }
};

enum class SliceKind : uint8_t { kHandoff, kPromote, kMirror };

/// Everything one transfer moves: key slices in ring order. Handoffs and
/// promotions cover `range`; a mirror-kind batch is a replica base — one
/// slice that REPLACES the receiver's records older than it, versioned
/// (emitted_at, seq).
struct SliceBatch {
  dht::NodeIndex from = dht::kInvalidNode;
  dht::KeyRange range;      ///< moved responsibility (low, high]
  uint64_t emitted_at = 0;  ///< start of recovery; a base's version time
  /// The sender's mirror sequence number: a base's version, and the
  /// Lamport clock an install moves the installer's counter past, so the
  /// installer's later mirrors order after every mirror of the moved keys.
  uint64_t seq = 0;
  SliceKind kind = SliceKind::kHandoff;
  std::vector<KeySlice> slices;

  /// Approximate wire size: a 64-byte header, 64 per query, 32 (+8 per
  /// value) per tuple, 40 (+8 per value) per ALTT entry, 32 per rate
  /// bucket, and a mirror's 4-byte key id per slice.
  uint64_t ApproxBytes() const;
};

/// How Extract treats the source: kMove empties the slice out of the
/// NodeState (handoff, crash), kCopy leaves it in place (mirror).
enum class ExtractMode { kMove, kCopy };

/// The one slice extraction routine. ALTT entries expired by `now` are
/// left behind (and unlinked under kMove). Under kMove the caller owns the
/// storage-metric bookkeeping for the extracted queries and tuples.
KeySlice Extract(NodeState& st, KeyId key, ExtractMode mode, uint64_t now);

/// One replica record and the version of the mirror that brought it.
template <typename T>
struct Versioned {
  MirrorVersion version;
  T record;
};

/// Everything one node holds on behalf of its ring predecessors. Created
/// lazily, so with replication off no node pays for it.
struct ReplicaStore {
  /// One key's replica (docs/failures.md): the records of the last REPLACE
  /// base, then the deltas that base does not cover, each with its version.
  struct Entry {
    MirrorVersion base;  ///< the base the records build on
    MirrorVersion rate;  ///< the rate triple's writer: the last one wins
    std::vector<Versioned<Residual>> queries;
    std::vector<Versioned<TupleRef>> tuples;
    std::vector<Versioned<AlttEntry>> altt;
    uint64_t rate_epoch = 0;
    uint64_t rate_current = 0;
    uint64_t rate_previous = 0;

    /// Appends the delta's record exactly once: unless the base covers it
    /// (version at or below the base's). Its rate triple, if any, wins
    /// over an older one.
    void ApplyDelta(ReplicaUpdate& delta);
    /// Takes the rate triple if `version` is newer than the held one's.
    void OfferRate(MirrorVersion version, uint64_t epoch, uint64_t current,
                   uint64_t previous);
    /// Replaces every record versioned at or below `version` by the base
    /// slice's records; newer deltas, which landed first, stay behind
    /// them. A base older than the current one is dropped.
    void ApplyBase(KeySlice&& slice, MirrorVersion version);
    /// Moves every record versioned at or before time `t` (and the rate
    /// triple, likewise) out into a slice for promotion; `*max_seq` rises
    /// to the highest sequence number taken.
    KeySlice TakeUpTo(KeyId key, uint64_t t, uint64_t* max_seq);
  };
  KeyIdMap<Entry> entries;
};

/// Sorts interned keys into ring order: (ring id, level, id). Two distinct
/// keys share a ring id only when the same text is interned at both levels
/// (level breaks the tie) or on a SHA-1 collision (id breaks it); id values
/// never decide between keys of different text in practice, so the order is
/// reproducible across processes.
inline void SortKeysByRingId(std::vector<KeyId>* keys,
                             const KeyInterner& interner) {
  std::sort(keys->begin(), keys->end(), [&](KeyId a, KeyId b) {
    const dht::NodeId& ra = interner.ring_id(a);
    const dht::NodeId& rb = interner.ring_id(b);
    if (ra != rb) return ra < rb;
    if (interner.level(a) != interner.level(b)) {
      return interner.level(a) < interner.level(b);
    }
    return a < b;
  });
}

/// Every key `st` holds any state for (queries, tuples, ALTT, rates) that
/// `keep` accepts, once each, in ring order — the key list of a handoff,
/// a full re-mirror, or a crash.
template <typename Keep>
std::vector<KeyId> SortedStateKeys(const NodeState& st,
                                   const KeyInterner& interner, Keep keep) {
  std::vector<KeyId> keys;
  auto add = [&](KeyId key, const auto&) { keys.push_back(key); };
  st.queries.ForEach(add);
  st.tuples.ForEach(add);
  st.altt.ForEach(add);
  st.rates.AppendTrackedKeys(&keys);
  std::erase_if(keys, [&](KeyId key) { return !keep(key); });
  SortKeysByRingId(&keys, interner);
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  return keys;
}

/// Keys of `map` whose interned ring identifier falls inside the ring
/// interval (low, high], sorted by (ring id, level, id) — i.e. ring order,
/// NOT KeyIdMap iteration order, which is unspecified (see docs/keys.md).
/// Batch layout is therefore a pure function of the key set regardless of
/// insertion history.
template <typename V>
std::vector<KeyId> KeysInRangeSorted(const KeyIdMap<V>& map,
                                     const KeyInterner& interner,
                                     const dht::NodeId& low,
                                     const dht::NodeId& high) {
  std::vector<KeyId> keys;
  map.ForEach([&](KeyId key, const V&) {
    if (dht::InIntervalOpenClosed(interner.ring_id(key), low, high)) {
      keys.push_back(key);
    }
  });
  SortKeysByRingId(&keys, interner);
  return keys;
}

}  // namespace rjoin::core

#endif  // RJOIN_CORE_SLICE_CODEC_H_
