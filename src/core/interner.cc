#include "core/interner.h"

#include "util/hash.h"
#include "util/logging.h"

namespace rjoin::core {

namespace {

/// Index hash of the (text, level) identity. The level is folded in
/// because the same text can legally exist at both levels (a sharded
/// attribute suffix colliding with a string value).
uint64_t HashKey(std::string_view text, Level level) {
  uint64_t h = Fnv1a64(text);
  if (level == Level::kValue) h ^= 0x9e3779b97f4a7c15ull;
  return h;
}

/// Packs a structured value key's (attribute KeyId, ValueId) pair; the +1
/// keeps 0 free as the empty-slot marker.
uint64_t PackPair(KeyId attr_key, ValueId value) {
  return ((static_cast<uint64_t>(attr_key) << 32) | value) + 1;
}

/// Slot hash of a packed pair (Fibonacci hashing: the high product bits
/// mix both halves).
uint64_t HashPair(uint64_t pair) { return pair * 0x9e3779b97f4a7c15ull; }

/// Reusable per-thread buffer for building candidate key text before the
/// intern lookup; the hit path allocates nothing beyond the buffer's
/// high-water mark.
std::string& KeyBuffer() {
  static thread_local std::string buf;
  buf.clear();
  return buf;
}

}  // namespace

KeyInterner::Table::Table(size_t capacity)
    : mask(capacity - 1),
      slots(std::make_unique<std::atomic<uint64_t>[]>(capacity)) {
  RJOIN_CHECK((capacity & mask) == 0) << "table capacity must be 2^k";
  for (size_t i = 0; i < capacity; ++i) {
    slots[i].store(0, std::memory_order_relaxed);
  }
}

KeyInterner::PairTable::PairTable(size_t capacity)
    : mask(capacity - 1),
      pairs(std::make_unique<std::atomic<uint64_t>[]>(capacity)),
      ids(new KeyId[capacity]) {
  RJOIN_CHECK((capacity & mask) == 0) << "table capacity must be 2^k";
  for (size_t i = 0; i < capacity; ++i) {
    pairs[i].store(0, std::memory_order_relaxed);
  }
}

KeyInterner::KeyInterner()
    : slabs_(std::make_unique<std::atomic<Entry*>[]>(kMaxSlabs)) {
  for (uint32_t i = 0; i < kMaxSlabs; ++i) {
    slabs_[i].store(nullptr, std::memory_order_relaxed);
  }
  auto table = std::make_unique<Table>(1024);
  table_.store(table.get(), std::memory_order_release);
  retired_.push_back(std::move(table));
  auto pairs = std::make_unique<PairTable>(1024);
  pair_table_.store(pairs.get(), std::memory_order_release);
  retired_pairs_.push_back(std::move(pairs));
}

KeyInterner::~KeyInterner() {
  const uint32_t n = size_.load(std::memory_order_acquire);
  const uint32_t slabs = (n + kSlabSize - 1) >> kSlabBits;
  for (uint32_t i = 0; i < slabs; ++i) {
    delete[] slabs_[i].load(std::memory_order_relaxed);
  }
}

KeyInterner& KeyInterner::Global() {
  static KeyInterner* interner = new KeyInterner();  // immortal
  return *interner;
}

const KeyInterner::Entry& KeyInterner::entry(KeyId id) const {
  RJOIN_DCHECK(id < size_.load(std::memory_order_acquire));
  return slabs_[id >> kSlabBits].load(std::memory_order_acquire)
      [id & (kSlabSize - 1)];
}

KeyId KeyInterner::FindIn(const Table& table, std::string_view text,
                          Level level, uint64_t hash) const {
  const uint32_t tag = static_cast<uint32_t>(hash >> 32);
  size_t i = hash & table.mask;
  for (;;) {
    const uint64_t slot = table.slots[i].load(std::memory_order_acquire);
    if (slot == 0) return kInvalidKeyId;
    if (static_cast<uint32_t>(slot >> 32) == tag) {
      const KeyId id = static_cast<KeyId>(slot & 0xffffffffu) - 1;
      const Entry& e = entry(id);
      if (e.level == level && e.text == text) return id;
    }
    i = (i + 1) & table.mask;
  }
}

void KeyInterner::PublishInto(Table& table, uint64_t hash, KeyId id) {
  const uint64_t packed =
      (hash & 0xffffffff00000000ull) | (static_cast<uint64_t>(id) + 1);
  size_t i = hash & table.mask;
  while (table.slots[i].load(std::memory_order_relaxed) != 0) {
    i = (i + 1) & table.mask;
  }
  table.slots[i].store(packed, std::memory_order_release);
}

KeyId KeyInterner::Find(std::string_view text, Level level) const {
  return FindIn(*table_.load(std::memory_order_acquire), text, level,
                HashKey(text, level));
}

KeyId KeyInterner::Find(std::string_view text) const {
  const KeyId attr = Find(text, Level::kAttribute);
  return attr != kInvalidKeyId ? attr : Find(text, Level::kValue);
}

KeyId KeyInterner::Intern(std::string_view text, Level level) {
  const uint64_t hash = HashKey(text, level);
  KeyId id =
      FindIn(*table_.load(std::memory_order_acquire), text, level, hash);
  if (id != kInvalidKeyId) {
    hits_.fetch_add(1, std::memory_order_relaxed);
    return id;
  }

  std::lock_guard<std::mutex> lock(mutex_);
  Table* table = table_.load(std::memory_order_relaxed);
  id = FindIn(*table, text, level, hash);
  if (id != kInvalidKeyId) {
    // Lost a race with another first-sight intern of the same text.
    hits_.fetch_add(1, std::memory_order_relaxed);
    return id;
  }

  const uint32_t n = size_.load(std::memory_order_relaxed);
  // Entries are immortal, so unbounded value domains grow the dictionary
  // without bound — aging/compaction is a tracked follow-up (ROADMAP,
  // docs/keys.md); this backstop is ~50x the paper's full-scale key count.
  RJOIN_CHECK(n < kMaxSlabs * kSlabSize)
      << "key interner full (" << n
      << " keys): workload value domain too large for the immortal "
         "dictionary; see ROADMAP key-id plane follow-ups";
  const uint32_t slab = n >> kSlabBits;
  if ((n & (kSlabSize - 1)) == 0) {
    slabs_[slab].store(new Entry[kSlabSize], std::memory_order_release);
  }
  Entry& e = slabs_[slab].load(std::memory_order_relaxed)[n & (kSlabSize - 1)];
  e.text.assign(text);
  e.level = level;
  e.ring_id = dht::NodeId::FromKey(text);
  size_.store(n + 1, std::memory_order_release);

  // Grow the index at 70% load. Readers holding the old table miss the
  // freshly moved entries and retry through this locked path, so old
  // tables only need to stay allocated (retired_), not current.
  if ((static_cast<uint64_t>(n) + 1) * 10 >= (table->mask + 1) * 7) {
    auto bigger = std::make_unique<Table>((table->mask + 1) * 2);
    for (KeyId prev = 0; prev < n; ++prev) {
      const Entry& old = entry(prev);
      PublishInto(*bigger, HashKey(old.text, old.level), prev);
    }
    table = bigger.get();
    table_.store(table, std::memory_order_release);
    retired_.push_back(std::move(bigger));
  }
  PublishInto(*table, hash, n);

  misses_.fetch_add(1, std::memory_order_relaxed);
  text_bytes_.fetch_add(text.size(), std::memory_order_relaxed);
  return n;
}

KeyId KeyInterner::InternAttribute(std::string_view relation,
                                   std::string_view attr) {
  std::string& buf = KeyBuffer();
  buf.append(relation);
  buf += kKeySep;
  buf.append(attr);
  return Intern(buf, Level::kAttribute);
}

KeyId KeyInterner::InternValue(std::string_view relation,
                               std::string_view attr,
                               const sql::Value& value) {
  std::string& buf = KeyBuffer();
  buf.append(relation);
  buf += kKeySep;
  buf.append(attr);
  buf += kKeySep;
  value.AppendKeyString(&buf);
  return Intern(buf, Level::kValue);
}

KeyId KeyInterner::FindPair(const PairTable& table, uint64_t pair) {
  size_t i = (HashPair(pair) >> 32) & table.mask;
  for (;;) {
    const uint64_t slot = table.pairs[i].load(std::memory_order_acquire);
    if (slot == pair) return table.ids[i];
    if (slot == 0) return kInvalidKeyId;
    i = (i + 1) & table.mask;
  }
}

void KeyInterner::PublishPair(PairTable& table, uint64_t pair, KeyId id) {
  size_t i = (HashPair(pair) >> 32) & table.mask;
  while (table.pairs[i].load(std::memory_order_relaxed) != 0) {
    i = (i + 1) & table.mask;
  }
  table.ids[i] = id;
  table.pairs[i].store(pair, std::memory_order_release);
}

KeyId KeyInterner::InternValue(KeyId attr_key, ValueId value) {
  RJOIN_DCHECK(level(attr_key) == Level::kAttribute);
  const uint64_t pair = PackPair(attr_key, value);
  KeyId id = FindPair(*pair_table_.load(std::memory_order_acquire), pair);
  if (id != kInvalidKeyId) {
    hits_.fetch_add(1, std::memory_order_relaxed);
    return id;
  }

  // First sight of the pair: the text form decides the id (it may already
  // be interned, through the text builders or a value sharing its text).
  std::string& buf = KeyBuffer();
  buf.append(text(attr_key));
  buf += kKeySep;
  ValueInterner::Global().value(value).AppendKeyString(&buf);
  id = Intern(buf, Level::kValue);

  std::lock_guard<std::mutex> lock(mutex_);
  PairTable* table = pair_table_.load(std::memory_order_relaxed);
  if (FindPair(*table, pair) != kInvalidKeyId) return id;  // lost a race
  // Grow at 70% load; readers on the old table miss and land here.
  if ((static_cast<uint64_t>(num_pairs_) + 1) * 10 >= (table->mask + 1) * 7) {
    auto bigger = std::make_unique<PairTable>((table->mask + 1) * 2);
    for (size_t i = 0; i <= table->mask; ++i) {
      const uint64_t old = table->pairs[i].load(std::memory_order_relaxed);
      if (old != 0) {
        PublishPair(*bigger, old, table->ids[i]);
      }
    }
    table = bigger.get();
    pair_table_.store(table, std::memory_order_release);
    retired_pairs_.push_back(std::move(bigger));
  }
  PublishPair(*table, pair, id);
  ++num_pairs_;
  return id;
}

KeyId KeyInterner::WithShard(KeyId attr_key, uint32_t shard) {
  if (shard == 0) return attr_key;
  const Entry& base = entry(attr_key);
  std::string& buf = KeyBuffer();
  buf.append(base.text);
  buf += kKeySep;
  buf += '#';
  buf += std::to_string(shard);
  return Intern(buf, base.level);
}

KeyInterner::Stats KeyInterner::stats() const {
  Stats s;
  s.entries = size_.load(std::memory_order_acquire);
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.text_bytes = text_bytes_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace rjoin::core
