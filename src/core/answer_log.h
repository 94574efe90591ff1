#ifndef RJOIN_CORE_ANSWER_LOG_H_
#define RJOIN_CORE_ANSWER_LOG_H_

#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "core/tuple_ref.h"
#include "stats/alloc_tracker.h"

namespace rjoin::core {

/// The answer sink's store: an append-only log of delivered answers, each
/// one flat record of (query id, delivery time, the row's interned value
/// ids) — the row exactly as AnswerDeliver carries it, never turned into
/// sql::Values on the delivery path. Records pack back to back into
/// fixed-size blocks of 32-bit words, so appending never reallocates or
/// moves what is already logged, and a 2-column answer costs 28 bytes
/// instead of an `Answer` plus a heap row. Blocks are capacity, charged to
/// the pool-capacity plane; one block holds thousands of answers.
///
/// The engine keeps one log as the answer store, and each shard of the
/// parallel runtime stages its deliveries in a log of its own, merged into
/// the store at the next barrier (Clear() keeps the staging blocks).
class AnswerLog {
 public:
  /// One logged answer, read in place: `row` points into the log and stays
  /// valid until the log is cleared or destroyed.
  struct Record {
    uint64_t query_id = 0;
    uint64_t delivered_at = 0;
    const ValueId* row = nullptr;
    uint16_t row_len = 0;
  };

  /// A read position. A default cursor starts at the first record;
  /// ReadFrom leaves it just past the last record read, so the next call
  /// resumes with the records appended since.
  struct Cursor {
    uint32_t block = 0;
    uint32_t offset = 0;
  };

  void Append(uint64_t query_id, uint64_t delivered_at, const ValueId* row,
              uint16_t row_len) {
    const uint32_t words = kHeaderWords + row_len;
    if (blocks_.empty()) {
      AddBlock();
    } else if (used_[tail_] + words > kBlockWords) {
      if (++tail_ == blocks_.size()) AddBlock();
    }
    uint32_t* w = blocks_[tail_].get() + used_[tail_];
    std::memcpy(w, &query_id, sizeof(query_id));
    std::memcpy(w + 2, &delivered_at, sizeof(delivered_at));
    w[4] = row_len;
    std::memcpy(w + kHeaderWords, row, row_len * sizeof(ValueId));
    used_[tail_] += words;
    ++size_;
  }

  void Append(const Record& r) {
    Append(r.query_id, r.delivered_at, r.row, r.row_len);
  }

  /// Calls `fn(const Record&)` for every record from `*cursor` on, in
  /// append order, and advances the cursor past them.
  template <typename Fn>
  void ReadFrom(Cursor* cursor, Fn&& fn) const {
    while (cursor->block < blocks_.size()) {
      const uint32_t* words = blocks_[cursor->block].get();
      while (cursor->offset < used_[cursor->block]) {
        const uint32_t* w = words + cursor->offset;
        Record r;
        std::memcpy(&r.query_id, w, sizeof(r.query_id));
        std::memcpy(&r.delivered_at, w + 2, sizeof(r.delivered_at));
        r.row_len = static_cast<uint16_t>(w[4]);
        r.row = w + kHeaderWords;
        cursor->offset += kHeaderWords + r.row_len;
        fn(r);
      }
      if (cursor->block == tail_) break;
      ++cursor->block;
      cursor->offset = 0;
    }
  }

  /// Calls `fn(const Record&)` for every record, in append order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    Cursor cursor;
    ReadFrom(&cursor, fn);
  }

  /// Records appended since construction or the last Clear().
  size_t size() const { return size_; }

  /// Drops every record but keeps the blocks for the next appends.
  /// Invalidates cursors and Record::row pointers.
  void Clear() {
    for (uint32_t& u : used_) u = 0;
    tail_ = 0;
    size_ = 0;
  }

 private:
  /// query_id (2 words), delivered_at (2 words), row_len (1 word).
  static constexpr uint32_t kHeaderWords = 5;
  /// 64 KiB blocks.
  static constexpr uint32_t kBlockWords = 1u << 14;

  void AddBlock() {
    stats::AllocScope plane(stats::AllocPlane::kPoolCapacity);
    blocks_.push_back(std::make_unique_for_overwrite<uint32_t[]>(kBlockWords));
    used_.push_back(0);
  }

  std::vector<std::unique_ptr<uint32_t[]>> blocks_;
  std::vector<uint32_t> used_;  ///< words filled, per block
  uint32_t tail_ = 0;           ///< the block appends go to
  size_t size_ = 0;
};

}  // namespace rjoin::core

#endif  // RJOIN_CORE_ANSWER_LOG_H_
