#ifndef RJOIN_PERFBENCH_REFERENCE_H_
#define RJOIN_PERFBENCH_REFERENCE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "core/engine.h"
#include "sql/query.h"
#include "sql/schema.h"
#include "sql/tuple.h"

namespace rjoin::perfbench {

/// 64-bit hash of one answer row (values in select-list order). Equal rows
/// hash equal; the benchmark compares answer multisets through it.
uint64_t RowHash(const std::vector<sql::Value>& row);

/// Hash-join evaluator of the paper's Definition 1, the benchmark's answer
/// oracle. Same semantics as sql::CentralizedEvaluator — only tuples with
/// pubT(t) >= insT(q) take part, sliding windows require
/// hi - lo + 1 <= size over pub_time (time unit) or seq_no (tuple unit),
/// tumbling windows require one epoch, bag semantics unless DISTINCT — but
/// it joins left-deep through per-query hash indexes instead of
/// enumerating the full cross product, so a paper-scale workload
/// (thousands of 4-way joins over hundreds of tuples) checks in seconds.
class HashJoinReference {
 public:
  /// `history` is every published tuple; it must outlive the evaluator.
  HashJoinReference(const sql::Catalog* catalog,
                    const std::vector<sql::TuplePtr>* history);

  /// Calls `emit` once per answer row of `q` inserted at `ins_time`.
  void Evaluate(const sql::Query& q, uint64_t ins_time,
                const std::function<void(const std::vector<sql::Value>&)>&
                    emit) const;

 private:
  const sql::Catalog* catalog_;
  std::map<std::string, std::vector<const sql::Tuple*>> by_relation_;
};

/// One continuous query whose delivered answers are checked.
struct CheckedQuery {
  uint64_t id = 0;
  const sql::Query* spec = nullptr;
  uint64_t ins_time = 0;
};

/// Result of comparing delivered answers with the reference, per query, as
/// row-hash multisets.
struct AnswerCheck {
  uint64_t expected = 0;   ///< rows the reference derives
  uint64_t delivered = 0;  ///< rows the engine delivered
  uint64_t missing = 0;    ///< expected rows not delivered
  uint64_t spurious = 0;   ///< delivered rows the reference does not derive
  uint64_t queries_mismatched = 0;
  /// Order-independent digest of the delivered (query id, row) multiset.
  uint64_t digest = 0;

  /// (missing + spurious) / expected; 0 when both are empty.
  double ErrorRate() const;
};

AnswerCheck CheckAnswers(const HashJoinReference& reference,
                         const std::vector<CheckedQuery>& queries,
                         const std::vector<core::Answer>& answers);

}  // namespace rjoin::perfbench

#endif  // RJOIN_PERFBENCH_REFERENCE_H_
