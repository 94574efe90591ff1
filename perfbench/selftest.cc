// Self-test of the benchmark's answer oracle and determinism guard.
//
//   rjoin_bench_selftest      (or: python3 perfbench/run.py --selftest)
//
// 1. HashJoinReference derives, query by query, the same answer multiset as
//    the brute-force sql::CentralizedEvaluator on the reduced form of every
//    workload (windowed and crash traces included), seeds 1-2, on the
//    serial pump and at S=1 and S=3, and the engine's delivered answers
//    match it.
// 2. Reduced runs give the same answer digest serially, at S=1 and at S=3.
// 3. Variants the generated workloads never produce — DISTINCT, tumbling and
//    time-based windows, selections, constants in the select list — agree
//    between both evaluators on the same stream.
// Exits 1 on the first disagreement.

#include <algorithm>
#include <iostream>
#include <string>
#include <vector>

#include "sql/evaluator.h"
#include "workloads.h"

namespace rjoin::perfbench {
namespace {

int failures = 0;

void Expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::cerr << "FAIL: " << what << "\n";
  }
}

std::vector<std::string> Keys(std::vector<std::vector<sql::Value>> rows) {
  std::vector<std::string> keys;
  keys.reserve(rows.size());
  for (const auto& row : rows) keys.push_back(sql::AnswerRowKey(row));
  std::sort(keys.begin(), keys.end());
  return keys;
}

/// Both evaluators agree on `q`; returns the number of rows.
size_t CrossCheck(const sql::Catalog& catalog,
                  const std::vector<sql::TuplePtr>& history,
                  const sql::Query& q, uint64_t ins_time,
                  const std::string& what) {
  HashJoinReference reference(&catalog, &history);
  std::vector<std::vector<sql::Value>> mine;
  reference.Evaluate(q, ins_time, [&](const std::vector<sql::Value>& row) {
    mine.push_back(row);
  });
  sql::CentralizedEvaluator oracle(&catalog);
  const std::vector<std::string> expected =
      Keys(oracle.Evaluate(q, ins_time, history));
  const std::vector<std::string> got = Keys(std::move(mine));
  Expect(got == expected, what + ": " + q.ToString() + " reference " +
                              std::to_string(got.size()) + " rows, oracle " +
                              std::to_string(expected.size()));
  return expected.size();
}

uint64_t CheckWorkload(const std::string& name, uint64_t seed,
                       uint32_t shards) {
  WorkloadSpec spec = *MakeWorkload(name, seed, /*reduced=*/true);
  spec.config.shards = shards;
  spec.data_seed = seed;
  SpanLog spans(false);
  WorkloadRun run(std::move(spec), &spans);
  run.Setup();
  run.Stream();
  const AnswerCheck check = run.Verify();
  const std::string what =
      name + " seed " + std::to_string(seed) +
      (shards == workload::ExperimentConfig::kForceSerial
           ? std::string(" serial")
           : " S=" + std::to_string(shards));
  Expect(check.missing == 0 && check.spurious == 0,
         what + ": engine answers differ from the reference (" +
             std::to_string(check.missing) + " missing, " +
             std::to_string(check.spurious) + " spurious)");
  const core::RJoinEngine& engine = run.experiment().engine();
  size_t rows = 0;
  for (uint64_t id = 1;; ++id) {
    core::InputQueryPtr q = engine.FindQuery(id);
    if (q == nullptr) break;
    rows += CrossCheck(run.experiment().catalog(), run.history(), q->spec(),
                       q->ins_time(), what);
  }
  Expect(rows == check.expected, what + ": row totals differ");
  std::cout << what << ": " << check.expected << " rows, digest " << std::hex
            << check.digest << std::dec << "\n";
  return check.digest;
}

void CheckVariants(uint64_t seed) {
  WorkloadSpec spec = *MakeWorkload("answers_closed", seed, true);
  spec.data_seed = seed;
  SpanLog spans(false);
  WorkloadRun run(std::move(spec), &spans);
  run.Setup();
  run.Stream();
  const core::RJoinEngine& engine = run.experiment().engine();
  const sql::Catalog& catalog = run.experiment().catalog();
  const uint64_t mid = run.history()[run.history().size() / 2]->pub_time;
  size_t rows = 0;
  for (uint64_t id = 1; id <= 200; ++id) {
    const core::InputQueryPtr iq = engine.FindQuery(id);
    sql::Query q = iq->spec();
    const std::string what = "variant of query " + std::to_string(id);
    sql::Query distinct = q;
    distinct.distinct = true;
    rows += CrossCheck(catalog, run.history(), distinct, 0, what + " DISTINCT");
    rows += CrossCheck(catalog, run.history(), q, mid, what + " late insT");
    sql::Query tumbling = q;
    tumbling.window = {true, sql::WindowSpec::Unit::kTuples,
                       sql::WindowSpec::Kind::kTumbling, 40};
    rows += CrossCheck(catalog, run.history(), tumbling, 0, what + " tumbling");
    sql::Query timed = q;
    timed.window = {true, sql::WindowSpec::Unit::kTime,
                    sql::WindowSpec::Kind::kSliding, 600};
    timed.distinct = true;
    rows += CrossCheck(catalog, run.history(), timed, 0, what + " time window");
    sql::Query selective = q;
    const sql::AttrRef first = q.joins.front().left;
    selective.selections.push_back({first, sql::Value::Int(0)});
    selective.select_list.push_back(sql::SelectItem::Const(sql::Value::Int(7)));
    rows += CrossCheck(catalog, run.history(), selective, 0,
                       what + " selection");
  }
  Expect(rows > 0, "variants derived no rows at all");
  std::cout << "variants seed " << seed << ": " << rows << " rows\n";
}

int Main() {
  for (uint64_t seed : {1, 2}) {
    for (const std::string& name : WorkloadNames()) {
      const uint64_t serial =
          CheckWorkload(name, seed, workload::ExperimentConfig::kForceSerial);
      const uint64_t one = CheckWorkload(name, seed, 1);
      const uint64_t three = CheckWorkload(name, seed, 3);
      Expect(serial == one && one == three,
             name + " seed " + std::to_string(seed) +
                 ": answer digest differs between serial, S=1 and S=3");
    }
    CheckVariants(seed);
  }
  std::cout << (failures == 0 ? "selftest passed" : "selftest FAILED")
            << "\n";
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace rjoin::perfbench

int main() { return rjoin::perfbench::Main(); }
