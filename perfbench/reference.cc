#include "reference.h"

#include <algorithm>
#include <set>
#include <unordered_map>

#include "util/logging.h"

namespace rjoin::perfbench {
namespace {

uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

uint64_t WindowPosition(const sql::WindowSpec& w, const sql::Tuple& t) {
  return w.unit == sql::WindowSpec::Unit::kTime ? t.pub_time : t.seq_no;
}

/// An attribute of the query's i-th FROM relation.
struct Column {
  size_t level = 0;
  size_t attr = 0;
};

/// One FROM relation of the query being evaluated.
struct Level {
  std::vector<const sql::Tuple*> tuples;  ///< eligible tuples
  /// Join checks against earlier levels: (attribute here, earlier column).
  std::vector<std::pair<size_t, Column>> checks;
  /// Eligible tuples keyed on the first check's attribute.
  std::unordered_map<sql::Value, std::vector<const sql::Tuple*>,
                     sql::Value::Hasher>
      index;
};

}  // namespace

uint64_t RowHash(const std::vector<sql::Value>& row) {
  uint64_t h = Mix64(row.size());
  for (const sql::Value& v : row) {
    if (v.is_int()) {
      h = Mix64(h ^ Mix64(static_cast<uint64_t>(v.AsInt())));
    } else {
      h = Mix64(h ^ (std::hash<std::string>{}(v.AsString()) + 1));
    }
  }
  return h;
}

HashJoinReference::HashJoinReference(
    const sql::Catalog* catalog, const std::vector<sql::TuplePtr>* history)
    : catalog_(catalog) {
  for (const sql::TuplePtr& t : *history) {
    by_relation_[t->relation].push_back(t.get());
  }
}

void HashJoinReference::Evaluate(
    const sql::Query& q, uint64_t ins_time,
    const std::function<void(const std::vector<sql::Value>&)>& emit) const {
  const size_t n = q.relations.size();
  if (n == 0) return;
  // Resolves R.A to (FROM position, attribute index); false when R is not
  // in FROM or has no attribute A, which no combination can satisfy.
  auto resolve = [&](const sql::AttrRef& a, Column* out) {
    const auto it = std::find(q.relations.begin(), q.relations.end(),
                              a.relation);
    if (it == q.relations.end()) return false;
    const sql::Schema* schema = catalog_->Find(a.relation);
    if (schema == nullptr) return false;
    const int idx = schema->AttrIndex(a.attribute);
    if (idx < 0) return false;
    out->level = static_cast<size_t>(it - q.relations.begin());
    out->attr = static_cast<size_t>(idx);
    return true;
  };

  // Per-level filters: selections and joins between two attributes of the
  // same relation; joins across levels become checks at the later level.
  std::vector<std::vector<std::pair<size_t, sql::Value>>> const_filters(n);
  std::vector<std::vector<std::pair<size_t, size_t>>> self_filters(n);
  std::vector<Level> levels(n);
  for (const sql::SelectionPredicate& s : q.selections) {
    Column c;
    if (!resolve(s.attr, &c)) return;
    const_filters[c.level].emplace_back(c.attr, s.value);
  }
  for (const sql::JoinPredicate& j : q.joins) {
    Column l, r;
    if (!resolve(j.left, &l) || !resolve(j.right, &r)) return;
    if (l.level == r.level) {
      self_filters[l.level].emplace_back(l.attr, r.attr);
    } else if (l.level > r.level) {
      levels[l.level].checks.emplace_back(l.attr, r);
    } else {
      levels[r.level].checks.emplace_back(r.attr, l);
    }
  }

  for (size_t i = 0; i < n; ++i) {
    RJOIN_CHECK(std::count(q.relations.begin(), q.relations.end(),
                           q.relations[i]) == 1)
        << "self-joins are outside Definition 1's workloads";
    const auto it = by_relation_.find(q.relations[i]);
    if (it == by_relation_.end()) return;
    Level& level = levels[i];
    for (const sql::Tuple* t : it->second) {
      if (t->pub_time < ins_time) continue;
      bool ok = true;
      for (const auto& [attr, value] : const_filters[i]) {
        ok = ok && attr < t->values.size() && t->values[attr] == value;
      }
      for (const auto& [a, b] : self_filters[i]) {
        ok = ok && a < t->values.size() && b < t->values.size() &&
             t->values[a] == t->values[b];
      }
      if (!ok) continue;
      level.tuples.push_back(t);
      if (!level.checks.empty()) {
        level.index[t->values[level.checks.front().first]].push_back(t);
      }
    }
    if (level.tuples.empty()) return;
  }

  // Select-list resolution up front: constants or (level, attribute).
  std::vector<Column> select(q.select_list.size());
  for (size_t s = 0; s < q.select_list.size(); ++s) {
    if (q.select_list[s].is_constant()) continue;
    RJOIN_CHECK(resolve(q.select_list[s].attr, &select[s]))
        << "select item " << q.select_list[s].attr.ToString()
        << " unresolved";
  }

  const sql::WindowSpec& w = q.window;
  if (w.use_windows && w.kind == sql::WindowSpec::Kind::kTumbling &&
      w.size == 0) {
    return;
  }
  std::vector<const sql::Tuple*> combo(n, nullptr);
  std::vector<sql::Value> row(q.select_list.size());
  std::set<std::vector<sql::Value>> distinct_seen;

  // Left-deep enumeration; the window test is monotone in the number of
  // bound tuples, so it prunes partial combinations.
  std::function<void(size_t, uint64_t, uint64_t)> extend =
      [&](size_t depth, uint64_t lo, uint64_t hi) {
        if (depth == n) {
          for (size_t s = 0; s < row.size(); ++s) {
            const sql::SelectItem& item = q.select_list[s];
            row[s] = item.is_constant()
                         ? *item.constant
                         : combo[select[s].level]->values[select[s].attr];
          }
          if (q.distinct && !distinct_seen.insert(row).second) return;
          emit(row);
          return;
        }
        const Level& level = levels[depth];
        const std::vector<const sql::Tuple*>* candidates = &level.tuples;
        if (!level.checks.empty()) {
          const Column& c = level.checks.front().second;
          const auto it = level.index.find(combo[c.level]->values[c.attr]);
          if (it == level.index.end()) return;
          candidates = &it->second;
        }
        for (const sql::Tuple* t : *candidates) {
          bool ok = true;
          for (size_t k = 1; k < level.checks.size() && ok; ++k) {
            const auto& [attr, other] = level.checks[k];
            ok = t->values[attr] == combo[other.level]->values[other.attr];
          }
          if (!ok) continue;
          uint64_t nlo = lo, nhi = hi;
          if (w.use_windows) {
            const uint64_t p = WindowPosition(w, *t);
            nlo = std::min(lo, p);
            nhi = std::max(hi, p);
            if (w.kind == sql::WindowSpec::Kind::kSliding) {
              if (nhi - nlo + 1 > w.size) continue;
            } else if (nlo / w.size != nhi / w.size) {
              continue;
            }
          }
          combo[depth] = t;
          extend(depth + 1, nlo, nhi);
        }
      };
  extend(0, UINT64_MAX, 0);
}

double AnswerCheck::ErrorRate() const {
  if (expected == 0) return missing + spurious == 0 ? 0.0 : 1.0;
  return static_cast<double>(missing + spurious) /
         static_cast<double>(expected);
}

AnswerCheck CheckAnswers(const HashJoinReference& reference,
                         const std::vector<CheckedQuery>& queries,
                         const std::vector<core::Answer>& answers) {
  AnswerCheck check;
  std::unordered_map<uint64_t, std::vector<uint64_t>> delivered;
  for (const core::Answer& a : answers) {
    const uint64_t h = RowHash(a.row);
    delivered[a.query_id].push_back(h);
    check.digest += Mix64(h ^ Mix64(a.query_id));
    ++check.delivered;
  }
  std::vector<uint64_t> expected;
  for (const CheckedQuery& q : queries) {
    expected.clear();
    reference.Evaluate(*q.spec, q.ins_time,
                       [&](const std::vector<sql::Value>& row) {
                         expected.push_back(RowHash(row));
                       });
    check.expected += expected.size();
    std::vector<uint64_t> got;
    if (auto it = delivered.find(q.id); it != delivered.end()) {
      got = std::move(it->second);
      delivered.erase(it);
    }
    std::sort(expected.begin(), expected.end());
    std::sort(got.begin(), got.end());
    // Multiset difference in both directions by one merge pass.
    uint64_t missing = 0, spurious = 0;
    size_t i = 0, j = 0;
    while (i < expected.size() || j < got.size()) {
      if (j == got.size() || (i < expected.size() && expected[i] < got[j])) {
        ++missing;
        ++i;
      } else if (i == expected.size() || got[j] < expected[i]) {
        ++spurious;
        ++j;
      } else {
        ++i;
        ++j;
      }
    }
    check.missing += missing;
    check.spurious += spurious;
    if (missing + spurious > 0) ++check.queries_mismatched;
  }
  // Rows delivered to a query nobody submitted.
  for (const auto& [id, rows] : delivered) {
    check.spurious += rows.size();
    ++check.queries_mismatched;
  }
  return check;
}

}  // namespace rjoin::perfbench
