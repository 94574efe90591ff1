#include "core/planner.h"

#include <algorithm>

#include "core/interner.h"

namespace rjoin::core {

const char* PlannerPolicyName(PlannerPolicy policy) {
  switch (policy) {
    case PlannerPolicy::kFirstInClause:
      return "FirstInClause";
    case PlannerPolicy::kRandom:
      return "Random";
    case PlannerPolicy::kWorst:
      return "Worst";
    case PlannerPolicy::kRic:
      return "RJoin(RIC)";
  }
  return "Unknown";
}

namespace {
void PushUnique(std::vector<KeyId>& out, KeyId key) {
  if (std::find(out.begin(), out.end(), key) == out.end()) {
    out.push_back(key);
  }
}
}  // namespace

std::vector<KeyId> IndexingCandidates(const Residual& residual,
                                      RewriteIndexLevels levels) {
  std::vector<KeyId> out;
  IndexingCandidates(residual, levels, &out);
  return out;
}

void IndexingCandidates(const Residual& residual, RewriteIndexLevels levels,
                        std::vector<KeyId>* out_ptr) {
  const InputQuery& q = *residual.origin();
  std::vector<KeyId>& out = *out_ptr;
  out.clear();

  if (residual.IsInputQuery()) {
    // Input queries: attribute-level keys from WHERE-clause expressions, in
    // clause order (join sides first, then selections).
    for (const auto& j : q.joins()) {
      PushUnique(out, j.left_key);
      PushUnique(out, j.right_key);
    }
    for (const auto& s : q.selections()) PushUnique(out, s.attr_key);
    if (out.empty() && q.fallback_key() != kInvalidKeyId) {
      out.push_back(q.fallback_key());
    }
    return;
  }

  // Rewritten queries — value-level candidates first, each the structured
  // (attribute key, bound value) pair.
  KeyInterner& interner = KeyInterner::Global();
  // (c) implied triples: join predicates with exactly one side bound.
  for (const auto& j : q.joins()) {
    const ValueId l = residual.BoundValueId(j.left_rel, j.left_attr);
    const ValueId r = residual.BoundValueId(j.right_rel, j.right_attr);
    if (l != kInvalidValueId && r == kInvalidValueId) {
      PushUnique(out, interner.InternValue(j.right_key, l));
    } else if (l == kInvalidValueId && r != kInvalidValueId) {
      PushUnique(out, interner.InternValue(j.left_key, r));
    }
  }
  // (b) explicit selection triples on unbound relations.
  for (const auto& s : q.selections()) {
    if (residual.IsBound(s.rel)) continue;
    PushUnique(out, interner.InternValue(s.attr_key, s.value_id));
  }
  // (a) attribute-level pairs from join conditions still fully open. Under
  // kValuePreferred these are a fallback for residuals with no value-level
  // option (see RewriteIndexLevels for the completeness rationale).
  if (levels == RewriteIndexLevels::kValuePreferred && !out.empty()) {
    return;
  }
  for (const auto& j : q.joins()) {
    if (residual.IsBound(j.left_rel) || residual.IsBound(j.right_rel)) {
      continue;
    }
    PushUnique(out, j.left_key);
    PushUnique(out, j.right_key);
  }
}

}  // namespace rjoin::core
