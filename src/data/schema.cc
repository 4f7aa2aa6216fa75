#include "data/schema.h"

#include "base/str.h"

namespace omqe {

RelId Vocabulary::RelationIdLocked(std::string_view name, uint32_t arity) {
  RelId r = relations_.Intern(name);
  if (r == arities_.size()) {
    arities_.emplace_back(arity);
  } else {
    OMQE_CHECK(arities_[r] == arity);
  }
  return r;
}

RelId Vocabulary::FreshRelation(std::string_view base, uint32_t arity) {
  std::lock_guard<CountedMutex> lock(write_mu_);
  std::string candidate(base);
  int suffix = 0;
  while (relations_.Lookup(candidate) != UINT32_MAX) {
    candidate = std::string(base) + "#" + std::to_string(suffix++);
  }
  return RelationIdLocked(candidate, arity);
}

std::string Vocabulary::ValueName(Value v) const {
  if (IsConstant(v)) return constants_.Name(v);
  if (IsNull(v)) return StrPrintf("_:n%u", NullIndex(v));
  uint32_t j = WildcardIndex(v);
  if (j == 0) return "*";
  return StrPrintf("*_%u", j);
}

}  // namespace omqe
