#include "data/database.h"

#include <algorithm>

#include "base/str.h"

namespace omqe {

Database::RelData& Database::Slot(RelId rel) {
  if (rel >= rels_.size()) rels_.resize(rel + 1);
  RelData& rd = rels_[rel];
  if (rd.rows == 0) rd.arity = vocab_->Arity(rel);
  return rd;
}

void Database::ReserveFacts(RelId rel, uint32_t additional_rows) {
  OMQE_CHECK(!frozen_);
  RelData& rd = Slot(rel);
  size_t total = rd.rows + additional_rows;
  rd.tuples.reserve(total * rd.arity);
  rd.dedup.Reserve(total, total * rd.arity);
}

bool Database::AddFact(RelId rel, const Value* args, uint32_t arity) {
  OMQE_CHECK(!frozen_);
  RelData& rd = Slot(rel);
  OMQE_CHECK(arity == rd.arity);
  char& seen = rd.dedup.InsertOrGet(args, arity, 0);
  if (seen != 0) return false;
  seen = 1;
  rd.tuples.insert(rd.tuples.end(), args, args + arity);
  ++rd.rows;
  for (uint32_t i = 0; i < arity; ++i) {
    if (IsNull(args[i])) {
      null_high_water_ = std::max(null_high_water_, NullIndex(args[i]) + 1);
    } else {
      OMQE_CHECK(IsConstant(args[i]));
    }
  }
  return true;
}

bool Database::AddFactByName(std::string_view rel,
                             std::initializer_list<std::string_view> args) {
  RelId r = vocab_->RelationId(rel, static_cast<uint32_t>(args.size()));
  ValueTuple vals;
  for (std::string_view a : args) vals.push_back(vocab_->ConstantId(a));
  return AddFact(r, vals);
}

bool Database::Contains(RelId rel, const Value* args, uint32_t arity) const {
  if (rel >= rels_.size()) return false;
  return rels_[rel].dedup.Find(args, arity) != nullptr;
}

size_t Database::TotalFacts() const {
  size_t n = 0;
  for (const RelData& rd : rels_) n += rd.rows;
  return n;
}

size_t Database::SizeBound() const {
  size_t n = 0;
  for (size_t r = 0; r < rels_.size(); ++r) {
    n += rels_[r].rows * (1 + vocab_->Arity(static_cast<RelId>(r)));
  }
  return n;
}

std::vector<Value> Database::ActiveDomain() const {
  std::vector<Value> dom;
  for (size_t r = 0; r < rels_.size(); ++r) {
    dom.insert(dom.end(), rels_[r].tuples.begin(), rels_[r].tuples.end());
  }
  std::sort(dom.begin(), dom.end());
  dom.erase(std::unique(dom.begin(), dom.end()), dom.end());
  return dom;
}

std::string Database::ToString(size_t limit) const {
  std::string out;
  size_t shown = 0;
  for (size_t r = 0; r < rels_.size(); ++r) {
    RelId rel = static_cast<RelId>(r);
    uint32_t arity = vocab_->Arity(rel);
    for (uint32_t row = 0; row < rels_[r].rows; ++row) {
      if (shown++ >= limit) {
        out += StrPrintf("... (%zu facts total)\n", TotalFacts());
        return out;
      }
      out += vocab_->RelationName(rel);
      out += '(';
      const Value* t = Row(rel, row);
      for (uint32_t i = 0; i < arity; ++i) {
        if (i > 0) out += ',';
        out += vocab_->ValueName(t[i]);
      }
      out += ")\n";
    }
  }
  return out;
}

}  // namespace omqe
