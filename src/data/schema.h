// Vocabulary: the global symbol tables (relation names with arities and
// constant names) shared by databases, queries and ontologies.  A Schema in
// the paper's sense (the "data schema" S of an OMQ) is a subset of relation
// ids over a Vocabulary.
//
// Concurrency: single writer, lock-free readers by id. Names and arities
// live in append-only, address-stable storage (base/segmented_vector.h), so
// the by-id reads — Arity, RelationName, ConstantName, ValueName,
// NumRelations, NumConstants — take no lock and are safe while another
// thread interns. The query server relies on this: a PREPARE interns its
// query's constants and relation names while FETCHes on other sessions
// render rows. Everything that writes (RelationId, TryRelationId,
// FreshRelation, ConstantId, ReserveConstants, Freeze) or looks a symbol up
// by name (FindRelation, FindConstant) serializes on one internal
// CountedMutex.
#ifndef OMQE_DATA_SCHEMA_H_
#define OMQE_DATA_SCHEMA_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "base/counted_mutex.h"
#include "base/interner.h"
#include "base/segmented_vector.h"
#include "base/status.h"
#include "data/value.h"

namespace omqe {

class Vocabulary {
 public:
  /// Puts both interners into const-lookup mode (see Interner::Freeze):
  /// looking up existing symbols stays valid while registering a new
  /// relation or constant aborts. One-way.
  void Freeze() {
    std::lock_guard<CountedMutex> lock(write_mu_);
    relations_.Freeze();
    constants_.Freeze();
  }
  bool frozen() const { return relations_.frozen(); }

  /// Returns the id of relation `name`, registering it with `arity` if new.
  /// Aborts if the relation exists with a different arity (schema bug).
  RelId RelationId(std::string_view name, uint32_t arity) {
    std::lock_guard<CountedMutex> lock(write_mu_);
    return RelationIdLocked(name, arity);
  }

  /// Returns the id of relation `name`, or UINT32_MAX when unknown.
  RelId FindRelation(std::string_view name) const {
    std::lock_guard<CountedMutex> lock(write_mu_);
    return relations_.Lookup(name);
  }

  /// Like RelationId, but returns UINT32_MAX instead of aborting when the
  /// relation exists with a different arity (for parsers).
  RelId TryRelationId(std::string_view name, uint32_t arity) {
    std::lock_guard<CountedMutex> lock(write_mu_);
    RelId existing = relations_.Lookup(name);
    if (existing != UINT32_MAX && Arity(existing) != arity) return UINT32_MAX;
    return RelationIdLocked(name, arity);
  }

  /// Registers a fresh relation with a name derived from `base` that does not
  /// clash with existing names (single testing registers its P_db marker
  /// relation this way).
  RelId FreshRelation(std::string_view base, uint32_t arity);

  /// Lock-free. Counts relations whose arity is published, so every id below
  /// it is safe to pass to Arity / RelationName.
  uint32_t NumRelations() const { return arities_.size(); }
  uint32_t Arity(RelId r) const { return arities_[r]; }
  const std::string& RelationName(RelId r) const { return relations_.Name(r); }

  /// Pre-sizes the constant interner for `n` total constants; workload
  /// generators and loaders call this so bulk interning never rehashes.
  void ReserveConstants(uint32_t n) {
    std::lock_guard<CountedMutex> lock(write_mu_);
    constants_.Reserve(n);
  }

  /// Interns a constant name; the result is a Value with the constant tag.
  Value ConstantId(std::string_view name) {
    std::lock_guard<CountedMutex> lock(write_mu_);
    Value v = constants_.Intern(name);
    OMQE_CHECK(IsConstant(v));
    return v;
  }
  Value FindConstant(std::string_view name) const {
    std::lock_guard<CountedMutex> lock(write_mu_);
    return constants_.Lookup(name);
  }
  uint32_t NumConstants() const { return constants_.size(); }

  /// Renders any value: constant name, null "_:n<i>", or wildcard "*"/"*_j".
  std::string ValueName(Value v) const;

  /// Allocation-free, lock-free access to a constant's stored name (requires
  /// IsConstant(v)). The hot row-rendering path of the serving subsystem.
  const std::string& ConstantName(Value v) const { return constants_.Name(v); }

 private:
  RelId RelationIdLocked(std::string_view name, uint32_t arity);

  /// Serializes the writer side and the by-name lookups; by-id reads never
  /// touch it.
  mutable CountedMutex write_mu_;
  Interner relations_;
  /// Published after the relation's name, so NumRelations() never counts a
  /// relation whose arity is not yet readable.
  SegmentedVector<uint32_t> arities_;
  Interner constants_;
};

/// A finite set of relation symbols; the data schema S of an OMQ.
class SchemaSet {
 public:
  SchemaSet() = default;

  void Add(RelId r) {
    if (r >= member_.size()) member_.resize(r + 1, false);
    if (!member_[r]) {
      member_[r] = true;
      rels_.push_back(r);
    }
  }
  bool Contains(RelId r) const { return r < member_.size() && member_[r]; }
  const std::vector<RelId>& Relations() const { return rels_; }
  bool empty() const { return rels_.empty(); }

 private:
  std::vector<bool> member_;
  std::vector<RelId> rels_;
};

}  // namespace omqe

#endif  // OMQE_DATA_SCHEMA_H_
