// String interner: bidirectional mapping between strings and dense uint32
// ids. Used for constants and relation names.
//
// Concurrency: single writer, lock-free readers by id. Names live in a
// SegmentedVector, so Name(id) and size() are safe while one writer interns,
// and Name(id) returns a reference that stays at the same address for the
// interner's lifetime. The writer side (Intern, Reserve, Freeze) and the
// by-name Lookup — which probes the hash table the writer rehashes — must be
// serialized by the caller; Vocabulary does it with one CountedMutex.
#ifndef OMQE_BASE_INTERNER_H_
#define OMQE_BASE_INTERNER_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "base/flat_hash.h"
#include "base/hash.h"
#include "base/segmented_vector.h"

namespace omqe {

class Interner {
 public:
  /// Pre-sizes for `n` total strings so a bulk intern of known size does all
  /// its hash and vector sizing up front (no intermediate rehash).
  void Reserve(uint32_t n) {
    map_.Reserve(n);
    strings_.reserve(n);
    next_.reserve(n);
  }

  /// Switches the interner into const-lookup mode: Intern() of an unknown
  /// string aborts instead of growing the tables. Concurrent enumeration
  /// sessions share the vocabulary read-only; freezing turns an accidental
  /// write (a data race under threads) into a deterministic failure.
  void Freeze() { frozen_ = true; }
  bool frozen() const { return frozen_; }

  /// Returns the id for `s`, creating one if needed.
  uint32_t Intern(std::string_view s) {
    if (frozen_) {
      uint32_t id = Lookup(s);
      OMQE_CHECK(id != UINT32_MAX);  // Intern of a new string on a frozen interner
      return id;
    }
    uint64_t h = HashString(s);
    // Resolve (rare) hash collisions with a per-hash chain of candidates.
    uint32_t* found = map_.Find(h);
    if (found != nullptr) {
      uint32_t id = *found;
      while (true) {
        if (strings_[id] == s) return id;
        if (next_[id] == kNoNext) break;
        id = next_[id];
      }
      uint32_t fresh = Add(s);
      next_[id] = fresh;
      return fresh;
    }
    uint32_t fresh = Add(s);
    map_.Put(h, fresh);
    return fresh;
  }

  /// Returns the id for `s` or UINT32_MAX when never interned.
  uint32_t Lookup(std::string_view s) const {
    const uint32_t* found = map_.Find(HashString(s));
    if (found == nullptr) return UINT32_MAX;
    uint32_t id = *found;
    while (true) {
      if (strings_[id] == s) return id;
      if (next_[id] == kNoNext) return UINT32_MAX;
      id = next_[id];
    }
  }

  /// Lock-free for any published id (see the header comment).
  const std::string& Name(uint32_t id) const { return strings_[id]; }
  uint32_t size() const { return strings_.size(); }

  /// Statistics of the underlying hash map (tests assert a reserved bulk
  /// intern performs no intermediate rehash).
  HashStats Stats() const { return map_.Stats(); }

 private:
  static constexpr uint32_t kNoNext = UINT32_MAX;

  uint32_t Add(std::string_view s) {
    next_.push_back(kNoNext);
    return strings_.emplace_back(s);
  }

  SegmentedVector<std::string> strings_;
  std::vector<uint32_t> next_;  // writer-side only, like map_
  FlatMap<uint64_t, uint32_t> map_;
  bool frozen_ = false;
};

}  // namespace omqe

#endif  // OMQE_BASE_INTERNER_H_
