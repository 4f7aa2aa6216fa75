// SegmentedVector: an append-only array whose elements never move, readable
// by index without a lock while one writer appends.
//
// Storage is a ladder of power-of-two segments: segment s holds
// kFirst << s slots, so index i lives in segment floor(log2(i + kFirst)) -
// log2(kFirst) at a fixed offset. A segment, once allocated, is neither
// reallocated nor freed before the container is destroyed. So a reference
// to an element stays valid, at the same address, for the container's whole
// lifetime; std::vector's growth would move every element out from under a
// concurrent reader.
//
// Concurrency contract: ONE writer at a time (emplace_back / reserve; the
// caller serializes writers). Readers call operator[] / size() concurrently
// with that writer:
//   - the writer stores a new segment's pointer with release semantics
//     before constructing into it, and bumps size() with release semantics
//     after the element is constructed;
//   - so an index below an acquire-loaded size(), or one the reader learned
//     through any other happens-before edge from the writer (a mutex, a
//     published registry snapshot, a thread start), reads a fully
//     constructed element.
// Indices are uint32_t: the container holds at most 2^32 - 1 elements.
#ifndef OMQE_BASE_SEGMENTED_VECTOR_H_
#define OMQE_BASE_SEGMENTED_VECTOR_H_

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <memory>
#include <new>
#include <utility>

#include "base/status.h"

namespace omqe {

template <typename T>
class SegmentedVector {
 public:
  SegmentedVector() = default;
  SegmentedVector(const SegmentedVector&) = delete;
  SegmentedVector& operator=(const SegmentedVector&) = delete;

  ~SegmentedVector() {
    uint64_t live = size_.load(std::memory_order_relaxed);
    // Segments are allocated in index order, so the first null ends them.
    for (uint32_t s = 0; s < kMaxSegments; ++s) {
      T* seg = segments_[s].load(std::memory_order_relaxed);
      if (seg == nullptr) break;
      const uint64_t cap = SegmentCapacity(s);
      const uint64_t n = std::min(live, cap);
      std::destroy_n(seg, n);
      live -= n;
      std::allocator<T>().deallocate(seg, cap);
    }
  }

  /// Element `i`; `i` must be published (see the header comment). The
  /// reference is stable for the container's lifetime.
  const T& operator[](uint32_t i) const {
    const Slot slot = Locate(i);
    return segments_[slot.segment].load(std::memory_order_acquire)[slot.offset];
  }

  /// Number of published elements.
  uint32_t size() const {
    return static_cast<uint32_t>(size_.load(std::memory_order_acquire));
  }

  /// Writer: constructs the next element in place and publishes it.
  /// Returns its index.
  template <typename... Args>
  uint32_t emplace_back(Args&&... args) {
    const uint64_t i = size_.load(std::memory_order_relaxed);
    OMQE_CHECK(i < UINT32_MAX);
    const Slot slot = Locate(static_cast<uint32_t>(i));
    T* seg = EnsureSegment(slot.segment);
    ::new (static_cast<void*>(seg + slot.offset)) T(std::forward<Args>(args)...);
    size_.store(i + 1, std::memory_order_release);
    return static_cast<uint32_t>(i);
  }

  /// Writer: allocates every segment covering indices [0, n), so the next
  /// appends up to n allocate nothing.
  void reserve(uint32_t n) {
    if (n == 0) return;
    const uint32_t last = Locate(n - 1).segment;
    for (uint32_t s = 0; s <= last; ++s) EnsureSegment(s);
  }

  /// The segment index `i` lives in (tests use it to cross boundaries).
  static uint32_t SegmentOf(uint32_t i) { return Locate(i).segment; }

  /// Slots in segment `s`.
  static uint64_t SegmentCapacity(uint32_t s) { return kFirst << s; }

 private:
  static constexpr uint32_t kFirstBits = 4;  // segment 0 holds 16 slots
  static constexpr uint64_t kFirst = uint64_t{1} << kFirstBits;
  // i + kFirst < 2^33 for every uint32_t index, so floor(log2) <= 32.
  static constexpr uint32_t kMaxSegments = 33 - kFirstBits;

  struct Slot {
    uint32_t segment;
    uint64_t offset;
  };

  static Slot Locate(uint32_t i) {
    const uint64_t j = uint64_t{i} + kFirst;
    const uint32_t top = static_cast<uint32_t>(std::bit_width(j)) - 1;
    return {top - kFirstBits, j - (uint64_t{1} << top)};
  }

  T* EnsureSegment(uint32_t s) {
    // Relaxed: only the (serialized) writer stores these pointers.
    T* seg = segments_[s].load(std::memory_order_relaxed);
    if (seg == nullptr) {
      seg = std::allocator<T>().allocate(SegmentCapacity(s));
      segments_[s].store(seg, std::memory_order_release);
    }
    return seg;
  }

  std::atomic<T*> segments_[kMaxSegments] = {};
  std::atomic<uint64_t> size_{0};
};

}  // namespace omqe

#endif  // OMQE_BASE_SEGMENTED_VECTOR_H_
