#pragma once

#include <algorithm>
#include <compare>
#include <cstddef>
#include <initializer_list>
#include <iosfwd>
#include <string>
#include <vector>

#include "util/types.hpp"

namespace ssr {

/// Ordered set of processor identifiers with value semantics.
///
/// Configurations, failure-detector outputs and participant sets are all
/// small sets of NodeIds that are compared, intersected and serialized
/// constantly; a sorted array beats node-based containers for every use in
/// this library and gives deterministic iteration order (required for the
/// deterministic "choose" and lexical-max rules of Algorithm 3.1).
///
/// Storage is a small-buffer optimization: up to kInlineCapacity ids live
/// directly in the object (participant/config sets almost never exceed a
/// dozen members), so the protocol hot paths — copies of configurations in
/// recSA/recMA state, temporary intersections in quorum checks — touch no
/// allocator. Larger sets spill to a heap array transparently.
class IdSet {
 public:
  /// Sets of ≤16 ids are stored inline. Sized for the scenario library's
  /// largest cohorts (flood-of-joiners peaks at 13 nodes) with headroom.
  static constexpr std::size_t kInlineCapacity = 16;

  // User-provided (not `= default`) so const-qualified default-initialized
  // aggregates holding an IdSet stay well-formed with the uninitialized
  // inline buffer (only the first size_ slots are ever meaningful).
  IdSet() {}
  IdSet(std::initializer_list<NodeId> ids);
  /// Builds from an arbitrary (possibly unsorted, duplicated) vector.
  static IdSet from_vector(std::vector<NodeId> ids);
  /// Builds from the `n` ids that `next()` returns, in any order and with
  /// duplicates, without a temporary: up to kInlineCapacity ids touch no
  /// allocator (the wire decoder builds every received set this way).
  template <class Next>
  static IdSet collect(std::size_t n, Next next) {
    IdSet s;
    s.grow(n);
    NodeId* p = s.data();
    for (std::size_t i = 0; i < n; ++i) p[i] = next();
    s.size_ = n;
    s.normalize();
    return s;
  }

  IdSet(const IdSet& other) { copy_from(other); }
  IdSet(IdSet&& other) noexcept { steal_from(other); }
  IdSet& operator=(const IdSet& other) {
    if (this != &other) {
      release();
      copy_from(other);
    }
    return *this;
  }
  IdSet& operator=(IdSet&& other) noexcept {
    if (this != &other) {
      release();
      steal_from(other);
    }
    return *this;
  }
  ~IdSet() { release(); }

  /// Defined inline: membership tests run tens of millions of times per
  /// scenario. Sets are small (participants/configurations), so a linear
  /// scan with early exit beats binary search below ~32 elements.
  bool contains(NodeId id) const {
    const NodeId* p = data();
    if (size_ <= 32) {
      for (std::size_t i = 0; i < size_; ++i) {
        if (p[i] >= id) return p[i] == id;
      }
      return false;
    }
    return std::binary_search(p, p + size_, id);
  }
  /// Inserts `id`; returns true if it was not already present. Inline for
  /// the same reason as contains(); appends (the common case — callers
  /// insert in ascending order) avoid the general shift path.
  bool insert(NodeId id) {
    if (size_ == 0 || data()[size_ - 1] < id) {
      if (size_ == capacity_) grow(size_ + 1);
      data()[size_++] = id;
      return true;
    }
    return insert_slow(id);
  }
  /// Removes `id`; returns true if it was present.
  bool erase(NodeId id);
  void clear() { size_ = 0; }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// True if every element of *this is in `other`.
  bool subset_of(const IdSet& other) const;
  IdSet intersect(const IdSet& other) const;
  IdSet unite(const IdSet& other) const;
  IdSet subtract(const IdSet& other) const;

  /// Number of elements present in both sets (|a ∩ b| without allocating).
  std::size_t intersection_size(const IdSet& other) const;

  const NodeId* begin() const { return data(); }
  const NodeId* end() const { return data() + size_; }
  /// Materializes the contents as a vector (by value: the backing storage
  /// may be the inline buffer, so there is no stable vector to reference).
  std::vector<NodeId> values() const {
    return std::vector<NodeId>(begin(), end());
  }

  /// Total order used for deterministic tie-breaking (lexicographic on the
  /// sorted contents — matches the paper's ordering of proposal sets).
  friend std::strong_ordering operator<=>(const IdSet& a, const IdSet& b) {
    return std::lexicographical_compare_three_way(a.begin(), a.end(),
                                                  b.begin(), b.end());
  }
  friend bool operator==(const IdSet& a, const IdSet& b) {
    return a.size_ == b.size_ && std::equal(a.begin(), a.end(), b.begin());
  }

  std::string to_string() const;

 private:
  const NodeId* data() const { return heap_ != nullptr ? heap_ : inline_; }
  NodeId* data() { return heap_ != nullptr ? heap_ : inline_; }
  bool insert_slow(NodeId id);
  /// Sorts and deduplicates the first size_ ids in place.
  void normalize();
  /// Ensures capacity ≥ need (geometric growth once spilled).
  void grow(std::size_t need);
  void release() {
    delete[] heap_;
    heap_ = nullptr;
    size_ = 0;
    capacity_ = kInlineCapacity;
  }
  void copy_from(const IdSet& other);
  void steal_from(IdSet& other) noexcept;

  std::size_t size_ = 0;
  std::size_t capacity_ = kInlineCapacity;
  NodeId* heap_ = nullptr;          // nullptr ⇒ contents are in inline_
  NodeId inline_[kInlineCapacity];  // sorted, unique
};

/// Prints to_string(), e.g. {1,2,3} (gtest shows failing comparisons so).
std::ostream& operator<<(std::ostream& os, const IdSet& s);

}  // namespace ssr
