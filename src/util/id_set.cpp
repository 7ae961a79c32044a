#include "util/id_set.hpp"

#include <cstring>

namespace ssr {

void IdSet::grow(std::size_t need) {
  if (need <= capacity_) return;
  std::size_t cap = capacity_ * 2;
  if (cap < need) cap = need;
  NodeId* fresh = new NodeId[cap];
  std::memcpy(fresh, data(), size_ * sizeof(NodeId));
  delete[] heap_;
  heap_ = fresh;
  capacity_ = cap;
}

void IdSet::copy_from(const IdSet& other) {
  size_ = other.size_;
  if (other.size_ <= kInlineCapacity) {
    capacity_ = kInlineCapacity;
    heap_ = nullptr;
    std::memcpy(inline_, other.data(), size_ * sizeof(NodeId));
  } else {
    capacity_ = other.size_;
    heap_ = new NodeId[capacity_];
    std::memcpy(heap_, other.heap_, size_ * sizeof(NodeId));
  }
}

void IdSet::steal_from(IdSet& other) noexcept {
  size_ = other.size_;
  if (other.heap_ != nullptr) {
    heap_ = other.heap_;
    capacity_ = other.capacity_;
    other.heap_ = nullptr;
  } else {
    heap_ = nullptr;
    capacity_ = kInlineCapacity;
    std::memcpy(inline_, other.inline_, size_ * sizeof(NodeId));
  }
  other.size_ = 0;
  other.capacity_ = kInlineCapacity;
}

IdSet::IdSet(std::initializer_list<NodeId> ids) {
  for (NodeId id : ids) insert(id);
}

IdSet IdSet::from_vector(std::vector<NodeId> ids) {
  // An empty vector may hand out a null data(); it is never dereferenced.
  const NodeId* p = ids.data();
  return collect(ids.size(), [&p] { return *p++; });
}

void IdSet::normalize() {
  NodeId* p = data();
  if (!std::is_sorted(p, p + size_)) std::sort(p, p + size_);
  size_ = static_cast<std::size_t>(std::unique(p, p + size_) - p);
}

bool IdSet::insert_slow(NodeId id) {
  NodeId* p = data();
  NodeId* it = std::lower_bound(p, p + size_, id);
  if (it != p + size_ && *it == id) return false;
  const std::size_t at = static_cast<std::size_t>(it - p);
  if (size_ == capacity_) {
    grow(size_ + 1);
    p = data();
  }
  std::memmove(p + at + 1, p + at, (size_ - at) * sizeof(NodeId));
  p[at] = id;
  ++size_;
  return true;
}

bool IdSet::erase(NodeId id) {
  NodeId* p = data();
  NodeId* it = std::lower_bound(p, p + size_, id);
  if (it == p + size_ || *it != id) return false;
  std::memmove(it, it + 1,
               (size_ - static_cast<std::size_t>(it - p) - 1) *
                   sizeof(NodeId));
  --size_;
  return true;
}

bool IdSet::subset_of(const IdSet& other) const {
  return std::includes(other.begin(), other.end(), begin(), end());
}

IdSet IdSet::intersect(const IdSet& other) const {
  IdSet out;
  // Result is no larger than the smaller input; reserve once so the
  // set-algorithm loop below appends without reallocating.
  out.grow(std::min(size_, other.size_));
  const NodeId* last = std::set_intersection(begin(), end(), other.begin(),
                                             other.end(), out.data());
  out.size_ = static_cast<std::size_t>(last - out.data());
  return out;
}

IdSet IdSet::unite(const IdSet& other) const {
  IdSet out;
  out.grow(size_ + other.size_);
  const NodeId* last = std::set_union(begin(), end(), other.begin(),
                                      other.end(), out.data());
  out.size_ = static_cast<std::size_t>(last - out.data());
  return out;
}

IdSet IdSet::subtract(const IdSet& other) const {
  IdSet out;
  out.grow(size_);
  const NodeId* last = std::set_difference(begin(), end(), other.begin(),
                                           other.end(), out.data());
  out.size_ = static_cast<std::size_t>(last - out.data());
  return out;
}

std::size_t IdSet::intersection_size(const IdSet& other) const {
  std::size_t n = 0;
  const NodeId* a = begin();
  const NodeId* b = other.begin();
  while (a != end() && b != other.end()) {
    if (*a < *b) {
      ++a;
    } else if (*b < *a) {
      ++b;
    } else {
      ++n;
      ++a;
      ++b;
    }
  }
  return n;
}

std::string IdSet::to_string() const {
  std::string out = "{";
  const NodeId* p = data();
  for (std::size_t i = 0; i < size_; ++i) {
    if (i != 0) out += ",";
    out += std::to_string(p[i]);
  }
  out += "}";
  return out;
}

}  // namespace ssr
