#include "fd/theta_fd.hpp"

#include <algorithm>

namespace ssr::fd {

void ThetaFD::heartbeat(NodeId from) {
  if (from == self_) return;
  for (auto& [id, count] : counts_) {
    if (id != from) ++count;
  }
  counts_[from] = 0;
  // Bounded storage: keep at most N-1 peers — evict the stalest.
  while (counts_.size() > cfg_.max_nodes - 1) {
    auto worst = std::max_element(
        counts_.begin(), counts_.end(),
        [](const auto& a, const auto& b) { return a.second < b.second; });
    counts_.erase(worst);
  }
}

std::vector<std::pair<NodeId, std::uint64_t>> ThetaFD::ranking() const {
  std::vector<std::pair<NodeId, std::uint64_t>> v(counts_.begin(),
                                                  counts_.end());
  std::sort(v.begin(), v.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second < b.second;
    return a.first < b.first;
  });
  return v;
}

std::uint64_t ThetaFD::limit(std::uint64_t base) const {
  // A healthy peer's count hovers around the number of peers (every token
  // from any peer increments all the others), so the trust threshold must
  // scale with the population; a crashed peer's count still grows without
  // bound and crosses any such limit (the "ever-expanding gap").
  return cfg_.theta * (base + 1) + cfg_.theta * counts_.size();
}

IdSet ThetaFD::trusted() const {
  IdSet out;
  out.insert(self_);
  if (counts_.empty()) return out;
  std::uint64_t min_count = ~0ULL;
  for (const auto& [id, count] : counts_) {
    (void)id;
    min_count = std::min(min_count, count);
  }
  const std::uint64_t lim = limit(min_count);
  // heartbeat()'s eviction keeps at most N-1 peers, so self plus every peer
  // within the limit never exceeds N entries.
  for (const auto& [id, count] : counts_) {
    if (count <= lim) out.insert(id);
  }
  return out;
}

std::size_t ThetaFD::active_estimate() const {
  const auto ranked = ranking();
  std::size_t n = 1;  // self
  std::uint64_t prev = 0;
  for (const auto& [id, count] : ranked) {
    (void)id;
    if (count > limit(prev)) break;  // the significant gap
    ++n;
    prev = count;
    if (n >= cfg_.max_nodes) break;
  }
  return n;
}

void ThetaFD::inject_corruption(Rng& rng, std::uint64_t max_count) {
  for (auto& [id, count] : counts_) {
    (void)id;
    count = rng.next_below(max_count + 1);
  }
}

}  // namespace ssr::fd
