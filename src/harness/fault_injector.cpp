#include "harness/fault_injector.hpp"

namespace ssr::harness {

void FaultInjector::corrupt_recsa(NodeId id) {
  world_.node(id).recsa().inject_corruption(rng_, world_.alive());
}

void FaultInjector::corrupt_all_recsa() {
  for (NodeId id : world_.alive()) corrupt_recsa(id);
}

void FaultInjector::split_config(const IdSet& a, const IdSet& b) {
  bool first_half = true;
  const IdSet alive = world_.alive();
  std::size_t i = 0;
  for (NodeId id : alive) {
    first_half = i < alive.size() / 2;
    auto& recsa = world_.node(id).recsa();
    const IdSet& mine = first_half ? a : b;
    recsa.inject_config(id, reconf::ConfigValue::set(mine));
    ++i;
  }
}

void FaultInjector::corrupt_fd(NodeId id) {
  world_.node(id).failure_detector().inject_corruption(rng_);
}

void FaultInjector::corrupt_all_fd() {
  for (NodeId id : world_.alive()) corrupt_fd(id);
}

void FaultInjector::fill_channels_with_garbage(std::size_t per_channel) {
  world_.network().for_each_channel(
      [&](NodeId, NodeId, net::Channel& ch) { ch.inject_garbage(per_channel); });
}

void FaultInjector::plant_recma_flags(NodeId id, bool no_maj,
                                      bool need_reconf) {
  auto& n = world_.node(id);
  for (NodeId other : world_.alive()) {
    n.recma().inject_flags(other, no_maj, need_reconf);
  }
}

void FaultInjector::plant_exhausted_counter(NodeId id, std::uint64_t seqn) {
  auto& n = world_.node(id);
  auto& store = n.counters().store();
  counter::Counter c;
  c.lbl = label::Label::next_label(id, {}, rng_);
  c.seqn = seqn;
  c.wid = id;
  store.inject_max(id, counter::CounterPair::of(c));
}

}  // namespace ssr::harness
