#include "harness/world.hpp"

#include "util/assert.hpp"

namespace ssr::harness {

World::World(WorldConfig cfg)
    : cfg_(cfg),
      rng_(cfg.seed),
      net_(sched_, Rng(cfg.seed ^ 0xC0FFEE), cfg.channel),
      transport_(net_) {
  // Warm start: pre-size the event slab and the timing wheel's node pool so
  // scenario startup does not pay growth reallocations on the first traffic
  // bursts. The steady-state population is one timer per node plus
  // capacity-bounded in-flight packets per channel pair; 4096 covers every
  // library scenario.
  sched_.reserve(4096);
  if (cfg_.adversary.enabled) {
    adversary_ = std::make_unique<net::Adversary>(
        sched_, Rng(cfg_.seed ^ 0xADE551ULL), cfg_.adversary);
    // The believed coordinator: the VS layer's elected one when available,
    // otherwise the lowest alive id (the deterministic tie-break every
    // choose rule in Algorithm 3.1 leans toward).
    adversary_->set_coordinator_probe([this]() -> NodeId {
      for (const auto& [id, n] : nodes_) {
        if (!n->started() || n->crashed()) continue;
        vs::VsSmr* v = n->vs();
        if (v != nullptr && !v->view().is_null() && !v->no_coordinator()) {
          return v->coordinator();
        }
      }
      for (const auto& [id, n] : nodes_) {
        if (n->started() && !n->crashed()) return id;
      }
      return kNoNode;
    });
    net_.set_adversary(adversary_.get());
  }
}

node::Node& World::add_stopped_node(NodeId id) {
  SSR_ASSERT(!nodes_.count(id), "node id reused — identifiers are unique");
  auto n = std::make_unique<node::Node>(transport_, id, cfg_.node, rng_.fork());
  auto& ref = *n;
  nodes_[id] = std::move(n);
  return ref;
}

node::Node& World::add_node(NodeId id) {
  node::Node& n = add_stopped_node(id);
  boot(id);
  return n;
}

void World::boot(NodeId id) {
  IdSet seeds;
  for (const auto& [other, n] : nodes_) {
    if (other != id && n->started() && !n->crashed()) seeds.insert(other);
  }
  node(id).start(seeds);
}

node::Node& World::node(NodeId id) {
  auto it = nodes_.find(id);
  SSR_ASSERT(it != nodes_.end(), "unknown node id");
  return *it->second;
}

void World::crash(NodeId id) { node(id).crash(); }

IdSet World::alive() const {
  IdSet out;
  for (const auto& [id, n] : nodes_) {
    if (n->started() && !n->crashed()) out.insert(id);
  }
  return out;
}

IdSet World::all_ids() const {
  IdSet out;
  for (const auto& [id, n] : nodes_) {
    (void)n;
    out.insert(id);
  }
  return out;
}

template <class Pred>
std::optional<SimTime> World::run_until(Pred pred, SimTime timeout,
                                        SimTime check_every) {
  const SimTime start = sched_.now();
  const SimTime deadline = start + timeout;
  while (sched_.now() < deadline) {
    if (pred()) return sched_.now() - start;
    run_for(check_every);
  }
  return pred() ? std::optional<SimTime>(sched_.now() - start) : std::nullopt;
}

std::optional<SimTime> World::run_until_converged(SimTime timeout,
                                                  SimTime check_every) {
  return run_until([this] { return converged(); }, timeout, check_every);
}

std::optional<SimTime> World::run_until_vs_stable(SimTime timeout,
                                                  SimTime check_every) {
  return run_until([this] { return vs_stable(); }, timeout, check_every);
}

}  // namespace ssr::harness
