#include "node/node.hpp"

namespace ssr::node {

reconf::RecMA::EvalConf quarter_failed_policy(const fd::ThetaFD& fd) {
  return [&fd](const IdSet& cfg) {
    const IdSet trusted = fd.trusted();
    const std::size_t suspected = cfg.size() - cfg.intersection_size(trusted);
    return suspected > 0 && suspected * 4 >= cfg.size();
  };
}

reconf::RecMA::EvalConf prediction_policy(Node& n, bool aggressive,
                                          bool adopt_joiners) {
  reconf::RecMA::EvalConf base = quarter_failed_policy(n.failure_detector());
  if (aggressive) {
    base = [&n](const IdSet& cfg) {
      return cfg.intersection_size(n.failure_detector().trusted()) <
             cfg.size();
    };
  }
  if (!adopt_joiners) return base;
  return [&n, base = std::move(base)](const IdSet& cfg) {
    if (base(cfg)) return true;
    const IdSet admitted =
        n.recsa().participants().intersect(n.failure_detector().trusted());
    return !admitted.subset_of(cfg);
  };
}

Node::Node(net::Transport& transport, NodeId id, NodeConfig cfg, Rng rng)
    : transport_(transport),
      id_(id),
      cfg_(cfg),
      rng_(rng),
      mux_(transport, id, cfg.mux, rng_.fork()),
      fd_(id, cfg.fd),
      recsa_(mux_, id, [this] { return fd_.trusted(); }),
      recma_(mux_, recsa_, id,
             [this](const IdSet& c) { return eval_conf_(c); }),
      joiner_(
          mux_, recsa_, id, cfg.join, [this] { return pass_query_(); },
          [this] {
            return vs_ ? vs_->state_machine().snapshot() : wire::Bytes{};
          },
          [this] {
            if (vs_) vs_->state_machine().reset();
          },
          [this](const std::vector<wire::Bytes>& states) {
            if (!vs_) return;
            for (const auto& s : states) {
              if (!s.empty()) {
                vs_->state_machine().restore(s);
                return;
              }
            }
          }),
      labeling_(mux_, recsa_, id, cfg.label_store, rng_.fork()),
      counters_(mux_, recsa_, id, cfg.counter, rng_.fork()),
      increment_(recsa_, counters_, mux_, id, cfg.increment, rng_.fork()),
      registers_(mux_, recsa_, counters_, id, cfg.shmem, rng_.fork()),
      pass_query_([] { return true; }),
      eval_conf_(quarter_failed_policy(fd_)),
      fetch_([]() -> std::optional<wire::Bytes> { return std::nullopt; }) {
  if (cfg_.enable_vs) {
    vs_ = std::make_unique<vs::VsSmr>(
        mux_, recsa_, counters_, id, std::make_unique<vs::KvStateMachine>(),
        [this] { return fetch_(); },
        [this](const IdSet& c) { return eval_conf_(c); }, cfg_.increment,
        rng_.fork());
    // Algorithm 4.6: the view coordinator owns delicate reconfigurations.
    recma_.set_direct_trigger([this] { return vs_->need_delicate_reconf(); });
  }
  mux_.set_heartbeat_handler([this](NodeId peer) { fd_.heartbeat(peer); });
}

Node::~Node() { crash(); }

void Node::set_pass_query(reconf::Joiner::PassQuery fn) {
  pass_query_ = std::move(fn);
}
void Node::set_eval_conf(reconf::RecMA::EvalConf fn) {
  eval_conf_ = std::move(fn);
}
void Node::set_fetch(vs::VsSmr::FetchFn fn) { fetch_ = std::move(fn); }

void Node::start(const IdSet& seed_peers) {
  if (started_ || crashed_) return;
  started_ = true;
  transport_.attach(id_, [this](const net::Packet& pkt) {
    if (!crashed_) mux_.handle_packet(pkt);
  });
  for (NodeId peer : seed_peers) {
    if (peer != id_) mux_.connect(peer);
  }
  mux_.flush_transport();  // cleaning probes for every seed peer, one batch
  arm_timer();
}

void Node::crash() {
  if (crashed_) return;
  crashed_ = true;
  timer_.cancel();
  mux_.shutdown();
  if (started_) transport_.detach(id_);
}

void Node::arm_timer() {
  const SimTime jitter = rng_.next_below(cfg_.tick_period / 4 + 1);
  timer_ = transport_.schedule_after(cfg_.tick_period + jitter,
                                     [this] { tick(); });
}

void Node::tick() {
  if (crashed_) return;
  recsa_.tick();
  recma_.tick();
  joiner_.tick();
  labeling_.tick();
  counters_.tick();
  increment_.tick();
  if (vs_) vs_->tick();
  registers_.tick();
  mux_.flush_transport();  // tick boundary: the whole fan-out in one batch
  arm_timer();
}

}  // namespace ssr::node
