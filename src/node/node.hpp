#pragma once

#include <memory>

#include "counter/increment.hpp"
#include "fd/theta_fd.hpp"
#include "label/labeling.hpp"
#include "reconf/join.hpp"
#include "reconf/recma.hpp"
#include "shmem/register_service.hpp"
#include "vs/vs_smr.hpp"

namespace ssr::node {

struct NodeConfig {
  reconf::RecSAOptions recsa;
  fd::FdConfig fd;
  dlink::MuxConfig mux;
  reconf::JoinConfig join;
  label::StoreConfig label_store;
  counter::CounterConfig counter;
  counter::IncrementConfig increment;
  shmem::ShmemConfig shmem;
  /// Period of the do-forever loop (jittered per node; the algorithms make
  /// no timing assumption — paper, Section 2).
  SimTime tick_period = 1500 * kUsec;
  /// Enables the virtually synchronous SMR layer (and with it the
  /// coordinator-led delicate reconfiguration of Algorithm 4.6).
  bool enable_vs = true;
};

/// The paper's sample prediction policy: advise reconfiguration once at
/// least a quarter of the configuration members are no longer trusted.
reconf::RecMA::EvalConf quarter_failed_policy(const fd::ThetaFD& fd);

class Node;

/// The prediction policy a node runs: quarter_failed_policy, or with
/// `aggressive` replace-on-any-suspected-member. `adopt_joiners` adds the
/// joiner-adoption term: also advise reconfiguration while some trusted
/// recSA participant is outside the configuration. Both base policies
/// count only *suspected members*, so a cohort whose churn never touches
/// a config member (joins, or crashes of other joiners) would keep its
/// configuration frozen — estab(participants()) only ever piggybacks on an
/// eviction trigger. Found by scenario_fuzz (the "joiner-adoption" library
/// scenario); opt-in so default-policy executions stay unchanged.
reconf::RecMA::EvalConf prediction_policy(Node& n, bool aggressive,
                                          bool adopt_joiners);

/// One processor running the full protocol stack of Fig. 1:
/// token links + (N,Θ)-FD + recSA + recMA + joining + labeling + counters +
/// virtually synchronous SMR + shared-memory registers. The stack depends
/// only on net::Transport, so the same node runs over the simulated fabric
/// (harness::World) and over real UDP sockets (tools/ssr_node).
class Node {
 public:
  Node(net::Transport& transport, NodeId id, NodeConfig cfg, Rng rng);
  ~Node();

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  /// Boots the processor and connects it to `seed_peers`.
  void start(const IdSet& seed_peers);
  /// Crash-stop: the processor takes no further steps and never rejoins.
  void crash();
  bool crashed() const { return crashed_; }
  bool started() const { return started_; }

  NodeId id() const { return id_; }
  /// True while the installed prediction policy advises reconfiguring the
  /// current configuration. Harness convergence checks use it: agreement on
  /// a config the policy is about to move is not a fixpoint (scenario_fuzz
  /// found mark_stable racing a pending eviction through that gap).
  bool reconfig_advised() { return eval_conf_(recsa_.get_config_ref().ids()); }
  fd::ThetaFD& failure_detector() { return fd_; }
  dlink::LinkMux& mux() { return mux_; }
  reconf::RecSA& recsa() { return recsa_; }
  reconf::RecMA& recma() { return recma_; }
  reconf::Joiner& joiner() { return joiner_; }
  label::Labeling& labeling() { return labeling_; }
  counter::CounterManager& counters() { return counters_; }
  counter::IncrementClient& increment() { return increment_; }
  shmem::RegisterService& registers() { return registers_; }
  /// Null when the VS layer is disabled.
  vs::VsSmr* vs() { return vs_.get(); }

  // -- Application hooks (set before start()) -------------------------------
  /// Admission control for joiners (passQuery()); default: always grant.
  void set_pass_query(reconf::Joiner::PassQuery fn);
  /// Reconfiguration prediction function; default: quarter_failed_policy.
  void set_eval_conf(reconf::RecMA::EvalConf fn);
  /// Next command to multicast through the SMR service.
  /// (Delivery listeners are appended directly on vs() —
  /// VsSmr::add_deliver_handler; listeners accumulate.)
  void set_fetch(vs::VsSmr::FetchFn fn);

 private:
  void tick();
  void arm_timer();

  net::Transport& transport_;
  NodeId id_;
  NodeConfig cfg_;
  Rng rng_;

  dlink::LinkMux mux_;
  fd::ThetaFD fd_;
  reconf::RecSA recsa_;
  reconf::RecMA recma_;
  reconf::Joiner joiner_;
  label::Labeling labeling_;
  counter::CounterManager counters_;
  counter::IncrementClient increment_;
  shmem::RegisterService registers_;
  std::unique_ptr<vs::VsSmr> vs_;

  // Pluggable policies (referenced by the components through indirection so
  // they can be replaced before start()).
  reconf::Joiner::PassQuery pass_query_;
  reconf::RecMA::EvalConf eval_conf_;
  vs::VsSmr::FetchFn fetch_;

  bool started_ = false;
  bool crashed_ = false;
  net::TimerHandle timer_;
};

}  // namespace ssr::node
