#include "node/snapshot.hpp"

#include "node/node.hpp"

namespace ssr::node {

NodeSnapshot NodeSnapshot::of(Node& n) {
  NodeSnapshot s;
  s.id = n.id();
  s.no_reco = n.recsa().no_reco();
  s.participant = n.recsa().is_participant();
  s.config = n.recsa().get_config_ref();
  // The policy is only defined over a set configuration, and the
  // predicates read it only here; skipping it elsewhere keeps polling cheap.
  s.advised = s.no_reco && s.config.is_proper() && n.reconfig_advised();
  if (const vs::VsSmr* v = n.vs()) {
    Vs& out = s.vs.emplace();
    out.multicast = v->status() == vs::Status::kMulticast;
    out.no_coordinator = v->no_coordinator();
    out.coordinator = v->coordinator();
    if (s.participant && out.multicast && !out.no_coordinator) {
      out.view = v->view();
    }
  }
  return s;
}

}  // namespace ssr::node
