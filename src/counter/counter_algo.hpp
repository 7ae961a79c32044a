#pragma once

#include <functional>

#include "counter/counter_store.hpp"
#include "dlink/link_mux.hpp"
#include "reconf/recsa.hpp"
#include "util/memo.hpp"

namespace ssr::counter {

struct CounterConfig {
  /// Sequence-number exhaustion bound 2^b (tests use tiny bounds to
  /// exercise epoch rollover; 2^62 is practically inexhaustible).
  std::uint64_t exhaust_bound = 1ULL << 62;
  label::StoreConfig store;
};

struct CounterMgrStats {
  std::uint64_t rebuilds = 0;
  std::uint64_t exchanges = 0;
  std::uint64_t reads_served = 0;
  std::uint64_t writes_served = 0;
  std::uint64_t aborts_sent = 0;
  std::uint64_t exhaust_cancels = 0;
};

/// Message tags on the counter port.
struct CounterMsg {
  static constexpr std::uint8_t kExchange = 1;
  static constexpr std::uint8_t kReadReq = 2;
  static constexpr std::uint8_t kReadResp = 3;
  static constexpr std::uint8_t kWriteReq = 4;
  static constexpr std::uint8_t kWriteResp = 5;
};

/// Counter management — Algorithm 4.3 plus the member ("server") side of the
/// increment protocol (Algorithm 4.4 lines 20–24 and 32–36): configuration
/// members maintain the maximal counter by exchanging maxC pairs exactly as
/// the labeling algorithm exchanges labels, answer majority-read and
/// majority-write requests, and abort them during reconfigurations.
class CounterManager {
 public:
  /// Routes read/write responses to the local increment client.
  using RespHandler = std::function<void(NodeId from, std::uint8_t tag,
                                         std::uint32_t op, bool abort,
                                         const CounterPair& pair)>;

  CounterManager(dlink::LinkMux& mux, reconf::RecSA& recsa, NodeId self,
                 CounterConfig cfg, Rng rng);

  /// One do-forever iteration (reconfiguration absorption + exchange).
  void tick();

  /// findMaxCounter(): cancel exhausted maxima, run the receipt action,
  /// leaving local_max() at the best known (possibly freshly minted) value.
  void find_max();

  /// Adopts a successfully written counter (maxC[i] ← newCntr; enqueue).
  void adopt_local(const Counter& c);

  const CounterPair& local_max() { return store_.local_max(); }
  CounterStore& store() { return store_; }
  bool member() const { return member_; }
  const IdSet& members() const { return store_.members(); }
  std::uint64_t exhaust_bound() const { return cfg_.exhaust_bound; }

  /// Several increment clients may coexist (the VS layer and the
  /// application); responses are fanned out and filtered by operation id.
  void add_response_handler(RespHandler fn) {
    resp_handlers_.push_back(std::move(fn));
  }

  const CounterMgrStats& stats() const { return stats_; }

 private:
  bool conf_change(const reconf::ConfigValue& cur) const;
  void on_message(NodeId from, const wire::Bytes& data);
  void serve_read(NodeId from, std::uint32_t op);
  void serve_write(NodeId from, std::uint32_t op, const Counter& c);
  void cancel_exhausted();
  wire::Bytes encode_exchange(NodeId peer);

  dlink::LinkMux& mux_;
  reconf::RecSA& recsa_;
  NodeId self_;
  CounterConfig cfg_;
  CounterStore store_;
  bool member_ = false;
  util::Memo published_;  // store version of the exchange slots
  std::vector<RespHandler> resp_handlers_;
  CounterMgrStats stats_;
};

}  // namespace ssr::counter
