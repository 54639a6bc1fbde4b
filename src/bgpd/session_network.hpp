// Drives a full mesh of BGP sessions over an AS graph to convergence:
// deterministic FIFO message processing, per-run telemetry, and dynamic
// events (origination and withdrawal) mid-run.
#pragma once

#include <deque>
#include <vector>

#include "bgpd/speaker.hpp"

namespace mifo::bgpd {

class SessionNetwork {
 public:
  explicit SessionNetwork(const topo::AsGraph& g);

  [[nodiscard]] Speaker& speaker(AsId as);
  [[nodiscard]] const Speaker& speaker(AsId as) const;

  /// Originate one AS's prefix (enqueues its announcements).
  void originate(AsId as);
  /// Originate every AS's prefix.
  void originate_all();
  /// Withdraw a previously originated prefix.
  void withdraw(AsId as);

  /// Process queued messages until quiescence. Returns the number of
  /// messages processed; aborts via contract if `max_messages` is hit
  /// (Gao–Rexford policies guarantee convergence, so hitting the cap means
  /// a protocol bug).
  std::size_t run_to_convergence(std::size_t max_messages = 0);

  [[nodiscard]] bool converged() const { return queue_.empty(); }
  [[nodiscard]] std::size_t queued() const { return queue_.size(); }

 private:
  struct InFlight {
    AsId from;
    AsId to;
    UpdateMsg msg;
  };

  void enqueue(AsId from, std::vector<OutboundUpdate> out);

  const topo::AsGraph* graph_;
  std::vector<Speaker> speakers_;
  std::deque<InFlight> queue_;
};

}  // namespace mifo::bgpd
