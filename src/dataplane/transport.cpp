#include "dataplane/transport.hpp"

#include <algorithm>

#include "common/contracts.hpp"
#include "dataplane/network.hpp"

namespace mifo::dp::transport {

namespace {

constexpr std::uint32_t kAckBytes = 40;
/// A packet is inferred lost when this many later packets were delivered
/// (the standard SACK/dupack threshold).
constexpr std::uint32_t kLossThreshold = 3;
/// Retransmission burst bound per ACK event.
constexpr int kRetxBudgetPerAck = 2;

Packet make_data(const FlowState& f, std::uint32_t seq) {
  Packet p;
  p.src = f.src_addr;
  p.dst = f.dst_addr;
  p.flow = f.id;
  p.kind = PacketKind::Data;
  p.seq = seq;
  p.size_bytes = f.params.pkt_size;
  return p;
}

Packet make_ack(const FlowState& f, std::uint32_t ack_no,
                std::uint32_t echoed_seq) {
  Packet p;
  p.src = f.dst_addr;  // ACKs travel receiver -> sender
  p.dst = f.src_addr;
  p.flow = f.id;
  p.kind = PacketKind::Ack;
  p.ack_no = ack_no;
  p.seq = echoed_seq;  // which data packet triggered this ACK
  p.size_bytes = kAckBytes;
  return p;
}

/// Push data while the window allows. After an RTO rewound next_seq this
/// walks back over the lost window, skipping segments the scoreboard knows
/// were delivered.
void try_send(Network& net, FlowState& f) {
  if (f.done) return;
  const auto window = std::max(1u, static_cast<std::uint32_t>(f.cwnd));
  std::uint32_t inflight = f.inflight();
  while (f.next_seq < f.total_pkts && inflight < window) {
    const std::uint32_t s = f.next_seq++;
    if (f.sacked.count(s) != 0) continue;  // already delivered
    if (s < f.highest_sent) {
      ++f.retransmits;
      f.retx_at[s] = net.now();  // pace retransmit_holes for this seq
    }
    f.highest_sent = std::max(f.highest_sent, f.next_seq);
    ++inflight;
    net.transmit_host(f.params.src, make_data(f, s));
  }
  if (f.high_acked < f.total_pkts) net.arm_flow_timer(f);
}

void enter_recovery(FlowState& f) {
  if (f.in_recovery) return;
  f.ssthresh = std::max(f.cwnd / 2.0, 2.0);
  f.cwnd = f.ssthresh;
  f.in_recovery = true;
  f.recover_seq = f.next_seq;
}

/// Infer losses from the scoreboard and retransmit (bounded, paced per seq).
void retransmit_holes(Network& net, FlowState& f) {
  if (f.highest_sacked < f.high_acked + kLossThreshold) return;
  // Every unsacked seq with >= kLossThreshold delivered packets above it is
  // deemed lost. Holes live in [high_acked, highest_sacked-kLossThreshold].
  // Only segments the send loop has already passed are this function's
  // responsibility — after an RTO rewound next_seq, try_send resends the
  // rest and double-sending would waste the recovery window.
  const std::uint32_t lost_upto =
      std::min(f.highest_sacked - kLossThreshold,
               f.next_seq == 0 ? 0 : f.next_seq - 1);
  int budget = kRetxBudgetPerAck;
  for (std::uint32_t s = f.high_acked; s <= lost_upto && budget > 0; ++s) {
    if (f.sacked.count(s) != 0) continue;
    const auto it = f.retx_at.find(s);
    if (it != f.retx_at.end() && net.now() - it->second < f.rto) continue;
    enter_recovery(f);
    f.retx_at[s] = net.now();
    ++f.retransmits;
    --budget;
    net.transmit_host(f.params.src, make_data(f, s));
  }
}

void finish(Network& net, FlowState& f) {
  MIFO_ASSERT(!f.done);
  f.done = true;
  f.end_time = net.now();
  net.note_completion(f);
}

}  // namespace

void on_start(Network& net, FlowState& f) {
  MIFO_EXPECTS(!f.started);
  f.started = true;
  f.start_time = net.now();
  f.last_progress = net.now();
  try_send(net, f);
}

void on_ack(Network& net, FlowState& f, const Packet& ack) {
  if (f.done) return;
  // Scoreboard update: the echoed seq was delivered.
  if (ack.seq >= f.high_acked && ack.seq < f.highest_sent) {
    f.sacked.insert(ack.seq);
    f.highest_sacked = std::max(f.highest_sacked, ack.seq + 1);
  }
  if (ack.ack_no > f.high_acked) {
    // Cumulative progress.
    f.high_acked = ack.ack_no;
    f.last_progress = net.now();
    f.sacked.erase(f.sacked.begin(), f.sacked.lower_bound(f.high_acked));
    f.retx_at.erase(f.retx_at.begin(), f.retx_at.lower_bound(f.high_acked));
    if (f.in_recovery && f.high_acked >= f.recover_seq) f.in_recovery = false;
    if (f.cwnd < f.ssthresh) {
      f.cwnd += 1.0;  // slow start
    } else {
      f.cwnd += 1.0 / f.cwnd;  // congestion avoidance
    }
    if (f.high_acked >= f.total_pkts) {
      finish(net, f);
      return;
    }
  }
  retransmit_holes(net, f);
  try_send(net, f);
}

std::uint32_t on_data(Network& net, FlowState& f, const Packet& data) {
  std::uint32_t newly = 0;
  if (data.seq == f.expected) {
    ++f.expected;
    ++newly;
    // Drain any buffered out-of-order continuation.
    auto it = f.ooo.begin();
    while (it != f.ooo.end() && *it == f.expected) {
      ++f.expected;
      ++newly;
      it = f.ooo.erase(it);
    }
  } else if (data.seq > f.expected) {
    f.ooo.insert(data.seq);
  }
  // Cumulative ACK for every data packet (duplicates included), echoing the
  // arriving sequence so the sender's scoreboard stays exact.
  net.transmit_host(f.params.dst, make_ack(f, f.expected, data.seq));
  return newly;
}

void on_timer(Network& net, FlowState& f) {
  if (f.done) return;
  if (f.high_acked >= f.total_pkts) return;
  if (net.now() - f.last_progress >= f.rto) {
    // Retransmission timeout: rewind the send frontier to the first hole
    // and let try_send walk the lost window back out under slow start,
    // skipping SACKed segments.
    f.ssthresh = std::max(f.cwnd / 2.0, 2.0);
    f.cwnd = 2.0;
    f.in_recovery = true;
    f.recover_seq = f.highest_sent;
    f.next_seq = f.high_acked;
    f.last_progress = net.now();
  }
  try_send(net, f);
  net.arm_flow_timer(f);
}

}  // namespace mifo::dp::transport
