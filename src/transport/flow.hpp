// The flow engine under the TCP and QUIC models.
//
// A flow advances one congestion-control round (~1 RTT) at a time. The
// engine owns everything both transports share: the connection state,
// the path round (bottleneck queue, |N(0, jitter)| RTT noise, handoff
// spike and handoff loss), the per-round byte accounting, the
// srtt/RTT/jitter record, the TCP_Info-style snapshot poll, one run loop
// and finish(). A transport derives from FlowEngine<Policy, Options> and
// supplies its per-round hooks, resolved at compile time:
//   double handoff_prob(double rtt_ms) const;  // P(handoff) this round
//   void draw_losses(Round&);  // sets Round::lost and Round::spurious
//   void react(const Round&);  // loss recovery and window growth
//   static void count(const FlowResult&);  // per-flow metrics flush
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "stats/rng.hpp"
#include "stats/summary.hpp"
#include "transport/path.hpp"

namespace satnet::transport {

/// One TCP_Info-style snapshot, as captured by the M-Lab server's
/// polling loop.
struct TcpInfoSnapshot {
  double t_ms = 0;             ///< time since connection start
  double rtt_ms = 0;           ///< smoothed RTT at snapshot time
  double last_rtt_ms = 0;      ///< most recent RTT sample
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_retrans = 0;
  std::uint64_t bytes_acked = 0;
  double delivery_rate_mbps = 0;
  double cwnd_packets = 0;
};

/// Aggregate outcome of a flow.
struct FlowResult {
  double duration_ms = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_retrans = 0;
  std::uint64_t bytes_acked = 0;
  double goodput_mbps = 0;   ///< acked payload over duration
  double rtt_p5_ms = 0;      ///< the paper's access-latency estimate
  double rtt_median_ms = 0;
  double jitter_p95_ms = 0;  ///< p95 of |rtt_i - rtt_{i-1}|
  double retrans_fraction = 0;  ///< bytes_retrans / bytes_sent
  std::size_t n_handoffs = 0;
  std::size_t n_rtos = 0;
  std::vector<TcpInfoSnapshot> snapshots;

  /// Byte conservation law of the flow models (TCP and QUIC): every
  /// sent byte is eventually either acknowledged or accounted as a
  /// retransmission — lost data is re-delivered, duplicate (go-back-N,
  /// spurious-RTO, probe) bytes count as sent and retransmitted but
  /// never acked. The invariant harness checks this on every flow.
  bool conserved() const { return bytes_sent == bytes_acked + bytes_retrans; }
};

/// Congestion-window cap, packets (~18 MB receive window).
inline constexpr double kMaxCwndPackets = 12000.0;

template <class Policy, class Options>
class FlowEngine {
 public:
  /// Runs a bulk transfer for `duration_ms` of simulated time (NDT-style
  /// fixed-duration test): run_bytes with no byte limit.
  FlowResult run_for(double duration_ms) {
    return run_bytes(std::numeric_limits<std::uint64_t>::max(), duration_ms);
  }

  /// Runs until `transfer_bytes` have been acknowledged (HTTP-object
  /// style) or `max_ms` elapses, whichever is first.
  FlowResult run_bytes(std::uint64_t transfer_bytes, double max_ms = 120000.0);

 protected:
  /// One round: the engine fills the path part, the policy the losses.
  struct Round {
    double rtt_ms = 0;
    double sent = 0;          ///< packets sent: this round's window
    double overflow = 0;      ///< packets beyond the bottleneck buffer
    double handoff_loss = 0;  ///< packets a handoff dropped
    double prev_srtt_ms = 0;  ///< srtt before this round's sample
    double lost = 0;          ///< whole packets lost end to end
    bool spurious = false;    ///< a timeout fires although nothing was lost
  };

  FlowEngine(const PathProfile& path, const Options& options, const stats::Rng& rng)
      : path_(path), opt_(options), rng_(rng), cwnd_(options.initial_cwnd) {}

  std::uint64_t bytes_of(double packets) const {
    return static_cast<std::uint64_t>(std::llround(packets * opt_.mss_bytes));
  }

  PathProfile path_;
  Options opt_;
  stats::Rng rng_;

  // Connection state.
  double cwnd_;
  double ssthresh_ = 1e9;
  double srtt_ms_ = 0.0;
  double elapsed_ms_ = 0.0;
  std::uint64_t bytes_sent_ = 0;
  std::uint64_t bytes_retrans_ = 0;
  std::uint64_t bytes_acked_ = 0;
  std::size_t n_handoffs_ = 0;
  std::size_t n_rtos_ = 0;

 private:
  Round path_round();
  double delivery_rate_mbps() const {
    return elapsed_ms_ > 0 ? static_cast<double>(bytes_acked_) * 8.0 / (elapsed_ms_ * 1e3)
                           : 0.0;
  }
  FlowResult finish();

  double last_rtt_ms_ = 0.0;
  double next_snapshot_ms_ = 0.0;
  std::vector<double> rtt_samples_;
  std::vector<double> jitter_samples_;
  std::vector<TcpInfoSnapshot> snapshots_;
};

template <class Policy, class Options>
typename FlowEngine<Policy, Options>::Round FlowEngine<Policy, Options>::path_round() {
  Round out;
  const double bdp = std::max(path_.bdp_packets(opt_.mss_bytes), 1.0);
  const double buffer_packets = std::max(path_.buffer_bdp * bdp, 4.0);

  // Queueing at the bottleneck: packets beyond the BDP sit in the buffer.
  const double excess = std::max(0.0, cwnd_ - bdp);
  const double queued = std::min(excess, buffer_packets);
  const double queue_ms = queued * opt_.mss_bytes * 8.0 / (path_.bottleneck_mbps * 1e6) * 1e3;
  out.overflow = std::max(0.0, excess - buffer_packets);
  out.rtt_ms = path_.base_rtt_ms + queue_ms + std::abs(rng_.normal(0.0, path_.jitter_ms));

  // Handoff process: Poisson arrivals over the round duration.
  const double p_handoff = static_cast<const Policy&>(*this).handoff_prob(out.rtt_ms);
  if (rng_.chance(std::min(1.0, p_handoff))) {
    ++n_handoffs_;
    out.rtt_ms += path_.handoff_spike_ms;
    out.handoff_loss = static_cast<double>(rng_.poisson(cwnd_ * path_.handoff_loss_frac));
  }
  out.sent = cwnd_;
  return out;
}

template <class Policy, class Options>
FlowResult FlowEngine<Policy, Options>::run_bytes(std::uint64_t transfer_bytes,
                                                  double max_ms) {
  auto& policy = static_cast<Policy&>(*this);
  while (bytes_acked_ < transfer_bytes && elapsed_ms_ < max_ms) {
    // Don't send more than what remains (short final round).
    const double window = cwnd_;
    const double remaining_packets =
        static_cast<double>(transfer_bytes - bytes_acked_) / opt_.mss_bytes;
    cwnd_ = std::min(cwnd_, std::max(1.0, remaining_packets));

    Round round = path_round();
    policy.draw_losses(round);

    round.prev_srtt_ms = srtt_ms_;
    srtt_ms_ = srtt_ms_ == 0.0 ? round.rtt_ms : 0.875 * srtt_ms_ + 0.125 * round.rtt_ms;
    if (last_rtt_ms_ > 0.0) jitter_samples_.push_back(std::abs(round.rtt_ms - last_rtt_ms_));
    last_rtt_ms_ = round.rtt_ms;
    rtt_samples_.push_back(round.rtt_ms);
    elapsed_ms_ += round.rtt_ms;

    const std::uint64_t sent_bytes = bytes_of(round.sent);
    const std::uint64_t lost_bytes = bytes_of(round.lost);
    bytes_sent_ += sent_bytes;
    bytes_acked_ += sent_bytes - std::min(sent_bytes, lost_bytes);
    if (round.lost >= 1.0) {
      // The lost packets are sent again and (in this flow-level model)
      // delivered on recovery, so all three counters advance and the
      // invariant bytes_sent == bytes_acked + bytes_retrans holds exactly.
      bytes_retrans_ += lost_bytes;
      bytes_sent_ += lost_bytes;
      bytes_acked_ += lost_bytes;
    }

    cwnd_ = window;
    policy.react(round);

    while (next_snapshot_ms_ <= elapsed_ms_) {
      TcpInfoSnapshot s;
      s.t_ms = next_snapshot_ms_;
      s.rtt_ms = srtt_ms_;
      s.last_rtt_ms = last_rtt_ms_;
      s.bytes_sent = bytes_sent_;
      s.bytes_retrans = bytes_retrans_;
      s.bytes_acked = bytes_acked_;
      s.cwnd_packets = cwnd_;
      s.delivery_rate_mbps = delivery_rate_mbps();
      snapshots_.push_back(s);
      next_snapshot_ms_ += opt_.snapshot_interval_ms;
    }
  }
  return finish();
}

template <class Policy, class Options>
FlowResult FlowEngine<Policy, Options>::finish() {
  FlowResult r;
  r.duration_ms = elapsed_ms_;
  r.bytes_sent = bytes_sent_;
  r.bytes_retrans = bytes_retrans_;
  r.bytes_acked = bytes_acked_;
  r.goodput_mbps = delivery_rate_mbps();
  r.rtt_p5_ms = stats::percentile(rtt_samples_, 5);
  r.rtt_median_ms = stats::percentile(rtt_samples_, 50);
  r.jitter_p95_ms = jitter_samples_.empty() ? 0.0 : stats::percentile(jitter_samples_, 95);
  r.retrans_fraction =
      bytes_sent_ > 0 ? static_cast<double>(bytes_retrans_) / static_cast<double>(bytes_sent_)
                      : 0.0;
  r.n_handoffs = n_handoffs_;
  r.n_rtos = n_rtos_;
  r.snapshots = std::move(snapshots_);
  Policy::count(r);
  return r;
}

/// Time to fetch `bytes` over a fresh `Flow` connection including
/// `handshake_rtts` round trips of connection setup, ms.
template <class Flow, class Options>
double fetch_time(const PathProfile& path, std::uint64_t bytes, double handshake_rtts,
                  stats::Rng& rng, const Options& options) {
  double handshake_ms = 0.0;
  for (int i = 0; i < static_cast<int>(handshake_rtts); ++i) {
    handshake_ms += path.base_rtt_ms + std::abs(rng.normal(0.0, path.jitter_ms));
  }
  const double frac = handshake_rtts - std::floor(handshake_rtts);
  if (frac > 0.0) handshake_ms += frac * path.base_rtt_ms;

  Flow flow(path, options, rng.fork(bytes));
  return handshake_ms + flow.run_bytes(bytes).duration_ms;
}

}  // namespace satnet::transport
