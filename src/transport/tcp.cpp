#include "transport/tcp.hpp"

#include <algorithm>
#include <cmath>

#include "obs/metrics.hpp"

namespace satnet::transport {

namespace {
constexpr double kCubicC = 0.4;
constexpr double kCubicBeta = 0.7;
constexpr double kRenoBeta = 0.5;
}  // namespace

void TcpFlow::draw_losses(Round& round) {
  // Random (non-congestion) losses on each segment.
  const auto sat_random = static_cast<double>(rng_.poisson(cwnd_ * path_.sat_loss));
  const auto ground_random = static_cast<double>(rng_.poisson(cwnd_ * path_.ground_loss));
  if (path_.pep) {
    // The PEP recovers satellite-segment losses (random, handoff, and
    // most of the satellite scheduler's buffer overflow) locally:
    // invisible to the end-to-end loop. A residual share of overflow
    // still surfaces end-to-end, which keeps the sender's congestion
    // signal alive.
    constexpr double kOverflowResidual = 0.15;
    const double recovered = std::min(
        cwnd_, sat_random + round.handoff_loss + (1.0 - kOverflowResidual) * round.overflow);
    round.lost =
        std::min(cwnd_ - recovered, ground_random + kOverflowResidual * round.overflow);
  } else {
    round.lost =
        std::min(cwnd_, sat_random + ground_random + round.handoff_loss + round.overflow);
  }
  // Whole packets only: keeps the byte accounting exact and guarantees
  // that a "loss round" (lost >= 1) is well-defined.
  round.lost = std::floor(round.lost);
  // Spurious RTO process (long-path RTO underestimation).
  round.spurious = rng_.chance(path_.spurious_rto_prob);
}

void TcpFlow::react(const Round& round) {
  // RFC 6298: the variance moves against the srtt before this sample;
  // the RTO below reads the srtt after it.
  rttvar_ms_ = round.prev_srtt_ms == 0.0
                   ? round.rtt_ms / 2.0
                   : 0.75 * rttvar_ms_ + 0.25 * std::abs(round.prev_srtt_ms - round.rtt_ms);
  if (round.lost >= 1.0 && round.lost > 0.3 * round.sent) {
    // A burst: the retransmission timer fires, and go-back-N resends
    // part of the window that did arrive.
    timeout(round.sent - round.lost);
  } else if (round.lost >= 1.0) {
    // Fast retransmit / fast recovery.
    const double beta = opt_.cc == CongestionControl::cubic ? kCubicBeta : kRenoBeta;
    cubic_w_max_ = cwnd_;
    ssthresh_ = std::max(cwnd_ * beta, 2.0);
    cwnd_ = ssthresh_;
    cubic_epoch_start_ms_ = elapsed_ms_;
  } else if (round.spurious) {
    // RTO fires although every packet arrived.
    timeout(round.sent);
  } else {
    grow_window();
  }
}

void TcpFlow::timeout(double window_packets) {
  // The sender idles for the RTO, its window collapses, and go-back-N
  // resends a share of `window_packets` the receiver already has. Those
  // duplicate bytes count as sent AND retransmitted (never acked),
  // preserving bytes_sent == bytes_acked + bytes_retrans.
  elapsed_ms_ += std::max(opt_.min_rto_ms, srtt_ms_ + 4.0 * rttvar_ms_);
  const std::uint64_t dup_bytes = bytes_of(window_packets * path_.go_back_n_frac);
  bytes_sent_ += dup_bytes;
  bytes_retrans_ += dup_bytes;
  cubic_w_max_ = cwnd_;
  ssthresh_ = std::max(cwnd_ / 2.0, 2.0);
  cwnd_ = opt_.initial_cwnd > 1.0 ? 2.0 : 1.0;
  cubic_epoch_start_ms_ = elapsed_ms_;
  ++n_rtos_;
}

void TcpFlow::grow_window() {
  if (cwnd_ < ssthresh_) {
    cwnd_ = std::min(cwnd_ * 2.0, ssthresh_);
  } else if (opt_.cc == CongestionControl::reno) {
    cwnd_ += 1.0;
  } else {
    // CUBIC window: W(t) = C (t - K)^3 + W_max.
    const double t = (elapsed_ms_ - cubic_epoch_start_ms_) / 1e3;
    const double w_max = std::max(cubic_w_max_, cwnd_);
    const double k = std::cbrt(w_max * (1.0 - kCubicBeta) / kCubicC);
    const double target = kCubicC * std::pow(t - k, 3.0) + w_max;
    // TCP-friendly region: never grow slower than Reno's one packet per
    // round trip (RFC 8312 §4.2), or CUBIC stalls after an early loss.
    cwnd_ = std::max(cwnd_ + 1.0, target);
  }
  cwnd_ = std::min(cwnd_, kMaxCwndPackets);
}

void TcpFlow::count(const FlowResult& r) {
  // Flow accounting flushes once per flow (the per-round loop stays
  // metric-free): retransmit and timeout totals across every NDT test,
  // HTTP transfer, and video segment in the campaign.
  // satlint:allow(shared-state): cached reference to a thread-safe striped counter; magic-static init is synchronized
  static obs::Counter& flows = obs::MetricsRegistry::global().counter(
      "transport.tcp.flows", "TCP flows completed");
  // satlint:allow(shared-state): cached reference to a thread-safe striped counter; magic-static init is synchronized
  static obs::Counter& sent = obs::MetricsRegistry::global().counter(
      "transport.tcp.bytes_sent", "bytes sent across all flows");
  // satlint:allow(shared-state): cached reference to a thread-safe striped counter; magic-static init is synchronized
  static obs::Counter& retrans = obs::MetricsRegistry::global().counter(
      "transport.tcp.bytes_retrans", "bytes retransmitted across all flows");
  // satlint:allow(shared-state): cached reference to a thread-safe striped counter; magic-static init is synchronized
  static obs::Counter& rtos = obs::MetricsRegistry::global().counter(
      "transport.tcp.rtos", "retransmission timeouts fired");
  // satlint:allow(shared-state): cached reference to a thread-safe striped counter; magic-static init is synchronized
  static obs::Counter& handoffs = obs::MetricsRegistry::global().counter(
      "transport.tcp.handoffs", "satellite handoffs observed by flows");
  flows.add(1);
  sent.add(r.bytes_sent);
  retrans.add(r.bytes_retrans);
  rtos.add(r.n_rtos);
  handoffs.add(r.n_handoffs);
}

template class FlowEngine<TcpFlow, TcpOptions>;

double fetch_time_ms(const PathProfile& path, std::uint64_t bytes, double handshake_rtts,
                     stats::Rng& rng, const TcpOptions& options) {
  return fetch_time<TcpFlow>(path, bytes, handshake_rtts, rng, options);
}

}  // namespace satnet::transport
