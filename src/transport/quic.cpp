#include "transport/quic.hpp"

#include <algorithm>
#include <cmath>

namespace satnet::transport {

namespace {
constexpr double kBeta = 0.7;
}

QuicFlow::QuicFlow(PathProfile path, QuicOptions options, stats::Rng rng)
    : FlowEngine(path, options, rng) {
  // Encrypted transport: the operator's PEP cannot terminate the
  // connection, so the satellite segment's losses are always end-to-end.
  path_.pep = false;
}

void QuicFlow::draw_losses(Round& round) {
  const double random_loss = static_cast<double>(
      rng_.poisson(cwnd_ * (path_.sat_loss + path_.ground_loss)));
  round.lost = std::floor(std::min(cwnd_, random_loss + round.handoff_loss + round.overflow));
  round.spurious = rng_.chance(path_.spurious_rto_prob * opt_.spurious_pto_factor);
}

void QuicFlow::react(const Round& round) {
  if (round.lost >= 1.0) {
    // Packet-ranged loss recovery: only the lost packets are resent; the
    // window reduction is one multiplicative decrease regardless of burst
    // size (no go-back-N, no forced idle).
    ssthresh_ = std::max(cwnd_ * kBeta, 2.0);
    cwnd_ = ssthresh_;
  } else if (round.spurious) {
    // A spurious probe timeout costs one probe packet and an idle PTO,
    // not a window's worth of duplicates. The PTO reads the srtt from
    // before this round.
    elapsed_ms_ += std::max(opt_.min_pto_ms, round.prev_srtt_ms * 1.5);
    const auto probe_bytes = static_cast<std::uint64_t>(opt_.mss_bytes);
    bytes_sent_ += probe_bytes;
    bytes_retrans_ += probe_bytes;
    cwnd_ = std::max(cwnd_ * kBeta, 2.0);
    ++n_rtos_;
  } else if (cwnd_ < ssthresh_) {
    cwnd_ = std::min(cwnd_ * 2.0, ssthresh_);
  } else {
    cwnd_ += 1.0;  // NewReno-style avoidance (QUIC's default)
  }
  cwnd_ = std::min(cwnd_, kMaxCwndPackets);
}

template class FlowEngine<QuicFlow, QuicOptions>;

double quic_fetch_time_ms(const PathProfile& path, std::uint64_t bytes, stats::Rng& rng,
                          const QuicOptions& options) {
  // 1-RTT handshake (vs 2 for TCP+TLS 1.3).
  return fetch_time<QuicFlow>(path, bytes, 1.0, rng, options);
}

}  // namespace satnet::transport
