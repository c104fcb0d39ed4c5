// Flow-level QUIC model.
//
// The paper's related work (Kuhn et al., "QUIC: opportunities and threats
// in satcom"; Endres et al.) studies QUIC on satellite links. Two
// structural differences against TCP matter here:
//   * QUIC is encrypted end-to-end, so the operator's PEP cannot split
//     the connection — GEO operators lose their main latency mitigation;
//   * its loss recovery is packet-ranged (no go-back-N) with far fewer
//     spurious timeouts, so long paths avoid TCP's RTO pathology.
// QUIC is the second loss-recovery policy over the flow engine
// (transport/flow.hpp); the PathProfile's `pep` flag is forced off.
#pragma once

#include "stats/rng.hpp"
#include "transport/flow.hpp"
#include "transport/path.hpp"

namespace satnet::transport {

struct QuicOptions {
  double mss_bytes = 1350.0;  ///< QUIC's typical max datagram payload
  double initial_cwnd = 10.0;
  /// Probe timeout floor (QUIC's PTO replaces TCP's RTO; same lower
  /// bound, but spurious fires are ~4x rarer thanks to better RTT
  /// accounting).
  double min_pto_ms = 1000.0;
  double spurious_pto_factor = 0.25;
  double snapshot_interval_ms = 100.0;
};

/// A single bulk QUIC connection; it returns TcpFlow's FlowResult, so
/// analyses apply to both. handoff_prob rounds as rate·rtt/1e3, unlike
/// TCP's; QUIC flows are not counted in the transport.tcp.* metrics.
class QuicFlow : public FlowEngine<QuicFlow, QuicOptions> {
 public:
  QuicFlow(PathProfile path, QuicOptions options, stats::Rng rng);

 private:
  friend class FlowEngine<QuicFlow, QuicOptions>;
  double handoff_prob(double rtt_ms) const { return path_.handoff_rate_hz * rtt_ms / 1e3; }
  void draw_losses(Round& round);
  void react(const Round& round);
  static void count(const FlowResult&) {}
};

extern template class FlowEngine<QuicFlow, QuicOptions>;

/// Time to fetch `bytes` over a fresh QUIC connection: 1-RTT handshake
/// (vs TCP+TLS's 2) plus the transfer.
double quic_fetch_time_ms(const PathProfile& path, std::uint64_t bytes, stats::Rng& rng,
                          const QuicOptions& options = QuicOptions{});

}  // namespace satnet::transport
