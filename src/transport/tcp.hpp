// Flow-level TCP simulation.
//
// TCP is one loss-recovery policy over the flow engine (transport/flow.hpp):
// each round it draws satellite and ground losses, lets a PEP recover the
// satellite segment's share locally, and reacts with fast recovery or a
// go-back-N retransmission timeout, growing its window with CUBIC or
// Reno. This is the model under every NDT speed test, HTTP transfer and
// video-segment download in the reproduction; its retransmission
// accounting is what Figure 4c measures.
#pragma once

#include <cstdint>

#include "stats/rng.hpp"
#include "transport/flow.hpp"
#include "transport/path.hpp"

namespace satnet::transport {

enum class CongestionControl { reno, cubic };

/// Tunables of a simulated connection.
struct TcpOptions {
  CongestionControl cc = CongestionControl::cubic;
  double mss_bytes = 1500.0;
  double initial_cwnd = 10.0;
  double min_rto_ms = 1000.0;  ///< RFC 6298 lower bound
  /// Snapshot cadence for the TCP_Info poll loop, ms (M-Lab polls open
  /// sockets continuously; we snapshot once per cadence interval).
  double snapshot_interval_ms = 100.0;
};

/// A single TCP connection over a fixed path; run_for and run_bytes come
/// from the engine. handoff_prob rounds as rate·(rtt/1e3), unlike QUIC's.
class TcpFlow : public FlowEngine<TcpFlow, TcpOptions> {
 public:
  TcpFlow(PathProfile path, TcpOptions options, stats::Rng rng)
      : FlowEngine(path, options, rng) {}

 private:
  friend class FlowEngine<TcpFlow, TcpOptions>;
  double handoff_prob(double rtt_ms) const { return path_.handoff_rate_hz * (rtt_ms / 1e3); }
  void draw_losses(Round& round);
  void react(const Round& round);
  void timeout(double window_packets);
  void grow_window();
  static void count(const FlowResult& r);

  double rttvar_ms_ = 0.0;
  double cubic_epoch_start_ms_ = 0.0;
  double cubic_w_max_ = 0.0;
};

extern template class FlowEngine<TcpFlow, TcpOptions>;

/// Convenience: time to fetch `bytes` over a fresh connection including
/// `handshake_rtts` round trips of connection setup (TCP + TLS), ms.
double fetch_time_ms(const PathProfile& path, std::uint64_t bytes, double handshake_rtts,
                     stats::Rng& rng, const TcpOptions& options = {});

}  // namespace satnet::transport
