// NDT7-style speed tests over the simulated world.
//
// An NDT test is a single TCP bulk transfer to a nearby M-Lab server; the
// server's TCP_Info polling is the source of every field the paper's
// pipeline consumes (RTT p5 as access latency, jitter p95, retransmitted
// bytes, delivery rate). Records additionally carry ground-truth labels
// (operator, truly-satellite) that the identification pipeline must not
// read — they exist so the paper report can score it.
#pragma once

#include <optional>
#include <string>

#include "stats/rng.hpp"
#include "synth/world.hpp"

namespace satnet::mlab {

/// One NDT speed-test row, as exported to the BigQuery-like table.
struct NdtRecord {
  double t_sec = 0;                ///< campaign time of the test
  bgp::Asn asn = 0;
  net::Ipv4 client_ip;
  net::Prefix24 prefix;            ///< client /24 (M-Lab annotation)
  std::string country;             ///< approximate client geolocation
  double latency_p5_ms = 0;        ///< 5th pct of TCP RTT (access latency)
  double latency_median_ms = 0;
  double jitter_p95_ms = 0;        ///< 95th pct of |ΔRTT|
  double download_mbps = 0;
  double upload_mbps = 0;          ///< 0 when the upload leg was skipped
  double retrans_frac = 0;         ///< bytes_retrans / bytes_sent
  std::size_t n_handoffs = 0;
  // --- ground truth (scoring only; the pipeline must not read these) ---
  std::string truth_operator;
  bool truth_satellite = false;
  orbit::OrbitClass truth_orbit = orbit::OrbitClass::geo;
};

struct NdtOptions {
  double test_duration_ms = 10000.0;  ///< NDT7 runs 10 s per direction
  bool measure_upload = false;        ///< the paper analyzes download only
};

/// Runs one NDT test for `sub` at time `t_sec`. Returns nullopt when the
/// satellite link is in outage (no serving satellite / gateway).
std::optional<NdtRecord> run_ndt(const synth::World& world,
                                 const synth::Subscriber& sub, double t_sec,
                                 stats::Rng& rng,
                                 const NdtOptions& options = NdtOptions{});

}  // namespace satnet::mlab
