// Hop-level routes and the terrestrial backbone model.
//
// RIPE-style traceroutes in the reproduction are assembled from two
// pieces: the satellite access segment (probe -> CGNAT gateway at the
// PoP) and a terrestrial backbone segment (PoP -> destination). The
// backbone model places intermediate routers along the great-circle
// path so hop counts and per-hop RTTs grow with distance, matching the
// paper's Figure 6c hop-count analysis.
#pragma once

#include <string>
#include <vector>

#include "geo/geodesy.hpp"
#include "net/ipv4.hpp"
#include "stats/rng.hpp"

namespace satnet::net {

/// One traceroute hop. `rtt_ms` is the round-trip time from the source to
/// this hop (cumulative), as a real traceroute reports.
struct Hop {
  int ttl = 0;
  std::string name;  ///< rDNS name; empty when the hop does not resolve
  Ipv4 ip;
  double rtt_ms = 0;
  bool responded = true;  ///< false renders as "*" in traceroute output
};

/// A full route from a source to a destination.
struct Route {
  std::vector<Hop> hops;

  /// RTT reported at the final hop; NaN when the destination did not
  /// respond.
  double destination_rtt_ms() const;
  std::size_t hop_count() const { return hops.size(); }
  /// First hop whose RTT is at least `min_rtt` — used to locate the CGNAT
  /// gateway in Starlink paths.
  const Hop* find_ip(Ipv4 ip) const;
};

/// Terrestrial backbone segment generator.
class Backbone {
 public:
  struct Options {
    double router_delay_ms = 0.15;   ///< per-router processing
    double hop_spacing_km = 900.0;   ///< one router per this many km
    int min_hops = 3;                ///< even co-located endpoints traverse these
    double rtt_noise_ms = 0.8;       ///< per-hop measurement noise (stddev)
    double unresponsive_prob = 0.04; ///< probability a hop shows as "*"
  };

  Backbone() = default;
  explicit Backbone(Options options) : options_(options) {}

  /// Builds the backbone hops from `from` to `to`. RTTs are cumulative
  /// and start at `base_rtt_ms` (the RTT already accumulated on the
  /// access segment). TTLs continue from `first_ttl`.
  std::vector<Hop> build(const geo::GeoPoint& from, const geo::GeoPoint& to,
                         double base_rtt_ms, int first_ttl, stats::Rng& rng) const;

  /// Expected number of routers for a given surface distance.
  int expected_hops(double surface_km) const;

 private:
  Options options_{};
};

/// Renders a route in classic traceroute text form (for examples).
std::string to_string(const Route& route);

}  // namespace satnet::net
