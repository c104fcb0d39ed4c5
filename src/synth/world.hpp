// The synthetic world: constellations, access networks, and a subscriber
// population with known ground truth.
//
// Every downstream dataset (M-Lab NDT records, RIPE traceroutes,
// Prolific testers) is generated *through* this world, so the
// identification pipeline can be scored exactly: for every speed test we
// know whether it truly crossed a satellite.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "geo/geodesy.hpp"
#include "net/ipv4.hpp"
#include "orbit/access.hpp"
#include "stats/rng.hpp"
#include "synth/catalog.hpp"
#include "transport/linkmodel.hpp"
#include "weather/weather.hpp"

namespace satnet::synth {

/// One subscriber line of one operator.
struct Subscriber {
  std::size_t spec_index = 0;  ///< index into catalog()
  bgp::Asn asn = 0;
  net::Prefix24 prefix;
  net::Ipv4 ip;
  geo::GeoPoint location;
  std::string country;
  AccessTech tech = AccessTech::satellite;
  orbit::OrbitClass orbit = orbit::OrbitClass::geo;  ///< orbit when on satellite
  double plan_down_mbps = 0;   ///< stable subscription capacity
  double plan_up_mbps = 0;
  double terrestrial_rtt_ms = 25.0;  ///< wireline RTT for non-satellite paths
};

struct WorldConfig {
  std::uint64_t seed = 42;
  /// Subscriber counts scale with sqrt(paper test volume); this scales
  /// them further.
  double subscriber_scale = 1.0;
  std::size_t min_subscribers = 8;
  std::size_t max_subscribers = 1200;
  /// Opt-in rain-fade overlay (see weather::WeatherField). Off by default
  /// so the baseline calibration matches the paper's aggregate numbers;
  /// the paper report's weather ablation turns it on.
  bool enable_weather = false;
  weather::WeatherConfig weather;
};

/// What one measurement sees of a subscriber at one instant.
struct PathSample {
  bool ok = false;                      ///< false: satellite outage
  transport::PathProfile download;      ///< client-perceived path, down
  transport::PathProfile upload;
  AccessTech tech_used = AccessTech::satellite;  ///< hybrids flip over time
  double access_one_way_ms = 0;         ///< ground truth access latency
  bool handoff = false;
  weather::Condition sky = weather::Condition::clear;  ///< weather overlay
};

class World {
 public:
  explicit World(WorldConfig config = WorldConfig{});

  std::span<const SnoSpec> specs() const { return catalog(); }
  const std::vector<Subscriber>& subscribers() const { return subscribers_; }
  /// Subscribers of one operator.
  std::vector<const Subscriber*> subscribers_of(const std::string& sno_name) const;

  /// The access network serving `spec` subscribers on `orbit`; throws for
  /// operators without a network on that orbit.
  const orbit::AccessNetwork& access_for(std::size_t spec_index,
                                         orbit::OrbitClass orbit) const;

  std::shared_ptr<const orbit::Constellation> starlink_constellation() const {
    return starlink_constellation_;
  }

  /// Samples the subscriber's path at simulation time `t_sec`.
  PathSample sample_path(const Subscriber& sub, double t_sec, stats::Rng& rng) const;

  /// Creates an ad-hoc subscriber of `sno_name` at a location (used for
  /// recruited Prolific testers and for examples). Not added to
  /// subscribers().
  Subscriber make_subscriber(const std::string& sno_name, const geo::GeoPoint& location,
                             const std::string& country, stats::Rng& rng) const;

  /// Ground truth: does a test by `sub` at time `t_sec` cross a satellite?
  /// (Terrestrial users never do; hybrid users only while failed over.)
  bool truly_satellite(const Subscriber& sub, double t_sec) const;

 private:
  void build_access_networks();
  void build_subscribers(stats::Rng& rng);
  /// Hybrid users flip between wired-good / wired-degraded / satellite on
  /// hour boundaries, deterministically per (subscriber, hour).
  int hybrid_state(const Subscriber& sub, double t_sec) const;

  WorldConfig config_;
  std::shared_ptr<const orbit::Constellation> starlink_constellation_;
  std::shared_ptr<const orbit::Constellation> oneweb_constellation_;
  std::shared_ptr<const orbit::Constellation> meo_constellation_;
  /// Access networks: [spec_index] -> primary; GEO secondaries for
  /// multi-orbit operators live in geo_secondary_.
  std::vector<std::unique_ptr<orbit::AccessNetwork>> primary_access_;
  std::vector<std::unique_ptr<orbit::AccessNetwork>> geo_secondary_;
  std::vector<Subscriber> subscribers_;
};

}  // namespace satnet::synth
