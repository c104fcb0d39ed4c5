// Satellite access networks: user terminal -> satellite -> gateway ->
// Point of Presence (PoP).
//
// This is the substrate behind every latency number in the study:
//  * LEO/MEO: bent-pipe relay through the serving satellite to a ground
//    gateway, then terrestrial fiber to the assigned PoP. The serving
//    satellite is re-evaluated on a fixed reconfiguration epoch (15 s for
//    Starlink), producing the handoffs that drive LEO jitter.
//  * GEO: fixed dish to a parked satellite, down to the operator teleport,
//    then fiber to the PoP.
// PoP assignment is a *policy* (nearest PoP by default, with explicit
// overrides) so the paper's anomalies — Manila served from Tokyo, Alaska
// from Seattle, the New Zealand Sydney->Auckland migration — are
// first-class scenario inputs.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "geo/geodesy.hpp"
#include "orbit/constellation.hpp"

namespace satnet::orbit {

class EpochTimeline;

/// A point of presence: where the operator hands traffic to the Internet.
struct Pop {
  std::string name;       ///< rDNS-style code, e.g. "sttlwax1"
  std::string city;       ///< gazetteer city key
  std::string country;    ///< ISO country code
  geo::GeoPoint location;
};

/// A ground station (gateway antenna site) that satellites relay to.
struct Gateway {
  std::string name;
  geo::GeoPoint location;
  std::size_t pop_index = 0;  ///< PoP this gateway backhauls into
};

/// A time-bounded PoP assignment override for a service region, used to
/// script the paper's observed PoP migrations (Fig 7/8b).
struct PopOverride {
  geo::GeoPoint region_center;
  double radius_km = 500.0;
  std::size_t pop_index = 0;
  double from_sec = 0;
  double until_sec = 1e18;
};

/// Configuration of one operator's access network.
struct AccessConfig {
  /// Network name fault plans target ("starlink", "oneweb", "o3b",
  /// "geo-<city>"); "*" events match every network.
  std::string name = "*";
  OrbitClass orbit = OrbitClass::leo;
  double min_elevation_deg = 25.0;
  /// Fixed per-direction MAC/scheduling overhead (TDMA frames, request
  /// grants). Dominates GEO access latency beyond pure propagation.
  double scheduling_overhead_ms = 10.0;
  /// Serving-satellite reconfiguration epoch; <= 0 disables (GEO).
  double reconfig_interval_sec = 15.0;
  std::vector<Pop> pops;
  std::vector<Gateway> gateways;
  std::vector<PopOverride> overrides;
};

/// Result of an access-path evaluation at one instant.
struct AccessSample {
  bool reachable = false;
  double one_way_ms = 0;          ///< user -> PoP one-way latency
  double up_ms = 0;               ///< user -> satellite
  double down_ms = 0;             ///< satellite -> gateway
  double backhaul_ms = 0;         ///< gateway -> PoP fiber
  double scheduling_ms = 0;       ///< MAC overhead component
  std::optional<SatId> serving_sat;
  std::size_t pop_index = 0;
  std::size_t gateway_index = 0;
  bool handoff = false;           ///< serving satellite changed this epoch
};

/// One operator's access network. Thread-compatible; all queries are
/// const except the per-terminal handoff tracking helper.
class AccessNetwork {
 public:
  /// LEO/MEO constructor: the constellation is shared (not owned).
  AccessNetwork(AccessConfig config, std::shared_ptr<const Constellation> constellation);
  /// GEO constructor.
  AccessNetwork(AccessConfig config, GeoFleet fleet);

  const AccessConfig& config() const { return config_; }

  /// PoP serving `user` at time t (honours overrides, else nearest PoP).
  std::size_t assigned_pop(const geo::GeoPoint& user, double t_sec) const;

  /// Evaluates the access path at time t. For LEO/MEO the serving
  /// satellite is the best visible at the *epoch start* (reconfiguration
  /// boundary), matching the scheduled-reallocation behaviour.
  AccessSample sample(const geo::GeoPoint& user, double t_sec) const;

  /// Like sample(), and also flags a handoff by comparing against the
  /// serving satellite of the previous epoch.
  AccessSample sample_with_handoff(const geo::GeoPoint& user, double t_sec) const;

  /// Minimum achievable one-way latency to the assigned PoP (propagation
  /// only, best epoch alignment) — used by analytics as the "floor".
  double floor_one_way_ms(const geo::GeoPoint& user, double t_sec) const;

  /// Stable identity over everything that feeds sample values (see
  /// access_identity_hash in timeline.hpp) — the key under which an
  /// EpochTimeline snapshot answers for this network.
  std::uint64_t identity_hash() const { return identity_hash_; }

 private:
  friend class EpochTimeline;  ///< precomputes serving/sample layers

  std::optional<VisibleSat> serving_sat_at_epoch(const geo::GeoPoint& user,
                                                 double epoch_sec) const;
  /// The VisibleSat of a known serving satellite (LEO/MEO only). Position,
  /// elevation and slant range are pure functions of (id, epoch), so this
  /// equals the value the sweep that chose `id` computed, bit for bit.
  VisibleSat serving_visible_sat(const geo::GeoPoint& user, const SatId& id,
                                 double epoch_sec) const;
  /// Reconfiguration interval at time t: the configured interval, divided
  /// by the fault hook's handoff-storm scale when a storm window covers t.
  double effective_reconfig_interval(double t_sec) const;
  std::size_t best_gateway(const geo::GeoPoint& user, const VisibleSat& sat,
                           double t_sec) const;
  AccessSample build_sample(const geo::GeoPoint& user, double t_sec,
                            const std::optional<VisibleSat>& sat) const;

  AccessConfig config_;
  std::shared_ptr<const Constellation> constellation_;  ///< null for GEO
  GeoFleet fleet_;                                      ///< empty for LEO/MEO
  std::uint64_t identity_hash_ = 0;
};

/// Builds the Starlink-like access network used across the repo: PoPs and
/// gateways in North America, Europe, Oceania, Asia and South America,
/// including the scripted PoP migrations from the paper.
AccessNetwork make_starlink_access(std::shared_ptr<const Constellation> constellation);

/// OneWeb-like network: same LEO idea but only two US PoPs, which is what
/// drives its much higher latencies in the paper (Fig 3c, Fig 5).
AccessNetwork make_oneweb_access(std::shared_ptr<const Constellation> constellation,
                                 double scheduling_overhead_ms = 25.0);

/// O3b-like equatorial MEO network with regional teleports.
AccessNetwork make_o3b_access(std::shared_ptr<const Constellation> constellation,
                              double scheduling_overhead_ms = 80.0);

/// Serving-satellite dwell statistics for a terminal: how long each
/// satellite stays serving between reconfigurations — the process behind
/// the paper's LEO jitter findings (Fig 4b) and handoff discussion.
struct HandoffStats {
  std::size_t epochs = 0;        ///< reconfiguration epochs observed
  std::size_t handoffs = 0;      ///< epochs where the satellite changed
  double mean_dwell_sec = 0;     ///< mean over *completed* dwells only
  double max_dwell_sec = 0;      ///< longest completed dwell
  double outage_fraction = 0;    ///< epochs with no serving satellite
  /// Right-censored final dwell: the satellite was still serving when the
  /// observation window closed, so its true dwell is unknown. Counted
  /// here (0 or 1) and excluded from mean/max — folding the truncated
  /// value in biases mean_dwell_sec low for short windows.
  std::size_t censored = 0;
  double censored_dwell_sec = 0;  ///< observed (truncated) length of it
};

/// Measures handoff behaviour over [t_start, t_start + duration).
/// Exactly floor(duration / reconfig_interval) epochs are sampled at
/// t_start + i * interval, whatever the magnitude of t_start.
HandoffStats measure_handoffs(const AccessNetwork& net, const geo::GeoPoint& user,
                              double t_start_sec, double duration_sec);

/// Generic GEO operator bent-pipe network with a teleport/PoP in the
/// given city and a satellite slot at the given longitude.
AccessNetwork make_geo_access(const std::string& teleport_city, double slot_lon_deg,
                              double scheduling_overhead_ms = 60.0);

}  // namespace satnet::orbit
