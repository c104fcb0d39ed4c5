// Satellite ephemeris for Walker constellations and GEO slots.
//
// Positions come from a pluggable Propagator backend (propagator.hpp):
// the closed-form Walker-circular mode (O(1) per query, the fast exact
// default — bit-identical to the historical arithmetic) or SGP4/SDP4
// perturbed propagation (synthetic elements from Walker geometry, or a
// real TLE catalog). Visibility queries prefilter with a central-angle
// cone: per orbital plane for Walker and synthetic SGP4 shells, over a
// full frame for TLE catalogs and deep-space shells.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "geo/geodesy.hpp"
#include "orbit/propagator.hpp"
#include "orbit/shell.hpp"

namespace satnet::orbit {

/// Sentinel shell index marking a GEO fleet satellite. GEO slots are not
/// Walker shells, so their ids must never collide with shell 0 of a
/// Walker constellation in consumers that mix fleets.
inline constexpr std::size_t kGeoShellIndex = static_cast<std::size_t>(-1);

/// Identifies one satellite within a constellation.
struct SatId {
  std::size_t shell = 0;
  std::size_t plane = 0;
  std::size_t index = 0;

  bool operator==(const SatId&) const = default;

  /// True for ids minted by GeoFleet (sentinel shell index).
  constexpr bool is_geo() const { return shell == kGeoShellIndex; }
};

/// A satellite visible from a ground point.
struct VisibleSat {
  SatId id;
  geo::GeoPoint position;
  double elevation_deg = 0;
  double slant_km = 0;
};

/// A constellation is a set of Walker shells propagated by one of the
/// ephemeris backends. GEO fleets are modelled separately (GeoFleet)
/// since their satellites are fixed in ECEF.
class Constellation {
 public:
  /// Walker-circular backend (the historical default).
  explicit Constellation(std::vector<Shell> shells);
  /// Same shells on the chosen backend: OrbitModel::sgp4 derives
  /// near-circular SGP4 elements from the Walker geometry.
  Constellation(std::vector<Shell> shells, OrbitModel model);
  /// SGP4 backend over a real TLE catalog. SatIds live in one synthetic
  /// shell {0, 0, i} in catalog order.
  static Constellation from_tles(std::vector<Tle> tles);

  const std::vector<Shell>& shells() const { return shells_; }
  std::size_t total_sats() const;

  OrbitModel model() const { return propagator_->model(); }
  const Propagator& propagator() const { return *propagator_; }
  /// 0 for Walker (positions are a pure function of the shells, which
  /// identity hashes already cover); the element hash for SGP4.
  std::uint64_t ephemeris_hash() const { return propagator_->ephemeris_hash(); }

  /// Flat canonical index of a satellite (shell-major, then plane, then
  /// in-plane index) — the order batch frames are laid out in.
  std::size_t flat_index(const SatId& id) const;
  /// Inverse of flat_index.
  SatId sat_id_from_flat(std::size_t flat) const;

  /// Geodetic position of a satellite at simulation time t (seconds).
  geo::GeoPoint position(const SatId& id, double t_sec) const;

  /// All satellites above `min_elevation_deg` from `ground` at time t.
  std::vector<VisibleSat> visible(const geo::GeoPoint& ground, double t_sec,
                                  double min_elevation_deg) const;

  /// The highest-elevation visible satellite, or nullopt when none.
  std::optional<VisibleSat> best_visible(const geo::GeoPoint& ground, double t_sec,
                                         double min_elevation_deg) const;

 private:
  Constellation(std::vector<Shell> shells, std::shared_ptr<const Propagator> prop);

  /// Calls on_candidate(id, position) for a superset of the satellites
  /// above the mask, in canonical order, with the exact position; returns
  /// how many satellites the prefilter tested.
  template <typename Fn>
  std::size_t for_each_candidate(const geo::GeoPoint& ground, double t_sec,
                                 double min_elevation_deg, Fn&& on_candidate) const;

  std::vector<Shell> shells_;
  std::vector<std::size_t> shell_begin_;  ///< flat-index offsets per shell
  /// Shared, immutable backend: copies of a Constellation share the
  /// (potentially large) precomputed SGP4 state.
  std::shared_ptr<const Propagator> propagator_;
};

/// A fleet of geostationary satellites parked at fixed longitudes.
class GeoFleet {
 public:
  void add_slot(std::string name, double lon_deg);

  struct Slot {
    std::string name;
    double lon_deg = 0;
  };
  const std::vector<Slot>& slots() const { return slots_; }

  geo::GeoPoint position(std::size_t slot) const;

  /// Best slot (max elevation) for a ground point; GEO satellites do not
  /// move, so no time parameter. Returns nullopt when none is above
  /// `min_elevation_deg`. Result ids carry the kGeoShellIndex sentinel
  /// shell (id.is_geo()), with `index` the slot number.
  std::optional<VisibleSat> best_visible(const geo::GeoPoint& ground,
                                         double min_elevation_deg) const;

 private:
  std::vector<Slot> slots_;
};

}  // namespace satnet::orbit
