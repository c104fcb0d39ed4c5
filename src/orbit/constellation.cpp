#include "orbit/constellation.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

#include "obs/metrics.hpp"

namespace satnet::orbit {

namespace {

void validate_shells(const std::vector<Shell>& shells) {
  for (const auto& s : shells) {
    if (s.planes == 0 || s.sats_per_plane == 0) {
      throw std::invalid_argument(
          "orbit: shell \"" + s.name +
          "\" needs planes >= 1 and sats_per_plane >= 1 (got planes=" +
          std::to_string(s.planes) +
          ", sats_per_plane=" + std::to_string(s.sats_per_plane) + ")");
    }
  }
}

std::vector<std::size_t> build_shell_begin(const std::vector<Shell>& shells) {
  std::vector<std::size_t> begin;
  begin.reserve(shells.size() + 1);
  std::size_t off = 0;
  for (const auto& s : shells) {
    begin.push_back(off);
    off += s.total_sats();
  }
  begin.push_back(off);
  return begin;
}

/// Visibility cone half-angle: on a spherical Earth, elevation >= E_min
/// is exactly central angle theta <= theta_max with
///   cos(E_min + theta_max) = (R / (R + h)) * cos(E_min).
double cone_half_angle(double altitude_km, double e_min_rad) {
  const double ratio = geo::kEarthRadiusKm / (geo::kEarthRadiusKm + altitude_km);
  return std::acos(std::clamp(ratio * std::cos(e_min_rad), -1.0, 1.0)) - e_min_rad;
}

/// Walker cone gate: the exact cone. walker_cone_sweep adds its own
/// margin (kWalkerWindowMarginRad) when it turns the gate into windows.
double walker_cos_gate(double altitude_km, double e_min_rad) {
  return std::cos(cone_half_angle(altitude_km, e_min_rad));
}

/// Full-frame gate. The 1e-6 rad slack absorbs unit-vector rounding so
/// the cone never rejects a satellite the exact test would accept.
double frame_cos_gate(double altitude_km, double e_min_rad) {
  return std::cos(cone_half_angle(altitude_km, e_min_rad) + 1e-6);
}

void ground_unit(const geo::GeoPoint& ground, double& gx, double& gy, double& gz) {
  const double glat = geo::deg_to_rad(ground.lat_deg);
  const double glon = geo::deg_to_rad(ground.lon_deg);
  gx = std::cos(glat) * std::cos(glon);
  gy = std::cos(glat) * std::sin(glon);
  gz = std::sin(glat);
}

}  // namespace

Constellation::Constellation(std::vector<Shell> shells)
    : Constellation(std::move(shells), OrbitModel::walker) {}

Constellation::Constellation(std::vector<Shell> shells, OrbitModel model)
    : shells_(std::move(shells)) {
  validate_shells(shells_);
  shell_begin_ = build_shell_begin(shells_);
  if (model == OrbitModel::walker) {
    propagator_ = std::make_shared<const WalkerPropagator>(shells_);
  } else {
    propagator_ = std::make_shared<const Sgp4Propagator>(shells_);
  }
}

Constellation::Constellation(std::vector<Shell> shells,
                             std::shared_ptr<const Propagator> prop)
    : shells_(std::move(shells)), propagator_(std::move(prop)) {
  shell_begin_ = build_shell_begin(shells_);
}

Constellation Constellation::from_tles(std::vector<Tle> tles) {
  auto prop = std::make_shared<const Sgp4Propagator>(std::move(tles));
  return Constellation(std::vector<Shell>{}, std::move(prop));
}

std::size_t Constellation::total_sats() const { return propagator_->size(); }

std::size_t Constellation::flat_index(const SatId& id) const {
  if (shells_.empty()) return id.index;  // TLE catalogs: one synthetic shell
  return shell_begin_.at(id.shell) + id.plane * shells_[id.shell].sats_per_plane +
         id.index;
}

geo::GeoPoint Constellation::position(const SatId& id, double t_sec) const {
  if (propagator_->model() == OrbitModel::walker) {
    const Shell& shell = shells_.at(id.shell);
    return walker_position(shell, id.plane, id.index, t_sec);
  }
  return propagator_->position(flat_index(id), t_sec);
}

SatId Constellation::sat_id_from_flat(std::size_t flat) const {
  if (shells_.empty()) return SatId{0, 0, flat};
  std::size_t s = 0;
  while (s + 1 < shells_.size() && flat >= shell_begin_[s + 1]) ++s;
  const std::size_t within = flat - shell_begin_[s];
  return SatId{s, within / shells_[s].sats_per_plane, within % shells_[s].sats_per_plane};
}

template <typename Fn>
std::size_t Constellation::for_each_candidate(const geo::GeoPoint& ground, double t_sec,
                                              double min_elevation_deg,
                                              Fn&& on_candidate) const {
  // A full-trig sweep of every satellite costs ~1 ms per query for a
  // Starlink-sized constellation. Instead, prefilter with the
  // central-angle cone (see cone_half_angle): Walker and synthetic SGP4
  // shells through walker_cone_sweep's per-plane windows (one rotation
  // step per plane, no per-satellite work outside the windows), TLE
  // catalogs and deep-space shells through a dot-product gate on a
  // memoized full frame. Only the candidates run the exact ephemeris.
  double gx, gy, gz;
  ground_unit(ground, gx, gy, gz);
  const double e_min = geo::deg_to_rad(min_elevation_deg);

  if (propagator_->model() == OrbitModel::walker) {
    return walker_cone_sweep(
        shells_, gx, gy, gz,
        [&](std::size_t s) {
          return ShellSweep{walker_cos_gate(shells_[s].altitude_km, e_min),
                            shells_[s].mean_motion_rad_per_sec() * t_sec,
                            kEarthRotationRadPerSec * t_sec};
        },
        [&](std::size_t s, std::size_t p, std::size_t i) {
          on_candidate(SatId{s, p, i}, walker_position(shells_[s], p, i, t_sec));
        });
  }

  const auto& sgp4 = static_cast<const Sgp4Propagator&>(*propagator_);
  if (const auto& gate = sgp4.secular_gate(); !gate.empty()) {
    // Secular motion in SGP4's minutes; the node drifts against the
    // Earth's rotation, and the cone widens by the shell's bound.
    // position() computes this GMST per call; hoisting it keeps the doubles.
    const double gst = gstime(sgp4.epoch_jd() + t_sec / 86400.0);
    const double t_min = t_sec / 60.0;
    return walker_cone_sweep(
        shells_, gx, gy, gz,
        [&](std::size_t s) {
          const Sgp4Propagator::SecularShell& g = gate[s];
          return ShellSweep{
              std::cos(cone_half_angle(g.max_alt_km, e_min) + g.angle_bound_rad),
              g.arg_lat_rate * t_min, gst - g.node_rate * t_min};
        },
        [&](std::size_t s, std::size_t p, std::size_t i) {
          const SatId id{s, p, i};
          on_candidate(id, sgp4.position_at_gst(flat_index(id), t_sec, gst));
        });
  }

  const BatchFrame& frame = sgp4.frame_at(t_sec);
  const double cos_gate = frame_cos_gate(sgp4.max_gate_altitude_km(), e_min);
  for (std::size_t f = 0; f < frame.size(); ++f) {
    if (gx * frame.ux[f] + gy * frame.uy[f] + gz * frame.uz[f] < cos_gate) continue;
    on_candidate(sat_id_from_flat(f),
                 geo::GeoPoint{frame.lat_deg[f], frame.lon_deg[f], frame.alt_km[f]});
  }
  return frame.size();
}

std::vector<VisibleSat> Constellation::visible(const geo::GeoPoint& ground, double t_sec,
                                               double min_elevation_deg) const {
  // The candidates cover every satellite the exact test accepts and
  // arrive in canonical order, so this matches an exact scan of every
  // satellite bit for bit: the cone is purely a prefilter.
  std::vector<VisibleSat> out;
  for_each_candidate(ground, t_sec, min_elevation_deg,
                     [&](const SatId& id, const geo::GeoPoint& pos) {
                       const double elev = geo::elevation_deg(ground, pos);
                       if (elev >= min_elevation_deg) {
                         out.push_back({id, pos, elev,
                                        geo::slant_range_km(
                                            {ground.lat_deg, ground.lon_deg, 0.0}, pos)});
                       }
                     });
  return out;
}

std::optional<VisibleSat> Constellation::best_visible(const geo::GeoPoint& ground,
                                                      double t_sec,
                                                      double min_elevation_deg) const {
  // Cone-prefilter accounting: counted locally in the sweep and flushed
  // as three relaxed adds at the end. sats_swept is the slots the
  // prefilter tested: the windows' emitted slots, or the whole frame.
  // satlint:allow(shared-state): cached reference to a thread-safe striped counter; magic-static init is synchronized
  static obs::Counter& queries = obs::MetricsRegistry::global().counter(
      "orbit.best_visible.queries", "best_visible calls");
  // satlint:allow(shared-state): cached reference to a thread-safe striped counter; magic-static init is synchronized
  static obs::Counter& sats_swept = obs::MetricsRegistry::global().counter(
      "orbit.best_visible.sats_swept",
      "satellites the cone prefilter tested (windowed shells: slots inside the plane windows)");
  // satlint:allow(shared-state): cached reference to a thread-safe striped counter; magic-static init is synchronized
  static obs::Counter& exact_evals = obs::MetricsRegistry::global().counter(
      "orbit.best_visible.exact_evals",
      "satellites inside the cone that ran the exact ephemeris");
  std::uint64_t evals = 0;

  // Strict improvement in canonical order: the first satellite at the
  // highest elevation wins, as in the exact scan.
  std::optional<VisibleSat> best;
  const std::size_t swept = for_each_candidate(
      ground, t_sec, min_elevation_deg, [&](const SatId& id, const geo::GeoPoint& pos) {
        ++evals;
        const double elev = geo::elevation_deg(ground, pos);
        if (elev >= min_elevation_deg && (!best || elev > best->elevation_deg)) {
          best = VisibleSat{id, pos, elev,
                            geo::slant_range_km({ground.lat_deg, ground.lon_deg, 0.0}, pos)};
        }
      });
  queries.add(1);
  sats_swept.add(swept);
  exact_evals.add(evals);
  return best;
}

void GeoFleet::add_slot(std::string name, double lon_deg) {
  slots_.push_back({std::move(name), lon_deg});
}

geo::GeoPoint GeoFleet::position(std::size_t slot) const {
  return {0.0, slots_.at(slot).lon_deg, geo::kGeoAltitudeKm};
}

std::optional<VisibleSat> GeoFleet::best_visible(const geo::GeoPoint& ground,
                                                 double min_elevation_deg) const {
  std::optional<VisibleSat> best;
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    const geo::GeoPoint pos = position(i);
    const double elev = geo::elevation_deg(ground, pos);
    if (elev < min_elevation_deg) continue;
    if (!best || elev > best->elevation_deg) {
      // The sentinel shell keeps GEO ids disjoint from Walker shell 0
      // (consumers mixing fleets used to see colliding {0, 0, i} ids).
      best = VisibleSat{SatId{kGeoShellIndex, 0, i}, pos, elev,
                        geo::slant_range_km({ground.lat_deg, ground.lon_deg, 0.0}, pos)};
    }
  }
  return best;
}

}  // namespace satnet::orbit
