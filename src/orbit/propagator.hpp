// Propagator interface: Walker-circular and SGP4 ephemeris backends,
// plus the per-plane window sweep both models gate visibility with.
//
// The closed-form Walker mode is the fast exact default and stays
// bit-identical to the historical Constellation::position arithmetic
// (walker_position below IS that arithmetic). The SGP4 mode runs the
// perturbed propagation from sgp4.hpp per satellite, either from a real
// TLE catalog or from synthetic elements derived from Walker shell
// geometry.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "geo/geodesy.hpp"
#include "orbit/sgp4.hpp"
#include "orbit/shell.hpp"

namespace satnet::orbit {

/// Which ephemeris backend a constellation runs on.
enum class OrbitModel { walker, sgp4 };

std::string_view to_string(OrbitModel m);
std::optional<OrbitModel> parse_orbit_model(std::string_view s);

/// Closed-form circular Walker ephemeris for one satellite slot. This is
/// the exact arithmetic (op for op) the repo has always used for
/// Constellation::position; every Walker-mode consumer — sweep, timeline
/// replay — funnels through it so positions agree bit for bit.
geo::GeoPoint walker_position(const Shell& shell, std::size_t plane, std::size_t index,
                              double t_sec);

/// Every satellite's position at one instant, in canonical (shell,
/// plane, index) order, plus ECEF unit vectors for cone gating.
struct BatchFrame {
  std::vector<double> lat_deg, lon_deg, alt_km;
  std::vector<double> ux, uy, uz;

  std::size_t size() const { return lat_deg.size(); }
};

/// Abstract ephemeris backend. Satellites are addressed by flat
/// canonical index.
class Propagator {
 public:
  virtual ~Propagator() = default;

  virtual OrbitModel model() const = 0;
  virtual std::size_t size() const = 0;

  /// Geodetic position of satellite `sat` at simulation time t.
  virtual geo::GeoPoint position(std::size_t sat, double t_sec) const = 0;

  /// Stable hash of everything that determines positions (elements,
  /// epochs, model) — mixed into access identity hashes so persisted
  /// timelines can never answer for a different ephemeris.
  virtual std::uint64_t ephemeris_hash() const = 0;
};

/// The closed-form Walker backend.
class WalkerPropagator final : public Propagator {
 public:
  explicit WalkerPropagator(std::vector<Shell> shells);

  OrbitModel model() const override { return OrbitModel::walker; }
  std::size_t size() const override { return shell_begin_.back(); }
  geo::GeoPoint position(std::size_t sat, double t_sec) const override;
  std::uint64_t ephemeris_hash() const override { return 0; }

 private:
  std::vector<Shell> shells_;
  /// Flat index -> (shell, plane, index) decomposition helpers.
  std::vector<std::size_t> shell_begin_;
};

/// Largest secular-orbit bound (Sgp4::SecularBound::angle_rad) a
/// synthetic shell may have and still be gated by the window sweep.
/// Every near-Earth shell the generators build sits near 3e-3 rad; a
/// constellation with a shell above the cap keeps the full frame.
inline constexpr double kSecularGateCapRad = 0.01;

/// The SGP4/SDP4 backend: one initialized Sgp4 state per satellite.
class Sgp4Propagator final : public Propagator {
 public:
  /// Synthetic elements from Walker shell geometry: each slot becomes a
  /// near-circular SGP4 satellite with the slot's inclination, RAAN and
  /// phase, at a fixed canonical epoch (no wall-clock anywhere).
  explicit Sgp4Propagator(const std::vector<Shell>& shells);
  /// A real TLE catalog. Simulation t=0 is the newest element epoch, so
  /// every satellite propagates forward from its own epoch.
  explicit Sgp4Propagator(std::vector<Tle> tles);

  OrbitModel model() const override { return OrbitModel::sgp4; }
  std::size_t size() const override { return sats_.size(); }
  geo::GeoPoint position(std::size_t sat, double t_sec) const override;
  std::uint64_t ephemeris_hash() const override { return ephemeris_hash_; }

  /// Upper bound on any satellite's geodetic altitude (km), for the
  /// full-frame cone gate: higher altitude means a wider gate.
  double max_gate_altitude_km() const { return max_gate_alt_km_; }

  /// The catalog (empty for synthetic-element constellations).
  const std::vector<Tle>& tles() const { return tles_; }
  /// Julian date mapped to simulation t=0.
  double epoch_jd() const { return epoch_jd_; }

  /// What the window sweep needs to gate one synthetic shell on its
  /// secular orbit (see Sgp4::secular_bound).
  struct SecularShell {
    double arg_lat_rate = 0;     ///< mdot + argpdot, rad/min
    double node_rate = 0;        ///< nodedot, rad/min
    double angle_bound_rad = 0;  ///< true vs secular direction
    double max_alt_km = 0;       ///< altitude bound for the cone
  };
  /// One entry per shell when the whole constellation can be gated:
  /// synthetic elements, near-Earth, every bound within
  /// kSecularGateCapRad. Empty otherwise (TLE catalogs, deep space):
  /// those constellations gate on the full frame.
  const std::vector<SecularShell>& secular_gate() const { return secular_gate_; }

  /// Every satellite at t with unit vectors, memoized per thread for the
  /// common many-terminals-one-epoch query pattern. The memo is a pure
  /// cache: each value equals position() at t bit for bit.
  const BatchFrame& frame_at(double t_sec) const;

  /// position() with the GMST precomputed by the caller; gst must equal
  /// gstime(epoch_jd() + t_sec / 86400) for identical output.
  geo::GeoPoint position_at_gst(std::size_t sat, double t_sec, double gst) const;

 private:
  void finalize();

  std::uint64_t id_ = 0;  ///< process-unique, keys the thread-local memo
  std::vector<Tle> tles_;
  std::vector<Sgp4> sats_;
  std::vector<double> epoch_offset_min_;  ///< sat epoch -> t=0 offset
  double epoch_jd_ = 0;
  std::uint64_t ephemeris_hash_ = 0;
  double max_gate_alt_km_ = 0;
  std::vector<SecularShell> secular_gate_;
};

/// Slack of the window gate, in both of its domains: subtracted from the
/// cos gate and added to the window half-angle. It absorbs the rounding
/// of the plane-rotation recurrence and of the window arithmetic (all far
/// below 1e-9 rad, even at t ~ 1e8 s), so the window never drops a slot
/// the exact elevation test would accept.
inline constexpr double kWalkerWindowMarginRad = 1e-6;

/// Where one shell's slots are at the instant being swept. Slot (p, i)
/// has argument of latitude phase0(p, i) + along_track on a circle of
/// the shell's inclination whose ECEF node is 2 pi p / planes -
/// earth_angle.
struct ShellSweep {
  double cos_gate = 0;     ///< cos of the cone half-angle to emit within
  double along_track = 0;  ///< argument-of-latitude advance since t=0, rad
  double earth_angle = 0;  ///< Earth rotation minus node drift since t=0, rad
};

/// Shared cone-prefilter sweep over Walker slots. Invokes
/// `on_candidate(s, p, i)` for a superset of the slots whose direction
/// lies within the cone cos(theta) >= sweep_for_shell(s).cos_gate of the
/// ground unit vector g, in canonical (shell, plane, index) order, and
/// returns how many slots it emitted.
///
/// Walker shells pass the exact circular motion (mean motion times t,
/// Earth rotation times t). Synthetic SGP4 shells pass their secular
/// motion and widen the cone by the bound on how far SGP4 strays from it
/// (Sgp4::secular_bound), so the emitted slots still cover every
/// satellite the exact test accepts.
///
/// Per-plane window: in plane p the slot direction is
/// pos(u) = cos u * a + sin u * b with a = (cos phi, sin phi, 0),
/// b = (-cos i sin phi, cos i cos phi, sin i), phi = node - earth_angle,
/// so g . pos(u) = R cos(u - u*) with R = |(g.a, g.b)| and
/// u* = atan2(g.b, g.a). A plane with R < gate - margin has no slot in
/// the cone and is skipped; otherwise the cone is exactly the arc
/// |u - u*| <= acos(gate / R), and the sweep emits every slot within
/// acos((gate - margin) / R) + margin of u*: one index range mod
/// sats_per_plane, emitted in ascending index order (split at the wrap).
/// The cost is one rotation step per plane plus the emitted slots, not
/// one per satellite.
///
/// Callers run the exact ephemeris + elevation test on every emitted
/// slot with strict-improvement selection. Because the window is a
/// superset of what that test accepts and the visit order is canonical,
/// the result equals an exact scan of every slot bit for bit — the
/// window is purely a prefilter. best_visible and visible share it so
/// their prefilters cannot diverge.
template <typename SweepFn, typename CandidateFn>
std::size_t walker_cone_sweep(const std::vector<Shell>& shells, double gx, double gy,
                              double gz, SweepFn&& sweep_for_shell,
                              CandidateFn&& on_candidate) {
  constexpr double kPi = 3.14159265358979323846;
  constexpr double kTwoPi = 2.0 * kPi;
  constexpr double kMargin = kWalkerWindowMarginRad;
  std::size_t emitted = 0;
  for (std::size_t s = 0; s < shells.size(); ++s) {
    const Shell& shell = shells[s];
    const ShellSweep sweep = sweep_for_shell(s);
    const double gate = sweep.cos_gate - kMargin;
    const double inc = geo::deg_to_rad(shell.inclination_deg);
    const double sin_i = std::sin(inc);
    const double cos_i = std::cos(inc);
    const std::size_t n = shell.sats_per_plane;
    const double du = kTwoPi / static_cast<double>(n);
    const double phase_step = kTwoPi * static_cast<double>(shell.phase_factor) /
                              static_cast<double>(shell.total_sats());
    // phi_p = 2 pi p / planes - earth_angle, advanced by one rotation per plane.
    const double dphi = kTwoPi / static_cast<double>(shell.planes);
    const double cos_dphi = std::cos(dphi);
    const double sin_dphi = std::sin(dphi);
    double cos_phi = std::cos(sweep.earth_angle);
    double sin_phi = -std::sin(sweep.earth_angle);
    for (std::size_t p = 0; p < shell.planes; ++p) {
      const double ga = gx * cos_phi + gy * sin_phi;
      const double gb = cos_i * (gy * cos_phi - gx * sin_phi) + gz * sin_i;
      const double cos_next = cos_phi * cos_dphi - sin_phi * sin_dphi;
      sin_phi = sin_phi * cos_dphi + cos_phi * sin_dphi;
      cos_phi = cos_next;

      const double r = std::sqrt(ga * ga + gb * gb);
      if (r < gate) continue;
      const double half =
          std::acos(r > 0.0 ? std::clamp(gate / r, -1.0, 1.0) : -1.0) + kMargin;
      // Window centre relative to slot 0's argument of latitude, in [0, 2pi).
      double centre = std::fmod(
          std::atan2(gb, ga) - (phase_step * static_cast<double>(p) + sweep.along_track),
          kTwoPi);
      if (centre < 0.0) centre += kTwoPi;
      const auto k_lo = static_cast<long long>(std::ceil((centre - half) / du));
      const auto k_hi = static_cast<long long>(std::floor((centre + half) / du));
      if (k_hi < k_lo) continue;
      const auto span = static_cast<std::size_t>(k_hi - k_lo + 1);
      const auto nn = static_cast<long long>(n);
      const std::size_t first = static_cast<std::size_t>(((k_lo % nn) + nn) % nn);
      if (span >= n) {
        for (std::size_t i = 0; i < n; ++i) on_candidate(s, p, i);
        emitted += n;
      } else if (first + span <= n) {
        for (std::size_t i = first; i < first + span; ++i) on_candidate(s, p, i);
        emitted += span;
      } else {
        // The arc wraps past index n-1: emit [0, tail) before [first, n)
        // so the plane is still visited in ascending index order.
        const std::size_t tail = first + span - n;
        for (std::size_t i = 0; i < tail; ++i) on_candidate(s, p, i);
        for (std::size_t i = first; i < n; ++i) on_candidate(s, p, i);
        emitted += span;
      }
    }
  }
  return emitted;
}

}  // namespace satnet::orbit
