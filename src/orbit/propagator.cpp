#include "orbit/propagator.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <unordered_map>

namespace satnet::orbit {

namespace {

constexpr double kPi = 3.14159265358979323846;
constexpr double kTwoPi = 2.0 * kPi;

double wrap_angle(double a) {
  a = std::fmod(a, kTwoPi);
  if (a < 0) a += kTwoPi;
  return a;
}

void hash_mix(std::uint64_t& h, std::uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// A satellite whose SGP4 propagation errored (decay, bad eccentricity)
/// is parked deterministically far below ground: finite everywhere, and
/// never above any horizon, so campaigns degrade to "unreachable"
/// instead of propagating NaNs.
constexpr geo::GeoPoint kDecayedSentinel{0.0, 0.0, -1000.0};

std::uint64_t next_propagator_id() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

std::string_view to_string(OrbitModel m) {
  switch (m) {
    case OrbitModel::walker: return "walker";
    case OrbitModel::sgp4: return "sgp4";
  }
  return "?";
}

std::optional<OrbitModel> parse_orbit_model(std::string_view s) {
  if (s == "walker") return OrbitModel::walker;
  if (s == "sgp4") return OrbitModel::sgp4;
  return std::nullopt;
}

geo::GeoPoint walker_position(const Shell& shell, std::size_t plane, std::size_t index,
                              double t_sec) {
  const double inc = geo::deg_to_rad(shell.inclination_deg);
  const double raan =
      kTwoPi * static_cast<double>(plane) / static_cast<double>(shell.planes);
  // Walker phasing: satellites in adjacent planes are offset by
  // F * 2*pi / T where T is the shell's total satellite count.
  const double phase0 =
      kTwoPi * static_cast<double>(index) / static_cast<double>(shell.sats_per_plane) +
      kTwoPi * static_cast<double>(shell.phase_factor) * static_cast<double>(plane) /
          static_cast<double>(shell.total_sats());
  const double u = wrap_angle(phase0 + shell.mean_motion_rad_per_sec() * t_sec);

  // Latitude / inertial longitude of a circular inclined orbit.
  const double sin_lat = std::sin(inc) * std::sin(u);
  const double lat = std::asin(std::clamp(sin_lat, -1.0, 1.0));
  const double lon_inertial = std::atan2(std::cos(inc) * std::sin(u), std::cos(u)) + raan;
  // Earth-fixed longitude: subtract Earth's rotation since epoch.
  const double lon = wrap_angle(lon_inertial - kEarthRotationRadPerSec * t_sec);

  double lon_deg = geo::rad_to_deg(lon);
  if (lon_deg > 180.0) lon_deg -= 360.0;
  return {geo::rad_to_deg(lat), lon_deg, shell.altitude_km};
}

// ---------------------------------------------------------------------------
// WalkerPropagator
// ---------------------------------------------------------------------------

WalkerPropagator::WalkerPropagator(std::vector<Shell> shells)
    : shells_(std::move(shells)) {
  std::size_t n = 0;
  for (const Shell& s : shells_) {
    shell_begin_.push_back(n);
    n += s.total_sats();
  }
  shell_begin_.push_back(n);
}

geo::GeoPoint WalkerPropagator::position(std::size_t sat, double t_sec) const {
  const auto it = std::upper_bound(shell_begin_.begin(), shell_begin_.end(), sat);
  const auto s = static_cast<std::size_t>(it - shell_begin_.begin()) - 1;
  const Shell& shell = shells_.at(s);
  const std::size_t local = sat - shell_begin_[s];
  return walker_position(shell, local / shell.sats_per_plane,
                         local % shell.sats_per_plane, t_sec);
}

// ---------------------------------------------------------------------------
// Sgp4Propagator
// ---------------------------------------------------------------------------

Sgp4Propagator::Sgp4Propagator(const std::vector<Shell>& shells) {
  // Every Walker slot becomes a near-circular SGP4 satellite at a fixed
  // canonical epoch (J2000.0). Mean motion comes from the shell's
  // altitude, phase/RAAN from the Walker geometry; bstar is zero (no
  // drag for synthetic fleets, so multi-day horizons stay in orbit).
  constexpr double kCanonicalEpochJd = 2451545.0;
  for (const Shell& shell : shells) {
    const double no_rad_min = shell.mean_motion_rad_per_sec() * 60.0;
    const double inclo = geo::deg_to_rad(shell.inclination_deg);
    for (std::size_t p = 0; p < shell.planes; ++p) {
      const double nodeo =
          kTwoPi * static_cast<double>(p) / static_cast<double>(shell.planes);
      for (std::size_t i = 0; i < shell.sats_per_plane; ++i) {
        const double mo =
            kTwoPi * static_cast<double>(i) / static_cast<double>(shell.sats_per_plane) +
            kTwoPi * static_cast<double>(shell.phase_factor) * static_cast<double>(p) /
                static_cast<double>(shell.total_sats());
        sats_.emplace_back(kCanonicalEpochJd, no_rad_min, /*ecco=*/1.0e-4, inclo,
                           nodeo, /*argpo=*/0.0, wrap_angle(mo), /*bstar=*/0.0);
        epoch_offset_min_.push_back(0.0);
      }
    }
    // Every slot of a shell shares (no, ecco, inclo), so its first
    // satellite carries the shell's secular rates and bound.
    const Sgp4& first = sats_[sats_.size() - shell.total_sats()];
    const auto bound = first.secular_bound();
    if (bound && bound->angle_rad <= kSecularGateCapRad) {
      secular_gate_.push_back(
          {first.mdot() + first.argpdot(), first.nodedot(), bound->angle_rad,
           bound->radius_er * Sgp4Constants::radiusearthkm - geo::kEarthRadiusKm});
    }
  }
  // All shells or none: a constellation with one ungated shell scans the
  // full frame.
  if (secular_gate_.size() != shells.size()) secular_gate_.clear();
  epoch_jd_ = kCanonicalEpochJd;
  finalize();
}

Sgp4Propagator::Sgp4Propagator(std::vector<Tle> tles) : tles_(std::move(tles)) {
  if (tles_.empty()) {
    throw std::invalid_argument("Sgp4Propagator: empty TLE catalog");
  }
  epoch_jd_ = 0;
  for (const Tle& t : tles_) epoch_jd_ = std::max(epoch_jd_, t.epoch_jd());
  for (const Tle& t : tles_) {
    sats_.emplace_back(t);
    epoch_offset_min_.push_back((epoch_jd_ - t.epoch_jd()) * 1440.0);
  }
  finalize();
}

void Sgp4Propagator::finalize() {
  id_ = next_propagator_id();
  std::uint64_t h = 0x5d1f4a2b9c83e607ull;
  hash_mix(h, sats_.size());
  max_gate_alt_km_ = 0;
  for (std::size_t i = 0; i < sats_.size(); ++i) {
    const Sgp4& s = sats_[i];
    hash_mix(h, bits(s.epoch_jd()));
    hash_mix(h, bits(s.no_unkozai()));
    hash_mix(h, bits(s.ecco()));
    hash_mix(h, bits(epoch_offset_min_[i]));
    max_gate_alt_km_ =
        std::max(max_gate_alt_km_, s.gate_apogee_alt_km(geo::kEarthRadiusKm));
  }
  for (const Tle& t : tles_) {
    hash_mix(h, t.satnum);
    hash_mix(h, bits(t.bstar));
  }
  ephemeris_hash_ = h == 0 ? 1 : h;
}

geo::GeoPoint Sgp4Propagator::position(std::size_t sat, double t_sec) const {
  return position_at_gst(sat, t_sec, gstime(epoch_jd_ + t_sec / 86400.0));
}

geo::GeoPoint Sgp4Propagator::position_at_gst(std::size_t sat, double t_sec,
                                              double gst) const {
  const Sgp4& s = sats_.at(sat);
  const double tsince = t_sec / 60.0 + epoch_offset_min_[sat];
  const auto state = s.propagate(tsince);
  if (!state.has_value()) return kDecayedSentinel;
  const double x = state->r[0], y = state->r[1], z = state->r[2];
  const double r = std::sqrt(x * x + y * y + z * z);
  if (r <= 0.0) return kDecayedSentinel;
  // TEME -> ECEF via GMST at the evaluation instant, then the repo's
  // spherical geodetic convention (altitude above kEarthRadiusKm).
  const double lat = std::asin(std::clamp(z / r, -1.0, 1.0));
  const double lon = wrap_angle(std::atan2(y, x) - gst);
  double lon_deg = geo::rad_to_deg(lon);
  if (lon_deg > 180.0) lon_deg -= 360.0;
  return {geo::rad_to_deg(lat), lon_deg, r - geo::kEarthRadiusKm};
}

namespace {

/// One memoized frame per (thread, propagator): campaigns ask for every
/// terminal at the same epoch before moving time forward, so a single
/// slot hits almost always. Keyed by the process-unique propagator id
/// (never a pointer — ids are not reused).
struct FrameSlot {
  bool valid = false;
  std::uint64_t t_bits = 0;
  BatchFrame frame;
};

FrameSlot& frame_slot(std::uint64_t id) {
  thread_local std::unordered_map<std::uint64_t, std::unique_ptr<FrameSlot>> slots;
  auto& slot = slots[id];
  if (!slot) slot = std::make_unique<FrameSlot>();
  return *slot;
}

}  // namespace

const BatchFrame& Sgp4Propagator::frame_at(double t_sec) const {
  FrameSlot& slot = frame_slot(id_);
  const std::uint64_t key = bits(t_sec);
  if (slot.valid && slot.t_bits == key) return slot.frame;
  BatchFrame& f = slot.frame;
  const std::size_t n = sats_.size();
  f.lat_deg.resize(n);
  f.lon_deg.resize(n);
  f.alt_km.resize(n);
  f.ux.resize(n);
  f.uy.resize(n);
  f.uz.resize(n);
  // GMST depends only on the instant; position() computes the same double
  // per call.
  const double gst = gstime(epoch_jd_ + t_sec / 86400.0);
  for (std::size_t i = 0; i < n; ++i) {
    const geo::GeoPoint p = position_at_gst(i, t_sec, gst);
    f.lat_deg[i] = p.lat_deg;
    f.lon_deg[i] = p.lon_deg;
    f.alt_km[i] = p.alt_km;
    const double lat = geo::deg_to_rad(p.lat_deg);
    const double lon = geo::deg_to_rad(p.lon_deg);
    f.ux[i] = std::cos(lat) * std::cos(lon);
    f.uy[i] = std::cos(lat) * std::sin(lon);
    f.uz[i] = std::sin(lat);
  }
  slot.t_bits = key;
  slot.valid = true;
  return f;
}

}  // namespace satnet::orbit
