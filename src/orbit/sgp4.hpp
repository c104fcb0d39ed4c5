// SGP4/SDP4 perturbed orbit propagation and TLE handling.
//
// A from-scratch port of the standard SGP4 analytic propagator
// (Spacetrack Report #3 as revised by Vallado et al., "Revisiting
// Spacetrack Report #3", AIAA 2006-6753): near-Earth secular J2/J3/J4 +
// drag terms, and the SDP4 deep-space extension (lunar/solar secular and
// periodic perturbations, 12-hour and 24-hour resonance handling) for
// periods >= 225 minutes. WGS-72 gravity constants, matching the
// reference implementation and the published test vectors.
//
// Everything here is deterministic and wall-clock free: epochs come from
// the TLE lines (or a fixed canonical epoch for synthetic elements), and
// simulation time is an offset from the catalog epoch. Angles are
// radians, distances km, time minutes-since-epoch at the propagation
// boundary (the repo-facing wrappers in propagator.hpp speak seconds).
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace satnet::orbit {

/// WGS-72 gravity model, the constant set the published SGP4 test
/// vectors were generated with.
struct Sgp4Constants {
  static constexpr double mu = 398600.8;            ///< km^3/s^2
  static constexpr double radiusearthkm = 6378.135; ///< km
  static constexpr double xke = 0.07436691613317342; ///< 60/sqrt(re^3/mu)
  static constexpr double tumin = 1.0 / xke;
  static constexpr double j2 = 0.001082616;
  static constexpr double j3 = -0.00000253881;
  static constexpr double j4 = -0.00000165597;
  static constexpr double j3oj2 = j3 / j2;
};

/// One parsed two-line element set. Fields follow the classical TLE
/// layout; angles are stored in degrees exactly as printed (the
/// propagator converts once at init).
struct Tle {
  std::string name;          ///< optional line-0 name, trimmed
  unsigned satnum = 0;       ///< NORAD catalog number
  char classification = 'U';
  std::string intl_desig;    ///< international designator, trimmed
  int epochyr = 0;           ///< two-digit year as printed (57..99 -> 19xx)
  double epochdays = 0;      ///< day of year + fraction
  double ndot = 0;           ///< rev/day^2 (already /2 per TLE convention undone)
  double nddot = 0;          ///< rev/day^3 (already /6 undone)
  double bstar = 0;          ///< 1/earth-radii
  int ephtype = 0;
  int elnum = 0;
  double inclo_deg = 0;      ///< inclination
  double nodeo_deg = 0;      ///< RAAN
  double ecco = 0;           ///< eccentricity
  double argpo_deg = 0;      ///< argument of perigee
  double mo_deg = 0;         ///< mean anomaly
  double no_revs_per_day = 0;///< mean motion
  int revnum = 0;

  /// Julian date of the element epoch (UT).
  double epoch_jd() const;

  /// Parses a TLE from its two element lines (optionally preceded by a
  /// name line). Validates line numbers, column layout and the mod-10
  /// checksum of both lines; returns nullopt with a reason on failure.
  static std::optional<Tle> parse(const std::string& line1, const std::string& line2,
                                  const std::string& name = "",
                                  std::string* error = nullptr);

  /// Emits the canonical 69-column element lines (with checksums).
  /// parse(emit()) round-trips every field this struct keeps.
  std::string emit_line1() const;
  std::string emit_line2() const;
};

/// Loads every TLE from a file body (2- or 3-line groups, # comments and
/// blank lines skipped). Stops with an error message on the first
/// malformed set so bad catalogs fail loudly rather than drop members.
std::optional<std::vector<Tle>> parse_tle_catalog(const std::string& text,
                                                  std::string* error = nullptr);

/// TLE mod-10 checksum of the first 68 columns.
int tle_checksum(const std::string& line);

/// Greenwich mean sidereal time (rad) for a UT1 Julian date.
double gstime(double jdut1);

/// TEME position/velocity, km and km/s.
struct TemeState {
  std::array<double, 3> r{};
  std::array<double, 3> v{};
};

/// The propagator: init once from elements, then evaluate at any
/// minutes-since-epoch offset. Pure value type — propagation is const,
/// so one initialized Sgp4 is safely shared across threads.
class Sgp4 {
 public:
  /// Initializes from classical elements. `epoch_jd` is the element
  /// epoch as a Julian date; angles in radians; `no_kozai` in rad/min.
  Sgp4(double epoch_jd, double no_kozai, double ecco, double inclo, double nodeo,
       double argpo, double mo, double bstar);
  explicit Sgp4(const Tle& tle);

  /// Propagates to `tsince_min` minutes after the element epoch.
  /// Returns nullopt on the standard SGP4 error conditions (orbital
  /// decay, bad eccentricity, negative semi-latus rectum).
  std::optional<TemeState> propagate(double tsince_min) const;

  bool deep_space() const { return method_ == 'd'; }
  double epoch_jd() const { return epoch_jd_; }
  /// Un-Kozai'd mean motion, rad/min.
  double no_unkozai() const { return no_unkozai_; }
  double ecco() const { return ecco_; }
  /// Semi-major axis in earth radii.
  double a() const { return a_; }

  /// Conservative apogee altitude (km above the repo's spherical Earth
  /// radius) for visibility cone gating — an upper bound on the geodetic
  /// altitude the satellite can reach.
  double gate_apogee_alt_km(double spherical_earth_radius_km) const;

  /// Secular rates set at init, rad/min: mean anomaly, argument of
  /// perigee, node.
  double mdot() const { return mdot_; }
  double argpdot() const { return argpdot_; }
  double nodedot() const { return nodedot_; }

  /// How far propagate() strays from the secular orbit: the circle with
  /// argument of latitude mo + argpo + (mdot + argpdot) t, node
  /// nodeo + nodedot t and inclination inclo.
  struct SecularBound {
    double angle_rad = 0;  ///< propagated vs secular direction, any t
    double radius_er = 0;  ///< propagated radius, earth radii
  };
  /// The bound for a drag-free near-Earth satellite (bstar = 0, period
  /// < 225 min), where only bounded periodic terms separate the two
  /// (derivation in sgp4.cpp). nullopt otherwise: drag and the deep-space
  /// terms grow with t.
  std::optional<SecularBound> secular_bound() const;

 private:
  void init_near_earth(double epoch1950);
  void init_deep_space(double epoch1950);
  void dpper(double t, bool init, double& ep, double& inclp, double& nodep,
             double& argpp, double& mp) const;

  // Input elements.
  double epoch_jd_ = 0;
  double no_kozai_ = 0, ecco_ = 0, inclo_ = 0, nodeo_ = 0, argpo_ = 0, mo_ = 0;
  double bstar_ = 0;

  // Derived at init (Vallado elsetrec naming, kept verbatim so the math
  // stays auditable against the reference).
  char method_ = 'n';
  int isimp_ = 0;
  double a_ = 0, no_unkozai_ = 0, gsto_ = 0;
  double con41_ = 0, cc1_ = 0, cc4_ = 0, cc5_ = 0, d2_ = 0, d3_ = 0, d4_ = 0;
  double delmo_ = 0, eta_ = 0, argpdot_ = 0, omgcof_ = 0, sinmao_ = 0;
  double t2cof_ = 0, t3cof_ = 0, t4cof_ = 0, t5cof_ = 0;
  double x1mth2_ = 0, x7thm1_ = 0, mdot_ = 0, nodedot_ = 0, xlcof_ = 0;
  double xmcof_ = 0, nodecf_ = 0, aycof_ = 0;

  // Deep-space state (SDP4).
  int irez_ = 0;
  double d2201_ = 0, d2211_ = 0, d3210_ = 0, d3222_ = 0, d4410_ = 0, d4422_ = 0;
  double d5220_ = 0, d5232_ = 0, d5421_ = 0, d5433_ = 0, dedt_ = 0, del1_ = 0;
  double del2_ = 0, del3_ = 0, didt_ = 0, dmdt_ = 0, dnodt_ = 0, domdt_ = 0;
  double e3_ = 0, ee2_ = 0, peo_ = 0, pgho_ = 0, pho_ = 0, pinco_ = 0, plo_ = 0;
  double se2_ = 0, se3_ = 0, sgh2_ = 0, sgh3_ = 0, sgh4_ = 0, sh2_ = 0, sh3_ = 0;
  double si2_ = 0, si3_ = 0, sl2_ = 0, sl3_ = 0, sl4_ = 0, xfact_ = 0, xgh2_ = 0;
  double xgh3_ = 0, xgh4_ = 0, xh2_ = 0, xh3_ = 0, xi2_ = 0, xi3_ = 0, xl2_ = 0;
  double xl3_ = 0, xl4_ = 0, xlamo_ = 0, zmol_ = 0, zmos_ = 0;
};

}  // namespace satnet::orbit
