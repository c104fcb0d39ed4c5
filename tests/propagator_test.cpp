// Cross-validation suite for the propagator layer: SGP4 vs published
// reference ephemeris vectors, the full frame vs scalar bit-identity,
// TLE round-trips, the Walker and SGP4 window gates against an exact
// scan of every satellite, and the orbit-layer bugfix regressions
// (visible() cone prefilter, zero-size shell validation, GEO sentinel
// ids).
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "geo/geodesy.hpp"
#include "obs/metrics.hpp"
#include "orbit/access.hpp"
#include "orbit/constellation.hpp"
#include "orbit/propagator.hpp"
#include "orbit/sgp4.hpp"
#include "orbit/timeline.hpp"
#include "stats/rng.hpp"

namespace satnet::orbit {
namespace {

std::uint64_t dbits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Pads a hand-written element line to 68 columns and appends its mod-10
/// checksum, so the fixtures below stay readable.
std::string ck(std::string line) {
  line.resize(68, ' ');
  return line + static_cast<char>('0' + tle_checksum(line));
}

// The two canonical Spacetrack Report #3 verification satellites
// (Hoots & Roehrich 1980; reproduced in Vallado et al., AIAA 2006-6753):
// a near-Earth SGP4 case and a high-eccentricity deep-space SDP4 case.
const std::string kStr3NearL1 =
    ck("1 88888U          80275.98708465  .00073094  13844-3  66816-4 0    8");
const std::string kStr3NearL2 =
    ck("2 88888  72.8435 115.9689 0086731  52.6988 110.5714 16.05824518  105");
const std::string kStr3DeepL1 =
    ck("1 11801U          80230.29629788  .01431103  00000-0  14311-1 0    1");
const std::string kStr3DeepL2 =
    ck("2 11801  46.7916 230.4354 7318036  47.4722  10.4117  2.28537848    1");

// ------------------------------------------------------------ TLE layer

TEST(TleTest, ParsesStr3Fields) {
  std::string err;
  const auto t = Tle::parse(kStr3NearL1, kStr3NearL2, "STR3 TEST", &err);
  ASSERT_TRUE(t.has_value()) << err;
  EXPECT_EQ(t->satnum, 88888u);
  EXPECT_EQ(t->name, "STR3 TEST");
  EXPECT_EQ(t->epochyr, 80);
  EXPECT_NEAR(t->epochdays, 275.98708465, 1e-9);
  EXPECT_NEAR(t->bstar, 0.66816e-4, 1e-12);
  EXPECT_NEAR(t->inclo_deg, 72.8435, 1e-9);
  EXPECT_NEAR(t->nodeo_deg, 115.9689, 1e-9);
  EXPECT_NEAR(t->ecco, 0.0086731, 1e-12);
  EXPECT_NEAR(t->argpo_deg, 52.6988, 1e-9);
  EXPECT_NEAR(t->mo_deg, 110.5714, 1e-9);
  EXPECT_NEAR(t->no_revs_per_day, 16.05824518, 1e-12);
  EXPECT_EQ(t->revnum, 105);
}

TEST(TleTest, RejectsBadChecksum) {
  std::string l1 = kStr3NearL1;
  l1.back() = (l1.back() == '0') ? '1' : '0';
  std::string err;
  EXPECT_FALSE(Tle::parse(l1, kStr3NearL2, "", &err).has_value());
  EXPECT_NE(err.find("checksum"), std::string::npos) << err;
}

TEST(TleTest, RejectsSatnumMismatch) {
  std::string err;
  EXPECT_FALSE(Tle::parse(kStr3NearL1, kStr3DeepL2, "", &err).has_value());
}

TEST(TleTest, ChecksumCountsMinusAsOne) {
  // Per the TLE spec, '-' contributes 1 and every other non-digit 0.
  EXPECT_EQ(tle_checksum("-"), 1);
  EXPECT_EQ(tle_checksum("19"), 0);
  EXPECT_EQ(tle_checksum("1 2-"), 4);
}

TEST(TleTest, ParseEmitParseRoundTrips) {
  for (const auto* pair :
       {&kStr3NearL1, &kStr3DeepL1}) {
    const bool near_case = pair == &kStr3NearL1;
    const std::string& l1 = near_case ? kStr3NearL1 : kStr3DeepL1;
    const std::string& l2 = near_case ? kStr3NearL2 : kStr3DeepL2;
    std::string err;
    const auto a = Tle::parse(l1, l2, "RT", &err);
    ASSERT_TRUE(a.has_value()) << err;
    const std::string e1 = a->emit_line1();
    const std::string e2 = a->emit_line2();
    ASSERT_EQ(e1.size(), 69u);
    ASSERT_EQ(e2.size(), 69u);
    const auto b = Tle::parse(e1, e2, a->name, &err);
    ASSERT_TRUE(b.has_value()) << err << "\n" << e1 << "\n" << e2;
    EXPECT_EQ(a->satnum, b->satnum);
    EXPECT_EQ(a->epochyr, b->epochyr);
    EXPECT_DOUBLE_EQ(a->epochdays, b->epochdays);
    EXPECT_DOUBLE_EQ(a->inclo_deg, b->inclo_deg);
    EXPECT_DOUBLE_EQ(a->nodeo_deg, b->nodeo_deg);
    EXPECT_DOUBLE_EQ(a->ecco, b->ecco);
    EXPECT_DOUBLE_EQ(a->argpo_deg, b->argpo_deg);
    EXPECT_DOUBLE_EQ(a->mo_deg, b->mo_deg);
    EXPECT_DOUBLE_EQ(a->no_revs_per_day, b->no_revs_per_day);
    EXPECT_NEAR(a->bstar, b->bstar, std::fabs(a->bstar) * 1e-5 + 1e-12);
    EXPECT_NEAR(a->ndot, b->ndot, std::fabs(a->ndot) * 1e-6 + 1e-12);
    EXPECT_EQ(a->revnum, b->revnum);
    EXPECT_EQ(a->elnum, b->elnum);
  }
}

TEST(TleTest, CatalogParsesGroupsAndComments) {
  const std::string text = "# catalog comment\nSTR3 TEST\n" + kStr3NearL1 + "\n" +
                           kStr3NearL2 + "\n\n" + kStr3DeepL1 + "\n" + kStr3DeepL2 +
                           "\n";
  std::string err;
  const auto cat = parse_tle_catalog(text, &err);
  ASSERT_TRUE(cat.has_value()) << err;
  ASSERT_EQ(cat->size(), 2u);
  EXPECT_EQ((*cat)[0].name, "STR3 TEST");
  EXPECT_EQ((*cat)[0].satnum, 88888u);
  EXPECT_EQ((*cat)[1].satnum, 11801u);
}

TEST(TleTest, CatalogFailsLoudlyOnMalformedSet) {
  std::string bad = kStr3NearL2;
  bad[10] = 'x';
  std::string err;
  EXPECT_FALSE(parse_tle_catalog(kStr3NearL1 + "\n" + bad + "\n", &err).has_value());
  EXPECT_FALSE(err.empty());
}

// ---------------------------------------------- SGP4 reference vectors

// Published TEME state vectors for the STR#3 verification cases (WGS-72
// constants). Positions are km, velocities km/s. Documented tolerance:
// 0.01 km / 1e-5 km/s. The reference digits below are the original
// STR#3 report printouts; Vallado's revised model (which this port
// follows) reproduces them to a few meters, and any structural error in
// the port (wrong J-term, resonance, or periodic) shows up at km scale,
// so the meter-level band still pins the math.
constexpr double kPosTolKm = 1e-2;
constexpr double kVelTolKmS = 1e-5;

TEST(Sgp4Test, NearEarthMatchesStr3ReferenceAtEpoch) {
  std::string err;
  const auto tle = Tle::parse(kStr3NearL1, kStr3NearL2, "", &err);
  ASSERT_TRUE(tle.has_value()) << err;
  const Sgp4 sat(*tle);
  EXPECT_FALSE(sat.deep_space());

  const auto s0 = sat.propagate(0.0);
  ASSERT_TRUE(s0.has_value());
  EXPECT_NEAR(s0->r[0], 2328.97048951, kPosTolKm);
  EXPECT_NEAR(s0->r[1], -5995.22076416, kPosTolKm);
  EXPECT_NEAR(s0->r[2], 1719.97067261, kPosTolKm);
  EXPECT_NEAR(s0->v[0], 2.91207230, kVelTolKmS);
  EXPECT_NEAR(s0->v[1], -0.98341546, kVelTolKmS);
  EXPECT_NEAR(s0->v[2], -7.09081703, kVelTolKmS);
}

TEST(Sgp4Test, NearEarthMatchesStr3ReferenceAfterSixHours) {
  std::string err;
  const auto tle = Tle::parse(kStr3NearL1, kStr3NearL2, "", &err);
  ASSERT_TRUE(tle.has_value()) << err;
  const Sgp4 sat(*tle);
  const auto s = sat.propagate(360.0);
  ASSERT_TRUE(s.has_value());
  EXPECT_NEAR(s->r[0], 2456.10705566, kPosTolKm);
  EXPECT_NEAR(s->r[1], -6071.93853760, kPosTolKm);
  EXPECT_NEAR(s->r[2], 1222.89727783, kPosTolKm);
  EXPECT_NEAR(s->v[0], 2.67938992, kVelTolKmS);
  EXPECT_NEAR(s->v[1], -0.44829041, kVelTolKmS);
  EXPECT_NEAR(s->v[2], -7.22879231, kVelTolKmS);
}

TEST(Sgp4Test, DeepSpaceMatchesStr3ReferenceAtEpoch) {
  std::string err;
  const auto tle = Tle::parse(kStr3DeepL1, kStr3DeepL2, "", &err);
  ASSERT_TRUE(tle.has_value()) << err;
  const Sgp4 sat(*tle);
  EXPECT_TRUE(sat.deep_space());

  const auto s0 = sat.propagate(0.0);
  ASSERT_TRUE(s0.has_value());
  EXPECT_NEAR(s0->r[0], 7473.37066650, kPosTolKm);
  EXPECT_NEAR(s0->r[1], 428.95261765, kPosTolKm);
  EXPECT_NEAR(s0->r[2], 5828.74786377, kPosTolKm);
  EXPECT_NEAR(s0->v[0], 5.10715413, kVelTolKmS);
  EXPECT_NEAR(s0->v[1], 6.44468284, kVelTolKmS);
  EXPECT_NEAR(s0->v[2], -0.18613096, kVelTolKmS);
}

TEST(Sgp4Test, DeepSpaceStaysOnOrbitOverADay) {
  // Structural bound for the SDP4 case away from epoch: the radius must
  // stay inside the osculating perigee/apogee band (with slack for the
  // lunar/solar + resonance perturbations the test is exercising).
  std::string err;
  const auto tle = Tle::parse(kStr3DeepL1, kStr3DeepL2, "", &err);
  ASSERT_TRUE(tle.has_value()) << err;
  const Sgp4 sat(*tle);
  const double a_km = sat.a() * Sgp4Constants::radiusearthkm;
  const double perigee = a_km * (1.0 - sat.ecco());
  const double apogee = a_km * (1.0 + sat.ecco());
  for (double t = 0.0; t <= 1440.0; t += 80.0) {
    const auto s = sat.propagate(t);
    ASSERT_TRUE(s.has_value()) << "t=" << t;
    const double r =
        std::sqrt(s->r[0] * s->r[0] + s->r[1] * s->r[1] + s->r[2] * s->r[2]);
    EXPECT_GT(r, perigee - 200.0) << "t=" << t;
    EXPECT_LT(r, apogee + 200.0) << "t=" << t;
  }
}

TEST(Sgp4Test, PropagationIsAPureFunctionOfTime) {
  // No mutable integrator state: evaluating out of order, or the same t
  // twice, must yield identical bits (the thread-safety contract).
  std::string err;
  const auto tle = Tle::parse(kStr3DeepL1, kStr3DeepL2, "", &err);
  ASSERT_TRUE(tle.has_value()) << err;
  const Sgp4 sat(*tle);
  const auto a = sat.propagate(1440.0);
  (void)sat.propagate(3.0);
  (void)sat.propagate(-60.0);
  const auto b = sat.propagate(1440.0);
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(dbits(a->r[i]), dbits(b->r[i]));
    EXPECT_EQ(dbits(a->v[i]), dbits(b->v[i]));
  }
}

// ------------------------------------------------- frame bit-identity

TEST(Sgp4FrameTest, FrameAtMatchesScalarBitForBit) {
  // The full frame (TLE catalogs, deep space) must hold exactly the
  // doubles position() returns: a near-Earth and a deep-space catalog
  // member, and a synthetic shell.
  std::string err;
  auto cat = parse_tle_catalog(
      kStr3NearL1 + "\n" + kStr3NearL2 + "\n" + kStr3DeepL1 + "\n" + kStr3DeepL2 + "\n",
      &err);
  ASSERT_TRUE(cat.has_value()) << err;
  const Constellation tle = Constellation::from_tles(std::move(*cat));
  const Constellation synthetic({starlink_shell1()}, OrbitModel::sgp4);
  for (const Constellation* c : {&tle, &synthetic}) {
    const auto& prop = static_cast<const Sgp4Propagator&>(c->propagator());
    for (const double t : {0.0, 900.0, 86400.0}) {
      const BatchFrame& frame = prop.frame_at(t);
      ASSERT_EQ(frame.size(), c->total_sats());
      for (std::size_t f = 0; f < frame.size(); ++f) {
        const geo::GeoPoint pos = prop.position(f, t);
        ASSERT_EQ(dbits(frame.lat_deg[f]), dbits(pos.lat_deg)) << "t=" << t << " sat=" << f;
        ASSERT_EQ(dbits(frame.lon_deg[f]), dbits(pos.lon_deg)) << "t=" << t << " sat=" << f;
        ASSERT_EQ(dbits(frame.alt_km[f]), dbits(pos.alt_km)) << "t=" << t << " sat=" << f;
      }
    }
  }
}

TEST(PropagatorTest, WalkerPositionMatchesConstellationBitForBit) {
  const Constellation c(starlink_shells());
  for (const double t : {0.0, 777.0, 43210.5}) {
    const geo::GeoPoint a = c.position(SatId{1, 3, 7}, t);
    const geo::GeoPoint b = walker_position(c.shells()[1], 3, 7, t);
    EXPECT_EQ(dbits(a.lat_deg), dbits(b.lat_deg));
    EXPECT_EQ(dbits(a.lon_deg), dbits(b.lon_deg));
    EXPECT_EQ(dbits(a.alt_km), dbits(b.alt_km));
  }
}

// --------------------------------------------- sgp4-mode constellation

TEST(Sgp4ConstellationTest, SyntheticWalkerElementsStayNearShellGeometry) {
  const Constellation c({starlink_shell1()}, OrbitModel::sgp4);
  // Synthetic near-circular elements: altitude stays within the J2/drag
  // band around the shell altitude, latitude within the inclination.
  for (const double t : {0.0, 1800.0, 5400.0}) {
    const geo::GeoPoint pos = c.position(SatId{0, 10, 5}, t);
    EXPECT_NEAR(pos.alt_km, 550.0, 40.0) << "t=" << t;
    EXPECT_LE(std::fabs(pos.lat_deg), 53.0 + 0.5) << "t=" << t;
  }
}

TEST(Sgp4ConstellationTest, BestVisibleMatchesBruteForceArgmax) {
  const Constellation c({starlink_shell1()}, OrbitModel::sgp4);
  const geo::GeoPoint user{47.6, -122.3, 0.0};
  for (const double t : {0.0, 3600.0}) {
    std::optional<VisibleSat> naive;
    for (std::size_t p = 0; p < c.shells()[0].planes; ++p) {
      for (std::size_t i = 0; i < c.shells()[0].sats_per_plane; ++i) {
        const SatId id{0, p, i};
        const geo::GeoPoint pos = c.position(id, t);
        const double elev = geo::elevation_deg(user, pos);
        if (elev >= 25.0 && (!naive || elev > naive->elevation_deg)) {
          naive = VisibleSat{id, pos, elev, 0.0};
        }
      }
    }
    const auto fast = c.best_visible(user, t, 25.0);
    ASSERT_EQ(fast.has_value(), naive.has_value()) << "t=" << t;
    if (fast) {
      EXPECT_EQ(fast->id, naive->id) << "t=" << t;
      EXPECT_EQ(dbits(fast->elevation_deg), dbits(naive->elevation_deg));
    }
  }
}

TEST(Sgp4ConstellationTest, TleCatalogConstellationPropagates) {
  std::string err;
  auto cat = parse_tle_catalog(kStr3NearL1 + "\n" + kStr3NearL2 + "\n", &err);
  ASSERT_TRUE(cat.has_value()) << err;
  const Constellation c = Constellation::from_tles(std::move(*cat));
  EXPECT_EQ(c.total_sats(), 1u);
  EXPECT_EQ(c.model(), OrbitModel::sgp4);
  EXPECT_NE(c.ephemeris_hash(), 0u);
  const geo::GeoPoint pos = c.position(SatId{0, 0, 0}, 0.0);
  EXPECT_GE(pos.lat_deg, -90.0);
  EXPECT_LE(pos.lat_deg, 90.0);
  // STR#3 case: ~160-240 km perigee band at epoch.
  EXPECT_GT(pos.alt_km, 100.0);
  EXPECT_LT(pos.alt_km, 500.0);
}

TEST(Sgp4ConstellationTest, IdentityHashDistinguishesOrbitModels) {
  AccessConfig cfg;
  cfg.name = "hash-probe";
  cfg.orbit = OrbitClass::leo;
  const Constellation walker({starlink_shell1()});
  const Constellation sgp4({starlink_shell1()}, OrbitModel::sgp4);
  EXPECT_EQ(walker.ephemeris_hash(), 0u);
  EXPECT_NE(access_identity_hash(cfg, &walker), access_identity_hash(cfg, &sgp4));
}

// --------------------------------------------------- bugfix regressions

TEST(VisibleRegressionTest, ConePrefilterIsBitIdenticalToNaiveSweep) {
  // The historical visible() ran position() + elevation_deg for every
  // satellite. The cone-prefiltered version must reproduce that scan's
  // output exactly: same satellites, same order, same doubles.
  const Constellation c(starlink_shells());
  for (const double lat : {-55.0, 0.1, 47.6, 69.5}) {
    for (const double t : {0.0, 911.0, 5432.1}) {
      const geo::GeoPoint ground{lat, -122.3, 0.0};
      std::vector<VisibleSat> naive;
      for (std::size_t s = 0; s < c.shells().size(); ++s) {
        const Shell& shell = c.shells()[s];
        for (std::size_t p = 0; p < shell.planes; ++p) {
          for (std::size_t i = 0; i < shell.sats_per_plane; ++i) {
            const SatId id{s, p, i};
            const geo::GeoPoint pos = c.position(id, t);
            const double elev = geo::elevation_deg(ground, pos);
            if (elev >= 25.0) {
              naive.push_back({id, pos, elev,
                               geo::slant_range_km({ground.lat_deg, ground.lon_deg, 0.0},
                                                   pos)});
            }
          }
        }
      }
      const auto fast = c.visible(ground, t, 25.0);
      ASSERT_EQ(fast.size(), naive.size()) << "lat=" << lat << " t=" << t;
      for (std::size_t k = 0; k < fast.size(); ++k) {
        EXPECT_EQ(fast[k].id, naive[k].id) << "k=" << k;
        EXPECT_EQ(dbits(fast[k].elevation_deg), dbits(naive[k].elevation_deg));
        EXPECT_EQ(dbits(fast[k].slant_km), dbits(naive[k].slant_km));
        EXPECT_EQ(dbits(fast[k].position.lat_deg), dbits(naive[k].position.lat_deg));
        EXPECT_EQ(dbits(fast[k].position.lon_deg), dbits(naive[k].position.lon_deg));
      }
    }
  }
}

// ------------------------------------------------------- window gates

/// Shells covering the window's corner cases: near-equatorial (0.1 deg),
/// mid (53 deg) and retrograde polar (97.6 deg) inclinations, a single
/// plane with two slots, single-slot planes, and a lone satellite.
std::vector<Shell> window_shells() {
  return {
      Shell{"equatorial", 550.0, 0.1, 8, 10, 3},
      Shell{"mid", 550.0, 53.0, 24, 12, 5},
      Shell{"polar", 560.0, 97.6, 6, 30, 1},
      Shell{"one-plane", 1200.0, 53.0, 1, 2, 0},
      Shell{"single-slots", 700.0, 97.6, 3, 1, 1},
      Shell{"lone", 1100.0, 0.1, 1, 1, 0},
  };
}

/// The same corner cases for the SGP4 secular gate, at 500 and 1200 km,
/// plus a nearly equatorial retrograde shell (179.9 deg), where SGP4's
/// long-period xlcof term peaks.
std::vector<Shell> sgp4_window_shells() {
  return {
      Shell{"equatorial", 500.0, 0.1, 6, 8, 3},
      Shell{"mid", 500.0, 53.0, 12, 10, 5},
      Shell{"polar", 1200.0, 97.6, 6, 12, 1},
      Shell{"retrograde", 1200.0, 179.9, 4, 6, 1},
      Shell{"one-plane", 1200.0, 53.0, 1, 2, 0},
      Shell{"single-slots", 500.0, 97.6, 3, 1, 1},
      Shell{"lone", 500.0, 179.9, 1, 1, 0},
  };
}

/// The satellite's exact ephemeris: walker_position for Walker shells,
/// SGP4 through position() otherwise.
geo::GeoPoint exact_position(const Constellation& c, const SatId& id, double t) {
  if (c.model() == OrbitModel::walker) {
    return walker_position(c.shells()[id.shell], id.plane, id.index, t);
  }
  return c.position(id, t);
}

/// Every satellite of the constellation in canonical order (a TLE
/// catalog is one shell {0, 0, i}).
std::vector<SatId> all_sats(const Constellation& c) {
  std::vector<SatId> ids;
  if (c.shells().empty()) {
    for (std::size_t i = 0; i < c.total_sats(); ++i) ids.push_back(SatId{0, 0, i});
  }
  for (std::size_t s = 0; s < c.shells().size(); ++s) {
    const Shell& shell = c.shells()[s];
    for (std::size_t p = 0; p < shell.planes; ++p) {
      for (std::size_t i = 0; i < shell.sats_per_plane; ++i) ids.push_back(SatId{s, p, i});
    }
  }
  return ids;
}

/// The definition every prefilter must reproduce: every satellite
/// through its exact ephemeris + elevation_deg, in canonical order.
std::vector<VisibleSat> exact_scan(const Constellation& c, const geo::GeoPoint& ground,
                                   double t, double mask) {
  std::vector<VisibleSat> out;
  for (const SatId& id : all_sats(c)) {
    const geo::GeoPoint pos = exact_position(c, id, t);
    const double elev = geo::elevation_deg(ground, pos);
    if (elev >= mask) {
      out.push_back({id, pos, elev,
                     geo::slant_range_km({ground.lat_deg, ground.lon_deg, 0.0}, pos)});
    }
  }
  return out;
}

bool same_visible(const VisibleSat& a, const VisibleSat& b) {
  return a.id == b.id && dbits(a.elevation_deg) == dbits(b.elevation_deg) &&
         dbits(a.slant_km) == dbits(b.slant_km) &&
         dbits(a.position.lat_deg) == dbits(b.position.lat_deg) &&
         dbits(a.position.lon_deg) == dbits(b.position.lon_deg) &&
         dbits(a.position.alt_km) == dbits(b.position.alt_km);
}

/// Compares visible() and best_visible() with the exact scan, bit for
/// bit; returns false (after one gtest failure) on the first mismatch.
bool matches_exact_scan(const Constellation& c, const geo::GeoPoint& ground, double t,
                        double mask) {
  const auto want = exact_scan(c, ground, t, mask);
  const auto got = c.visible(ground, t, mask);
  const auto where = [&] {
    return "lat=" + std::to_string(ground.lat_deg) + " lon=" +
           std::to_string(ground.lon_deg) + " t=" + std::to_string(t) +
           " mask=" + std::to_string(mask);
  };
  bool same = got.size() == want.size();
  for (std::size_t k = 0; same && k < got.size(); ++k) same = same_visible(got[k], want[k]);
  if (!same) {
    ADD_FAILURE() << "visible() differs from the exact scan at " << where() << " ("
                  << got.size() << " vs " << want.size() << " satellites)";
    return false;
  }
  std::optional<VisibleSat> best;
  for (const auto& v : want) {
    if (!best || v.elevation_deg > best->elevation_deg) best = v;
  }
  const auto fast = c.best_visible(ground, t, mask);
  if (fast.has_value() != best.has_value() || (fast && !same_visible(*fast, *best))) {
    ADD_FAILURE() << "best_visible() differs from the exact scan at " << where();
    return false;
  }
  return true;
}

/// Poles, the antimeridian, the equator and the inclination edges, from
/// t = 0 to about a year, at masks 0 and 25 deg.
void expect_special_points_match(const Constellation& c) {
  const double lats[] = {90.0, -90.0, 89.999, 0.0, -0.0, 1e-9, 53.0, -53.0, 82.4};
  const double lons[] = {180.0, -180.0, 179.9999, -179.9999, 0.0, 90.0, -45.5};
  const double times[] = {0.0, 7.5, 5400.0, 86400.0, 1e6, 3.2e7 - 15.0, 3.2e7};
  for (const double mask : {0.0, 25.0}) {
    for (const double lat : lats) {
      for (const double lon : lons) {
        for (const double t : times) {
          ASSERT_TRUE(matches_exact_scan(c, {lat, lon, 0.0}, t, mask));
        }
      }
    }
  }
}

/// `n` seeded points uniform on the sphere and in time up to t_max
/// (default ~1 year).
void expect_random_points_match(const Constellation& c, std::uint64_t seed, int n,
                                double t_max = 3.2e7) {
  stats::Rng rng(seed);
  for (int k = 0; k < n; ++k) {
    const double lat = geo::rad_to_deg(std::asin(rng.uniform(-1.0, 1.0)));
    const double lon = rng.uniform(-180.0, 180.0);
    const double t = rng.uniform(0.0, t_max);
    const double mask = (k % 2 == 0) ? 0.0 : 25.0;
    ASSERT_TRUE(matches_exact_scan(c, {lat, lon, 0.0}, t, mask)) << "k=" << k;
  }
}

/// Ground points placed on the edge of a satellite's visibility cone,
/// bisected to the last representable step on the visible side: the
/// exact test accepts that satellite at elevation == mask to within
/// rounding, so a window that drops its margin misses some of them.
void expect_cone_boundary_points_match(const Constellation& c, std::uint64_t seed, int n,
                                       double t_max = 3.2e7) {
  stats::Rng rng(seed);
  const auto pick = [&rng](std::size_t count) {
    return static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(count) - 1));
  };
  for (int k = 0; k < n; ++k) {
    // Shell, plane and slot drawn in turn, so small shells get as many
    // points as large ones.
    SatId id{0, 0, 0};
    if (c.shells().empty()) {
      id.index = pick(c.total_sats());
    } else {
      id.shell = pick(c.shells().size());
      id.plane = pick(c.shells()[id.shell].planes);
      id.index = pick(c.shells()[id.shell].sats_per_plane);
    }
    const double t = rng.uniform(0.0, t_max);
    const double mask = (k % 2 == 0) ? 0.0 : 25.0;
    const double bearing = rng.uniform(0.0, 2.0 * 3.14159265358979323846);
    const geo::GeoPoint sat = exact_position(c, id, t);
    if (sat.alt_km < 0.0) continue;  // decayed: parked below ground, no cone
    const double lat1 = geo::deg_to_rad(sat.lat_deg);
    const double lon1 = geo::deg_to_rad(sat.lon_deg);
    const auto ground_at = [&](double delta) {
      const double lat2 = std::asin(std::sin(lat1) * std::cos(delta) +
                                    std::cos(lat1) * std::sin(delta) * std::cos(bearing));
      double lon2 = geo::rad_to_deg(
          lon1 + std::atan2(std::sin(bearing) * std::sin(delta) * std::cos(lat1),
                            std::cos(delta) - std::sin(lat1) * std::sin(lat2)));
      if (lon2 > 180.0) lon2 -= 360.0;
      if (lon2 < -180.0) lon2 += 360.0;
      return geo::GeoPoint{geo::rad_to_deg(lat2), lon2, 0.0};
    };
    double lo = 0.0, hi = 1.5;  // central angles: visible at lo, not at hi
    for (;;) {
      const double mid = lo + (hi - lo) / 2.0;
      if (mid <= lo || mid >= hi) break;
      (geo::elevation_deg(ground_at(mid), sat) >= mask ? lo : hi) = mid;
    }
    const geo::GeoPoint ground = ground_at(lo);
    ASSERT_GE(geo::elevation_deg(ground, sat), mask);
    ASSERT_TRUE(matches_exact_scan(c, ground, t, mask)) << "k=" << k;
  }
}

const auto& sgp4_of(const Constellation& c) {
  return static_cast<const Sgp4Propagator&>(c.propagator());
}

/// best_visible's sats_swept per query over `n` seeded Starlink-band
/// points, each also checked against the exact scan.
double swept_per_query(const Constellation& c, std::uint64_t seed, int n) {
  auto& reg = obs::MetricsRegistry::global();
  stats::Rng rng(seed);
  const std::uint64_t queries0 = reg.counter("orbit.best_visible.queries").value();
  const std::uint64_t swept0 = reg.counter("orbit.best_visible.sats_swept").value();
  for (int k = 0; k < n; ++k) {
    const double lat = rng.uniform(-60.0, 60.0);
    const double lon = rng.uniform(-180.0, 180.0);
    EXPECT_TRUE(matches_exact_scan(c, {lat, lon, 0.0}, rng.uniform(0.0, 3.2e7), 25.0));
  }
  const std::uint64_t queries = reg.counter("orbit.best_visible.queries").value() - queries0;
  const std::uint64_t swept = reg.counter("orbit.best_visible.sats_swept").value() - swept0;
  EXPECT_EQ(queries, static_cast<std::uint64_t>(n));
  return static_cast<double>(swept) / static_cast<double>(queries);
}

TEST(WalkerWindowTest, SpecialPointsMatchExactScan) {
  expect_special_points_match(Constellation(window_shells()));
}

TEST(WalkerWindowTest, RandomPointsMatchExactScan) {
  expect_random_points_match(Constellation(window_shells()), 0x77696e646f77ull, 10000);
}

TEST(WalkerWindowTest, ConeBoundaryPointsMatchExactScan) {
  expect_cone_boundary_points_match(Constellation(window_shells()), 0x65646765ull, 1500);
}

TEST(WalkerWindowTest, StarlinkMatchesExactScanAndSweepsOnlyTheWindow) {
  // best_visible counts the slots the windows emitted, not the fleet.
  const Constellation c(starlink_shells());
  const double swept = swept_per_query(c, 0x73746172ull, 300);
  EXPECT_GT(swept, 0.0);
  EXPECT_LT(swept, static_cast<double>(c.total_sats()) / 20.0);
}

TEST(Sgp4WindowTest, SecularBoundCoversThePropagatedOrbit) {
  // The gate's premise, checked directly: SGP4's direction stays within
  // secular_bound().angle_rad of the secular circle, and its radius
  // within radius_er, for synthetic elements at any t.
  stats::Rng rng(0x626f756eull);
  for (const double alt : {500.0, 1200.0, 2000.0}) {
    for (const double inc_deg : {0.1, 53.0, 97.6, 179.9}) {
      const Shell shell{"probe", alt, inc_deg, 1, 1, 0};
      const double inclo = geo::deg_to_rad(inc_deg);
      const double nodeo = rng.uniform(0.0, 6.28);
      const double mo = rng.uniform(0.0, 6.28);
      const Sgp4 sat(2451545.0, shell.mean_motion_rad_per_sec() * 60.0, 1.0e-4, inclo, nodeo,
                     0.0, mo, 0.0);
      const auto bound = sat.secular_bound();
      ASSERT_TRUE(bound.has_value());
      EXPECT_LE(bound->angle_rad, kSecularGateCapRad);
      double worst = 0.0;
      for (int k = 0; k < 2000; ++k) {
        const double t_min = rng.uniform(0.0, 3.2e7) / 60.0;
        const auto state = sat.propagate(t_min);
        ASSERT_TRUE(state.has_value());
        const double u = mo + (sat.mdot() + sat.argpdot()) * t_min;
        const double node = nodeo + sat.nodedot() * t_min;
        const double sec[3] = {
            std::cos(u) * std::cos(node) - std::sin(u) * std::cos(inclo) * std::sin(node),
            std::cos(u) * std::sin(node) + std::sin(u) * std::cos(inclo) * std::cos(node),
            std::sin(u) * std::sin(inclo)};
        const auto& r = state->r;
        const double rn = std::sqrt(r[0] * r[0] + r[1] * r[1] + r[2] * r[2]);
        const double cx = r[1] * sec[2] - r[2] * sec[1];
        const double cy = r[2] * sec[0] - r[0] * sec[2];
        const double cz = r[0] * sec[1] - r[1] * sec[0];
        const double angle = std::atan2(std::sqrt(cx * cx + cy * cy + cz * cz),
                                        r[0] * sec[0] + r[1] * sec[1] + r[2] * sec[2]);
        worst = std::max(worst, angle);
        EXPECT_LE(rn, bound->radius_er * Sgp4Constants::radiusearthkm);
      }
      EXPECT_LE(worst, bound->angle_rad) << "alt=" << alt << " inc=" << inc_deg;
      // The bound is not vacuous: the periodic terms reach 0.68-0.91 of it
      // at 53 and 97.6 deg. Near the equator the short-period along-track
      // and node terms largely cancel, which the bound (a sum of
      // magnitudes) does not credit, so there they reach 0.13-0.24.
      EXPECT_GT(worst, 0.1 * bound->angle_rad) << "alt=" << alt << " inc=" << inc_deg;
    }
  }
}

TEST(Sgp4WindowTest, SyntheticShellsAreGatedAndOthersAreNot) {
  EXPECT_EQ(sgp4_of(Constellation(sgp4_window_shells(), OrbitModel::sgp4))
                .secular_gate()
                .size(),
            sgp4_window_shells().size());
  // Deep space (period >= 225 min) keeps the full frame, for the whole
  // constellation.
  const Shell meo{"meo", 8000.0, 5.0, 1, 12, 0};
  EXPECT_TRUE(
      sgp4_of(Constellation({starlink_shell1(), meo}, OrbitModel::sgp4)).secular_gate().empty());
  std::string err;
  auto cat = parse_tle_catalog(kStr3NearL1 + "\n" + kStr3NearL2 + "\n", &err);
  ASSERT_TRUE(cat.has_value()) << err;
  EXPECT_TRUE(sgp4_of(Constellation::from_tles(std::move(*cat))).secular_gate().empty());
}

TEST(Sgp4WindowTest, SpecialPointsMatchExactScan) {
  expect_special_points_match(Constellation(sgp4_window_shells(), OrbitModel::sgp4));
}

TEST(Sgp4WindowTest, RandomPointsMatchExactScan) {
  expect_random_points_match(Constellation(sgp4_window_shells(), OrbitModel::sgp4),
                             0x73677034ull, 10000);
}

TEST(Sgp4WindowTest, ConeBoundaryPointsMatchExactScan) {
  expect_cone_boundary_points_match(Constellation(sgp4_window_shells(), OrbitModel::sgp4),
                                    0x63676534ull, 1500);
}

TEST(Sgp4WindowTest, FullFrameFallbacksMatchExactScan) {
  const Constellation meo({Shell{"meo", 8000.0, 5.0, 2, 10, 1}}, OrbitModel::sgp4);
  ASSERT_TRUE(sgp4_of(meo).secular_gate().empty());
  expect_random_points_match(meo, 0x6d656f34ull, 300);
  std::string err;
  auto cat = parse_tle_catalog(
      kStr3NearL1 + "\n" + kStr3NearL2 + "\n" + kStr3DeepL1 + "\n" + kStr3DeepL2 + "\n",
      &err);
  ASSERT_TRUE(cat.has_value()) << err;
  // Within a day of the catalog epoch: the drag-heavy STR#3 near-Earth
  // case decays (and parks below ground) long before a year is out.
  const Constellation tle = Constellation::from_tles(std::move(*cat));
  expect_random_points_match(tle, 0x746c6534ull, 300, 86400.0);
  expect_cone_boundary_points_match(tle, 0x746c6535ull, 100, 86400.0);
}

TEST(Sgp4WindowTest, StarlinkSweepsAboutAsFewSlotsAsWalker) {
  // The SGP4 cone is wider only by the secular bound, so a query emits
  // about as many slots as the Walker window.
  const double walker = swept_per_query(Constellation(starlink_shells()), 0x73746172ull, 300);
  const double sgp4 = swept_per_query(Constellation(starlink_shells(), OrbitModel::sgp4),
                                      0x73746172ull, 300);
  EXPECT_GT(walker, 0.0);
  EXPECT_LE(sgp4, 1.5 * walker) << "sgp4 " << sgp4 << " vs walker " << walker;
}

TEST(ShellValidationTest, ZeroPlanesThrowsDiagnostic) {
  Shell bad = starlink_shell1();
  bad.name = "degenerate";
  bad.planes = 0;
  try {
    const Constellation c({bad});
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("degenerate"), std::string::npos) << e.what();
    EXPECT_NE(std::string(e.what()).find("planes"), std::string::npos) << e.what();
  }
}

TEST(ShellValidationTest, ZeroSatsPerPlaneThrows) {
  Shell bad = oneweb_shell();
  bad.sats_per_plane = 0;
  EXPECT_THROW(Constellation({bad}), std::invalid_argument);
  EXPECT_THROW(Constellation({bad}, OrbitModel::sgp4), std::invalid_argument);
}

TEST(GeoSentinelTest, GeoIdsNeverCollideWithWalkerShellZero) {
  GeoFleet fleet;
  fleet.add_slot("GEO-1", -100.0);
  fleet.add_slot("GEO-2", -30.0);
  const auto best = fleet.best_visible({40.0, -95.0, 0.0}, 10.0);
  ASSERT_TRUE(best.has_value());
  EXPECT_TRUE(best->id.is_geo());
  EXPECT_EQ(best->id.shell, kGeoShellIndex);
  EXPECT_EQ(best->id.index, 0u);  // nearest slot
  EXPECT_FALSE((best->id == SatId{0, 0, 0}));
  EXPECT_FALSE(SatId{}.is_geo());
}

// -------------------------------------------------- model enum plumbing

TEST(OrbitModelTest, ToStringParseRoundTrip) {
  EXPECT_EQ(to_string(OrbitModel::walker), "walker");
  EXPECT_EQ(to_string(OrbitModel::sgp4), "sgp4");
  EXPECT_EQ(parse_orbit_model("walker"), OrbitModel::walker);
  EXPECT_EQ(parse_orbit_model("sgp4"), OrbitModel::sgp4);
  EXPECT_FALSE(parse_orbit_model("kepler").has_value());
}

}  // namespace
}  // namespace satnet::orbit
