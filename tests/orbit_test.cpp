#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>

#include "geo/geodesy.hpp"
#include "orbit/access.hpp"
#include "orbit/constellation.hpp"
#include "orbit/shell.hpp"

namespace satnet::orbit {
namespace {

std::shared_ptr<const Constellation> starlink() {
  static const auto c =
      std::make_shared<const Constellation>(starlink_shells());
  return c;
}

// ---------------------------------------------------------------- shell

TEST(ShellTest, StarlinkPeriodRoughly95Minutes) {
  EXPECT_NEAR(starlink_shell1().period_sec() / 60.0, 95.6, 1.0);
}

TEST(ShellTest, HigherAltitudeLongerPeriod) {
  EXPECT_GT(oneweb_shell().period_sec(), starlink_shell1().period_sec());
  EXPECT_GT(o3b_shell().period_sec(), oneweb_shell().period_sec());
}

TEST(ShellTest, TotalSatsMultiplies) {
  EXPECT_EQ(starlink_shell1().total_sats(), 72u * 22u);
  EXPECT_EQ(oneweb_shell().total_sats(), 18u * 36u);
}

// -------------------------------------------------------- constellation

TEST(ConstellationTest, PositionAltitudeConstant) {
  const auto c = starlink();
  for (double t : {0.0, 1000.0, 50000.0}) {
    const auto p = c->position({0, 10, 5}, t);
    EXPECT_NEAR(p.alt_km, 550.0, 1e-6);
  }
}

TEST(ConstellationTest, LatitudeBoundedByInclination) {
  const auto c = starlink();
  for (std::size_t plane = 0; plane < 72; plane += 7) {
    for (double t = 0; t < 6000; t += 313) {
      const auto p = c->position({0, plane, 3}, t);
      EXPECT_LE(std::abs(p.lat_deg), 53.5);
    }
  }
}

TEST(ConstellationTest, PolarShellReachesHighLatitudes) {
  const Constellation c(std::vector{oneweb_shell()});
  double max_lat = 0;
  for (double t = 0; t < oneweb_shell().period_sec(); t += 30) {
    max_lat = std::max(max_lat, std::abs(c.position({0, 0, 0}, t).lat_deg));
  }
  EXPECT_GT(max_lat, 80.0);
}

TEST(ConstellationTest, SatelliteMovesBetweenEpochs) {
  const auto c = starlink();
  const auto p0 = c->position({0, 0, 0}, 0.0);
  const auto p1 = c->position({0, 0, 0}, 60.0);
  // ~7.6 km/s ground track: a minute moves the satellite far.
  EXPECT_GT(geo::surface_distance_km({p0.lat_deg, p0.lon_deg, 0},
                                     {p1.lat_deg, p1.lon_deg, 0}),
            100.0);
}

TEST(ConstellationTest, PositionIsPeriodic) {
  const auto c = starlink();
  const double period = starlink_shell1().period_sec();
  const auto p0 = c->position({0, 5, 5}, 0.0);
  const auto p1 = c->position({0, 5, 5}, period);
  // After one period the satellite returns in the inertial frame; Earth
  // has rotated, so only latitude must match.
  EXPECT_NEAR(p0.lat_deg, p1.lat_deg, 0.2);
}

TEST(ConstellationTest, MidLatitudeUserSeesSatellites) {
  const auto c = starlink();
  const geo::GeoPoint seattle{47.61, -122.33, 0};
  for (double t = 0; t < 3600; t += 360) {
    EXPECT_TRUE(c->best_visible(seattle, t, 25.0).has_value()) << "t=" << t;
  }
}

TEST(ConstellationTest, VisibilityRespectsMinElevation) {
  const auto c = starlink();
  const geo::GeoPoint user{40.0, -100.0, 0};
  for (const auto& v : c->visible(user, 1234.0, 40.0)) {
    EXPECT_GE(v.elevation_deg, 40.0);
  }
}

TEST(ConstellationTest, BestVisibleIsMaxElevation) {
  const auto c = starlink();
  const geo::GeoPoint user{40.0, -100.0, 0};
  const auto all = c->visible(user, 777.0, 25.0);
  const auto best = c->best_visible(user, 777.0, 25.0);
  ASSERT_TRUE(best.has_value());
  for (const auto& v : all) EXPECT_LE(v.elevation_deg, best->elevation_deg + 1e-9);
}

TEST(ConstellationTest, EquatorialMeoInvisibleFromHighLatitude) {
  const Constellation c(std::vector{o3b_shell()});
  // O3b's equatorial orbit cannot serve 70N at a sane elevation.
  EXPECT_FALSE(c.best_visible({70.0, 10.0, 0}, 0.0, 15.0).has_value());
}

TEST(ConstellationTest, SlantRangeAtLeastAltitude) {
  const auto c = starlink();
  for (const auto& v : c->visible({47.0, -120.0, 0}, 99.0, 25.0)) {
    EXPECT_GE(v.slant_km, 549.0);
    EXPECT_LT(v.slant_km, 2600.0);  // bounded by geometry at 25 deg
  }
}

// ------------------------------------------------------------- GeoFleet

TEST(GeoFleetTest, SlotPositionIsEquatorial) {
  GeoFleet fleet;
  fleet.add_slot("test", -101.0);
  const auto p = fleet.position(0);
  EXPECT_DOUBLE_EQ(p.lat_deg, 0.0);
  EXPECT_DOUBLE_EQ(p.lon_deg, -101.0);
  EXPECT_DOUBLE_EQ(p.alt_km, geo::kGeoAltitudeKm);
}

TEST(GeoFleetTest, BestVisiblePicksNearestSlot) {
  GeoFleet fleet;
  fleet.add_slot("west", -130.0);
  fleet.add_slot("east", -60.0);
  const auto best = fleet.best_visible({40.0, -125.0, 0}, 10.0);
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(best->id.index, 0u);
}

TEST(GeoFleetTest, InvisibleFromOppositeHemisphere) {
  GeoFleet fleet;
  fleet.add_slot("americas", -100.0);
  EXPECT_FALSE(fleet.best_visible({35.0, 139.0, 0}, 10.0).has_value());
}

// ------------------------------------------------------- access network

TEST(AccessTest, StarlinkSampleReachableAndFast) {
  const auto net = make_starlink_access(starlink());
  const geo::GeoPoint seattle{47.61, -122.33, 0};
  const auto s = net.sample(seattle, 1000.0);
  ASSERT_TRUE(s.reachable);
  // One-way: a few ms of radio + 12 ms scheduling + tiny backhaul.
  EXPECT_GT(s.one_way_ms, 12.0);
  EXPECT_LT(s.one_way_ms, 30.0);
  EXPECT_EQ(net.config().pops[s.pop_index].city, "seattle");
}

TEST(AccessTest, ManilaServedFromTokyo) {
  const auto net = make_starlink_access(starlink());
  const geo::GeoPoint manila{14.60, 120.98, 0};
  const auto s = net.sample(manila, 5000.0);
  ASSERT_TRUE(s.reachable);
  EXPECT_EQ(net.config().pops[s.pop_index].city, "tokyo");
  // The backhaul detour makes Manila roughly 2x a well-served user.
  EXPECT_GT(s.one_way_ms, 30.0);
}

TEST(AccessTest, AlaskaServedFromSeattle) {
  const auto net = make_starlink_access(starlink());
  const auto s = net.sample({61.22, -149.90, 0}, 300.0);
  ASSERT_TRUE(s.reachable);
  EXPECT_EQ(net.config().pops[s.pop_index].city, "seattle");
  EXPECT_GT(s.backhaul_ms, 10.0);  // ~2,300 km of fiber
}

TEST(AccessTest, NewZealandPopMigratesFromSydneyToAuckland) {
  const auto net = make_starlink_access(starlink());
  const geo::GeoPoint auckland{-36.85, 174.76, 0};
  constexpr double kDay = 86400.0;
  EXPECT_EQ(net.config().pops[net.assigned_pop(auckland, 30 * kDay)].city, "sydney");
  EXPECT_EQ(net.config().pops[net.assigned_pop(auckland, 100 * kDay)].city, "auckland");
}

TEST(AccessTest, NewZealandLatencyDropsAfterMigration) {
  const auto net = make_starlink_access(starlink());
  const geo::GeoPoint auckland{-36.85, 174.76, 0};
  constexpr double kDay = 86400.0;
  double before = 0, after = 0;
  int n = 0;
  for (int k = 0; k < 50; ++k) {
    const auto b = net.sample(auckland, 30 * kDay + k * 977.0);
    const auto a = net.sample(auckland, 100 * kDay + k * 977.0);
    if (!b.reachable || !a.reachable) continue;
    before += b.one_way_ms;
    after += a.one_way_ms;
    ++n;
  }
  ASSERT_GT(n, 30);
  // Paper: ~20 ms RTT reduction, i.e. ~10 ms one-way.
  EXPECT_GT(before / n - after / n, 5.0);
}

TEST(AccessTest, NetherlandsMigratesFrankfurtToLondon) {
  const auto net = make_starlink_access(starlink());
  const geo::GeoPoint ams{52.37, 4.90, 0};
  constexpr double kDay = 86400.0;
  EXPECT_EQ(net.config().pops[net.assigned_pop(ams, 100 * kDay)].city, "frankfurt");
  EXPECT_EQ(net.config().pops[net.assigned_pop(ams, 200 * kDay)].city, "london");
}

TEST(AccessTest, RenoFlipsToDenverAndBack) {
  const auto net = make_starlink_access(starlink());
  const geo::GeoPoint reno{39.53, -119.81, 0};
  constexpr double kDay = 86400.0;
  EXPECT_EQ(net.config().pops[net.assigned_pop(reno, 100 * kDay)].city, "los angeles");
  EXPECT_EQ(net.config().pops[net.assigned_pop(reno, 145 * kDay)].city, "denver");
  EXPECT_EQ(net.config().pops[net.assigned_pop(reno, 200 * kDay)].city, "los angeles");
}

TEST(AccessTest, LasVegasUnaffectedByRenoOverride) {
  const auto net = make_starlink_access(starlink());
  const geo::GeoPoint vegas{36.17, -115.14, 0};
  constexpr double kDay = 86400.0;
  EXPECT_EQ(net.config().pops[net.assigned_pop(vegas, 145 * kDay)].city, "los angeles");
}

TEST(AccessTest, GeoAccessLatencyNearTheoreticalFloor) {
  const auto net = make_geo_access("denver", -101.0, 45.0);
  const auto s = net.sample({39.0, -98.0, 0}, 0.0);
  ASSERT_TRUE(s.reachable);
  // One-way: ~125 ms up + ~120 ms down + 45 ms scheduling.
  EXPECT_GT(s.one_way_ms, 250.0);
  EXPECT_LT(s.one_way_ms, 350.0);
}

TEST(AccessTest, GeoHasNoHandoffs) {
  const auto net = make_geo_access("denver", -101.0, 45.0);
  for (double t = 0; t < 900; t += 90) {
    EXPECT_FALSE(net.sample_with_handoff({39.0, -98.0, 0}, t).handoff);
  }
}

TEST(AccessTest, LeoHandoffsOccurOverTime) {
  const auto net = make_starlink_access(starlink());
  const geo::GeoPoint user{47.0, -122.0, 0};
  int handoffs = 0, samples = 0;
  for (double t = 15; t < 3600 * 3; t += 15) {
    const auto s = net.sample_with_handoff(user, t);
    if (!s.reachable) continue;
    ++samples;
    if (s.handoff) ++handoffs;
  }
  ASSERT_GT(samples, 500);
  EXPECT_GT(handoffs, 10);              // the constellation does move
  EXPECT_LT(handoffs, samples * 0.75);  // but most epochs keep the satellite
}

TEST(AccessTest, ServingSatelliteStableWithinEpoch) {
  const auto net = make_starlink_access(starlink());
  const geo::GeoPoint user{47.0, -122.0, 0};
  const auto a = net.sample(user, 30.0);
  const auto b = net.sample(user, 44.9);  // same 15 s epoch
  ASSERT_TRUE(a.reachable);
  ASSERT_TRUE(b.reachable);
  EXPECT_TRUE(*a.serving_sat == *b.serving_sat);
}

TEST(AccessTest, FloorExcludesScheduling) {
  const auto net = make_starlink_access(starlink());
  const geo::GeoPoint user{47.0, -122.0, 0};
  const auto s = net.sample(user, 60.0);
  ASSERT_TRUE(s.reachable);
  EXPECT_NEAR(net.floor_one_way_ms(user, 60.0), s.one_way_ms - s.scheduling_ms, 1e-9);
}

TEST(AccessTest, OneWebEuropeanUserBackhaulsToUs) {
  const auto ow = std::make_shared<const Constellation>(std::vector{oneweb_shell()});
  const auto net = make_oneweb_access(ow);
  const auto s = net.sample({51.5, -0.1, 0}, 120.0);
  ASSERT_TRUE(s.reachable);
  EXPECT_EQ(net.config().pops[s.pop_index].country, "US");
  EXPECT_GT(s.backhaul_ms, 20.0);  // transatlantic fiber
}

TEST(AccessTest, ConstructionValidation) {
  EXPECT_THROW(AccessNetwork(AccessConfig{}, nullptr), std::invalid_argument);
  AccessConfig geo_cfg;
  geo_cfg.orbit = OrbitClass::geo;
  EXPECT_THROW(AccessNetwork(geo_cfg, GeoFleet{}), std::invalid_argument);
}

TEST(HandoffStatsTest, StarlinkDwellTimesAreShortMinutes) {
  const auto net = make_starlink_access(starlink());
  const auto stats = measure_handoffs(net, {47.0, -122.0, 0}, 0.0, 3 * 3600.0);
  EXPECT_GT(stats.handoffs, 10u);
  // Serving satellites persist for tens of seconds to a few minutes.
  EXPECT_GT(stats.mean_dwell_sec, 15.0);
  EXPECT_LT(stats.mean_dwell_sec, 600.0);
  EXPECT_LT(stats.outage_fraction, 0.05);
}

TEST(HandoffStatsTest, MeoDwellsLongerThanLeo) {
  const auto leo = make_starlink_access(starlink());
  const auto meo = make_o3b_access(
      std::make_shared<const Constellation>(std::vector{o3b_shell()}));
  // LEO terminal in Kansas (dense gateway coverage); MEO terminal near
  // Lima, inside O3b's equatorial footprint and gateway range.
  const auto l = measure_handoffs(leo, {39.0, -98.0, 0}, 0.0, 4 * 3600.0);
  const auto m = measure_handoffs(meo, {-12.0, -77.0, 0}, 0.0, 4 * 3600.0);
  ASSERT_GT(l.handoffs, 0u);
  ASSERT_GT(m.epochs, 0u);
  EXPECT_GT(m.mean_dwell_sec, l.mean_dwell_sec);
}

TEST(HandoffStatsTest, GeoNeverHandsOff) {
  const auto net = make_geo_access("denver", -101.0, 45.0);
  const auto stats = measure_handoffs(net, {39.0, -98.0, 0}, 0.0, 3600.0);
  EXPECT_EQ(stats.epochs, 0u);  // no reconfiguration epochs at all
  EXPECT_EQ(stats.handoffs, 0u);
}

// The loop measure_handoffs used before PR 5: `t += interval`
// accumulates one rounding error per epoch, so the epoch count depends
// on the magnitude of t_start_sec. Reproduced here as plain arithmetic
// to document the failure the integer-stepping fix removes.
std::size_t old_accumulation_loop_epochs(double t_start, double duration,
                                         double interval) {
  std::size_t n = 0;
  for (double t = t_start; t < t_start + duration; t += interval) ++n;
  return n;
}

/// Minimal 0.1 s-interval MEO network over the 20-satellite O3b shell —
/// cheap enough to sample a thousand epochs per measure_handoffs call.
AccessNetwork make_fast_epoch_net() {
  AccessConfig cfg;
  cfg.name = "fast-epoch";
  cfg.orbit = OrbitClass::meo;
  cfg.min_elevation_deg = 15.0;
  cfg.reconfig_interval_sec = 0.1;  // deliberately not representable in binary
  const geo::GeoPoint lima{-12.05, -77.05, 0};
  cfg.pops = {Pop{"p0", "lima", "PE", lima}};
  cfg.gateways = {Gateway{"lima", lima, 0}};
  return AccessNetwork(std::move(cfg),
                       std::make_shared<const Constellation>(std::vector{o3b_shell()}));
}

TEST(HandoffStatsTest, OldAccumulationLoopDriftedWithStartOffset) {
  // With a non-representable 0.1 s interval the old loop gains an epoch
  // at t_start = 0 and sheds it again by t_start = 1e9 — the count was a
  // function of where the window started, not how long it was.
  EXPECT_EQ(old_accumulation_loop_epochs(0.0, 100.0, 0.1), 1001u);
  EXPECT_EQ(old_accumulation_loop_epochs(1e9, 100.0, 0.1), 1000u);
  // Even the stock 15 s Starlink interval loses epochs once t_start is
  // large enough that t + 15 rounds: 225 instead of 240.
  EXPECT_EQ(old_accumulation_loop_epochs(0.0, 3600.0, 15.0), 240u);
  EXPECT_EQ(old_accumulation_loop_epochs(1e16, 3600.0, 15.0), 225u);
}

TEST(HandoffStatsTest, EpochCountInvariantToStartOffset) {
  // Post-fix contract: exactly floor(duration / interval) epochs at any
  // start offset, including ones where the old loop drifted.
  const auto net = make_fast_epoch_net();
  for (const double t_start : {0.0, 1e7, 1e9}) {
    const auto stats = measure_handoffs(net, {-12.0, -77.0, 0}, t_start, 100.0);
    EXPECT_EQ(stats.epochs, 1000u) << "t_start=" << t_start;
  }
  const auto leo = make_starlink_access(starlink());
  for (const double t_start : {0.0, 1e7}) {
    const auto stats = measure_handoffs(leo, {47.0, -122.0, 0}, t_start, 3600.0);
    EXPECT_EQ(stats.epochs, 240u) << "t_start=" << t_start;
  }
}

TEST(HandoffStatsTest, FinalDwellIsCensoredNotCompleted) {
  // A window shorter than one natural dwell observes no handoff at all:
  // the only dwell is cut off by the window edge. It must be reported as
  // censored, not averaged in as if a handoff had ended it (that is what
  // biased mean_dwell_sec low for short windows).
  const auto net = make_starlink_access(starlink());
  const geo::GeoPoint user{47.0, -122.0, 0};
  const auto stats = measure_handoffs(net, user, 45.0, 30.0);
  ASSERT_EQ(stats.epochs, 2u);
  ASSERT_EQ(stats.handoffs, 0u);  // 30 s < one Starlink dwell
  EXPECT_EQ(stats.censored, 1u);
  EXPECT_DOUBLE_EQ(stats.censored_dwell_sec, 30.0);
  EXPECT_DOUBLE_EQ(stats.mean_dwell_sec, 0.0);  // no *completed* dwells
  EXPECT_DOUBLE_EQ(stats.max_dwell_sec, 0.0);
}

// ------------------------------------------------- parameterized sweeps

class VisibilityProperty : public ::testing::TestWithParam<int> {};

TEST_P(VisibilityProperty, StarlinkServiceAreaAlwaysCovered) {
  // Any mid-latitude point on Earth sees a Starlink satellite at any time.
  const auto c = starlink();
  const double lat = -50.0 + GetParam() * 10.0;
  for (double lon = -180; lon < 180; lon += 60) {
    const auto v = c->best_visible({lat, lon, 0}, GetParam() * 733.0, 25.0);
    EXPECT_TRUE(v.has_value()) << "lat=" << lat << " lon=" << lon;
  }
}

INSTANTIATE_TEST_SUITE_P(Latitudes, VisibilityProperty, ::testing::Range(0, 11));

class GeoElevationProperty : public ::testing::TestWithParam<int> {};

TEST_P(GeoElevationProperty, DelayGrowsWithUserLatitude) {
  const auto net = make_geo_access("denver", -101.0, 45.0);
  const double lat_low = 5.0 * GetParam();
  const double lat_high = lat_low + 5.0;
  const auto a = net.sample({lat_low, -101.0, 0}, 0.0);
  const auto b = net.sample({lat_high, -101.0, 0}, 0.0);
  if (a.reachable && b.reachable) {
    EXPECT_LE(a.up_ms, b.up_ms + 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Latitudes, GeoElevationProperty, ::testing::Range(0, 12));

}  // namespace
}  // namespace satnet::orbit
