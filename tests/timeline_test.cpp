// Epoch-timeline unit tests: replay equivalence against the on-demand
// oracle, handoff prev-epoch coverage, era-keyed invalidation under a
// fault plan, sat-id packing, and thread-count identity of a build. The
// golden and determinism suites pin the campaign-level byte-identity
// contract; these tests pin the mechanism.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <tuple>
#include <vector>

#include "fault/hook.hpp"
#include "fault/plan.hpp"
#include "obs/metrics.hpp"
#include "orbit/access.hpp"
#include "orbit/shell.hpp"
#include "orbit/timeline.hpp"

namespace satnet {
namespace {

std::shared_ptr<const orbit::Constellation> starlink() {
  static const auto constellation =
      std::make_shared<const orbit::Constellation>(orbit::starlink_shells());
  return constellation;
}

orbit::AccessNetwork make_net() { return orbit::make_starlink_access(starlink()); }

const geo::GeoPoint kUsers[] = {
    {47.61, -122.33, 0}, {40.71, -74.01, 0}, {-33.87, 151.21, 0}, {61.22, -149.90, 0}};

std::vector<orbit::TimelineQuery> grid_queries(int epochs) {
  std::vector<orbit::TimelineQuery> queries;
  for (const auto& u : kUsers) {
    for (int e = 1; e <= epochs; ++e) queries.push_back({u, 15.0 * e});
  }
  return queries;
}

std::uint64_t counter(const char* name) {
  return obs::MetricsRegistry::global().counter(name).value();
}

bool sample_equal(const orbit::AccessSample& a, const orbit::AccessSample& b) {
  return a.reachable == b.reachable &&
         std::bit_cast<std::uint64_t>(a.one_way_ms) ==
             std::bit_cast<std::uint64_t>(b.one_way_ms) &&
         std::bit_cast<std::uint64_t>(a.up_ms) == std::bit_cast<std::uint64_t>(b.up_ms) &&
         std::bit_cast<std::uint64_t>(a.down_ms) ==
             std::bit_cast<std::uint64_t>(b.down_ms) &&
         std::bit_cast<std::uint64_t>(a.backhaul_ms) ==
             std::bit_cast<std::uint64_t>(b.backhaul_ms) &&
         std::bit_cast<std::uint64_t>(a.scheduling_ms) ==
             std::bit_cast<std::uint64_t>(b.scheduling_ms) &&
         a.serving_sat == b.serving_sat && a.pop_index == b.pop_index &&
         a.gateway_index == b.gateway_index && a.handoff == b.handoff;
}

class TimelineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    orbit::EpochTimeline::clear_installed();
    orbit::set_timeline_enabled(true);
  }
  void TearDown() override {
    orbit::EpochTimeline::clear_installed();
    orbit::set_timeline_enabled(true);
    fault::Hook::clear();
  }
};

TEST_F(TimelineTest, PackUnpackRoundTrip) {
  for (const orbit::SatId id : {orbit::SatId{0, 0, 0}, orbit::SatId{3, 71, 21},
                                orbit::SatId{1023, 1023, 1023}}) {
    const std::uint32_t packed = orbit::EpochTimeline::pack_sat(id);
    const orbit::SatId back = orbit::EpochTimeline::unpack_sat(packed);
    EXPECT_EQ(id.shell, back.shell);
    EXPECT_EQ(id.plane, back.plane);
    EXPECT_EQ(id.index, back.index);
  }
  EXPECT_NE(orbit::EpochTimeline::pack_sat({1023, 1023, 1023}),
            orbit::EpochTimeline::kNoSat);
}

TEST_F(TimelineTest, ReplayMatchesOnDemandOracle) {
  const orbit::AccessNetwork net = make_net();
  orbit::set_timeline_enabled(false);
  std::vector<orbit::AccessSample> oracle;
  for (const auto& q : grid_queries(60)) {
    oracle.push_back(net.sample(q.terminal, q.t_sec));
  }

  orbit::set_timeline_enabled(true);
  orbit::EpochTimeline::ensure(net, grid_queries(60), 2);
  ASSERT_NE(orbit::EpochTimeline::find(net.identity_hash()), nullptr);
  const std::uint64_t hits0 = counter("timeline.replay.hit");
  std::size_t i = 0;
  for (const auto& q : grid_queries(60)) {
    const orbit::AccessSample replayed = net.sample(q.terminal, q.t_sec);
    EXPECT_TRUE(sample_equal(oracle[i], replayed)) << "query " << i;
    ++i;
  }
  EXPECT_GT(counter("timeline.replay.hit"), hits0);
}

TEST_F(TimelineTest, HandoffPrevEpochCovered) {
  // sample_with_handoff needs the previous epoch's serving satellite;
  // ensure() must precompute it so the handoff path replays without a
  // single fallback.
  const orbit::AccessNetwork net = make_net();
  orbit::set_timeline_enabled(false);
  std::vector<orbit::AccessSample> oracle;
  for (const auto& q : grid_queries(40)) {
    oracle.push_back(net.sample_with_handoff(q.terminal, q.t_sec));
  }

  orbit::set_timeline_enabled(true);
  orbit::EpochTimeline::ensure(net, grid_queries(40), 1);
  const std::uint64_t fallback0 = counter("timeline.replay.fallback");
  std::size_t i = 0;
  for (const auto& q : grid_queries(40)) {
    const orbit::AccessSample replayed = net.sample_with_handoff(q.terminal, q.t_sec);
    EXPECT_TRUE(sample_equal(oracle[i], replayed)) << "query " << i;
    ++i;
  }
  EXPECT_EQ(counter("timeline.replay.fallback"), fallback0);
}

TEST_F(TimelineTest, ColdBuildChoosesEachServingKeyOnce) {
  // A cold ensure() runs one best_visible per distinct serving key; the
  // sample layer rebuilds its serving satellites from the serving layer
  // instead of choosing them again. Mid-epoch queries give sample keys
  // whose epochs other queries share.
  const orbit::AccessNetwork net = make_net();
  std::vector<orbit::TimelineQuery> queries = grid_queries(40);
  for (const auto& u : kUsers) {
    for (int e = 1; e <= 40; ++e) queries.push_back({u, 15.0 * e + 7.5});
  }
  const std::uint64_t best0 = counter("orbit.best_visible.queries");
  orbit::EpochTimeline::ensure(net, queries, 2);
  const orbit::EpochTimeline* tl = orbit::EpochTimeline::find(net.identity_hash());
  ASSERT_NE(tl, nullptr);
  EXPECT_EQ(counter("orbit.best_visible.queries") - best0, tl->serving_size());
  ASSERT_GT(tl->sample_size(), 0u);

  // Every entry of both layers equals the on-demand value.
  orbit::set_timeline_enabled(false);
  const auto from_bits = [](std::uint64_t b) { return std::bit_cast<double>(b); };
  const orbit::EpochTimeline::Arrays& v = tl->arrays();
  const double mask = net.config().min_elevation_deg;
  for (std::size_t i = 0; i < tl->serving_size(); ++i) {
    const geo::GeoPoint user{from_bits(v.s_lat[i]), from_bits(v.s_lon[i]), 0.0};
    const auto sat = starlink()->best_visible(user, from_bits(v.s_epoch[i]), mask);
    EXPECT_EQ(v.s_sat[i], sat ? orbit::EpochTimeline::pack_sat(sat->id)
                              : orbit::EpochTimeline::kNoSat)
        << "serving entry " << i;
  }
  std::map<std::tuple<std::uint64_t, std::uint64_t, std::uint64_t, std::uint32_t>,
           orbit::TimelineQuery>
      by_key;
  const auto& b = v.boundaries;
  for (const auto& q : queries) {
    const double epoch = std::floor(q.t_sec / 15.0) * 15.0;
    const auto era = static_cast<std::uint32_t>(
        std::upper_bound(b.begin(), b.end(), q.t_sec) - b.begin());
    by_key.emplace(std::make_tuple(std::bit_cast<std::uint64_t>(q.terminal.lat_deg),
                                   std::bit_cast<std::uint64_t>(q.terminal.lon_deg),
                                   std::bit_cast<std::uint64_t>(epoch), era),
                   q);
  }
  ASSERT_EQ(by_key.size(), tl->sample_size());
  for (std::size_t i = 0; i < tl->sample_size(); ++i) {
    const auto it = by_key.find({v.m_lat[i], v.m_lon[i], v.m_epoch[i], v.m_era[i]});
    ASSERT_NE(it, by_key.end()) << "sample entry " << i;
    const orbit::TimelineQuery& q = it->second;
    const orbit::AccessSample on_demand = net.sample(q.terminal, q.t_sec);
    orbit::AccessSample stored;
    ASSERT_TRUE(tl->replay_sample(q.terminal, q.t_sec, from_bits(v.m_epoch[i]), &stored));
    EXPECT_TRUE(sample_equal(on_demand, stored)) << "sample entry " << i;
  }
}

TEST_F(TimelineTest, ThreadCountDoesNotChangeSnapshot) {
  const orbit::AccessNetwork net = make_net();
  orbit::EpochTimeline::ensure(net, grid_queries(50), 1);
  const orbit::EpochTimeline* serial = orbit::EpochTimeline::find(net.identity_hash());
  ASSERT_NE(serial, nullptr);
  ASSERT_GT(serial->sample_size(), 0u);

  orbit::EpochTimeline::clear_installed();
  orbit::EpochTimeline::ensure(net, grid_queries(50), 8);
  const orbit::EpochTimeline* parallel = orbit::EpochTimeline::find(net.identity_hash());
  ASSERT_NE(parallel, nullptr);
  ASSERT_NE(parallel, serial);
  EXPECT_TRUE(serial->arrays() == parallel->arrays());
}

TEST_F(TimelineTest, FaultPlanInvalidatesStaleEras) {
  // A snapshot built without a plan must fall back (not replay stale
  // values) inside windows a later-installed plan affects — and the
  // values the campaign sees must equal the on-demand oracle's.
  const orbit::AccessNetwork net = make_net();
  orbit::EpochTimeline::ensure(net, grid_queries(60), 1);

  fault::FaultEvent outage;
  outage.kind = fault::EventKind::gateway_outage;
  outage.target = "*";
  outage.t_start_sec = 300.0;
  outage.t_end_sec = 450.0;
  fault::Hook::install(fault::FaultPlan({outage}));

  orbit::set_timeline_enabled(false);
  std::vector<orbit::AccessSample> oracle;
  for (const auto& q : grid_queries(60)) {
    oracle.push_back(net.sample(q.terminal, q.t_sec));
  }

  orbit::set_timeline_enabled(true);
  const std::uint64_t fallback0 = counter("timeline.replay.fallback");
  std::size_t i = 0;
  for (const auto& q : grid_queries(60)) {
    const orbit::AccessSample replayed = net.sample(q.terminal, q.t_sec);
    EXPECT_TRUE(sample_equal(oracle[i], replayed)) << "query " << i;
    ++i;
  }
  // Queries inside the outage window hit stale eras and fell back.
  EXPECT_GT(counter("timeline.replay.fallback"), fallback0);

  // Rebuilding under the active plan restores full replay coverage.
  orbit::EpochTimeline::ensure(net, grid_queries(60), 1);
  const std::uint64_t fallback1 = counter("timeline.replay.fallback");
  i = 0;
  for (const auto& q : grid_queries(60)) {
    const orbit::AccessSample replayed = net.sample(q.terminal, q.t_sec);
    EXPECT_TRUE(sample_equal(oracle[i], replayed)) << "query " << i;
    ++i;
  }
  EXPECT_EQ(counter("timeline.replay.fallback"), fallback1);
}

TEST_F(TimelineTest, GeneratedPlanEraKeysPartitionTheTimeline) {
  // An auto-generated plan spanning the query horizon: every outage and
  // storm edge must become an era boundary, the key list must cover
  // exactly boundaries+1 disjoint intervals, and keys must change across
  // each fault edge (the active set differs by that event).
  const orbit::AccessNetwork net = make_net();
  fault::GenerateConfig cfg;
  cfg.horizon_sec = 900;  // grid_queries(60) spans [15, 900]
  cfg.gateway_outages = 3;
  cfg.gateway_names = {"seattle", "newyork"};
  cfg.handoff_storms = 2;
  cfg.storm_network = "starlink";
  const fault::FaultPlan plan = fault::FaultPlan::generate(cfg, 2026);
  fault::Hook::install(plan);
  orbit::EpochTimeline::ensure(net, grid_queries(60), 1);
  const orbit::EpochTimeline* tl = orbit::EpochTimeline::find(net.identity_hash());
  ASSERT_NE(tl, nullptr);

  const std::vector<double>& b = tl->arrays().boundaries;
  for (std::size_t i = 1; i < b.size(); ++i) {
    EXPECT_LT(b[i - 1], b[i]) << "boundaries must strictly increase";
  }
  const std::vector<std::uint64_t>& keys = tl->arrays().era_keys;
  ASSERT_EQ(keys.size(), b.size() + 1)
      << "one key per era: the keys partition the whole time axis";

  for (const fault::FaultEvent& ev : plan.events()) {
    if (ev.kind != fault::EventKind::gateway_outage &&
        ev.kind != fault::EventKind::handoff_storm) {
      continue;
    }
    for (const double edge : {ev.t_start_sec, ev.t_end_sec}) {
      const auto it = std::find(b.begin(), b.end(), edge);
      ASSERT_NE(it, b.end()) << fault::to_string(ev.kind) << " edge " << edge
                             << " missing from era boundaries";
      // Boundary b[k] separates era k from era k+1; the event toggles
      // exactly there, so the fault keys on both sides must differ.
      const std::size_t k = static_cast<std::size_t>(it - b.begin());
      EXPECT_NE(keys[k], keys[k + 1])
          << "era key unchanged across fault edge " << edge;
    }
  }

  // Extending the plan invalidates exactly the eras intersecting the new
  // window: those fall back, every other era keeps replaying. The added
  // target matches no real gateway, so only era bookkeeping changes.
  std::vector<fault::FaultEvent> extended = plan.events();
  fault::FaultEvent extra;
  extra.kind = fault::EventKind::gateway_outage;
  extra.target = "no-such-gateway";
  extra.t_start_sec = 333.25;
  extra.t_end_sec = 444.75;
  extended.push_back(extra);
  fault::Hook::install(fault::FaultPlan(std::move(extended)));

  for (const auto& q : grid_queries(60)) {
    const std::uint64_t hit0 = counter("timeline.replay.hit");
    const std::uint64_t fallback0 = counter("timeline.replay.fallback");
    net.sample(q.terminal, q.t_sec);
    const std::size_t era = static_cast<std::size_t>(
        std::upper_bound(b.begin(), b.end(), q.t_sec) - b.begin());
    const double lo = era == 0 ? -1e18 : b[era - 1];
    const double hi = era == b.size() ? 1e18 : b[era];
    const bool invalidated = lo < extra.t_end_sec && extra.t_start_sec < hi;
    if (invalidated) {
      EXPECT_GT(counter("timeline.replay.fallback"), fallback0)
          << "t=" << q.t_sec << " sits in an invalidated era and must fall back";
    } else {
      EXPECT_EQ(counter("timeline.replay.fallback"), fallback0)
          << "t=" << q.t_sec << " is outside the new window and must replay";
      EXPECT_GT(counter("timeline.replay.hit"), hit0);
    }
  }
}

TEST_F(TimelineTest, DisabledTimelineIsNeverConsulted) {
  const orbit::AccessNetwork net = make_net();
  orbit::EpochTimeline::ensure(net, grid_queries(10), 1);
  orbit::set_timeline_enabled(false);
  const std::uint64_t hits0 = counter("timeline.replay.hit");
  for (const auto& q : grid_queries(10)) net.sample(q.terminal, q.t_sec);
  EXPECT_EQ(counter("timeline.replay.hit"), hits0);
}

}  // namespace
}  // namespace satnet
