// Shard-merge determinism: a seeded campaign is a pure function of
// (seed, config), never of thread count or scheduling order. These tests
// run the same campaigns at 1, 2, and 8 threads and require byte-equal
// outputs. They are also the workload for the ThreadSanitizer preset
// (scripts/verify.sh builds with -DSATNET_TSAN=ON and runs this binary).
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "mlab/campaign.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"
#include "orbit/timeline.hpp"
#include "ripe/atlas.hpp"
#include "snoid/pipeline.hpp"
#include "synth/world.hpp"

namespace satnet {
namespace {

const synth::World& world() {
  static const synth::World w;
  return w;
}

mlab::CampaignConfig campaign_config(unsigned threads) {
  mlab::CampaignConfig cfg;
  cfg.volume_scale = 0.0005;
  cfg.min_tests_per_sno = 25;
  cfg.threads = threads;
  return cfg;
}

void fnv_mix(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 0x100000001b3ull;
  }
}

std::uint64_t atlas_hash(const ripe::AtlasDataset& ds) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  fnv_mix(h, ds.traceroutes.size());
  for (const auto& t : ds.traceroutes) {
    fnv_mix(h, static_cast<std::uint64_t>(t.probe_id));
    fnv_mix(h, std::bit_cast<std::uint64_t>(t.t_sec));
    fnv_mix(h, static_cast<std::uint64_t>(t.root));
    fnv_mix(h, static_cast<std::uint64_t>(t.via_cgnat));
    fnv_mix(h, stats::Rng::hash_name(t.pop_name));
    fnv_mix(h, std::bit_cast<std::uint64_t>(t.cgnat_rtt_ms));
    fnv_mix(h, std::bit_cast<std::uint64_t>(t.dest_rtt_ms));
    fnv_mix(h, static_cast<std::uint64_t>(t.hop_count));
    fnv_mix(h, stats::Rng::hash_name(t.instance_city));
  }
  fnv_mix(h, ds.sslcerts.size());
  for (const auto& s : ds.sslcerts) {
    fnv_mix(h, static_cast<std::uint64_t>(s.probe_id));
    fnv_mix(h, std::bit_cast<std::uint64_t>(s.t_sec));
    fnv_mix(h, static_cast<std::uint64_t>(s.src_addr.value()));
  }
  return h;
}

TEST(DeterminismTest, NdtDatasetHashIdenticalAcrossThreadCounts) {
  const auto one = mlab::run_campaign(world(), campaign_config(1));
  const auto two = mlab::run_campaign(world(), campaign_config(2));
  const auto eight = mlab::run_campaign(world(), campaign_config(8));
  ASSERT_GT(one.size(), 0u);
  EXPECT_EQ(one.hash(), two.hash());
  EXPECT_EQ(one.hash(), eight.hash());
}

TEST(DeterminismTest, NdtRecordsByteIdenticalAcrossThreadCounts) {
  const auto one = mlab::run_campaign(world(), campaign_config(1));
  const auto eight = mlab::run_campaign(world(), campaign_config(8));
  ASSERT_EQ(one.size(), eight.size());
  for (std::size_t i = 0; i < one.size(); ++i) {
    const auto& a = one.records()[i];
    const auto& b = eight.records()[i];
    ASSERT_EQ(std::bit_cast<std::uint64_t>(a.t_sec),
              std::bit_cast<std::uint64_t>(b.t_sec)) << "record " << i;
    ASSERT_EQ(a.asn, b.asn) << "record " << i;
    ASSERT_EQ(a.client_ip, b.client_ip) << "record " << i;
    ASSERT_EQ(std::bit_cast<std::uint64_t>(a.latency_p5_ms),
              std::bit_cast<std::uint64_t>(b.latency_p5_ms)) << "record " << i;
    ASSERT_EQ(std::bit_cast<std::uint64_t>(a.download_mbps),
              std::bit_cast<std::uint64_t>(b.download_mbps)) << "record " << i;
    ASSERT_EQ(a.truth_operator, b.truth_operator) << "record " << i;
    ASSERT_EQ(a.truth_satellite, b.truth_satellite) << "record " << i;
  }
}

TEST(DeterminismTest, PipelineResultsIdenticalAcrossThreadCounts) {
  const auto dataset = mlab::run_campaign(world(), campaign_config(1));
  snoid::PipelineConfig serial;
  serial.threads = 1;
  snoid::PipelineConfig sharded;
  sharded.threads = 8;
  const auto a = snoid::run_pipeline(dataset, serial);
  const auto b = snoid::run_pipeline(dataset, sharded);
  ASSERT_EQ(a.operators.size(), b.operators.size());
  EXPECT_EQ(a.identified_operators, b.identified_operators);
  EXPECT_DOUBLE_EQ(a.fallback_threshold_ms, b.fallback_threshold_ms);
  for (std::size_t i = 0; i < a.operators.size(); ++i) {
    const auto& x = a.operators[i];
    const auto& y = b.operators[i];
    EXPECT_EQ(x.name, y.name);
    EXPECT_EQ(x.retained, y.retained) << x.name;
    EXPECT_DOUBLE_EQ(x.relax_threshold_ms, y.relax_threshold_ms) << x.name;
    EXPECT_DOUBLE_EQ(x.precision(), y.precision()) << x.name;
    EXPECT_DOUBLE_EQ(x.recall(), y.recall()) << x.name;
  }
}

TEST(DeterminismTest, AtlasDatasetIdenticalAcrossThreadCounts) {
  ripe::AtlasConfig cfg;
  cfg.duration_days = 60.0;
  cfg.round_interval_hours = 24.0;
  std::uint64_t hashes[3] = {};
  int i = 0;
  for (const unsigned threads : {1u, 2u, 8u}) {
    cfg.threads = threads;
    const auto ds = ripe::run_atlas_campaign(cfg);
    ASSERT_GT(ds.traceroutes.size(), 0u);
    hashes[i++] = atlas_hash(ds);
  }
  EXPECT_EQ(hashes[0], hashes[1]);
  EXPECT_EQ(hashes[0], hashes[2]);
}

TEST(DeterminismTest, ObservabilityNeverPerturbsResults) {
  // The obs contract: metrics and flight-recorder events are wall-clock
  // telemetry that never feeds back into simulation state. Campaign,
  // pipeline and atlas output must be byte-identical with observability
  // fully off and fully on (recorder at a tight ring, to exercise
  // overflow), at every thread count.
  obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
  obs::FlightRecorder& rec = obs::FlightRecorder::global();

  reg.set_enabled(false);
  rec.set_enabled(false);
  const auto baseline = mlab::run_campaign(world(), campaign_config(1));
  snoid::PipelineConfig pcfg;
  pcfg.threads = 1;
  const auto baseline_pipeline = snoid::run_pipeline(baseline, pcfg);
  ripe::AtlasConfig acfg;
  acfg.duration_days = 30.0;
  acfg.round_interval_hours = 24.0;
  acfg.threads = 1;
  const std::uint64_t atlas_baseline = atlas_hash(ripe::run_atlas_campaign(acfg));
  ASSERT_GT(baseline.size(), 0u);

  const std::size_t old_capacity = rec.ring_capacity();
  reg.set_enabled(true);
  rec.set_enabled(true);
  rec.set_ring_capacity(8);  // force drop-oldest on busy shards
  for (const unsigned threads : {1u, 2u, 8u}) {
    const auto ds = mlab::run_campaign(world(), campaign_config(threads));
    EXPECT_EQ(baseline.hash(), ds.hash()) << threads << " threads";
    snoid::PipelineConfig cfg;
    cfg.threads = threads;
    const auto pipe = snoid::run_pipeline(ds, cfg);
    ASSERT_EQ(baseline_pipeline.operators.size(), pipe.operators.size());
    EXPECT_EQ(baseline_pipeline.identified_operators, pipe.identified_operators);
    for (std::size_t i = 0; i < pipe.operators.size(); ++i) {
      const auto& a = baseline_pipeline.operators[i];
      const auto& b = pipe.operators[i];
      EXPECT_DOUBLE_EQ(a.precision(), b.precision()) << b.name;
      EXPECT_DOUBLE_EQ(a.recall(), b.recall()) << b.name;
    }
    acfg.threads = threads;
    EXPECT_EQ(atlas_baseline, atlas_hash(ripe::run_atlas_campaign(acfg)))
        << threads << " threads";
  }
  // Instrumentation did observe the runs (sanity: events were recorded).
  EXPECT_FALSE(rec.drain().empty());
  rec.set_ring_capacity(old_capacity);
  rec.set_enabled(false);  // restore defaults for other tests
}

TEST(TraceViewTest, OnePhasePairPerShardAttemptAtRingTwo) {
  // --trace-out is a view over the recorder stream: a shard's duration
  // is its phase_exit wall_us minus its phase_enter wall_us. That only
  // works if every attempt keeps both records, so the smallest ring
  // must still hold exactly one enter/exit pair per attempt — the ring
  // pins phase_enter and pushes phase_exit last.
  obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
  obs::FlightRecorder& rec = obs::FlightRecorder::global();
  const auto tasks = [&reg](const char* phase) {
    return reg.counter(std::string("profile.") + phase + ".tasks").value();
  };
  const std::uint64_t mlab_before = tasks("mlab.campaign");
  const std::uint64_t validation_before = tasks("snoid.validation");

  rec.drain();  // isolate from events earlier tests left behind
  const std::size_t old_capacity = rec.ring_capacity();
  rec.set_enabled(true);
  rec.set_ring_capacity(2);
  const auto ds = mlab::run_campaign(world(), campaign_config(2));
  snoid::PipelineConfig cfg;
  cfg.threads = 2;
  const auto pipe = snoid::run_pipeline(ds, cfg);
  const std::vector<obs::ResolvedEvent> events = rec.drain();
  rec.set_ring_capacity(old_capacity);
  rec.set_enabled(false);

  // No retries here, so one attempt per shard: the profile counters
  // count the shards each phase ran.
  const std::map<std::string, std::uint64_t> expected = {
      {"mlab.campaign", tasks("mlab.campaign") - mlab_before},
      {"snoid.validation", tasks("snoid.validation") - validation_before},
      {"snoid.pipeline", 3},  // curate, index, relaxation
  };
  EXPECT_EQ(expected.at("snoid.validation"), pipe.operators.size());
  for (const auto& [phase, shards] : expected) {
    ASSERT_GT(shards, 0u) << phase;
    struct Pair {
      std::uint64_t enter_us = 0, exit_us = 0;
      int enters = 0, exits = 0;
    };
    std::map<std::uint32_t, Pair> pairs;  // by shard
    for (const obs::ResolvedEvent& ev : events) {
      if (ev.phase != phase) continue;
      EXPECT_EQ(ev.rec.attempt, 0u) << phase;
      Pair& p = pairs[ev.rec.shard];
      if (ev.rec.kind == static_cast<std::uint16_t>(obs::EventKind::phase_enter)) {
        p.enter_us = ev.rec.wall_us;
        ++p.enters;
      } else if (ev.rec.kind == static_cast<std::uint16_t>(obs::EventKind::phase_exit)) {
        p.exit_us = ev.rec.wall_us;
        ++p.exits;
      }
    }
    ASSERT_EQ(pairs.size(), shards) << phase;
    std::uint32_t next_shard = 0;
    for (const auto& [shard, p] : pairs) {
      EXPECT_EQ(shard, next_shard++) << phase;
      EXPECT_EQ(p.enters, 1) << phase << " shard " << shard;
      EXPECT_EQ(p.exits, 1) << phase << " shard " << shard;
      EXPECT_GE(p.exit_us, p.enter_us) << phase << " shard " << shard;
    }
  }
}

TEST(DeterminismTest, TimelineNeverPerturbsResults) {
  // The epoch-timeline contract mirrors the obs one: every
  // replayed serving decision and sample equals what the on-demand
  // computation would produce, so campaign output must be byte-identical
  // with the timeline on and off, at every thread count — including the
  // atlas campaign, whose pre-pass peeks round streams on copies.
  orbit::EpochTimeline::clear_installed();
  orbit::set_timeline_enabled(false);
  const auto baseline = mlab::run_campaign(world(), campaign_config(1));
  ripe::AtlasConfig acfg;
  acfg.duration_days = 30.0;
  acfg.round_interval_hours = 24.0;
  acfg.threads = 1;
  const std::uint64_t atlas_baseline = atlas_hash(ripe::run_atlas_campaign(acfg));
  ASSERT_GT(baseline.size(), 0u);

  orbit::set_timeline_enabled(true);
  for (const unsigned threads : {1u, 2u, 8u}) {
    const auto ds = mlab::run_campaign(world(), campaign_config(threads));
    EXPECT_EQ(baseline.hash(), ds.hash()) << threads << " threads (timeline on)";
    acfg.threads = threads;
    EXPECT_EQ(atlas_baseline, atlas_hash(ripe::run_atlas_campaign(acfg)))
        << threads << " threads (timeline on)";
  }
  // The runs above actually replayed (sanity: the snapshot was consulted).
  const std::uint64_t hits =
      obs::MetricsRegistry::global().counter("timeline.replay.hit").value();
  EXPECT_GT(hits, 0u);
  // A freshly built world has the same network identity, so it replays
  // the snapshot the runs above installed instead of building its own.
  const synth::World fresh;
  EXPECT_EQ(baseline.hash(), mlab::run_campaign(fresh, campaign_config(4)).hash())
      << "fresh world (warm replay)";
  EXPECT_GT(obs::MetricsRegistry::global().counter("timeline.replay.hit").value(), hits);
}

TEST(DeterminismTest, RepeatedRunsIdentical) {
  // Same thread count twice: guards against any residual global state.
  const auto a = mlab::run_campaign(world(), campaign_config(4));
  const auto b = mlab::run_campaign(world(), campaign_config(4));
  EXPECT_EQ(a.hash(), b.hash());
}

}  // namespace
}  // namespace satnet
