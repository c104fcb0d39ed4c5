// Shared state and helpers for the figure/table benches.
//
// Every bench binary regenerates one table or figure of the paper: it
// prints the reproduced rows (with the paper's reported values alongside
// where the paper gives numbers) and then times its computational kernels
// with google-benchmark. Heavy inputs (world, campaigns, pipeline) are
// built once per binary and shared.
//
// Every bench accepts the shared run flags of io/session.hpp
// (--threads, --metrics-out, --trace-out, --fault-plan, ...) next to
// google-benchmark's own; any other argument exits 2 with one
// diagnostic.
#pragma once

#include <benchmark/benchmark.h>

#include <cstdio>

#include "io/session.hpp"
#include "mlab/campaign.hpp"
#include "ripe/atlas.hpp"
#include "runtime/sharded.hpp"
#include "snoid/pipeline.hpp"
#include "synth/world.hpp"

namespace satnet::bench {

/// Worker threads for campaign construction (--threads N; 0 = one per
/// hardware thread). Output is identical for every value — the knob only
/// moves wall-clock.
inline unsigned& threads() {
  static unsigned t = 0;
  return t;
}

/// The world every bench shares.
inline const synth::World& world() {
  static const synth::World w;
  return w;
}

/// M-Lab campaign at the benches' standard scale (0.2% of the paper's
/// 11.9M tests; the long tail keeps its absolute volumes).
inline const mlab::NdtDataset& mlab_dataset() {
  static const mlab::NdtDataset ds = [] {
    mlab::CampaignConfig cfg;
    cfg.volume_scale = 0.002;
    cfg.min_tests_per_sno = 30;
    cfg.threads = threads();
    cfg.retry = runtime::degrade_under_faults();
    return mlab::run_campaign(world(), cfg);
  }();
  return ds;
}

/// Pipeline result over the standard dataset.
inline const snoid::PipelineResult& pipeline() {
  static const snoid::PipelineResult r = [] {
    snoid::PipelineConfig cfg;
    cfg.threads = threads();
    cfg.retry = runtime::degrade_under_faults();
    return snoid::run_pipeline(mlab_dataset(), cfg);
  }();
  return r;
}

/// Full-year RIPE Atlas campaign (8-hour built-in cadence).
inline const ripe::AtlasDataset& atlas_dataset() {
  static const ripe::AtlasDataset ds = [] {
    ripe::AtlasConfig cfg;
    cfg.duration_days = 366.0;
    cfg.round_interval_hours = 8.0;
    cfg.threads = threads();
    cfg.retry = runtime::degrade_under_faults();
    return ripe::run_atlas_campaign(cfg);
  }();
  return ds;
}

inline void header(const char* figure, const char* caption) {
  std::printf("\n================================================================\n");
  std::printf("%s — %s\n", figure, caption);
  std::printf("================================================================\n");
}

inline void note(const char* text) { std::printf("  %s\n", text); }

}  // namespace satnet::bench

/// Parses the shared run flags left after google-benchmark strips its
/// own, prints the figure, runs the registered kernels, then writes the
/// requested exports.
#define SATNET_BENCH_MAIN(print_fn)                               \
  int main(int argc, char** argv) {                               \
    ::satnet::io::RunSession session(argc, argv);                 \
    ::benchmark::Initialize(&argc, argv);                         \
    session.start(argc, argv, 1);                                 \
    ::satnet::bench::threads() = session.threads();               \
    print_fn();                                                   \
    ::benchmark::RunSpecifiedBenchmarks();                        \
    ::benchmark::Shutdown();                                      \
    return session.finish(0);                                     \
  }
