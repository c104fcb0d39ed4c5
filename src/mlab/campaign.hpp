// M-Lab measurement campaign: schedules NDT tests across the subscriber
// population over the study window and accumulates the dataset.
//
// Test volumes per operator follow the paper's Table 1 counts, scaled by
// `volume_scale` with a floor so the long tail of small operators stays
// represented (Kacific contributed only 34 tests in 26 months).
#pragma once

#include <utility>
#include <vector>

#include "mlab/dataset.hpp"
#include "orbit/timeline.hpp"
#include "runtime/sharded.hpp"
#include "sim/event_queue.hpp"
#include "synth/world.hpp"

namespace satnet::mlab {

struct CampaignConfig {
  double duration_days = 730.0;  ///< Jan 2021 - Mar 2023 window, scaled
  double volume_scale = 0.002;   ///< fraction of the paper's test volume
  std::size_t min_tests_per_sno = 30;
  std::uint64_t seed = 7;
  /// Worker threads for the sharded runtime; 0 = hardware_concurrency.
  /// The dataset is bit-identical for every value (see src/runtime).
  unsigned threads = 0;
  /// Max tests per shard; big operators (Starlink is ~98% of the paper's
  /// volume) split into several shards so the pool stays balanced.
  std::size_t shard_chunk = 1024;
  /// Failure policy for the sharded runtime (retry/degrade; see
  /// runtime::RetryPolicy). Defaults to abort-on-error, no retries.
  runtime::RetryPolicy retry;
  NdtOptions ndt;
};

/// Number of tests the campaign schedules for one operator.
std::size_t scheduled_tests(const synth::SnoSpec& spec, const CampaignConfig& config);

/// The satellite access queries the campaign will make, grouped per
/// access network in deterministic (network identity, schedule) order.
/// Replays the same fork_stable draw streams the shards use, so the
/// enumeration is exact without perturbing a single campaign draw. This
/// is what run_campaign hands to EpochTimeline::ensure before sharding;
/// exposed so perfbench and timeline-serving tools can enumerate (and
/// precompute) a campaign's access workload without running it.
std::vector<std::pair<const orbit::AccessNetwork*, std::vector<orbit::TimelineQuery>>>
planned_access_queries(const synth::World& world, const CampaignConfig& config);

/// Runs the whole campaign sharded across the runtime thread pool and
/// returns the accumulated dataset. Each shard (one chunk of one
/// operator's tests) runs its own EventQueue with an Rng forked by the
/// stable key (operator name, test index); shard outputs merge in
/// canonical (operator, chunk, event-time) order. Deterministic in
/// (world seed, campaign seed) — never in thread count.
NdtDataset run_campaign(const synth::World& world, const CampaignConfig& config);

/// run_campaign() that also reports what happened to the shards
/// (retries, quarantined/degraded shards) under config.retry.
NdtDataset run_campaign(const synth::World& world, const CampaignConfig& config,
                        runtime::CampaignReport* report);

}  // namespace satnet::mlab
