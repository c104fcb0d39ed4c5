#include "mlab/campaign.hpp"

#include <algorithm>
#include <cmath>
#include <map>

#include "obs/metrics.hpp"
#include "orbit/access.hpp"
#include "orbit/timeline.hpp"
#include "runtime/sharded.hpp"
#include "sim/event_queue.hpp"

namespace satnet::mlab {

namespace {

/// One unit of campaign work: a contiguous chunk of one operator's tests.
struct CampaignShard {
  std::size_t spec_index = 0;
  std::size_t k_begin = 0;  ///< test indices [k_begin, k_end) of the operator
  std::size_t k_end = 0;
};

/// The per-test schedule draw: which subscriber runs test k of an
/// operator, and when. Shared by the shard bodies and the timeline
/// pre-pass below — both replay the identical fork_stable stream, so
/// the pre-pass can enumerate every access query the campaign will make
/// without perturbing a single draw.
struct TestDraw {
  const synth::Subscriber* sub = nullptr;
  double t_sec = 0;
  stats::Rng rng;  ///< the test's stream, positioned after the draws
};

TestDraw draw_test(const stats::Rng& spec_rng, std::size_t k,
                   const std::vector<const synth::Subscriber*>& subs,
                   double horizon_sec) {
  stats::Rng test_rng = spec_rng.fork_stable(k);
  // Users run speed tests at arbitrary times across the window; a
  // heavy-tailed share of tests comes from a few repeat testers, which
  // is what makes per-prefix filtering meaningful.
  const auto* sub = subs[static_cast<std::size_t>(std::floor(
      std::pow(test_rng.uniform(), 1.6) * static_cast<double>(subs.size())))];
  const double t = test_rng.uniform(0.0, horizon_sec);
  return TestDraw{sub, t, std::move(test_rng)};
}

}  // namespace

std::vector<std::pair<const orbit::AccessNetwork*, std::vector<orbit::TimelineQuery>>>
planned_access_queries(const synth::World& world, const CampaignConfig& config) {
  const double horizon_sec = config.duration_days * 86400.0;
  std::map<std::size_t, std::vector<const synth::Subscriber*>> by_spec;
  for (const auto& sub : world.subscribers()) by_spec[sub.spec_index].push_back(&sub);
  const stats::Rng master(config.seed);
  // Grouped by network identity so query order inside one network is
  // the canonical (spec, k) schedule order — deterministic regardless
  // of which networks share snapshots.
  std::map<std::uint64_t,
           std::pair<const orbit::AccessNetwork*, std::vector<orbit::TimelineQuery>>>
      plan;
  for (const auto& [spec_index, subs] : by_spec) {
    const synth::SnoSpec& spec = world.specs()[spec_index];
    const std::size_t n_tests = scheduled_tests(spec, config);
    if (n_tests == 0 || subs.empty()) continue;
    const stats::Rng spec_rng = master.fork_stable(spec.name);
    for (std::size_t k = 0; k < n_tests; ++k) {
      const TestDraw draw = draw_test(spec_rng, k, subs, horizon_sec);
      if (!world.truly_satellite(*draw.sub, draw.t_sec)) continue;
      const orbit::AccessNetwork& net =
          world.access_for(draw.sub->spec_index, draw.sub->orbit);
      if (net.config().orbit == orbit::OrbitClass::geo) continue;
      auto& slot = plan[net.identity_hash()];
      slot.first = &net;
      slot.second.push_back({draw.sub->location, draw.t_sec});
    }
  }
  std::vector<std::pair<const orbit::AccessNetwork*, std::vector<orbit::TimelineQuery>>>
      out;
  out.reserve(plan.size());
  for (auto& [identity, entry] : plan) out.push_back(std::move(entry));
  return out;
}

std::size_t scheduled_tests(const synth::SnoSpec& spec, const CampaignConfig& config) {
  if (!spec.in_mlab || spec.kind != synth::EntityKind::sno) return 0;
  const double scaled = static_cast<double>(spec.mlab_tests) * config.volume_scale;
  const auto floor_count =
      std::min<std::size_t>(config.min_tests_per_sno, spec.mlab_tests);
  return std::max<std::size_t>(static_cast<std::size_t>(std::llround(scaled)),
                               floor_count);
}

NdtDataset run_campaign(const synth::World& world, const CampaignConfig& config) {
  return run_campaign(world, config, nullptr);
}

NdtDataset run_campaign(const synth::World& world, const CampaignConfig& config,
                        runtime::CampaignReport* report) {
  const double horizon_sec = config.duration_days * 86400.0;

  // Group subscribers by operator once (shared, read-only across shards).
  std::map<std::size_t, std::vector<const synth::Subscriber*>> by_spec;
  for (const auto& sub : world.subscribers()) by_spec[sub.spec_index].push_back(&sub);

  // Shard plan: each operator's tests split into chunks. The plan depends
  // only on the config, never on thread count.
  std::vector<CampaignShard> shards;
  for (const auto& [spec_index, subs] : by_spec) {
    const synth::SnoSpec& spec = world.specs()[spec_index];
    const std::size_t n_tests = scheduled_tests(spec, config);
    if (n_tests == 0 || subs.empty()) continue;
    for (const auto& [begin, end] : runtime::shard_ranges(n_tests, config.shard_chunk)) {
      shards.push_back({spec_index, begin, end});
    }
  }

  // Every stream below keys off stable identity: the operator stream off
  // (seed, operator name), the per-test stream off (operator stream, test
  // index k). A test draws the same numbers no matter which shard or
  // thread runs it.
  obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
  obs::Counter& tests_generated =
      reg.counter("mlab.tests_generated", "NDT tests scheduled by the campaign");
  obs::Counter& records_kept =
      reg.counter("mlab.records", "NDT records produced (test ran to completion)");
  obs::Counter& outages =
      reg.counter("mlab.outages", "tests dropped because the link was in outage");
  obs::Counter& tests_with_retrans = reg.counter(
      "mlab.tests_with_retrans", "records with a nonzero retransmit fraction");

  const stats::Rng master(config.seed);
  // Timeline pre-pass: enumerate the exact access queries the shards
  // will make and precompute them; the shards' sample() calls replay
  // from the snapshot instead of deriving geometry on demand.
  if (orbit::timeline_enabled()) {
    for (auto& [net, queries] : planned_access_queries(world, config)) {
      orbit::EpochTimeline::ensure(*net, std::move(queries), config.threads);
    }
  }
  runtime::ShardedCampaign<NdtDataset> campaign(
      shards.size(),
      [&](std::size_t shard_index) {
        const CampaignShard& shard = shards[shard_index];
        const synth::SnoSpec& spec = world.specs()[shard.spec_index];
        const auto& subs = by_spec.find(shard.spec_index)->second;
        const stats::Rng spec_rng = master.fork_stable(spec.name);

        NdtDataset local;
        local.reserve(shard.k_end - shard.k_begin);
        sim::EventQueue queue;
        for (std::size_t k = shard.k_begin; k < shard.k_end; ++k) {
          TestDraw draw = draw_test(spec_rng, k, subs, horizon_sec);
          queue.schedule_at(draw.t_sec,
                            [&local, &world, sub = draw.sub, test_rng = std::move(draw.rng),
                             &config](sim::Time now) mutable {
                              if (auto rec = run_ndt(world, *sub, now, test_rng, config.ndt)) {
                                local.add(std::move(*rec));
                              }
                            });
        }
        queue.run();
        const std::size_t scheduled = shard.k_end - shard.k_begin;
        tests_generated.add(scheduled);
        records_kept.add(local.size());
        outages.add(scheduled - local.size());
        std::uint64_t retrans = 0;
        for (const auto& rec : local.records()) retrans += rec.retrans_frac > 0;
        tests_with_retrans.add(retrans);
        return local;
      },
      "mlab.campaign");

  // Canonical merge: shard-plan order, event-time order within a shard.
  // Under a degrade policy a quarantined shard contributes an empty
  // dataset piece — the merge order (and so the output bytes) is the
  // same at every thread count.
  NdtDataset dataset;
  for (auto& piece : campaign.run_with_report(config.threads, config.retry, report)) {
    dataset.append(std::move(piece));
  }
  return dataset;
}

}  // namespace satnet::mlab
