// Ablation: the access-interval visibility index (orbit/access_index).
// The index exists only for SGP4 constellations, where it amortizes the
// per-epoch batch frame, so the ablation runs on an SGP4 build of the
// Starlink shells. A handoff census — sample_with_handoff over a fleet
// of terminals, the epoch-densest consumer of serving-satellite
// selection — runs with the index enabled and disabled; the bench
// asserts the outputs are byte-identical and reports the speedup. The cache is a pure accelerator: any fingerprint
// divergence here is a bug (exit 1), backstopping the golden and
// determinism suites.
//
// Writes BENCH_access_cache.json (cwd) with the timings, speedup, and
// cache hit/miss counters for CI trend tracking. The bench toggles the
// cache itself, so --no-access-cache has no effect on this binary.
//
// Campaigns replay precomputed access state from the epoch timeline
// (orbit/timeline), and the index only serves timeline misses. This
// ablation disables the timeline for its A/B rows so the index is
// actually on the hot path being measured; bench_timeline owns the
// timeline-vs-on-demand comparison.
#include "bench/bench_common.hpp"

#include <bit>
#include <chrono>
#include <cstdint>

#include "obs/metrics.hpp"
#include "orbit/access.hpp"
#include "orbit/access_index.hpp"

namespace {

using namespace satnet;

/// Fleet of terminals across the Starlink service area: dense North
/// America plus the paper's anomaly regions (Alaska, Oceania, South
/// America) — enough geographic spread that slab candidate lists are
/// built for many distinct ground cells, not one hot cell.
const geo::GeoPoint kFleet[] = {
    {47.61, -122.33, 0},  // seattle
    {61.22, -149.90, 0},  // anchorage
    {34.05, -118.24, 0},  // los angeles
    {40.71, -74.01, 0},   // new york
    {29.76, -95.37, 0},   // houston
    {45.50, -73.57, 0},   // montreal
    {19.43, -99.13, 0},   // mexico city
    {51.51, -0.13, 0},    // london
    {48.86, 2.35, 0},     // paris
    {52.52, 13.40, 0},    // berlin
    {-33.87, 151.21, 0},  // sydney
    {-36.85, 174.76, 0},  // auckland
    {-23.55, -46.63, 0},  // sao paulo
    {-33.45, -70.67, 0},  // santiago
    {35.68, 139.69, 0},   // tokyo
    {14.60, 120.98, 0},   // manila
};

/// Starlink's access network over SGP4-propagated shells: the only
/// orbit model with an access index.
const orbit::AccessNetwork& starlink() {
  static const orbit::AccessNetwork net = orbit::make_starlink_access(
      std::make_shared<const orbit::Constellation>(orbit::starlink_shells(),
                                                   orbit::OrbitModel::sgp4));
  return net;
}

/// FNV-1a over the raw bits of every HandoffStats field — byte-level
/// fingerprint of the census output.
struct Fingerprint {
  std::uint64_t h = 0xcbf29ce484222325ull;
  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ull;
    }
  }
  void mix(double d) { mix(std::bit_cast<std::uint64_t>(d)); }
};

/// The census: every terminal scans 30 reconfiguration epochs (7.5
/// minutes) through sample_with_handoff — the jitter-model entry point,
/// which needs both the current and the previous epoch's serving
/// satellite. Uncached that is two whole-constellation SGP4 frames per
/// epoch; with the index the previous epoch is a memo hit and the
/// current one an interval lookup over a per-slab candidate list. Four
/// terminals per city share a ground cell, so slab candidate lists
/// amortize across the metro fleet like they do in a real campaign.
std::uint64_t handoff_census() {
  Fingerprint fp;
  for (const auto& city : kFleet) {
    for (int j = 0; j < 4; ++j) {
      const geo::GeoPoint user{city.lat_deg + 0.05 * j, city.lon_deg + 0.07 * j, 0};
      for (int e = 1; e <= 30; ++e) {
        const auto s = starlink().sample_with_handoff(user, 15.0 * e);
        fp.mix(static_cast<std::uint64_t>(s.reachable));
        if (!s.reachable) continue;
        fp.mix(s.one_way_ms);
        fp.mix(static_cast<std::uint64_t>(s.handoff));
        fp.mix(static_cast<std::uint64_t>(s.gateway_index));
        fp.mix(static_cast<std::uint64_t>(s.pop_index));
      }
    }
  }
  return fp.h;
}

double wall_ms_since(std::chrono::steady_clock::time_point t0) {
  // satlint:allow(nondet-source): bench wall-clock; results never read it
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                   t0)
      .count();
}

/// Runs `work` cache-off then cache-on (cold), requiring identical
/// fingerprints. Returns {uncached_ms, cached_ms, fingerprint}.
struct AblationRow {
  double uncached_ms = 0;
  double cached_ms = 0;
  std::uint64_t fingerprint = 0;
};

template <typename Work>
AblationRow run_ablation(const char* label, Work work) {
  AblationRow row;
  orbit::set_access_cache_enabled(false);
  // satlint:allow(nondet-source): bench wall-clock; results never read it
  auto t0 = std::chrono::steady_clock::now();
  row.fingerprint = work();
  row.uncached_ms = wall_ms_since(t0);

  orbit::set_access_cache_enabled(true);
  // satlint:allow(nondet-source): bench wall-clock; results never read it
  t0 = std::chrono::steady_clock::now();
  const std::uint64_t cached = work();
  row.cached_ms = wall_ms_since(t0);

  if (cached != row.fingerprint) {
    std::fprintf(stderr,
                 "FATAL: %s output diverges with the access cache enabled "
                 "(uncached %016llx, cached %016llx) — the index broke its "
                 "byte-identity contract\n",
                 label, static_cast<unsigned long long>(row.fingerprint),
                 static_cast<unsigned long long>(cached));
    std::exit(1);
  }
  return row;
}

std::uint64_t counter_value(const char* name) {
  return obs::MetricsRegistry::global().counter(name).value();
}

void print_ablation() {
  bench::header("Ablation: access-interval index",
                "SGP4 Starlink handoff census, cache on vs off (batch-frame sweep)");

  // Ablate the timeline for the whole A/B: with replay active the index
  // never runs and both rows would measure the same binary searches.
  const bool timeline_was_enabled = orbit::timeline_enabled();
  orbit::set_timeline_enabled(false);

  const std::uint64_t hits0 = counter_value("access.cache.hit");
  const std::uint64_t misses0 = counter_value("access.cache.miss");

  const AblationRow census = run_ablation("handoff census", handoff_census);

  const std::uint64_t hits = counter_value("access.cache.hit") - hits0;
  const std::uint64_t misses = counter_value("access.cache.miss") - misses0;
  const double hit_ratio =
      hits + misses > 0 ? static_cast<double>(hits) / static_cast<double>(hits + misses)
                        : 0.0;
  const double census_speedup =
      census.cached_ms > 0 ? census.uncached_ms / census.cached_ms : 0.0;

  std::printf("  %-16s %12s %12s %9s\n", "workload", "uncached ms", "cached ms",
              "speedup");
  std::printf("  %-16s %12.1f %12.1f %8.2fx\n", "handoff census", census.uncached_ms,
              census.cached_ms, census_speedup);
  std::printf("  cache: %llu hits / %llu misses (%.1f%% hit ratio)\n",
              static_cast<unsigned long long>(hits),
              static_cast<unsigned long long>(misses), hit_ratio * 100.0);
  std::printf("  outputs byte-identical cache on/off: yes (asserted)\n");
  std::printf("  handoff-census speedup target >= 2x: %s\n",
              census_speedup >= 2.0 ? "met" : "NOT MET");
  bench::note("Walker networks have no index: their plane-window sweep is already "
              "as cheap as a candidate list");

  std::FILE* out = std::fopen("BENCH_access_cache.json", "w");
  if (out == nullptr) {
    std::fprintf(stderr, "warning: cannot write BENCH_access_cache.json\n");
    return;
  }
  std::fprintf(out,
               "{\n"
               "  \"bench\": \"bench_ablation_access_cache\",\n"
               "  \"handoff_census\": {\"uncached_ms\": %.1f, \"cached_ms\": %.1f, "
               "\"speedup\": %.2f},\n"
               "  \"cache\": {\"hits\": %llu, \"misses\": %llu, \"hit_ratio\": %.4f},\n"
               "  \"outputs_identical\": true\n"
               "}\n",
               census.uncached_ms, census.cached_ms, census_speedup,
               static_cast<unsigned long long>(hits),
               static_cast<unsigned long long>(misses), hit_ratio);
  std::fclose(out);
  bench::note("wrote BENCH_access_cache.json");
  orbit::set_timeline_enabled(timeline_was_enabled);
}

void BM_sample_cached(benchmark::State& state) {
  orbit::set_access_cache_enabled(true);
  double t = 0;
  for (auto _ : state) {
    t += 15.0;
    benchmark::DoNotOptimize(starlink().sample(kFleet[0], t));
  }
}
BENCHMARK(BM_sample_cached)->Unit(benchmark::kMicrosecond);

void BM_sample_sweep(benchmark::State& state) {
  orbit::set_access_cache_enabled(false);
  double t = 0;
  for (auto _ : state) {
    t += 15.0;
    benchmark::DoNotOptimize(starlink().sample(kFleet[0], t));
  }
  orbit::set_access_cache_enabled(true);
}
BENCHMARK(BM_sample_sweep)->Unit(benchmark::kMicrosecond);

void BM_measure_handoffs_cached(benchmark::State& state) {
  orbit::set_access_cache_enabled(true);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        orbit::measure_handoffs(starlink(), kFleet[0], 0.0, 3600.0));
  }
}
BENCHMARK(BM_measure_handoffs_cached)->Unit(benchmark::kMillisecond);

void BM_measure_handoffs_sweep(benchmark::State& state) {
  orbit::set_access_cache_enabled(false);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        orbit::measure_handoffs(starlink(), kFleet[0], 0.0, 3600.0));
  }
  orbit::set_access_cache_enabled(true);
}
BENCHMARK(BM_measure_handoffs_sweep)->Unit(benchmark::kMillisecond);

}  // namespace

SATNET_BENCH_MAIN(print_ablation)
