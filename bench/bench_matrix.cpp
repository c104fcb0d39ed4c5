// Matrix bench: the seeded scenario generator + invariant harness
// (synth/worldgen, matrix/invariants). Generates a sweep of worlds from
// consecutive seeds and runs the full five-invariant catalog on each —
// the exact work `verify.sh --matrix` buys per world — and reports
// worlds/sec so the ledger catches the sweep getting slower.
//
// SATNET_BENCH_MATRIX_WORLDS overrides the sweep size (default 25, the
// verify gate's floor). Writes BENCH_matrix.json (cwd) with the timings,
// the throughput, and an `invariants_ok` flag the ratios-only ledger
// gate holds at 1 — a generated world failing its own catalog is a
// regression no matter how fast it ran.
#include "bench/bench_common.hpp"

#include <chrono>
#include <cstdint>
#include <cstdlib>

#include "matrix/invariants.hpp"
#include "orbit/access.hpp"
#include "orbit/timeline.hpp"
#include "synth/worldgen.hpp"

namespace {

using namespace satnet;

// Distinct from the matrix_test sweep stride so the bench exercises
// fresh seeds rather than re-checking the tested ones.
std::uint64_t bench_seed(std::size_t i) { return 2000003ull * (i + 1) + 29ull; }

std::size_t env_worlds(std::size_t fallback) {
  const char* env = std::getenv("SATNET_BENCH_MATRIX_WORLDS");
  if (env == nullptr || *env == '\0') return fallback;
  char* end = nullptr;
  const unsigned long v = std::strtoul(env, &end, 10);
  if (end == env || *end != '\0' || v == 0) return fallback;
  return static_cast<std::size_t>(v);
}

// The bench's only clock read; phase timings are deltas of this.
double wall_ms() {
  // satlint:allow(nondet-source): bench wall-clock; results never read it
  const auto now = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(now.time_since_epoch()).count();
}

void print_matrix_bench() {
  const std::size_t n_worlds = env_worlds(25);
  const std::string caption = "generate " + std::to_string(n_worlds) +
                              " seeded worlds, run all five invariants on each";
  bench::header("Scenario matrix: worldgen + invariant catalog", caption.c_str());

  // Generation alone first: the spec is a pure value, so this isolates
  // the generator from the (much heavier) evaluation it feeds.
  const double gen_t0 = wall_ms();
  std::vector<synth::ScenarioSpec> specs;
  specs.reserve(n_worlds);
  std::size_t satellites = 0, terminals = 0, faults = 0;
  for (std::size_t i = 0; i < n_worlds; ++i) {
    specs.push_back(synth::generate_scenario(bench_seed(i)));
    satellites += specs.back().total_satellites();
    terminals += specs.back().terminals.size();
    faults += specs.back().faults.events().size();
  }
  const double gen_ms = wall_ms() - gen_t0;

  // The sweep itself: full catalog per world (1/2/8 threads, ablation,
  // conservation, two widening rounds, finite metrics). Sequential by
  // contract — check_spec installs fault hooks and ablation switches.
  const double check_t0 = wall_ms();
  std::size_t violations = 0;
  for (const auto& spec : specs) {
    const auto v = matrix::check_spec(spec);
    if (v.has_value()) {
      ++violations;
      const std::string line = "VIOLATION seed " + std::to_string(spec.seed) + ": " +
                               v->invariant + ": " + v->detail;
      bench::note(line.c_str());
    }
    // Drop each world's precomputed timeline so the sweep's footprint
    // stays one world, matching the harness.
    orbit::EpochTimeline::clear_installed();
  }
  const double check_ms = wall_ms() - check_t0;
  const double mean_world_ms = check_ms / static_cast<double>(n_worlds);
  const double worlds_per_s = check_ms > 0 ? 1e3 * static_cast<double>(n_worlds) / check_ms : 0;

  std::printf("  %-34s %10zu\n", "worlds", n_worlds);
  std::printf("  %-34s %10zu\n", "satellites (total)", satellites);
  std::printf("  %-34s %10zu\n", "terminals (total)", terminals);
  std::printf("  %-34s %10zu\n", "fault events (total)", faults);
  std::printf("  %-34s %10.1f\n", "generate wall ms", gen_ms);
  std::printf("  %-34s %10.1f\n", "check wall ms", check_ms);
  std::printf("  %-34s %10.1f\n", "mean ms / world", mean_world_ms);
  std::printf("  %-34s %10.1f\n", "worlds / sec", worlds_per_s);
  std::printf("  invariant violations: %zu (%s)\n", violations,
              violations == 0 ? "all worlds clean" : "SWEEP FAILED");

  std::FILE* out = std::fopen("BENCH_matrix.json", "w");
  if (out == nullptr) {
    std::fprintf(stderr, "warning: cannot write BENCH_matrix.json\n");
    return;
  }
  std::fprintf(out,
               "{\n"
               "  \"bench\": \"bench_matrix\",\n"
               "  \"matrix\": {\"worlds\": %zu, \"satellites\": %zu, \"terminals\": %zu, "
               "\"fault_events\": %zu, \"generate_ms\": %.1f, \"check_ms\": %.1f, "
               "\"mean_world_ms\": %.1f, \"worlds_per_s\": %.2f, \"violations\": %zu},\n"
               "  \"invariants_ok\": %s\n"
               "}\n",
               n_worlds, satellites, terminals, faults, gen_ms, check_ms, mean_world_ms,
               worlds_per_s, violations, violations == 0 ? "true" : "false");
  std::fclose(out);
  bench::note("wrote BENCH_matrix.json");
  if (violations > 0) std::exit(1);
}

// Microbench: one spec generated end to end — the unit the sweep scales.
void BM_generate_scenario(benchmark::State& state) {
  std::uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(synth::generate_scenario(bench_seed(i++ % 64)));
  }
}
BENCHMARK(BM_generate_scenario);

}  // namespace

SATNET_BENCH_MAIN(print_matrix_bench)
