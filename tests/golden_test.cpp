// Golden-run regression suite: pins the deterministic report text of
// three representative binaries, and the CSV exports, byte-for-byte
// against snapshots in tests/golden/. Any change to simulation behaviour — intended or not —
// shows up here as a readable diff.
//
// Regenerating snapshots after an intended behaviour change (never in CI):
//
//   ./build/tests/golden_test --update-golden
//
// then review the diff of tests/golden/ like any other code change.
// SATNET_UPDATE_GOLDEN=1 in the environment does the same.
//
// Ablation: --no-access-cache runs the whole suite with the
// access-interval index disabled (every orbital sample falls back to the
// full cone-prefilter sweep). The snapshots must still match byte-for-
// byte — that run is the equivalence oracle for the cache
// (scripts/verify.sh --golden exercises it).
//
// The epoch timeline gets the same treatment: --no-timeline disables
// replay entirely, --timeline-in FILE warm-starts the suite from a
// persisted snapshot, --timeline-out FILE saves the snapshots built by
// this run. All three must leave every snapshot byte-identical — the
// verify.sh golden gate runs cold, warm-from-file, and no-timeline
// rounds against the same tests/golden/ corpus.
//
// --recorder-out FILE runs the whole suite with the flight recorder
// enabled and drains the event stream to FILE afterwards; the snapshots
// must still match byte-for-byte (the recorder's observation-only
// oracle — scripts/verify.sh --golden exercises it).
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "fault/hook.hpp"
#include "fault/plan.hpp"
#include "io/csv.hpp"
#include "io/golden.hpp"
#include "io/timeline_io.hpp"
#include "mlab/campaign.hpp"
#include "obs/export.hpp"
#include "orbit/access_index.hpp"
#include "orbit/timeline.hpp"
#include "ripe/atlas.hpp"
#include "snoid/pipeline.hpp"
#include "synth/world.hpp"

namespace {

using namespace satnet;

bool& update_mode() {
  static bool update = false;
  return update;
}

/// Extra thread count to assert (--threads N); 0 = none. The suite
/// always checks 1/2/8 — this lets the repeat gate sweep further counts
/// (e.g. scripts/verify.sh --golden) without recompiling.
unsigned& extra_threads() {
  static unsigned t = 0;
  return t;
}

std::string golden_path(const char* name) {
  return std::string(GOLDEN_DIR) + "/" + name;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) ADD_FAILURE() << "cannot open snapshot " << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(out.good()) << "cannot write snapshot " << path;
  out << text;
}

/// Byte-compare `actual` against the named snapshot; in update mode,
/// rewrite the snapshot instead. On mismatch, report the first
/// differing line so the failure reads like a diff hunk.
void expect_golden(const char* name, const std::string& actual) {
  const std::string path = golden_path(name);
  if (update_mode()) {
    write_file(path, actual);
    std::printf("  updated %s (%zu bytes)\n", path.c_str(), actual.size());
    return;
  }
  const std::string expected = read_file(path);
  if (actual == expected) return;
  std::istringstream got(actual), want(expected);
  std::string got_line, want_line;
  std::size_t lineno = 0;
  while (true) {
    ++lineno;
    const bool g = static_cast<bool>(std::getline(got, got_line));
    const bool w = static_cast<bool>(std::getline(want, want_line));
    if (!g && !w) break;
    if (!g || !w || got_line != want_line) {
      FAIL() << name << " diverges from " << path << " at line " << lineno
             << "\n  expected: " << (w ? want_line : "<end of file>")
             << "\n  actual:   " << (g ? got_line : "<end of file>")
             << "\nIf the change is intended, regenerate with "
                "./build/tests/golden_test --update-golden and review the diff.";
    }
  }
  FAIL() << name << ": byte difference not visible line-by-line (trailing "
            "whitespace or newline?) — expected "
         << expected.size() << " bytes, got " << actual.size();
}

TEST(Golden, IdentifySnosThreadInvariant) {
  const std::string t1 = io::identify_snos_report(1);
  const std::string t2 = io::identify_snos_report(2);
  const std::string t8 = io::identify_snos_report(8);
  EXPECT_EQ(t1, t2) << "identify_snos narration differs between 1 and 2 threads";
  EXPECT_EQ(t1, t8) << "identify_snos narration differs between 1 and 8 threads";
  if (extra_threads() != 0) {
    EXPECT_EQ(t1, io::identify_snos_report(extra_threads()))
        << "identify_snos narration differs at --threads " << extra_threads();
  }
  expect_golden("identify_snos.txt", t1);
}

TEST(Golden, Fig9Speedtest) {
  const synth::World world;  // the benches' shared default world
  expect_golden("bench_fig9_speedtest.txt", io::fig9_speedtest_report(world));
}

TEST(Golden, AblationWeather) {
  expect_golden("bench_ablation_weather.txt", io::ablation_weather_report());
}

// The CSV exports, byte for byte, on io_test's small datasets: an NDT
// campaign at volume 0.00005 (with its pipeline outcome) and three days
// of Atlas traceroutes at a 24 h cadence. Every dataset is built and
// exported at each snapshot thread count; the CSV text must not change.
struct ExportCsv {
  std::string ndt, pipeline, traceroutes;
};

ExportCsv export_csv(unsigned threads) {
  static const synth::World world;
  mlab::CampaignConfig mc;
  mc.volume_scale = 0.00005;
  mc.min_tests_per_sno = 5;
  mc.threads = threads;
  const auto dataset = mlab::run_campaign(world, mc);
  snoid::PipelineConfig pc;
  pc.threads = threads;
  const auto result = snoid::run_pipeline(dataset, pc);
  ripe::AtlasConfig ac;
  ac.duration_days = 3.0;
  ac.round_interval_hours = 24.0;
  ac.threads = threads;
  const auto atlas = ripe::run_atlas_campaign(ac);
  std::ostringstream ndt, pipeline, traceroutes;
  io::export_ndt(dataset, ndt);
  io::export_pipeline(result, pipeline);
  io::export_traceroutes(atlas, traceroutes);
  return {ndt.str(), pipeline.str(), traceroutes.str()};
}

TEST(Golden, CsvExportsThreadInvariant) {
  const ExportCsv t1 = export_csv(1);
  std::vector<unsigned> counts = {2, 8};
  if (extra_threads() != 0) counts.push_back(extra_threads());
  for (const unsigned threads : counts) {
    const ExportCsv tn = export_csv(threads);
    EXPECT_EQ(t1.ndt, tn.ndt) << "export_ndt differs at " << threads << " threads";
    EXPECT_EQ(t1.pipeline, tn.pipeline)
        << "export_pipeline differs at " << threads << " threads";
    EXPECT_EQ(t1.traceroutes, tn.traceroutes)
        << "export_traceroutes differs at " << threads << " threads";
  }
  expect_golden("export_ndt.csv", t1.ndt);
  expect_golden("export_pipeline.csv", t1.pipeline);
  expect_golden("export_traceroutes.csv", t1.traceroutes);
}

// Same contract for the epoch timeline: snapshots built without a plan
// must never leak stale samples into a fault-plan run — the era keys
// travel with the snapshot, so affected lookups fall back per era while
// everything else keeps replaying. Compares the identify_snos
// walkthrough timeline-on vs timeline-off under the shipped example
// plan at every snapshot thread count.
TEST(Golden, TimelineAblationUnderFaultPlan) {
  const bool timeline_was_enabled = orbit::timeline_enabled();
  fault::ScopedHook scoped(fault::FaultPlan::load_file(FAULTPLAN_PATH));
  for (const unsigned threads : {1u, 2u, 8u}) {
    orbit::set_timeline_enabled(true);
    const std::string replayed = io::identify_snos_report(threads);
    orbit::set_timeline_enabled(false);
    const std::string on_demand = io::identify_snos_report(threads);
    EXPECT_EQ(replayed, on_demand)
        << "identify_snos diverges timeline-on vs timeline-off at " << threads
        << " threads under " << FAULTPLAN_PATH;
  }
  orbit::set_timeline_enabled(timeline_was_enabled);
}

// The access index must stay invisible in report text even while a
// fault plan rewrites gateway availability and reconfig cadence
// mid-campaign: outage/storm windows partition the memo key space into
// eras instead of corrupting (or flushing) cached samples. Compares the
// identify_snos walkthrough cache-on vs cache-off under the shipped
// example plan at every snapshot thread count.
TEST(Golden, AccessCacheAblationUnderFaultPlan) {
  const bool cache_was_enabled = orbit::access_cache_enabled();
  fault::ScopedHook scoped(fault::FaultPlan::load_file(FAULTPLAN_PATH));
  for (const unsigned threads : {1u, 2u, 8u}) {
    orbit::set_access_cache_enabled(true);
    const std::string cached = io::identify_snos_report(threads);
    orbit::set_access_cache_enabled(false);
    const std::string uncached = io::identify_snos_report(threads);
    EXPECT_EQ(cached, uncached)
        << "identify_snos diverges cache-on vs cache-off at " << threads
        << " threads under " << FAULTPLAN_PATH;
  }
  orbit::set_access_cache_enabled(cache_was_enabled);
}

}  // namespace

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  std::string timeline_out;
  std::string recorder_out;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--update-golden") update_mode() = true;
    if (arg == "--recorder-out" && i + 1 < argc) {
      // The snapshot comparisons above run with the recorder live — the
      // golden gate doubles as the recorder's observation-only oracle.
      recorder_out = argv[i + 1];
      satnet::obs::FlightRecorder::global().set_enabled(true);
      if (recorder_out != "-") {
        satnet::obs::FlightRecorder::global().set_postmortem_path(
            recorder_out + ".postmortem");
      }
    }
    if (arg == "--no-access-cache") satnet::orbit::set_access_cache_enabled(false);
    if (arg == "--no-timeline") satnet::orbit::set_timeline_enabled(false);
    if (arg == "--timeline-in" && i + 1 < argc) {
      satnet::io::TimelineFileInfo info;
      const std::string diag = satnet::io::load_timelines(argv[i + 1], &info);
      if (diag.empty()) {
        std::printf("golden_test: timeline %s: %zu networks, %zu bytes\n",
                    argv[i + 1], info.networks, info.bytes);
      } else {
        // Non-fatal by design: the suite must produce identical snapshots
        // from an in-memory build, so a bad file only costs the warm start.
        std::fprintf(stderr, "golden_test: %s\n", diag.c_str());
      }
    }
    if (arg == "--timeline-out" && i + 1 < argc) timeline_out = argv[i + 1];
    if (arg == "--threads" && i + 1 < argc) {
      extra_threads() = static_cast<unsigned>(std::strtoul(argv[i + 1], nullptr, 10));
    }
  }
  if (const char* env = std::getenv("SATNET_UPDATE_GOLDEN")) {
    if (env[0] != '\0' && env[0] != '0') update_mode() = true;
  }
  const int rc = RUN_ALL_TESTS();
  if (rc == 0 && !recorder_out.empty()) {
    const auto events = satnet::obs::FlightRecorder::global().drain();
    std::FILE* f = recorder_out == "-" ? stdout
                                       : std::fopen(recorder_out.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "golden_test: cannot open %s\n", recorder_out.c_str());
    } else {
      std::fputs(satnet::obs::events_jsonl(events).c_str(), f);
      if (f != stdout) std::fclose(f);
      std::printf("golden_test: drained %zu flight-recorder events to %s\n",
                  events.size(), recorder_out.c_str());
    }
  }
  if (rc == 0 && !timeline_out.empty()) {
    const std::string diag =
        satnet::io::save_timelines(timeline_out, "golden_test suite run");
    if (diag.empty()) {
      std::printf("golden_test: saved timeline to %s\n", timeline_out.c_str());
    } else {
      std::fprintf(stderr, "golden_test: %s\n", diag.c_str());
    }
  }
  return rc;
}
