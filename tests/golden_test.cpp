// Golden-run regression suite: pins the identify_snos walkthrough, the
// whole paper report (`satnetctl paper`) and the CSV exports
// byte-for-byte against snapshots in tests/golden/. Any change to
// simulation behaviour — intended or not — shows up here as a readable
// diff.
//
// Regenerating snapshots after an intended behaviour change (never in CI):
//
//   ./build/tests/golden_test --update-golden
//
// then review the diff of tests/golden/ like any other code change.
// SATNET_UPDATE_GOLDEN=1 in the environment does the same.
//
// The shared run flags (io/session.hpp) apply to the whole suite, and
// every snapshot must still match byte-for-byte under them, so
// scripts/verify.sh --golden uses each round as an equivalence oracle:
// --no-timeline (no replay, every sample takes the window sweep) and
// --recorder-out FILE (flight recorder on, drained to FILE at exit).
// --threads N asserts one more thread count on top of the fixed 1/2/8.
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
#include "io/paper.hpp"
#include "io/session.hpp"
#include "mlab/campaign.hpp"
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

// The whole paper report (every table, figure, ablation and extension
// of `satnetctl paper`), each thread count over its own freshly built
// datasets.
TEST(Golden, PaperReport) {
  const auto render = [](unsigned threads) {
    io::paper::Inputs inputs(threads);
    return io::paper::render_all(inputs);
  };
  const std::string t1 = render(1);
  std::vector<unsigned> counts = {2, 8};
  if (extra_threads() != 0) counts.push_back(extra_threads());
  for (const unsigned threads : counts) {
    EXPECT_EQ(t1, render(threads)) << "paper report differs at " << threads << " threads";
  }
  expect_golden("paper.txt", t1);
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

}  // namespace

int main(int argc, char** argv) {
  satnet::io::RunSession session(argc, argv);
  ::testing::InitGoogleTest(&argc, argv);
  session.start(
      argc, argv, 1,
      {{"--update-golden", "", {}, "", "rewrite the snapshots instead of comparing"}});
  update_mode() = session.args().has("--update-golden");
  extra_threads() = session.threads();
  if (const char* env = std::getenv("SATNET_UPDATE_GOLDEN")) {
    if (env[0] != '\0' && env[0] != '0') update_mode() = true;
  }
  return session.finish(RUN_ALL_TESTS());
}
