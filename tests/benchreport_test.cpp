// benchreport unit tests: JSON normalization, ledger round trip, and
// the tolerance gate. The synthetic-slowdown test is the acceptance
// criterion for the whole ledger: a 20% regression on a timed metric
// must trip the default 15% gate (exit non-zero in the CLI), while a
// 10% wobble passes.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "benchreport.hpp"

namespace satnet::benchreport {
namespace {

BenchRun make_run(const std::string& bench, const std::string& run_id,
                  std::map<std::string, double> metrics) {
  BenchRun run;
  run.bench = bench;
  run.run_id = run_id;
  run.metrics = std::move(metrics);
  return run;
}

TEST(BenchreportTest, ToleranceMustBeAFiniteNonNegativeNumber) {
  double tol = 0.15;
  EXPECT_TRUE(parse_tolerance("0.5", &tol));
  EXPECT_DOUBLE_EQ(tol, 0.5);
  EXPECT_TRUE(parse_tolerance("0", &tol));
  EXPECT_DOUBLE_EQ(tol, 0.0);
  for (const char* bad : {"abc", "", "-0.1", "inf", "nan", "0.5x", " 0.5"}) {
    EXPECT_FALSE(parse_tolerance(bad, &tol)) << bad;
  }
  EXPECT_DOUBLE_EQ(tol, 0.0);
}

TEST(BenchreportTest, DirectionInferredFromKey) {
  EXPECT_EQ(metric_direction("mlab_campaign.cold_ms"), Direction::lower_better);
  EXPECT_EQ(metric_direction("replay.p99_us"), Direction::lower_better);
  EXPECT_EQ(metric_direction("timeline_file.size_bytes"), Direction::lower_better);
  EXPECT_EQ(metric_direction("handoff_census.speedup"), Direction::higher_better);
  EXPECT_EQ(metric_direction("cache.hit_ratio"), Direction::higher_better);
  EXPECT_EQ(metric_direction("replay.outputs_identical"), Direction::higher_better);
  EXPECT_EQ(metric_direction("epochs.count"), Direction::info);
  EXPECT_EQ(metric_direction("config.threads"), Direction::info);
}

TEST(BenchreportTest, ParsesNestedBenchJson) {
  const std::string text =
      "{\n"
      "  \"bench\": \"bench_timeline\",\n"
      "  \"config\": {\"threads\": 8, \"epochs\": 720},\n"
      "  \"replay\": {\"warm_speedup\": 1.42, \"outputs_identical\": true},\n"
      "  \"note\": \"strings are kept separately, not metrics\",\n"
      "  \"skipped\": null\n"
      "}\n";
  BenchRun run;
  std::string error;
  ASSERT_TRUE(parse_bench_json(text, "fallback", &run, &error)) << error;
  EXPECT_EQ(run.bench, "bench_timeline");
  EXPECT_EQ(run.metrics.at("config.threads"), 8.0);
  EXPECT_EQ(run.metrics.at("config.epochs"), 720.0);
  EXPECT_EQ(run.metrics.at("replay.warm_speedup"), 1.42);
  EXPECT_EQ(run.metrics.at("replay.outputs_identical"), 1.0);
  EXPECT_EQ(run.metrics.count("note"), 0u);
  EXPECT_EQ(run.metrics.count("skipped"), 0u);
}

TEST(BenchreportTest, FallbackNameAndMalformedInput) {
  BenchRun run;
  std::string error;
  ASSERT_TRUE(parse_bench_json("{\"x\": 1}", "BENCH_access_cache", &run, &error));
  EXPECT_EQ(run.bench, "BENCH_access_cache");
  EXPECT_FALSE(parse_bench_json("{\"x\": ", "broken", &run, &error));
  EXPECT_FALSE(error.empty());
}

TEST(BenchreportTest, LedgerLineRoundTrips) {
  const BenchRun run = make_run("bench_x", "run-7",
                                {{"a.cold_ms", 12.5}, {"a.speedup", 2.0}});
  const std::string line = ledger_line(run);
  const std::vector<BenchRun> parsed = parse_ledger(line + "\n" +
                                                    "{\"type\":\"manifest\"}\n" +
                                                    "not json at all\n");
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_EQ(parsed[0].bench, "bench_x");
  EXPECT_EQ(parsed[0].run_id, "run-7");
  ASSERT_EQ(parsed[0].metrics.size(), 2u);
  EXPECT_EQ(parsed[0].metrics.at("a.cold_ms"), 12.5);
  EXPECT_EQ(parsed[0].metrics.at("a.speedup"), 2.0);
}

TEST(BenchreportTest, TwentyPercentSlowdownTripsTheGate) {
  // The acceptance criterion: inject a synthetic 20% slowdown on a
  // lower-is-better metric and require the default 15% gate to fail.
  const std::vector<BenchRun> baseline = {
      make_run("bench_x", "base", {{"campaign.cold_ms", 100.0}})};
  const std::vector<BenchRun> slow = {
      make_run("bench_x", "cur", {{"campaign.cold_ms", 120.0}})};
  const CheckResult bad = check(baseline, slow, 0.15, /*ratios_only=*/false);
  EXPECT_FALSE(bad.ok());
  ASSERT_EQ(bad.regressions.size(), 1u);
  EXPECT_EQ(bad.regressions[0].key, "campaign.cold_ms");
  EXPECT_NEAR(bad.regressions[0].ratio, 1.2, 1e-9);
  EXPECT_NE(render_table(bad, 0.15).find("REGRESSED"), std::string::npos);

  // A 10% wobble on the same metric stays inside the gate.
  const std::vector<BenchRun> wobble = {
      make_run("bench_x", "cur", {{"campaign.cold_ms", 110.0}})};
  EXPECT_TRUE(check(baseline, wobble, 0.15, false).ok());
}

TEST(BenchreportTest, SpeedupDropTripsTheGateTheOtherWay) {
  const std::vector<BenchRun> baseline = {
      make_run("bench_x", "base", {{"campaign.speedup", 2.0}})};
  const std::vector<BenchRun> slower = {
      make_run("bench_x", "cur", {{"campaign.speedup", 1.5}})};
  const CheckResult bad = check(baseline, slower, 0.15, false);
  EXPECT_FALSE(bad.ok());
  ASSERT_EQ(bad.regressions.size(), 1u);
  EXPECT_EQ(bad.regressions[0].direction, Direction::higher_better);
  // A higher speedup is never a regression.
  const std::vector<BenchRun> faster = {
      make_run("bench_x", "cur", {{"campaign.speedup", 3.0}})};
  EXPECT_TRUE(check(baseline, faster, 0.15, false).ok());
}

TEST(BenchreportTest, RatiosOnlyIgnoresAbsoluteTimes) {
  // The verify.sh hard gate runs ratios_only: a machine-dependent
  // absolute-time regression must not fail it, a speedup drop must.
  const std::vector<BenchRun> baseline = {make_run(
      "bench_x", "base", {{"campaign.cold_ms", 100.0}, {"campaign.speedup", 2.0}})};
  const std::vector<BenchRun> slow_times = {make_run(
      "bench_x", "cur", {{"campaign.cold_ms", 300.0}, {"campaign.speedup", 2.0}})};
  EXPECT_TRUE(check(baseline, slow_times, 0.15, /*ratios_only=*/true).ok());
  EXPECT_FALSE(check(baseline, slow_times, 0.15, /*ratios_only=*/false).ok());

  const std::vector<BenchRun> slow_ratio = {make_run(
      "bench_x", "cur", {{"campaign.cold_ms", 100.0}, {"campaign.speedup", 0.5}})};
  EXPECT_FALSE(check(baseline, slow_ratio, 0.15, /*ratios_only=*/true).ok());
}

TEST(BenchreportTest, InfoMetricsAndMissingBenchesNeverGate) {
  const std::vector<BenchRun> baseline = {
      make_run("bench_x", "base", {{"epochs.count", 100.0}}),
      make_run("bench_gone", "base", {{"a.cold_ms", 5.0}})};
  const std::vector<BenchRun> current = {
      make_run("bench_x", "cur", {{"epochs.count", 9000.0}})};
  const CheckResult result = check(baseline, current, 0.15, false);
  EXPECT_TRUE(result.ok());
  ASSERT_EQ(result.missing_benches.size(), 1u);
  EXPECT_EQ(result.missing_benches[0], "bench_gone");
  EXPECT_NE(render_table(result, 0.15).find("bench_gone"), std::string::npos);
}

TEST(BenchreportTest, LatestCurrentEntryWins) {
  // History ledgers accumulate runs; the gate must compare the newest.
  const std::vector<BenchRun> baseline = {
      make_run("bench_x", "base", {{"a.cold_ms", 100.0}})};
  const std::vector<BenchRun> current = {
      make_run("bench_x", "old", {{"a.cold_ms", 500.0}}),
      make_run("bench_x", "new", {{"a.cold_ms", 101.0}})};
  EXPECT_TRUE(check(baseline, current, 0.15, false).ok());
}

}  // namespace
}  // namespace satnet::benchreport
