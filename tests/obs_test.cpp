// The observability layer's own contract: lock-free metric updates that
// survive a concurrent hammer + scrape, and exporters that round-trip
// every registered metric. The whole binary also runs under the TSan
// preset (scripts/verify.sh).
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "obs/export.hpp"
#include "obs/metrics.hpp"

namespace satnet::obs {
namespace {

TEST(MetricsTest, CounterConcurrentHammerIsExact) {
  MetricsRegistry reg;
  Counter& c = reg.counter("hammer.count");
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 200000;
  std::atomic<bool> stop_scraping{false};
  // Scrape concurrently with the hammer: must never crash or tear, and
  // intermediate totals must never exceed the final one.
  std::thread scraper([&] {
    while (!stop_scraping.load()) {
      const Snapshot snap = reg.scrape();
      const MetricValue* m = snap.find("hammer.count");
      ASSERT_NE(m, nullptr);
      ASSERT_LE(m->value, static_cast<double>(kThreads * kPerThread));
    }
  });
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&c] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) c.add(1);
    });
  }
  for (auto& w : workers) w.join();
  stop_scraping.store(true);
  scraper.join();
  EXPECT_EQ(c.value(), kThreads * kPerThread);
}

TEST(MetricsTest, HistogramConcurrentObserveIsExact) {
  MetricsRegistry reg;
  Histogram& h = reg.histogram("hammer.lat", {1.0, 10.0, 100.0});
  constexpr int kThreads = 8;
  constexpr int kPerThread = 50000;
  std::atomic<bool> stop_scraping{false};
  std::thread scraper([&] {
    while (!stop_scraping.load()) (void)reg.scrape();
  });
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&h, t] {
      for (int i = 0; i < kPerThread; ++i) {
        h.observe(static_cast<double>(t % 4) * 40.0);  // 0, 40, 80, 120
      }
    });
  }
  for (auto& w : workers) w.join();
  stop_scraping.store(true);
  scraper.join();

  EXPECT_EQ(h.count(), static_cast<std::uint64_t>(kThreads * kPerThread));
  const auto counts = h.counts();
  ASSERT_EQ(counts.size(), 4u);
  EXPECT_EQ(counts[0], 100000u);  // two of eight threads observed 0 (<=1)
  EXPECT_EQ(counts[1], 0u);       // nothing lands in (1, 10]
  EXPECT_EQ(counts[2], 200000u);  // 40 and 80 fall in (10, 100]
  EXPECT_EQ(counts[3], 100000u);  // 120 overflows
  // Integer-valued observations: the striped sums add exactly.
  EXPECT_DOUBLE_EQ(h.sum(), 100000.0 * (40.0 + 80.0 + 120.0));
}

TEST(MetricsTest, GaugeSetAndAdd) {
  MetricsRegistry reg;
  Gauge& g = reg.gauge("depth");
  g.set(7);
  g.add(-3);
  EXPECT_EQ(g.value(), 4);
  const Snapshot snap = reg.scrape();
  EXPECT_EQ(snap.find("depth")->value, 4.0);
}

TEST(MetricsTest, RegistrationIsFindOrCreateAndKindChecked) {
  MetricsRegistry reg;
  Counter& a = reg.counter("x");
  Counter& b = reg.counter("x");
  EXPECT_EQ(&a, &b);
  EXPECT_THROW(reg.gauge("x"), std::logic_error);
  EXPECT_THROW(reg.histogram("x", {1.0}), std::logic_error);
}

TEST(MetricsTest, DisabledRegistryScrapesEmpty) {
  MetricsRegistry reg;
  reg.counter("x").add(3);
  reg.set_enabled(false);
  EXPECT_TRUE(reg.scrape().metrics.empty());
  reg.set_enabled(true);
  EXPECT_EQ(reg.scrape().metrics.size(), 1u);
}

TEST(MetricsTest, ResetValuesKeepsRegistrations) {
  MetricsRegistry reg;
  Counter& c = reg.counter("x");
  c.add(5);
  reg.reset_values();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(&c, &reg.counter("x"));
}

RunManifest test_manifest() {
  RunManifest m;
  m.tool = "obs_test";
  m.command = "obs_test --flag \"quoted\"";
  m.threads = 4;
  m.wall_ms = 123.5;
  m.notes.emplace_back("seed", "7");
  return m;
}

MetricsRegistry& populated_registry() {
  static MetricsRegistry reg;
  static bool done = [] {
    reg.counter("alpha.count", "a counter").add(42);
    reg.gauge("beta.depth", "a gauge").set(-3);
    Histogram& h = reg.histogram("gamma.lat_ms", {0.5, 1.0, 2.5}, "a histogram");
    h.observe(0.25);
    h.observe(0.75);
    h.observe(2.0);
    h.observe(99.0);
    return true;
  }();
  (void)done;
  return reg;
}

void expect_snapshots_equal(const Snapshot& want, const Snapshot& got) {
  ASSERT_EQ(want.metrics.size(), got.metrics.size());
  for (const auto& w : want.metrics) {
    const MetricValue* g = got.find(w.name);
    ASSERT_NE(g, nullptr) << w.name << " lost in round-trip";
    EXPECT_EQ(w.kind, g->kind) << w.name;
    EXPECT_DOUBLE_EQ(w.value, g->value) << w.name;
    EXPECT_EQ(w.bounds, g->bounds) << w.name;
    EXPECT_EQ(w.counts, g->counts) << w.name;
    EXPECT_DOUBLE_EQ(w.sum, g->sum) << w.name;
    EXPECT_EQ(w.count, g->count) << w.name;
  }
}

TEST(ExportTest, PrometheusRoundTripRecoversEveryMetric) {
  const Snapshot snap = populated_registry().scrape();
  ASSERT_EQ(snap.metrics.size(), 3u);
  const std::string text = to_prometheus(snap, test_manifest());
  EXPECT_NE(text.find("satnet_alpha_count 42"), std::string::npos);
  EXPECT_NE(text.find("# manifest:"), std::string::npos);
  EXPECT_NE(text.find("satnet_gamma_lat_ms_bucket{le=\"+Inf\"} 4"),
            std::string::npos);
  expect_snapshots_equal(snap, parse_prometheus(text));
}

TEST(ExportTest, JsonlRoundTripRecoversEveryMetric) {
  const Snapshot snap = populated_registry().scrape();
  const std::string text = to_jsonl(snap, test_manifest());
  EXPECT_EQ(text.find("{\"type\":\"manifest\""), 0u);  // manifest first
  expect_snapshots_equal(snap, parse_jsonl(text));
}

TEST(ExportTest, ManifestJsonCarriesRunMetadata) {
  const std::string json = manifest_json(test_manifest());
  EXPECT_NE(json.find("\"tool\":\"obs_test\""), std::string::npos);
  EXPECT_NE(json.find("\"threads\":4"), std::string::npos);
  EXPECT_NE(json.find("\"seed\":\"7\""), std::string::npos);
  EXPECT_NE(json.find("\\\"quoted\\\""), std::string::npos);  // escaping
}

TEST(ExportTest, SummaryTextListsConeCountersWithoutRatio) {
  // The window sweep emits only the slots it evaluates exactly, so a
  // swept/exact ratio would always read 1.0x; the summary prints the
  // two counters and derives nothing from them.
  MetricsRegistry reg;
  reg.counter("orbit.best_visible.sats_swept").add(8000);
  reg.counter("orbit.best_visible.exact_evals").add(1000);
  const std::string text = summary_text(reg.scrape(), test_manifest());
  EXPECT_NE(text.find("orbit.best_visible.sats_swept"), std::string::npos);
  EXPECT_NE(text.find("orbit.best_visible.exact_evals"), std::string::npos);
  EXPECT_EQ(text.find("reduction"), std::string::npos);
}

TEST(ExportTest, SummaryTextRollsUpTheTimeline) {
  // Lookups happened: the hit ratio, with the build cost alongside.
  MetricsRegistry replayed;
  replayed.counter("timeline.replay.hit").add(3000);
  replayed.counter("timeline.replay.fallback").add(1000);
  replayed.counter("timeline.build.epochs").add(4500);
  replayed.counter("timeline.build.ms").add(12);
  EXPECT_NE(summary_text(replayed.scrape(), test_manifest())
                .find("  timeline: 3000 replay hits / 1000 fallbacks (75.0% hit ratio, "
                      "4500 epochs built in 12 ms)\n"),
            std::string::npos);

  // A build with no lookups reports no ratio at all.
  MetricsRegistry built;
  built.counter("timeline.replay.hit");
  built.counter("timeline.build.epochs").add(80);
  built.counter("timeline.build.ms").add(3);
  const std::string text = summary_text(built.scrape(), test_manifest());
  EXPECT_NE(text.find("  timeline: no replays, 80 epochs built in 3 ms\n"),
            std::string::npos);
  EXPECT_EQ(text.find("hit ratio"), std::string::npos);

  // Every timeline counter at zero: no timeline line.
  MetricsRegistry idle;
  idle.counter("timeline.replay.hit");
  idle.counter("timeline.replay.fallback");
  idle.counter("timeline.build.epochs");
  idle.counter("timeline.build.ms");
  EXPECT_EQ(summary_text(idle.scrape(), test_manifest()).find("timeline:"),
            std::string::npos);
}

TEST(ExportTest, PrometheusEscapesHostileStrings) {
  // Names, help text, and label payloads with exposition-rule specials
  // (backslash, quote, newline) must neither split comment lines nor
  // inject bogus sample lines — and must round-trip intact.
  MetricsRegistry reg;
  reg.counter("evil\nname with \\slashes\\ and \"quotes\"",
              "help line one\nline \"two\" with \\backslash")
      .add(11);
  const Snapshot snap = reg.scrape();
  const std::string text = to_prometheus(snap, test_manifest());
  // Every line is a comment or a sample: a raw newline in the name would
  // produce a line starting with neither '#' nor "satnet_".
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    ASSERT_TRUE(line.empty() || line[0] == '#' ||
                line.compare(0, 7, "satnet_") == 0)
        << "unescaped payload leaked into the exposition: " << line;
  }
  const Snapshot parsed = parse_prometheus(text);
  ASSERT_EQ(parsed.metrics.size(), 1u);
  EXPECT_EQ(parsed.metrics[0].name,
            "evil\nname with \\slashes\\ and \"quotes\"");
  EXPECT_EQ(parsed.metrics[0].help,
            "help line one\nline \"two\" with \\backslash");
  EXPECT_DOUBLE_EQ(parsed.metrics[0].value, 11.0);
}

TEST(ExportTest, PrometheusBucketLabelsAreEscaped) {
  // le= values come from fmt_double today, but the exposition escaping
  // must hold for any payload prom_escape_label is handed.
  EXPECT_EQ(prom_escape_label("a\\b\"c\nd"), "a\\\\b\\\"c\\nd");
  EXPECT_EQ(prom_escape_text("a\\b\"c\nd"), "a\\\\b\"c\\nd");
  MetricsRegistry reg;
  Histogram& h = reg.histogram("lat_ms", {0.5, 2.5});
  h.observe(1.0);
  const std::string text = to_prometheus(reg.scrape(), test_manifest());
  EXPECT_NE(text.find("_bucket{le=\"0.5\"} 0"), std::string::npos);
  EXPECT_NE(text.find("_bucket{le=\"2.5\"} 1"), std::string::npos);
  EXPECT_NE(text.find("_bucket{le=\"+Inf\"} 1"), std::string::npos);
}

TEST(MetricsTest, NonfiniteObservationsDroppedAndCounted) {
  const double before =
      MetricsRegistry::global().counter("obs.histogram.nonfinite").value();
  MetricsRegistry reg;
  Histogram& h = reg.histogram("lat", {1.0, 10.0});
  h.observe(5.0);
  h.observe(std::nan(""));
  h.observe(std::numeric_limits<double>::infinity());
  h.observe(-std::numeric_limits<double>::infinity());
  // Only the finite observation lands; sum stays finite.
  EXPECT_EQ(h.count(), 1u);
  EXPECT_DOUBLE_EQ(h.sum(), 5.0);
  const double after =
      MetricsRegistry::global().counter("obs.histogram.nonfinite").value();
  EXPECT_DOUBLE_EQ(after - before, 3.0);
}

TEST(ExportTest, EmptyRegistryRoundTripsThroughBothExporters) {
  MetricsRegistry reg;
  const Snapshot snap = reg.scrape();
  EXPECT_TRUE(parse_prometheus(to_prometheus(snap, test_manifest())).metrics.empty());
  EXPECT_TRUE(parse_jsonl(to_jsonl(snap, test_manifest())).metrics.empty());
  // The human summary must not crash on a run that recorded nothing.
  EXPECT_FALSE(summary_text(snap, test_manifest()).empty());
}

TEST(ExportTest, ZeroObservationHistogramRoundTrips) {
  MetricsRegistry reg;
  reg.histogram("never.observed_ms", {1.0, 10.0}, "registered but idle");
  const Snapshot snap = reg.scrape();
  expect_snapshots_equal(snap, parse_prometheus(to_prometheus(snap, test_manifest())));
  expect_snapshots_equal(snap, parse_jsonl(to_jsonl(snap, test_manifest())));
  const MetricValue* m = snap.find("never.observed_ms");
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->count, 0u);
}

TEST(ExportTest, UnicodeAndControlCharsInNamesRoundTrip) {
  MetricsRegistry reg;
  reg.counter("λ.metric\x01with.control").add(3);
  const Snapshot snap = reg.scrape();
  // JSONL: control chars become \u00XX escapes and parse back.
  const std::string jsonl = to_jsonl(snap, test_manifest());
  EXPECT_NE(jsonl.find("\\u0001"), std::string::npos);
  expect_snapshots_equal(snap, parse_jsonl(jsonl));
  // Prometheus: the NAME comment carries the original (UTF-8 passes
  // through; the wire name mangles every non-alnum byte).
  const Snapshot parsed = parse_prometheus(to_prometheus(snap, test_manifest()));
  ASSERT_EQ(parsed.metrics.size(), 1u);
  EXPECT_EQ(parsed.metrics[0].name, "λ.metric\x01with.control");
}

TEST(ExportTest, ManifestWithEmptyCommandRoundTrips) {
  RunManifest m;  // tool and command both empty
  const std::string json = manifest_json(m);
  EXPECT_NE(json.find("\"tool\":\"\""), std::string::npos);
  EXPECT_NE(json.find("\"command\":\"\""), std::string::npos);
  MetricsRegistry reg;
  reg.counter("x").add(1);
  const Snapshot snap = reg.scrape();
  expect_snapshots_equal(snap, parse_jsonl(to_jsonl(snap, m)));
  expect_snapshots_equal(snap, parse_prometheus(to_prometheus(snap, m)));
  EXPECT_FALSE(summary_text(snap, m).empty());
}

}  // namespace
}  // namespace satnet::obs
