// satnet_perfbench: one workload, one process, one result line.
//
//   satnet_perfbench --workload ndt_campaign|atlas_year|scenario_matrix
//                    --seed N --seconds S --trace 0|1
//                    [--out-dir DIR] [--inject]
//
// Set-up runs many times (median reported as setup_s), then timed
// passes run until the next one would end after S seconds (at least
// one). Every pass checks its outputs; a failed check fails every
// operation of the pass and the pass counts no items.
//
// --trace 0 reports the end-to-end metrics. --trace 1 alternates
// untraced and traced passes, then reports the per-layer metrics:
// span-derived times, registry-derived ratios and per-call probes.
// Either way the last stdout line is one JSON object
// {"correct", "attempted", "failed", "metrics"}; the full report (every
// row, with its base or the reason it is absent) and, when traced, the
// spans go to DIR (default .bench_out).
//
// --inject makes every pass produce a wrong output (a corrupted export
// digest; the flow_bytes mutation for the matrix) so a self-check can
// show the failure is counted and not timed as a success.
#include <sys/resource.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <algorithm>
#include <filesystem>
#include <iterator>
#include <set>
#include <string>
#include <vector>

#include "bench.hpp"
#include "trace.hpp"

namespace {

using namespace perfbench;

/// Set-up runs at least kMinSetups times and until kSetupFloorMs have
/// been spent, so a set-up of a few microseconds still gets a median
/// over many samples.
constexpr std::size_t kMinSetups = 15;
constexpr double kSetupFloorMs = 500;

/// The per-layer metrics every workload's traced run reports (the
/// `per_layer` list of BENCHMARK.json). Workload-specific rows go to
/// the report file and stdout only.
const char* const kPerLayer[] = {
    "trace_overhead_frac", "other_ms",
    "orbit.sample_us_p50", "orbit.sample_us_p99",
    "synth.sample_path_us_p50", "synth.sample_path_us_p99",
    "transport.flow_us_p50", "transport.flow_us_p99", "transport.rtos_per_flow",
    "ripe.traceroute_us_p50", "ripe.traceroute_us_p99", "ripe.hops_per_traceroute",
    "timeline.hit_ratio", "timeline.epochs", "orbit.timeline_build_ms",
    "runtime.utilization", "runtime.queue_wait_ms", "runtime.shards",
    "runtime.retries", "runtime.degraded",
};

/// Per-layer rows that only one workload's path produces; the others
/// report them absent.
const char* const kPathRows[] = {
    "synth.world_build_ms", "mlab.plan_ms", "mlab.shards_ms", "snoid.pipeline_ms",
    "io.export_ms", "io.export_mb", "ripe.campaign_ms", "ripe.shards_ms",
    "synth.worldgen_ms", "matrix.check_ms",
    "synth.materialize_ms.walker", "synth.materialize_ms.sgp4",
    "matrix.eval_ms.base.walker", "matrix.eval_ms.base.sgp4",
    "matrix.eval_ms.threads4.walker", "matrix.eval_ms.threads4.sgp4",
    "matrix.eval_ms.ablated.walker", "matrix.eval_ms.ablated.sgp4",
    "matrix.eval_ms.widened.walker", "matrix.eval_ms.widened.sgp4",
};

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  std::string out_dir = ".bench_out";
  bool inject = false;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "satnet_perfbench: %s\nusage: satnet_perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--out-dir DIR] [--inject]\n",
               why);
  std::exit(2);
}

bool parse_u64(const char* s, std::uint64_t* out) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (end == s || *end != '\0' || errno != 0 || s[0] == '-') return false;
  *out = v;
  return true;
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--inject") {
      a.inject = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const char* v = argv[++i];
    std::uint64_t n = 0;
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      if (!parse_u64(v, &a.seed)) usage("--seed expects a non-negative integer");
    } else if (flag == "--seconds") {
      if (!parse_u64(v, &n) || n == 0 || n > 3600) usage("--seconds expects 1..3600");
      a.seconds = static_cast<double>(n);
    } else if (flag == "--trace") {
      if (!parse_u64(v, &n) || n > 1) usage("--trace expects 0 or 1");
      a.trace = static_cast<int>(n);
    } else if (flag == "--out-dir") {
      a.out_dir = v;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (a.workload.empty() || a.seconds == 0 || a.trace < 0) {
    usage("--workload, --seconds and --trace are required");
  }
  return a;
}

double peak_rss_mib() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;  // Linux reports KiB
}

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Sum of the top-level span durations of one pass.
double top_level_ms(std::uint64_t pass) {
  double ms = 0;
  for (const Span& s : trace().spans()) {
    if (s.pass == pass && s.parent < 0) ms += s.ms();
  }
  return ms;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  std::unique_ptr<Workload> w = make_workload(args.workload, args.seed);
  if (!w) usage(("unknown workload " + args.workload).c_str());
  if (args.inject) w->inject_fault();
  const bool traced = args.trace == 1;

  // Set-up: spans of every set-up land in pass 0 when traced. The
  // warm-up runs after the last set-up and is not timed.
  std::vector<double> setup_ms;
  if (traced) trace().begin_pass(0);
  for (double spent = 0; setup_ms.size() < kMinSetups || spent < kSetupFloorMs;) {
    const double t0 = now_ms();
    w->setup();
    setup_ms.push_back(now_ms() - t0);
    spent += setup_ms.back();
  }
  if (traced) trace().end_pass();
  w->warmup();

  // Timed passes. Traced runs alternate untraced and traced passes;
  // traced pass k records its spans under pass id k (k >= 1).
  std::vector<Pass> passes;
  std::vector<double> traced_ms, other_ms;
  Counters traced_delta;
  std::uint64_t next_traced = 1;
  double rss_mib = 0;
  const double budget_ms = args.seconds * 1e3;
  const double t_start = now_ms();
  for (;;) {
    const double t_iter = now_ms();
    passes.push_back(w->pass());
    if (passes.size() == 1) rss_mib = peak_rss_mib();
    if (traced) {
      const Counters before = read_counters();
      trace().begin_pass(next_traced);
      passes.push_back(w->pass());
      trace().end_pass();
      const Counters d = delta(read_counters(), before);
      for (const auto& [name, value] : d) traced_delta[name] += value;
      traced_ms.push_back(passes.back().ms);
      other_ms.push_back(passes.back().ms - top_level_ms(next_traced));
      ++next_traced;
    }
    const double now = now_ms();
    if (now - t_start + (now - t_iter) > budget_ms) break;
  }

  // Every pass has the same inputs, so its items are the same unless a
  // check failed; the fewest items of any untraced pass are the ones
  // every pass produced.
  std::uint64_t attempted = 0, failed = 0, items = 0;
  std::uint64_t pass_items = passes.front().items;
  std::set<std::string> errors;
  std::vector<double> untraced_ms, op_ms;
  for (std::size_t i = 0; i < passes.size(); ++i) {
    const Pass& p = passes[i];
    if (!traced || i % 2 == 0) {
      untraced_ms.push_back(p.ms);
      op_ms.insert(op_ms.end(), p.op_ms.begin(), p.op_ms.end());
      pass_items = std::min(pass_items, p.items);
    }
    attempted += p.ops;
    failed += p.failed_ops;
    items += p.items;
    if (!p.error.empty()) errors.insert(p.error);
  }
  const double pass_ms = median(untraced_ms);
  if (attempted == 0) attempted = 1;  // a pass that threw before counting still ran
  const bool correct = failed == 0 && errors.empty();
  if (!correct && failed == 0) failed = attempted;

  std::printf("workload %s seed %llu threads %u: %zu passes (%zu traced), %llu %s\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed), kThreads,
              passes.size(), traced_ms.size(), static_cast<unsigned long long>(items),
              w->item_unit());
  std::printf("  pass ms:");
  for (const Pass& p : passes) std::printf(" %.1f", p.ms);
  std::printf("\n");
  for (const std::string& e : errors) std::printf("  CHECK FAILED: %s\n", e.c_str());
  std::printf("  %-28s %.6g (%llu of %llu %s)\n", "fail_ratio",
              static_cast<double>(failed) / static_cast<double>(attempted),
              static_cast<unsigned long long>(failed), static_cast<unsigned long long>(attempted),
              w->op_unit());

  std::vector<Row> rows;
  if (!traced) {
    rows.push_back({"setup_s", median(setup_ms) / 1e3, "s", "median of " + std::to_string(setup_ms.size()) + " set-ups", ""});
    rows.push_back({"peak_rss_mb", rss_mib, "MiB", "ru_maxrss after the first pass", ""});
    const double rate = pass_ms > 0 ? static_cast<double>(pass_items) / (pass_ms / 1e3) : 0.0;
    rows.push_back({"items_per_s", rate, "1/s",
                    std::to_string(pass_items) + " " + w->item_unit() + " per pass / median wall time of " +
                        std::to_string(untraced_ms.size()) + " passes; a failed check counts no items",
                    ""});
    const std::string alias = args.workload == "ndt_campaign"   ? "ndt.records_per_s"
                              : args.workload == "atlas_year" ? "atlas.traceroutes_per_s"
                                                              : "matrix.worlds_per_s";
    rows.push_back({alias, rate, "1/s", "same as items_per_s", ""});
    if (!op_ms.empty()) {
      const std::string base = "n=" + std::to_string(op_ms.size()) + " worlds over " +
                               std::to_string(untraced_ms.size()) + " passes, generate_scenario + check_spec";
      rows.push_back({"matrix.world_ms_p50", quantile(op_ms, 0.5), "ms", base, ""});
      rows.push_back({"matrix.world_ms_p95", quantile(op_ms, 0.95), "ms", base, ""});
    }
  } else {
    const std::size_t n_traced = traced_ms.size();
    w->layer_rows(1, next_traced - 1, traced_delta, n_traced, rows);
    counter_rows(traced_delta, n_traced, rows);
    probe_rows(args.seed, rows);
    rows.push_back({"traced_pass_ms", median(traced_ms), "ms", "median of " + std::to_string(n_traced) + " traced passes", ""});
    rows.push_back({"other_ms", median(other_ms), "ms", "traced pass minus its top-level spans, median", ""});
    rows.push_back({"trace_overhead_frac", median(traced_ms) / median(untraced_ms) - 1.0, "ratio",
                    "median traced / median untraced pass - 1, " + std::to_string(untraced_ms.size()) + " untraced passes", ""});
  }

  // First row of a name wins: a workload's span-based row replaces the
  // generic counter-based one.
  std::vector<Row> unique;
  std::set<std::string> seen;
  for (Row& r : rows) {
    if (seen.insert(r.name).second) unique.push_back(std::move(r));
  }
  if (traced) {
    for (const char* name : kPathRows) {
      if (seen.insert(name).second) unique.push_back({name, 0, "", "", "not on the " + args.workload + " path"});
    }
  }
  for (const Row& r : unique) {
    if (r.absent.empty()) {
      std::printf("  %-28s %.6g %s (%s)\n", r.name.c_str(), r.value, r.unit.c_str(), r.base.c_str());
    } else {
      std::printf("  %-28s absent: %s\n", r.name.c_str(), r.absent.c_str());
    }
  }

  // Report file, and the spans when traced.
  std::error_code ec;
  std::filesystem::create_directories(args.out_dir, ec);
  const std::string stem = args.out_dir + "/" + args.workload + "-seed" + std::to_string(args.seed);
  if (traced && !trace().write_jsonl(stem + ".spans.jsonl")) {
    std::fprintf(stderr, "satnet_perfbench: cannot write %s.spans.jsonl\n", stem.c_str());
  }
  if (std::FILE* f = std::fopen((stem + "-trace" + std::to_string(args.trace) + ".json").c_str(), "w")) {
    std::fprintf(f,
                 "{\"workload\": %s, \"seed\": %llu, \"threads\": %u, \"passes\": %zu, "
                 "\"attempted\": %llu, \"failed\": %llu, \"items\": %llu, \"errors\": [",
                 json_str(args.workload).c_str(), static_cast<unsigned long long>(args.seed), kThreads,
                 passes.size(), static_cast<unsigned long long>(attempted),
                 static_cast<unsigned long long>(failed), static_cast<unsigned long long>(items));
    bool first = true;
    for (const std::string& e : errors) {
      std::fprintf(f, "%s%s", first ? "" : ", ", json_str(e).c_str());
      first = false;
    }
    std::fprintf(f, "], \"rows\": [\n");
    for (std::size_t i = 0; i < unique.size(); ++i) {
      const Row& r = unique[i];
      std::fprintf(f, "  {\"name\": %s, \"value\": %s, \"unit\": %s, \"base\": %s, \"absent\": %s}%s\n",
                   json_str(r.name).c_str(), num(r.value).c_str(), json_str(r.unit).c_str(),
                   json_str(r.base).c_str(), r.absent.empty() ? "null" : json_str(r.absent).c_str(),
                   i + 1 < unique.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    std::fclose(f);
  }

  // Result line: the end-to-end metrics, or the per-layer ones.
  std::vector<std::string> names;
  if (traced) {
    names.assign(std::begin(kPerLayer), std::end(kPerLayer));
  } else {
    names = {"setup_s", "peak_rss_mb", "items_per_s"};
  }
  std::string metrics;
  for (const std::string& name : names) {
    const Row* row = nullptr;
    for (const Row& r : unique) {
      if (r.name == name) row = &r;
    }
    // An absent metric reads null, never a value that could pass for a
    // measurement; the report says why it is absent.
    const bool present = row != nullptr && row->absent.empty();
    if (!metrics.empty()) metrics += ", ";
    metrics += json_str(name) + ": {\"value\": " + (present ? num(row->value) : "null") +
               ", \"unit\": " + json_str(row ? row->unit : "") + "}";
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), metrics.c_str());
  std::fflush(stdout);
  return 0;
}
