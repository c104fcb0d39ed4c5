// benchreport: the perf-regression ledger behind verify.sh --golden
// and the CI advisory gate.
//
// The repo's benches each hand-write one BENCH_<name>.json with a
// bench-specific shape (nested objects of numbers/bools/strings).
// benchreport normalizes every file into one flat schema — a BenchRun
// of dot-joined metric keys ("mlab_campaign.warm_speedup") — appends
// runs to a committed JSONL ledger (bench/ledger/history.jsonl), and
// diffs the newest run against a baseline with a tolerance gate.
//
// Direction is inferred from the metric key, so bench authors never
// annotate anything:
//   *_ms, *_us, *_ns, *_sec, *_bytes        lower is better (gated)
//   *speedup*, *hit_ratio*, *_met, *ok*     higher is better (gated)
//   anything else (counts, ids)             informational (never gated)
//
// Absolute times are machine-dependent, so callers choose the gate:
// ratios_only=true checks only the higher-is-better family (speedups
// and hit ratios — stable across machines), which is what the verify.sh
// hard gate uses; CI's advisory step runs the full check.
#pragma once

#include <map>
#include <string>
#include <vector>

namespace satnet::benchreport {

/// One normalized bench result: every numeric leaf of a BENCH json,
/// flattened with '.' between nesting levels. Booleans become 0/1.
struct BenchRun {
  std::string bench;  ///< from the file's "bench" key (else the filename)
  std::string run_id;
  std::map<std::string, double> metrics;
};

/// Which way a metric should move to count as an improvement.
enum class Direction { lower_better, higher_better, info };

Direction metric_direction(const std::string& key);

/// Parses one BENCH_*.json document. Returns false (and fills *error)
/// on malformed input; unknown value types are skipped, not fatal.
bool parse_bench_json(const std::string& text, const std::string& fallback_name,
                      BenchRun* out, std::string* error);

/// Reads a whole file; false + *error when unreadable.
bool read_file(const std::string& path, std::string* out, std::string* error);

/// One ledger line per run ({"type":"benchrun",...}, no trailing \n).
std::string ledger_line(const BenchRun& run);

/// Parses ledger JSONL; non-benchrun lines are ignored.
std::vector<BenchRun> parse_ledger(const std::string& text);

/// One metric compared against the baseline.
struct MetricDelta {
  std::string bench;
  std::string key;
  Direction direction = Direction::info;
  double baseline = 0;
  double current = 0;
  double ratio = 0;  ///< current / baseline (0 when baseline == 0)
  bool regression = false;
};

/// Gate verdict for a set of current runs against a baseline set.
struct CheckResult {
  std::vector<MetricDelta> deltas;     ///< every comparable metric
  std::vector<MetricDelta> regressions;  ///< the failing subset
  std::vector<std::string> missing_benches;  ///< in baseline, absent now

  bool ok() const { return regressions.empty(); }
};

/// Compares `current` against `baseline` bench-by-bench. A gated metric
/// regresses when it moves in the losing direction by more than
/// `tolerance` (fraction, e.g. 0.15 = 15%). With `ratios_only`, only
/// higher-is-better metrics are gated (machine-independent speedups and
/// hit ratios); lower-is-better absolute times become informational.
CheckResult check(const std::vector<BenchRun>& baseline,
                  const std::vector<BenchRun>& current, double tolerance,
                  bool ratios_only);

/// Parses a --tolerance value: a finite fraction >= 0, the whole string.
/// Returns false (leaving *out alone) for anything else.
bool parse_tolerance(const std::string& text, double* out);

/// Human-readable delta table (regressions flagged with "REGRESSED").
std::string render_table(const CheckResult& result, double tolerance);

}  // namespace satnet::benchreport
