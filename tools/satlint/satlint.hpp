// satlint: the repo's determinism & concurrency contract, as a linter.
//
// The whole value of this reproduction over the paper's real-hardware
// study is known ground truth, which only holds while every campaign is
// bit-deterministic at any thread count. PR 1/PR 2 defend that contract
// with runtime tests; satlint turns it into a static gate that fails the
// build the moment a nondeterminism source, an unordered-iteration
// export, a raw Rng in sharded code, a mutable static in worker code, or
// an unannotated parallel float accumulation lands in the tree.
//
// It is deliberately a pragmatic lexer/line-scanner, not a compiler
// plugin: comments and string literals are blanked, brace nesting is
// classified (namespace / type / function), per-file declarations are
// tracked well enough to know which identifiers are unordered containers
// or floating-point accumulators, and everything else is regular
// expressions over the sanitized code (the lexer layer lives in
// lex.{hpp,cpp}).
//
// Since v2 the per-file rules sit on top of a whole-program layer
// (graph.{hpp,cpp}): a project include graph plus a pragmatic
// per-function call graph, consumed by three cross-TU rules — module
// layering, nondeterminism taint, and worker reachability — and by the
// stale-allow meta-rule that keeps the suppression budget honest.
//
// False positives are handled with an inline escape hatch that
// *requires* a one-line justification:
//
//   // satlint:allow(<rule-id>): <why this use is safe>
//
// on the offending line or on its own line immediately above (a run of
// comment-only lines covers the first code line after it, so allows for
// different rules can stack). For the float-accum rule the
// domain-specific spelling
//
//   // satlint: deterministic-merge: <why the order is fixed>
//
// is accepted as an equivalent suppression.
#pragma once

#include <cstddef>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace satlint {

/// Rule identifiers, used in diagnostics, allow() annotations, and JSON.
///   D1 nondet-source : rand()/srand(), std::random_device, *_clock::now,
///                      time(nullptr)-style seeds, __DATE__/__TIME__.
///                      Clock reads are auto-allowed (recorded as
///                      suppressions) inside the telemetry boundary —
///                      src/obs and src/runtime own the monotonic clock
///                      (the flight recorder's wall_us field is the
///                      canonical pattern); everywhere else a raw
///                      *_clock::now needs an explicit allow.
///   D2 unordered-iter: iteration over std::unordered_{map,set} in report
///                      or export paths (io/, obs/, campaign results).
///   D3 raw-rng       : Rng constructed from a seed inside sharded code
///                      (runtime/, mlab/, ripe/, snoid/) instead of being
///                      derived with fork_stable.
///   D4 shared-state  : function-local static (non-const, non-atomic) in
///                      worker-executed code.
///   D5 float-accum   : += / -= on a double/float accumulator in a merge
///                      path without a deterministic-merge annotation.
///   D6 adhoc-inject  : ad-hoc fault toggles (`inject_*` identifiers) in
///                      src/ modules outside src/fault; every injection
///                      point must query fault::Hook so plans stay
///                      replayable and hits are counted.
///   D7 persist-nondet: persistence hazards in src/io — directory
///                      iteration feeding results (order is filesystem-
///                      dependent), branching on mmap availability
///                      (the heap fallback must be byte-identical), and
///                      binary writes in files that never mention a
///                      format-version constant (k...Version), so stale
///                      artifacts would be misparsed instead of rejected,
///                      and wall-clock reads (a timestamp written into an
///                      artifact breaks byte-identical replays — stamps
///                      must be caller-provided).
/// Cross-TU rules (tree scans only — they need the whole program):
///   D8 layering      : an include edge outside the declared module DAG
///                      (graph.cpp kAllowedDeps), or any include cycle.
///   D9 nondet-taint  : a call in a src/ report/export-path file reaches,
///                      through the call graph, a function in another
///                      file whose body reads a nondeterminism source —
///                      the laundered-clock case D1 cannot see. An
///                      allow(nondet-taint) on the source line sanctions
///                      the root (telemetry-only values); on the call
///                      site it sanctions one flow.
///   D10 worker-reach : mutable function-local statics and raw Rng
///                      construction in any function reachable from a
///                      worker entry (a lambda handed to
///                      ThreadPool::submit / ShardedCampaign /
///                      std::thread), wherever the code lives — the
///                      true-reachability upgrade of D4/D3's
///                      directory-based classification.
/// Plus the meta-rules:
///   bad-allow        : a satlint:allow() with no justification text.
///   stale-allow      : a satlint:allow() that suppresses nothing
///                      (tree scans only); dead justifications hide
///                      drift and inflate the suppression budget.
struct RuleInfo {
  std::string_view id;
  std::string_view summary;
};

/// All rules satlint knows, in diagnostic-id order.
const std::vector<RuleInfo>& rules();

struct Diagnostic {
  std::string file;     ///< path as scanned (virtual path in tests)
  int line = 0;         ///< 1-based
  std::string rule;     ///< rule id, e.g. "nondet-source"
  std::string message;  ///< human-readable explanation

  bool operator==(const Diagnostic&) const = default;
};

struct LintOptions {
  /// Path substrings exempt from every rule (reported as whitelisted,
  /// never scanned). Defaults cover the linter's own fixture corpus.
  std::vector<std::string> whitelist = {"tests/satlint_fixtures/"};

  /// Run the whole-program rules (D8/D9/D10 + stale-allow) in tree
  /// scans. Per-file scans (lint_source / lint_files) never run them.
  bool cross_tu = true;

  /// When non-empty, findings are only *reported* for these paths
  /// (relative, as scanned) — the graph is still built from the whole
  /// tree so cross-TU rules see the full program. This is the
  /// `--changed` pre-push mode.
  std::vector<std::string> focus;

  /// Path of the serialized graph cache ("" = no caching). The cache is
  /// keyed on a hash over every scanned (path, content) pair; any edit
  /// anywhere is a rebuild, so it can never serve stale analysis.
  std::string graph_cache;

  /// When non-empty, the module-level include graph is written here as
  /// DOT after a tree scan.
  std::string dot_path;
};

/// Result of scanning one file.
struct FileReport {
  std::string path;
  std::vector<Diagnostic> violations;  ///< failures (exit nonzero)
  std::vector<Diagnostic> suppressed;  ///< matched by a justified allow
};

/// Result of scanning a tree (or an explicit file list).
struct TreeReport {
  std::vector<FileReport> files;      ///< only files with findings
  std::size_t files_scanned = 0;      ///< files actually rule-checked
  std::size_t files_whitelisted = 0;  ///< files skipped via whitelist

  std::size_t violation_count() const;
  std::size_t suppressed_count() const;
  bool clean() const { return violation_count() == 0; }
};

/// Suppressions per rule id, every known rule present (0 when unused).
/// This is the quantity the committed baseline gates.
std::map<std::string, std::size_t> suppressions_by_rule(const TreeReport& report);

/// How a path is classified decides which rules apply to it. Exposed for
/// tests and for the --explain CLI mode.
struct FileClass {
  std::string module;     ///< "runtime", "io", "examples", "tests", ...
  bool report_path = false;  ///< D2 applies
  bool sharded = false;      ///< D3 applies
  bool worker = false;       ///< D4 applies
  bool merge_path = false;   ///< D5 applies
  bool injection_scope = false;  ///< D6 applies (src/ modules except fault)
  bool persist_scope = false;    ///< D7 applies (src/io persistence code)
  bool clock_boundary = false;   ///< D1 clock reads auto-allowed (obs/runtime)
};

FileClass classify(std::string_view path);

/// Lints one file's content under a (possibly virtual) path. The path
/// only drives classification; no filesystem access happens here.
/// Per-file rules only — cross-TU rules need lint_tree.
FileReport lint_source(std::string_view path, std::string_view content,
                       const LintOptions& options = {});

/// Lints every .cpp/.hpp/.h under root/<subdir> for each subdir, in
/// sorted path order (satlint's own output is deterministic). Missing
/// subdirs are skipped. Paths in the report are relative to `root`.
/// Runs the whole-program pass unless options.cross_tu is false.
TreeReport lint_tree(const std::string& root, const std::vector<std::string>& subdirs,
                     const LintOptions& options = {});

/// Lints an explicit list of files (paths reported as given).
/// Per-file rules only.
TreeReport lint_files(const std::vector<std::string>& paths,
                      const LintOptions& options = {});

/// JSON report (schema v2: adds a per-rule "suppression_count" object),
/// stable field order, one violation object per finding.
std::string to_json(const TreeReport& report);

/// Parses a report produced by to_json (round-trip for tooling that
/// consumes the JSON artifact). Returns nullopt on malformed input.
std::optional<TreeReport> from_json(std::string_view json);

// ---------------------------------------------------------------------------
// Suppression baseline: the committed per-rule suppression counts
// (tools/satlint/suppressions.baseline). CI regenerates the counts from
// the tree scan and fails on any drift, so adding an allow() — or
// leaving one stale — requires touching the baseline in the same PR.
// ---------------------------------------------------------------------------

/// Renders the report's per-rule suppression counts in baseline format.
std::string format_baseline(const TreeReport& report);

/// Parses a baseline file. Lines are "<rule> <count>"; '#' comments and
/// blank lines are ignored. Unknown rules or malformed lines fail.
std::optional<std::map<std::string, std::size_t>> parse_baseline(std::string_view text);

/// Compares the report against a baseline. Returns one human-readable
/// error per drifted rule (empty = gate passes). Both directions fail:
/// an increase means an unreviewed new allow(), a decrease means the
/// baseline must be ratcheted down.
std::vector<std::string> check_baseline(
    const TreeReport& report, const std::map<std::string, std::size_t>& baseline);

}  // namespace satlint
