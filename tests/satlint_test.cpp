// Unit tests for satlint, the determinism & concurrency linter.
//
// Each fixture file under tests/satlint_fixtures/ seeds known violations
// (or known-clean look-alikes); the tests lint them under *virtual*
// paths so every classification branch (io/, runtime/, mlab/, ...) is
// exercised without touching the real tree. The corpus itself is
// whitelisted from tree scans — which is also the whitelist test.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "graph.hpp"
#include "satlint.hpp"

namespace {

using satlint::Diagnostic;
using satlint::FileReport;
using satlint::LintOptions;
using satlint::TreeReport;

/// Set by the custom main() on --update-golden: golden-pinning tests
/// rewrite their expectation files instead of comparing.
bool g_update_golden = false;

std::string fixture(const std::string& name) {
  const std::string path = std::string(SATLINT_FIXTURE_DIR) + "/" + name;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing fixture " << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Multi-file fixture projects live under tests/satlint_fixtures/<name>/
/// with their own src/ trees, so lint_tree sees real-looking module
/// paths ("src/io/report.cpp") while the corpus stays whitelisted from
/// repo-wide scans.
std::string project_root(const std::string& name) {
  return std::string(SATLINT_FIXTURE_DIR) + "/" + name;
}

TreeReport lint_project(const std::string& name, const LintOptions& options = {}) {
  return satlint::lint_tree(project_root(name), {"src"}, options);
}

std::size_t tree_violations(const TreeReport& t, std::string_view rule) {
  std::size_t n = 0;
  for (const FileReport& f : t.files) {
    for (const Diagnostic& d : f.violations) n += d.rule == rule ? 1 : 0;
  }
  return n;
}

std::size_t tree_suppressed(const TreeReport& t, std::string_view rule) {
  std::size_t n = 0;
  for (const FileReport& f : t.files) {
    for (const Diagnostic& d : f.suppressed) n += d.rule == rule ? 1 : 0;
  }
  return n;
}

std::vector<const Diagnostic*> tree_diags(const TreeReport& t, std::string_view rule) {
  std::vector<const Diagnostic*> out;
  for (const FileReport& f : t.files) {
    for (const Diagnostic& d : f.violations) {
      if (d.rule == rule) out.push_back(&d);
    }
  }
  return out;
}

/// Builds a whole-program model from in-memory (path, source) pairs.
satlint::graph::Project make_project(
    const std::vector<std::pair<std::string, std::string>>& sources) {
  std::vector<satlint::lex::Sanitized> sanitized;
  sanitized.reserve(sources.size());
  for (const auto& [path, raw] : sources) {
    sanitized.push_back(satlint::lex::sanitize(raw));
  }
  std::vector<satlint::graph::FileInput> inputs;
  for (std::size_t i = 0; i < sources.size(); ++i) {
    inputs.push_back({sources[i].first, sources[i].second, &sanitized[i]});
  }
  return satlint::graph::build(std::move(inputs));
}

int fn_named(const satlint::graph::Project& p, std::string_view name) {
  for (std::size_t i = 0; i < p.fns.size(); ++i) {
    if (p.def(static_cast<int>(i)).name == name) return static_cast<int>(i);
  }
  return -1;
}

bool has_edge(const satlint::graph::Project& p, int from, int to) {
  if (from < 0 || to < 0) return false;
  const auto& es = p.edges[static_cast<std::size_t>(from)];
  return std::find(es.begin(), es.end(), to) != es.end();
}

std::vector<std::string> rules_hit(const FileReport& report) {
  std::vector<std::string> out;
  out.reserve(report.violations.size());
  for (const Diagnostic& d : report.violations) out.push_back(d.rule);
  return out;
}

std::size_t count_rule(const std::vector<Diagnostic>& diags, std::string_view rule) {
  return static_cast<std::size_t>(
      std::count_if(diags.begin(), diags.end(),
                    [&](const Diagnostic& d) { return d.rule == rule; }));
}

// ------------------------------------------------------------ rule D1

TEST(SatlintD1, FlagsEveryNondeterminismSource) {
  const FileReport r =
      satlint::lint_source("src/sim/d1_nondet.cpp", fixture("d1_nondet.cpp"));
  // srand + time-seed share a line; rand, random_device, clock read and
  // the build stamp fire once each.
  EXPECT_EQ(count_rule(r.violations, "nondet-source"), 6u);
  EXPECT_TRUE(r.suppressed.empty());
}

TEST(SatlintD1, AppliesToExamplesToo) {
  const FileReport r =
      satlint::lint_source("examples/d1_nondet.cpp", fixture("d1_nondet.cpp"));
  EXPECT_EQ(count_rule(r.violations, "nondet-source"), 6u);
}

TEST(SatlintD1, ClockReadsAutoAllowedInsideTelemetryBoundary) {
  // src/obs and src/runtime own the monotonic clock — the raw read in
  // the fixture is recorded as a suppression, not a violation; the
  // annotated epoch capture is suppressed via its explicit allow.
  for (const char* vpath :
       {"src/obs/recorder.cpp", "src/runtime/thread_pool.cpp"}) {
    const FileReport r =
        satlint::lint_source(vpath, fixture("d1_clock_boundary.cpp"));
    EXPECT_EQ(count_rule(r.violations, "nondet-source"), 0u) << vpath;
    EXPECT_EQ(count_rule(r.suppressed, "nondet-source"), 2u) << vpath;
  }
}

TEST(SatlintD1, RawClockReadsOutsideTheBoundaryStillFire) {
  const FileReport r = satlint::lint_source("src/mlab/d1_clock_boundary.cpp",
                                            fixture("d1_clock_boundary.cpp"));
  // The raw wall_now_us read fires; the annotated epoch capture (the
  // recorder timestamp pattern) stays a suppression.
  EXPECT_EQ(count_rule(r.violations, "nondet-source"), 1u);
  EXPECT_EQ(count_rule(r.suppressed, "nondet-source"), 1u);
}

// ------------------------------------------------------------ rule D2

TEST(SatlintD2, FlagsUnorderedIterationInReportPaths) {
  const FileReport r =
      satlint::lint_source("src/io/d2_unordered.cpp", fixture("d2_unordered.cpp"));
  ASSERT_EQ(count_rule(r.violations, "unordered-iter"), 2u);
  // Range-for over the map and the explicit iterator walk; the vector
  // loop in the same file stays clean.
  EXPECT_EQ(r.violations[0].rule, "unordered-iter");
  EXPECT_EQ(count_rule(r.violations, "float-accum"), 0u);
}

TEST(SatlintD2, SilentOutsideReportPaths) {
  const FileReport r =
      satlint::lint_source("src/geo/d2_unordered.cpp", fixture("d2_unordered.cpp"));
  EXPECT_EQ(count_rule(r.violations, "unordered-iter"), 0u);
}

// ------------------------------------------------------------ rule D3

TEST(SatlintD3, FlagsRawRngOnlyInShardedCode) {
  const FileReport sharded =
      satlint::lint_source("src/runtime/d3_raw_rng.cpp", fixture("d3_raw_rng.cpp"));
  // The seeded local and the seeded temporary; the fork_stable copy is
  // clean.
  EXPECT_EQ(count_rule(sharded.violations, "raw-rng"), 2u);

  const FileReport unsharded =
      satlint::lint_source("src/synth/d3_raw_rng.cpp", fixture("d3_raw_rng.cpp"));
  EXPECT_EQ(count_rule(unsharded.violations, "raw-rng"), 0u);
}

// ------------------------------------------------------------ rule D4

TEST(SatlintD4, FlagsMutableFunctionLocalStatics) {
  const FileReport r = satlint::lint_source("src/mlab/d4_shared_state.cpp",
                                            fixture("d4_shared_state.cpp"));
  // Only the mutable counter: const/constexpr/atomic locals, the
  // namespace-scope table, and the static member declaration are clean.
  ASSERT_EQ(count_rule(r.violations, "shared-state"), 1u);
  EXPECT_EQ(r.violations[0].line, 13);
}

TEST(SatlintD4, SilentOutsideWorkerCode) {
  const FileReport r = satlint::lint_source("src/synth/d4_shared_state.cpp",
                                            fixture("d4_shared_state.cpp"));
  EXPECT_EQ(count_rule(r.violations, "shared-state"), 0u);
}

// ------------------------------------------------------------ rule D5

TEST(SatlintD5, FlagsUnannotatedFloatMerges) {
  const FileReport r = satlint::lint_source("src/runtime/d5_float_accum.cpp",
                                            fixture("d5_float_accum.cpp"));
  // One unannotated accumulation; the annotated one is recorded as a
  // suppression, the for-header step and the integer merge are clean.
  EXPECT_EQ(count_rule(r.violations, "float-accum"), 1u);
  EXPECT_EQ(count_rule(r.suppressed, "float-accum"), 1u);
}

// ------------------------------------------------------------ rule D6

TEST(SatlintD6, FlagsAdhocInjectTogglesInSrcModules) {
  const FileReport r = satlint::lint_source("src/transport/d6_adhoc_inject.cpp",
                                            fixture("d6_adhoc_inject.cpp"));
  // The member declaration and the branch both fire; the string literal
  // and the CamelCase exception type are clean, and the annotated legacy
  // shim is recorded as a suppression.
  EXPECT_EQ(count_rule(r.violations, "adhoc-inject"), 2u);
  EXPECT_EQ(count_rule(r.suppressed, "adhoc-inject"), 1u);
  ASSERT_FALSE(r.violations.empty());
  EXPECT_NE(r.violations[0].message.find("fault::Hook"), std::string::npos);
}

TEST(SatlintD6, SilentInFaultModuleAndOutsideSrc) {
  // fault/ implements the hook — inject_* names are its vocabulary.
  const FileReport in_fault = satlint::lint_source("src/fault/d6_adhoc_inject.cpp",
                                                   fixture("d6_adhoc_inject.cpp"));
  EXPECT_EQ(count_rule(in_fault.violations, "adhoc-inject"), 0u);
  // examples/tests may name their knobs freely.
  const FileReport in_examples = satlint::lint_source("examples/d6_adhoc_inject.cpp",
                                                      fixture("d6_adhoc_inject.cpp"));
  EXPECT_EQ(count_rule(in_examples.violations, "adhoc-inject"), 0u);
}

// ------------------------------------------------------------ rule D7

TEST(SatlintD7, FlagsPersistenceHazardsInSrcIo) {
  const FileReport r = satlint::lint_source("src/io/d7_persist_nondet.cpp",
                                            fixture("d7_persist_nondet.cpp"));
  // Directory iteration, the unannotated mmap branch, and both unstamped
  // binary writes fire; the text-mode write and the binary *read* are
  // clean, and the annotated mmap is recorded as a suppression.
  EXPECT_EQ(count_rule(r.violations, "persist-nondet"), 4u);
  EXPECT_EQ(count_rule(r.suppressed, "persist-nondet"), 1u);
  ASSERT_FALSE(r.violations.empty());
  EXPECT_NE(r.violations[0].message.find("filesystem-dependent"), std::string::npos);
}

TEST(SatlintD7, VersionStampExemptsBinaryWrites) {
  // Any k...Version mention stamps the file's format; the writes become
  // legitimate, while iteration order and the mmap branch still fire.
  const std::string stamped =
      "inline constexpr unsigned char kFixtureFormatVersion = 1;\n" +
      fixture("d7_persist_nondet.cpp");
  const FileReport r = satlint::lint_source("src/io/d7_persist_nondet.cpp", stamped);
  EXPECT_EQ(count_rule(r.violations, "persist-nondet"), 2u);
}

TEST(SatlintD7, SilentOutsideThePersistenceLayer) {
  for (const char* vpath :
       {"src/mlab/d7_persist_nondet.cpp", "tests/d7_persist_nondet.cpp"}) {
    const FileReport r =
        satlint::lint_source(vpath, fixture("d7_persist_nondet.cpp"));
    EXPECT_EQ(count_rule(r.violations, "persist-nondet"), 0u) << vpath;
  }
}

TEST(SatlintD7, ClockReadsArePersistenceHazardsInSrcIo) {
  // Both clock reads fire persist-nondet under src/io (a nondet-source
  // allow does not cover the persistence hazard); outside src/io the
  // rule stays silent.
  const FileReport io = satlint::lint_source("src/io/d1_clock_boundary.cpp",
                                             fixture("d1_clock_boundary.cpp"));
  EXPECT_EQ(count_rule(io.violations, "persist-nondet"), 2u);
  const FileReport mlab = satlint::lint_source(
      "src/mlab/d1_clock_boundary.cpp", fixture("d1_clock_boundary.cpp"));
  EXPECT_EQ(count_rule(mlab.violations, "persist-nondet"), 0u);
}

// ------------------------------------------- allow annotations & meta

TEST(SatlintAllow, JustifiedAllowsSuppressAndAreReported) {
  const FileReport r =
      satlint::lint_source("src/sim/allowed.cpp", fixture("allowed.cpp"));
  // Two justified allows (own-line and trailing) suppress their
  // findings; the justification text rides along in the message.
  EXPECT_EQ(count_rule(r.suppressed, "nondet-source"), 2u);
  ASSERT_FALSE(r.suppressed.empty());
  EXPECT_NE(r.suppressed[0].message.find("allowed:"), std::string::npos);
}

TEST(SatlintAllow, UnjustifiedAllowIsAViolationAndDoesNotSuppress) {
  const FileReport r =
      satlint::lint_source("src/sim/allowed.cpp", fixture("allowed.cpp"));
  EXPECT_EQ(count_rule(r.violations, "bad-allow"), 1u);
  // The rand() under the empty allow still fires.
  EXPECT_EQ(count_rule(r.violations, "nondet-source"), 1u);
}

TEST(SatlintClean, CommentsAndStringsNeverTrigger) {
  for (const char* vpath :
       {"src/io/clean.cpp", "src/runtime/clean.cpp", "src/mlab/clean.cpp"}) {
    const FileReport r = satlint::lint_source(vpath, fixture("clean.cpp"));
    EXPECT_TRUE(r.violations.empty()) << vpath << ": " << rules_hit(r).size();
    EXPECT_TRUE(r.suppressed.empty()) << vpath;
  }
}

// ------------------------------------------------------ classification

TEST(SatlintClassify, ModulesDriveRuleApplicability) {
  const satlint::FileClass io = satlint::classify("src/io/report.cpp");
  EXPECT_TRUE(io.report_path);
  EXPECT_FALSE(io.sharded);
  EXPECT_TRUE(io.persist_scope);
  EXPECT_FALSE(satlint::classify("src/mlab/campaign.cpp").persist_scope);

  const satlint::FileClass runtime = satlint::classify("src/runtime/sharded.hpp");
  EXPECT_TRUE(runtime.sharded);
  EXPECT_TRUE(runtime.worker);
  EXPECT_TRUE(runtime.merge_path);

  const satlint::FileClass campaign = satlint::classify("src/mlab/campaign.cpp");
  EXPECT_TRUE(campaign.report_path);  // campaign result path by filename
  EXPECT_TRUE(campaign.sharded);

  const satlint::FileClass geo = satlint::classify("src/geo/geodesy.cpp");
  EXPECT_FALSE(geo.report_path);
  EXPECT_FALSE(geo.sharded);
  EXPECT_FALSE(geo.worker);
  EXPECT_TRUE(geo.injection_scope);

  const satlint::FileClass fault = satlint::classify("src/fault/hook.cpp");
  EXPECT_EQ(fault.module, "fault");
  EXPECT_FALSE(fault.injection_scope);

  const satlint::FileClass example = satlint::classify("examples/satnetctl.cpp");
  EXPECT_FALSE(example.injection_scope);

  EXPECT_TRUE(satlint::classify("src/obs/recorder.cpp").clock_boundary);
  EXPECT_TRUE(runtime.clock_boundary);
  EXPECT_FALSE(io.clock_boundary);
  EXPECT_FALSE(campaign.clock_boundary);
}

// ----------------------------------------------------- whitelisted file

TEST(SatlintWhitelist, FixtureCorpusIsExemptByDefault) {
  const FileReport r = satlint::lint_source("tests/satlint_fixtures/d1_nondet.cpp",
                                            fixture("d1_nondet.cpp"));
  EXPECT_TRUE(r.violations.empty());
  EXPECT_TRUE(r.suppressed.empty());
}

TEST(SatlintWhitelist, CustomWhitelistSkipsMatchingPaths) {
  LintOptions options;
  options.whitelist = {"vendored/"};
  const FileReport skipped = satlint::lint_source(
      "src/vendored/d1_nondet.cpp", fixture("d1_nondet.cpp"), options);
  EXPECT_TRUE(skipped.violations.empty());
  const FileReport scanned =
      satlint::lint_source("src/sim/d1_nondet.cpp", fixture("d1_nondet.cpp"), options);
  EXPECT_FALSE(scanned.violations.empty());
}

// -------------------------------------------------- JSON report round-trip

TEST(SatlintJson, ReportRoundTripsThroughJson) {
  TreeReport tree;
  tree.files_scanned = 3;
  tree.files_whitelisted = 1;
  FileReport bad = satlint::lint_source("src/sim/d1_nondet.cpp", fixture("d1_nondet.cpp"));
  FileReport mixed =
      satlint::lint_source("src/runtime/d5_float_accum.cpp", fixture("d5_float_accum.cpp"));
  tree.files.push_back(bad);
  tree.files.push_back(mixed);

  const std::string json = satlint::to_json(tree);
  const auto parsed = satlint::from_json(json);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->files_scanned, tree.files_scanned);
  EXPECT_EQ(parsed->files_whitelisted, tree.files_whitelisted);
  EXPECT_EQ(parsed->violation_count(), tree.violation_count());
  EXPECT_EQ(parsed->suppressed_count(), tree.suppressed_count());
  ASSERT_EQ(parsed->files.size(), tree.files.size());
  for (std::size_t i = 0; i < tree.files.size(); ++i) {
    EXPECT_EQ(parsed->files[i].path, tree.files[i].path);
    EXPECT_EQ(parsed->files[i].violations, tree.files[i].violations);
    EXPECT_EQ(parsed->files[i].suppressed, tree.files[i].suppressed);
  }
}

TEST(SatlintJson, MalformedInputIsRejected) {
  EXPECT_FALSE(satlint::from_json("").has_value());
  EXPECT_FALSE(satlint::from_json("{\"violations\": [{]}").has_value());
  EXPECT_FALSE(satlint::from_json("[1,2,3]").has_value());
}

// --------------------------------------------------------- tree scans

TEST(SatlintTree, LintTreeIsDeterministicAndWhitelistsFixtures) {
  // Scan the fixture corpus as a subtree of the repo root: every file
  // under tests/satlint_fixtures/ is whitelisted by default, so the scan
  // is clean but counts the skipped files.
  const std::string repo_root = std::string(SATLINT_FIXTURE_DIR) + "/../..";
  const std::vector<std::string> subdir = {"tests/satlint_fixtures"};
  const TreeReport tree = satlint::lint_tree(repo_root, subdir);
  EXPECT_EQ(tree.violation_count(), 0u);
  EXPECT_GE(tree.files_whitelisted, 6u);
  EXPECT_EQ(tree.files_scanned, 0u);

  // With the whitelist cleared the same corpus yields findings — and two
  // scans agree exactly (satlint's own output is deterministic).
  LintOptions open;
  open.whitelist.clear();
  const TreeReport a = satlint::lint_tree(repo_root, subdir, open);
  const TreeReport b = satlint::lint_tree(repo_root, subdir, open);
  EXPECT_GT(a.violation_count(), 0u);
  EXPECT_EQ(satlint::to_json(a), satlint::to_json(b));
}

TEST(SatlintRules, EveryRuleIsDocumented) {
  const auto& rules = satlint::rules();
  ASSERT_EQ(rules.size(), 12u);
  for (const satlint::RuleInfo& r : rules) {
    EXPECT_FALSE(r.id.empty());
    EXPECT_FALSE(r.summary.empty());
  }
}

// ------------------------------------------------------ raw string literals

TEST(SatlintSanitizer, RawStringsNeitherMaskNorFabricate) {
  const FileReport r =
      satlint::lint_source("src/sim/raw_string.cpp", fixture("raw_string.cpp"));
  // Every violation-shaped token in the fixture lives inside a raw
  // string (plain, u8R/uR/UR/LR-prefixed, or )"-containing delimited);
  // only the rand() in genuinely_bad() is real.
  ASSERT_EQ(r.violations.size(), 1u);
  EXPECT_EQ(r.violations[0].rule, "nondet-source");
  EXPECT_EQ(r.violations[0].line, 34);
  EXPECT_TRUE(r.suppressed.empty());
}

// ------------------------------------------------------------ rule D8

TEST(SatlintD8, LayeringMatrixViolationsAndCyclesFire) {
  const TreeReport t = lint_project("proj_layering");
  const auto hits = tree_diags(t, "layering");
  ASSERT_EQ(hits.size(), 2u);
  // One matrix inversion (stats may not reach up to geo), one include
  // cycle anchored at its lexicographically smallest member. The
  // io -> stats edge in the same project is inside the matrix.
  bool saw_matrix = false;
  bool saw_cycle = false;
  for (const Diagnostic* d : hits) {
    EXPECT_EQ(d->file.find("src/io/"), std::string::npos);
    if (d->message.find("'src:stats' -> 'src:geo'") != std::string::npos) {
      EXPECT_EQ(d->file, "src/stats/acc.hpp");
      saw_matrix = true;
    }
    if (d->message.find("include cycle") != std::string::npos) {
      EXPECT_EQ(d->file, "src/net/a.hpp");
      saw_cycle = true;
    }
  }
  EXPECT_TRUE(saw_matrix);
  EXPECT_TRUE(saw_cycle);
  // weather's justified allow(layering) is a suppression, not a pass.
  EXPECT_EQ(tree_suppressed(t, "layering"), 1u);
}

TEST(SatlintD8, CrossTuRulesCanBeDisabled) {
  LintOptions options;
  options.cross_tu = false;
  const TreeReport t = lint_project("proj_layering", options);
  EXPECT_EQ(tree_violations(t, "layering"), 0u);
}

// ------------------------------------------------------------ rule D9

TEST(SatlintD9, TaintFlowsAcrossFilesIntoReportPaths) {
  const TreeReport t = lint_project("proj_taint");
  const auto hits = tree_diags(t, "nondet-taint");
  // Only io's call into the unsanctioned clock root fires: the same
  // call from src/fault (not a report path) stays clean, and the
  // sanctioned stamp_ms root suppresses its whole downstream flow.
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0]->file, "src/io/report.cpp");
  EXPECT_EQ(hits[0]->line, 8);
  EXPECT_NE(hits[0]->message.find("wall_ms"), std::string::npos);
  EXPECT_NE(hits[0]->message.find("src/obs/clock.cpp"), std::string::npos);
  EXPECT_EQ(tree_suppressed(t, "nondet-taint"), 1u);
}

TEST(SatlintD9, ClockBoundaryGivesNoTaintExemption) {
  // The per-file D1 auto-allow inside src/obs is exactly the claim D9
  // audits: the roots live in obs and are quiet there, yet still taint
  // report-path callers in other files (the test above) — meanwhile the
  // obs file itself only records D1 suppressions, no violations.
  const TreeReport t = lint_project("proj_taint");
  for (const FileReport& f : t.files) {
    if (f.path == "src/obs/clock.cpp") {
      EXPECT_TRUE(f.violations.empty());
    }
  }
  EXPECT_GE(tree_suppressed(t, "nondet-source"), 2u);
}

// ------------------------------------------------------------ rule D10

TEST(SatlintD10, WorkerReachabilityCrossesModuleBoundaries) {
  const TreeReport t = lint_project("proj_worker");
  const auto hits = tree_diags(t, "worker-reach");
  // src/synth is not a worker-classified directory, so per-file D4/D3
  // are silent there — only reachability from the submit() lambda ties
  // the rules to the helpers. The static and the raw Rng fire; the
  // allow-carrying helper is a suppression; the helper only called on
  // the coordinator thread stays clean.
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(hits[0]->file, "src/synth/helper.cpp");
  EXPECT_EQ(hits[0]->line, 8);
  EXPECT_NE(hits[0]->message.find("static"), std::string::npos);
  EXPECT_EQ(hits[1]->file, "src/synth/helper.cpp");
  EXPECT_EQ(hits[1]->line, 13);
  EXPECT_NE(hits[1]->message.find("fork_stable"), std::string::npos);
  EXPECT_EQ(tree_suppressed(t, "worker-reach"), 1u);
  for (const Diagnostic* d : hits) EXPECT_NE(d->line, 24);
}

// ----------------------------------------------------- stale-allow meta-rule

TEST(SatlintStaleAllow, DeadAllowsFireInTreeScansOnly) {
  const TreeReport t = lint_project("proj_taint");
  const auto hits = tree_diags(t, "stale-allow");
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0]->file, "src/synth/tuning.cpp");
  EXPECT_NE(hits[0]->message.find("unordered-iter"), std::string::npos);

  // The same file through a per-file scan: no stale-allow — a single
  // file cannot know whether a cross-TU rule would have paid for it.
  const FileReport r = satlint::lint_source(
      "src/synth/tuning.cpp", fixture("proj_taint/src/synth/tuning.cpp"));
  EXPECT_EQ(count_rule(r.violations, "stale-allow"), 0u);
}

TEST(SatlintStaleAllow, PayingAllowsAreNotFlagged) {
  // proj_layering's weather allow and proj_worker's helper_cached allow
  // both suppress live findings — neither may be called stale.
  EXPECT_EQ(tree_violations(lint_project("proj_layering"), "stale-allow"), 0u);
  EXPECT_EQ(tree_violations(lint_project("proj_worker"), "stale-allow"), 0u);
}

// ------------------------------------------------------ focus (--changed)

TEST(SatlintTree, FocusReportsOnlyFocusedFilesButKeepsWholeGraph) {
  LintOptions options;
  options.focus = {"src/io/report.cpp"};
  const TreeReport t = lint_project("proj_taint", options);
  // The cross-TU finding in the focused file still fires — the graph
  // covers the whole tree even though only one file is reported on.
  EXPECT_EQ(tree_violations(t, "nondet-taint"), 1u);
  // The stale allow lives in an unfocused file: not reported.
  EXPECT_EQ(tree_violations(t, "stale-allow"), 0u);
  for (const FileReport& f : t.files) EXPECT_EQ(f.path, "src/io/report.cpp");
}

// ------------------------------------------------------ call-graph extractor

TEST(SatlintGraph, ExtractorHandlesGnarlyShapes) {
  const std::string gnarly = R"cpp(
namespace satnet::synth {

void leaf_target();
int taken(int);

void coordinator(Pool& pool, Widget& w) {
  for (int i = 0; i < 3; ++i) {
    pool.submit([&] {
      leaf_target();
    });
  }
  auto bound = [&](int x) {
    return taken(x);
  };
  bound(2);
  w.method();
  double local_decl();
  std::vector<int> v;
  v.push_back(1);
}

int taken(int x) { return x + 1; }

}  // namespace satnet::synth

void satnet::synth::leaf_target() {
  static int hits = 0;
  ++hits;
}
)cpp";
  const satlint::graph::Project p =
      make_project({{"src/synth/gnarly.cpp", gnarly}});

  // Definitions: coordinator, its worker-entry lambda, the named bound
  // lambda, taken, and the out-of-class-qualified leaf_target.
  const int coordinator = fn_named(p, "coordinator");
  const int bound = fn_named(p, "bound");
  const int leaf = fn_named(p, "leaf_target");
  const int taken = fn_named(p, "taken");
  ASSERT_GE(coordinator, 0);
  ASSERT_GE(bound, 0);
  ASSERT_GE(leaf, 0);
  ASSERT_GE(taken, 0);
  EXPECT_TRUE(p.def(bound).is_lambda);
  EXPECT_EQ(p.def(bound).parent, p.fns[static_cast<std::size_t>(coordinator)].def);
  EXPECT_EQ(p.def(leaf).qualified, "satnet::synth::leaf_target");

  int worker_lambda = -1;
  for (std::size_t i = 0; i < p.fns.size(); ++i) {
    if (p.def(static_cast<int>(i)).worker_entry) worker_lambda = static_cast<int>(i);
  }
  ASSERT_GE(worker_lambda, 0) << "submit() lambda not recognized as worker entry";
  EXPECT_TRUE(p.def(worker_lambda).is_lambda);

  // The for-header's semicolons must not break brace classification:
  // the lambda body's call links from the lambda, not a phantom fn.
  EXPECT_TRUE(has_edge(p, worker_lambda, leaf));
  EXPECT_TRUE(has_edge(p, coordinator, bound));
  EXPECT_TRUE(has_edge(p, bound, taken));

  // Declarations are not calls; stoplisted STL names never link.
  const auto& calls = p.files[0].symbols.calls;
  std::size_t leaf_calls = 0;
  for (const satlint::lex::CallSite& c : calls) {
    EXPECT_NE(c.name, "local_decl");
    leaf_calls += c.name == "leaf_target" ? 1 : 0;
  }
  EXPECT_EQ(leaf_calls, 1u);
  for (const satlint::graph::Project::ResolvedCall& rc : p.calls) {
    EXPECT_NE(p.def(rc.callee).name, "push_back");
  }

  // Worker reachability: lambda -> leaf_target, but never the
  // coordinator-only bound/taken chain.
  const std::vector<int> reach = satlint::graph::worker_reachable(p);
  EXPECT_NE(std::find(reach.begin(), reach.end(), leaf), reach.end());
  EXPECT_EQ(std::find(reach.begin(), reach.end(), taken), reach.end());
}

TEST(SatlintGraph, QualifiedCallsFilterByQualifierTail) {
  const satlint::graph::Project p = make_project({
      {"src/obs/a.cpp",
       "namespace satnet::obs {\nvoid probe();\nvoid probe() { }\n}\n"},
      {"src/synth/b.cpp",
       "namespace satnet::synth {\nvoid probe() { }\n}\n"},
      {"src/mlab/c.cpp",
       "namespace satnet::mlab {\nvoid drive() {\n  obs::probe();\n}\n}\n"},
  });
  const int drive = fn_named(p, "drive");
  ASSERT_GE(drive, 0);
  // Two defs named probe; the obs:: qualifier must select only the one
  // whose qualified name ends in obs::probe.
  const auto& es = p.edges[static_cast<std::size_t>(drive)];
  ASSERT_EQ(es.size(), 1u);
  EXPECT_EQ(p.def(es[0]).qualified, "satnet::obs::probe");
}

TEST(SatlintGraph, DotExportMarksOffMatrixEdges) {
  const satlint::graph::Project inside = make_project({
      {"src/io/report.cpp", "#include \"stats/acc.hpp\"\n"},
      {"src/stats/acc.hpp", "namespace satnet::stats { }\n"},
  });
  const std::string dot = satlint::graph::to_dot(inside);
  EXPECT_NE(dot.find("digraph satnet_layering"), std::string::npos);
  EXPECT_NE(dot.find("src_io -> src_stats;"), std::string::npos);
  EXPECT_EQ(dot.find("style=dashed"), std::string::npos);

  const satlint::graph::Project outside = make_project({
      {"src/stats/acc.hpp", "#include \"geo/geom.hpp\"\n"},
      {"src/geo/geom.hpp", "namespace satnet::geo { }\n"},
  });
  const std::string dashed = satlint::graph::to_dot(outside);
  EXPECT_NE(dashed.find("src_stats -> src_geo"), std::string::npos);
  EXPECT_NE(dashed.find("style=dashed"), std::string::npos);
}

// ---------------------------------------------------------- graph cache

TEST(SatlintGraphCache, SerializeRoundTripsAndRejectsMismatch) {
  const std::vector<std::pair<std::string, std::string>> sources = {
      {"src/obs/clock.cpp", fixture("proj_taint/src/obs/clock.cpp")},
      {"src/io/report.cpp", fixture("proj_taint/src/io/report.cpp")},
  };
  const satlint::graph::Project p = make_project(sources);
  std::vector<std::pair<std::string, std::string_view>> pairs;
  for (const auto& [path, raw] : sources) pairs.emplace_back(path, raw);
  const std::uint64_t hash = satlint::graph::content_hash(pairs);

  const std::string blob = satlint::graph::serialize(p, hash);
  const auto back = satlint::graph::deserialize(blob, hash);
  ASSERT_TRUE(back.has_value());
  // Re-serializing the deserialized model reproduces the blob exactly,
  // and the analyses agree — the cache can never change an answer.
  EXPECT_EQ(satlint::graph::serialize(*back, hash), blob);
  EXPECT_EQ(satlint::graph::to_dot(*back), satlint::graph::to_dot(p));

  EXPECT_FALSE(satlint::graph::deserialize(blob, hash ^ 1).has_value());
  EXPECT_FALSE(satlint::graph::deserialize("satlint-graph-cache 999\n", hash)
                   .has_value());
  EXPECT_FALSE(satlint::graph::deserialize("", hash).has_value());
}

TEST(SatlintGraphCache, TreeScanWritesAndReusesCache) {
  const std::string cache = ::testing::TempDir() + "satlint_graph_test.cache";
  std::remove(cache.c_str());
  LintOptions options;
  options.graph_cache = cache;
  const TreeReport first = lint_project("proj_taint", options);
  std::ifstream probe(cache, std::ios::binary);
  EXPECT_TRUE(probe.good()) << "tree scan did not write the graph cache";
  const TreeReport second = lint_project("proj_taint", options);
  EXPECT_EQ(satlint::to_json(first), satlint::to_json(second));
  std::remove(cache.c_str());
}

// ------------------------------------------------------ extraction golden

TEST(SatlintGolden, ThreadPoolExtractionIsPinned) {
  const std::string repo = std::string(SATLINT_FIXTURE_DIR) + "/../..";
  const std::string rel = "src/runtime/thread_pool.cpp";
  std::ifstream in(repo + "/" + rel, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing " << rel;
  std::ostringstream ss;
  ss << in.rdbuf();
  const std::string raw = ss.str();
  const satlint::lex::Sanitized s = satlint::lex::sanitize(raw);
  const satlint::graph::Project p = satlint::graph::build({{rel, raw, &s}});
  const std::string json = satlint::graph::extraction_json(p, rel);

  const std::string golden_path = repo + "/tests/golden/callgraph_thread_pool.json";
  if (g_update_golden) {
    std::ofstream out(golden_path, std::ios::binary);
    out << json;
    GTEST_SKIP() << "golden rewritten: " << golden_path;
  }
  std::ifstream gin(golden_path, std::ios::binary);
  ASSERT_TRUE(gin.good()) << "missing golden — regenerate with "
                             "satlint_test --update-golden";
  std::ostringstream gss;
  gss << gin.rdbuf();
  EXPECT_EQ(json, gss.str())
      << "call-graph extraction drifted for " << rel
      << "; if intended, rerun with satlint_test --update-golden";
}

// ------------------------------------------------------ JSON schema v2

TEST(SatlintJson, SchemaV2CarriesSuppressionCounts) {
  const TreeReport t = lint_project("proj_taint");
  const std::string json = satlint::to_json(t);
  EXPECT_NE(json.find("\"satlint_version\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"suppression_count\""), std::string::npos);
  const auto parsed = satlint::from_json(json);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(satlint::suppressions_by_rule(*parsed), satlint::suppressions_by_rule(t));
}

// ------------------------------------------------------ suppression baseline

TEST(SatlintBaseline, FormatParsesBackToTheSameCounts) {
  const TreeReport t = lint_project("proj_taint");
  const std::string text = satlint::format_baseline(t);
  const auto parsed = satlint::parse_baseline(text);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, satlint::suppressions_by_rule(t));
  EXPECT_TRUE(satlint::check_baseline(t, *parsed).empty());
}

TEST(SatlintBaseline, DriftFailsInBothDirections) {
  const TreeReport t = lint_project("proj_taint");
  auto up = satlint::suppressions_by_rule(t);
  up["nondet-taint"] += 1;
  const auto over = satlint::check_baseline(t, up);
  ASSERT_EQ(over.size(), 1u);  // fewer suppressions than baselined: ratchet down
  EXPECT_NE(over[0].find("nondet-taint"), std::string::npos);

  auto down = satlint::suppressions_by_rule(t);
  down["nondet-source"] -= 1;
  const auto under = satlint::check_baseline(t, down);
  ASSERT_EQ(under.size(), 1u);  // more suppressions than baselined: new allow
  EXPECT_NE(under[0].find("nondet-source"), std::string::npos);
}

TEST(SatlintBaseline, RejectsUnknownRulesAndGarbage) {
  EXPECT_FALSE(satlint::parse_baseline("made-up-rule 3\n").has_value());
  EXPECT_FALSE(satlint::parse_baseline("nondet-source many\n").has_value());
  const auto ok = satlint::parse_baseline("# comment\n\nnondet-source 2\n");
  ASSERT_TRUE(ok.has_value());
  EXPECT_EQ(ok->at("nondet-source"), 2u);
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--update-golden") {
      g_update_golden = true;
      continue;
    }
    args.push_back(argv[i]);
  }
  int n = static_cast<int>(args.size());
  ::testing::InitGoogleTest(&n, args.data());
  return RUN_ALL_TESTS();
}
