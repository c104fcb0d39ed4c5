// satlint's whole-program layer: the project include graph and a
// pragmatic per-function call graph, consumed by the cross-TU rules.
//
//   * D8 layering    — the module DAG is declared here (kAllowedDeps);
//                      an include edge outside the matrix, or any
//                      include cycle, is a violation. `to_dot` exports
//                      the module graph for docs/.
//   * D9 nondet-taint— functions whose bodies read a nondeterminism
//                      source (clock, random_device, rand, time seeds,
//                      mmap branches) taint their callers transitively;
//                      a report/export-path function calling a tainted
//                      function defined in another file is the
//                      laundered-clock case the per-file rules miss.
//   * D10 worker-reach— true reachability from ThreadPool::submit /
//                      ShardedCampaign shard bodies, so worker-only
//                      rules apply wherever worker-reachable code
//                      actually lives, not just in worker-classified
//                      directories.
//
// Same philosophy as the per-file rules: lexer-level, over-approximate,
// deterministic. Calls link by simple name (filtered by an explicit
// qualifier when one is written and by a stoplist of ubiquitous STL
// names); that over-approximation is what a linter wants — a missed
// edge hides a bug, a spurious edge costs one justified allow.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "lex.hpp"

namespace satlint::graph {

/// One file handed to the graph builder. `raw` is the original text
/// (include paths live inside string literals, which the sanitizer
/// blanks); `code` is the sanitized view the symbol extractor consumes.
struct FileInput {
  std::string path;              ///< virtual path, '/'-separated
  std::string_view raw;
  const lex::Sanitized* code = nullptr;
};

/// A nondeterminism source occurrence feeding the taint pass.
struct SourceMark {
  int line = 0;          ///< 1-based
  std::string what;      ///< "steady_clock::now", "mmap", ...
  bool allowed = false;  ///< satlint:allow(nondet-taint) sanctioned the root
  std::string justification;
};

struct FileNode {
  std::string path;
  std::string module;  ///< "src:orbit", "tools:satlint", "tests", "" (other)
  std::vector<int> include_targets;  ///< resolved file indexes
  std::vector<int> include_lines;    ///< parallel, 1-based
  lex::FileSymbols symbols;
  std::vector<SourceMark> sources;
};

/// Whole-program model. Function ids index `fns`; edges are resolved
/// call links (caller fn id -> callee fn ids). Call sites with
/// caller == -1 (file scope) get edges under `scope_calls` per file.
struct Project {
  struct Fn {
    int file = 0;
    int def = 0;
  };
  /// One call site whose callee resolved to a project function —
  /// kept with its source position so rule findings can anchor there.
  struct ResolvedCall {
    int file = 0;
    int line = 0;     ///< 1-based
    int caller = -1;  ///< fn id, -1 = file scope
    int callee = 0;   ///< fn id
  };

  std::vector<FileNode> files;           ///< sorted by path
  std::vector<Fn> fns;
  std::vector<std::vector<int>> edges;       ///< fn id -> callee fn ids
  std::vector<std::vector<int>> redges;      ///< fn id -> caller fn ids
  std::vector<ResolvedCall> calls;           ///< sorted (file, line, callee)

  const lex::FunctionDef& def(int fn) const {
    return files[static_cast<std::size_t>(fns[static_cast<std::size_t>(fn)].file)]
        .symbols.defs[static_cast<std::size_t>(fns[static_cast<std::size_t>(fn)].def)];
  }
  int file_of(int fn) const { return fns[static_cast<std::size_t>(fn)].file; }
  int find_file(std::string_view path) const;
};

/// Builds the project model: include resolution, symbol extraction,
/// source marks, call linking. Input order does not matter; files are
/// sorted by path internally so every downstream analysis (and the
/// serialized cache) is deterministic.
Project build(std::vector<FileInput> inputs);

/// The declared module DAG: maps a module id ("src:orbit") to the
/// modules it may include, not counting itself. Exposed for tests and
/// for the --explain documentation path.
const std::map<std::string, std::vector<std::string>>& allowed_deps();

/// One D8 finding: an include edge outside the matrix or an include
/// cycle, anchored to an include line.
struct LayerFinding {
  int file = 0;
  int line = 0;
  std::string message;
};
std::vector<LayerFinding> check_layering(const Project& project);

/// One D9 finding: a call site in a report/export-path file whose
/// callee (in another file) transitively reaches a nondeterminism
/// source. `root_suppressions` reports taint roots that were sanctioned
/// with satlint:allow(nondet-taint) — the caller records them as used
/// suppressions.
struct TaintFinding {
  int file = 0;
  int line = 0;
  std::string message;
};
struct TaintResult {
  std::vector<TaintFinding> findings;
  std::vector<TaintFinding> root_suppressions;
};
/// `report_path[i]` flags files whose functions are export/report
/// surface (the per-file D2 classification, shared by satlint.cpp).
TaintResult check_taint(const Project& project, const std::vector<bool>& report_path);

/// Fn ids reachable from worker entry points (lambdas handed to
/// ThreadPool::submit / ShardedCampaign / std::thread), including the
/// entry lambdas themselves. Sorted ascending.
std::vector<int> worker_reachable(const Project& project);

/// Module-level DOT export of the include graph for docs/DESIGN.md.
std::string to_dot(const Project& project);

/// Extraction dump for one file (functions + call sites) as stable
/// JSON — pinned as a golden for the call-graph extractor.
std::string extraction_json(const Project& project, std::string_view path);

// ---------------------------------------------------------------------------
// Graph cache: rebuilding the whole-program model is pure lexing, but
// CI runs it on every lint job — a content-keyed cache keeps the lint
// wall time flat as the tree grows. The key is a hash over every
// (path, content) pair; any edit anywhere invalidates it.
// ---------------------------------------------------------------------------

std::uint64_t content_hash(const std::vector<std::pair<std::string, std::string_view>>&
                               path_and_raw);

std::string serialize(const Project& project, std::uint64_t hash);

/// Returns the cached project only if `expect_hash` matches the stored
/// key and the payload parses cleanly; any mismatch or corruption is a
/// miss, never an error.
std::optional<Project> deserialize(std::string_view text, std::uint64_t expect_hash);

}  // namespace satlint::graph
