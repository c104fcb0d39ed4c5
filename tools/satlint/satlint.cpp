#include "satlint.hpp"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <map>
#include <regex>
#include <set>
#include <sstream>
#include <tuple>

#include "graph.hpp"
#include "lex.hpp"

namespace satlint {

namespace {

using lex::rstrip;

// ---------------------------------------------------------------------------
// Rule table
// ---------------------------------------------------------------------------

const std::vector<RuleInfo> kRules = {
    {"nondet-source",
     "banned nondeterminism source (rand/srand, std::random_device, "
     "*_clock::now, time(nullptr) seeds, __DATE__/__TIME__); clock reads "
     "are auto-allowed inside the telemetry boundary (src/obs, "
     "src/runtime)"},
    {"unordered-iter",
     "iteration over std::unordered_{map,set} in a report/export path; "
     "bucket order is implementation-defined and leaks into output"},
    {"raw-rng",
     "Rng constructed from a seed inside sharded code; derive shard "
     "streams with Rng::fork_stable(stable key) instead"},
    {"shared-state",
     "function-local static (non-const, non-atomic) in worker-executed "
     "code; workers on different threads would share it"},
    {"float-accum",
     "+=/-= on a floating-point accumulator in a merge path without a "
     "deterministic-merge annotation; float addition is order-sensitive"},
    {"adhoc-inject",
     "ad-hoc fault toggle (inject_* identifier) in a src/ module; every "
     "injection point must go through fault::Hook so fault plans stay "
     "replayable and hits are counted"},
    {"persist-nondet",
     "persistence hazard in src/io: directory-iteration order, branching "
     "on mmap availability, a binary write in a file with no format-"
     "version stamp (k...Version constant), or a wall-clock read that "
     "could stamp nondeterministic bytes into an artifact"},
    {"layering",
     "include edge outside the declared module DAG (tools/satlint/"
     "graph.cpp kAllowedDeps), or an include cycle; the module graph is "
     "the layering contract"},
    {"nondet-taint",
     "a call in a src/ report/export path reaches, through the call "
     "graph, a nondeterminism source in another file — the laundered-"
     "clock case the per-file rules cannot see"},
    {"worker-reach",
     "mutable static or raw Rng in a function reachable from a worker "
     "entry (ThreadPool::submit / ShardedCampaign / std::thread), "
     "wherever it lives — true reachability, not directory "
     "classification"},
    {"bad-allow",
     "satlint:allow()/deterministic-merge annotation without a one-line "
     "justification"},
    {"stale-allow",
     "satlint:allow() that no longer suppresses any diagnostic; dead "
     "justifications hide drift and inflate the suppression budget"},
};

// ---------------------------------------------------------------------------
// Declaration tracking (pragmatic, per file)
// ---------------------------------------------------------------------------

/// Names declared with an unordered container type anywhere in the file.
std::set<std::string> unordered_names(const std::vector<std::string>& code) {
  std::set<std::string> names;
  static const std::regex kDecl(R"(\bunordered_(map|set|multimap|multiset)\s*<)");
  for (const std::string& line : code) {
    for (auto it = std::sregex_iterator(line.begin(), line.end(), kDecl);
         it != std::sregex_iterator(); ++it) {
      // Walk the template argument list to its closing '>'.
      std::size_t p = static_cast<std::size_t>(it->position(0)) + it->length(0);
      int depth = 1;
      while (p < line.size() && depth > 0) {
        if (line[p] == '<') ++depth;
        if (line[p] == '>') --depth;
        ++p;
      }
      static const std::regex kName(R"(^\s*&?\s*(\w+))");
      std::smatch nm;
      const std::string rest = line.substr(p);
      if (std::regex_search(rest, nm, kName)) names.insert(nm[1].str());
    }
  }
  return names;
}

/// Tracks double/float declarations with function-level scoping: names
/// declared at namespace/class scope persist for the whole file, names
/// declared inside a function (including its parameter list) are dropped
/// when the function ends, so a `double t` in one function does not taint
/// an integer `t` in the next. Single-declarator only — pragmatic.
class FloatNames {
 public:
  /// Scans line i for declarations. `in_fn` is whether the line starts
  /// inside a function body; a false edge after a true clears locals.
  void observe_line(const std::string& line, bool in_fn) {
    if (was_in_fn_ && !in_fn) local_.clear();
    was_in_fn_ = in_fn;
    static const std::regex kDecl(R"(\b(double|float)\s+(\w+)\s*[=;,{])");
    for (auto it = std::sregex_iterator(line.begin(), line.end(), kDecl);
         it != std::sregex_iterator(); ++it) {
      // A declaration inside an unbalanced '(' is a parameter — local to
      // the function whose body follows.
      int depth = 0;
      for (std::size_t p = 0; p < static_cast<std::size_t>(it->position(0)); ++p) {
        if (line[p] == '(') ++depth;
        if (line[p] == ')') --depth;
      }
      (in_fn || depth > 0 ? local_ : global_).insert((*it)[2].str());
    }
  }

  bool contains(const std::string& name) const {
    return local_.count(name) != 0 || global_.count(name) != 0;
  }

 private:
  std::set<std::string> local_, global_;
  bool was_in_fn_ = false;
};

// ---------------------------------------------------------------------------
// Classification
// ---------------------------------------------------------------------------

bool path_has_dir(std::string_view path, std::string_view dir) {
  // Appended, not operator+: GCC 12 reports a false -Wrestrict on the
  // chain at -O3.
  std::string prefix(dir);
  prefix += '/';
  std::string needle = "/";
  needle += prefix;
  return path.find(needle) != std::string_view::npos ||
         path.substr(0, prefix.size()) == prefix;
}

// ---------------------------------------------------------------------------
// Per-file analysis: one file's sanitized view, allow map, and report.
// The allow map tracks usage so the project-level stale-allow pass can
// flag justifications that stopped paying for a diagnostic.
// ---------------------------------------------------------------------------

struct Analysis {
  std::string path;
  FileClass fc;
  lex::Sanitized s;
  std::vector<bool> in_fn;
  lex::AllowMap allows;
  std::vector<bool> allow_used;  ///< parallel to allows.sites
  FileReport report;
};

Analysis analyze(std::string_view path, std::string_view content) {
  Analysis a;
  a.path = std::string(path);
  a.fc = classify(path);
  a.s = lex::sanitize(content);
  a.in_fn = lex::function_lines(a.s.code);
  a.allows = lex::build_allow_map(a.s);
  a.allow_used.assign(a.allows.sites.size(), false);
  a.report.path = a.path;
  for (std::size_t i = 0; i < a.allows.sites.size(); ++i) {
    const lex::AllowSite& site = a.allows.sites[i];
    if (site.allow.justification.empty()) {
      a.report.violations.push_back(
          {a.path, site.line, "bad-allow",
           "suppression of '" + site.allow.rule +
               "' needs a one-line justification: // satlint:allow(" +
               site.allow.rule + "): <why this is safe>"});
      a.allow_used[i] = true;  // already a violation; not also stale
    }
  }
  return a;
}

/// Emits a finding at 1-based `line`, downgrading it to a suppression
/// when a justified allow for `rule` covers the line.
void emit(Analysis& a, int line, std::string_view rule, std::string message) {
  const std::size_t li = static_cast<std::size_t>(line - 1);
  if (li < a.allows.line_sites.size()) {
    for (const int idx : a.allows.line_sites[li]) {
      const lex::AllowSite& site = a.allows.sites[static_cast<std::size_t>(idx)];
      if (site.allow.rule == rule && !site.allow.justification.empty()) {
        a.allow_used[static_cast<std::size_t>(idx)] = true;
        a.report.suppressed.push_back(
            {a.path, line, std::string(rule),
             std::move(message) + " [allowed: " + site.allow.justification + "]"});
        return;
      }
    }
  }
  a.report.violations.push_back({a.path, line, std::string(rule), std::move(message)});
}

bool has_explicit_allow(const Analysis& a, std::size_t li, std::string_view rule) {
  if (li >= a.allows.line_sites.size()) return false;
  for (const int idx : a.allows.line_sites[li]) {
    const lex::AllowSite& site = a.allows.sites[static_cast<std::size_t>(idx)];
    if (site.allow.rule == rule && !site.allow.justification.empty()) return true;
  }
  return false;
}

// Shared with the worker-reach pass, which applies the same static /
// raw-Rng patterns to worker-reachable lines outside worker modules.
const std::regex kRawRng(R"((^|[^:\w])Rng\s+\w+\s*[({=])");
const std::regex kRngTemp(R"((^|[^:\w])Rng\s*\()");
const std::regex kStaticLocal(R"(^\s*static\s+)");
const std::regex kStaticExempt(
    R"(^\s*static\s+(const\b|constexpr\b|thread_local\b)|static_assert|std::atomic)");

void run_per_file_rules(Analysis& a) {
  const FileClass& fc = a.fc;
  const lex::Sanitized& s = a.s;
  const std::set<std::string> unordered = unordered_names(s.code);
  FloatNames floats;

  static const std::regex kRand(R"(\b(rand|srand)\s*\()");
  static const std::regex kRandomDevice(R"(\brandom_device\b)");
  static const std::regex kClockNow(R"(\b\w*_clock::now\b)");
  static const std::regex kTimeSeed(R"(\btime\s*\(\s*(nullptr|NULL|0)\s*\))");
  static const std::regex kDateTime(R"(__DATE__|__TIME__|__TIMESTAMP__)");
  static const std::regex kRangeFor(R"(\bfor\s*\(([^;)]*):([^)]+)\))");
  static const std::regex kBeginCall(R"((\w+)\s*\.\s*c?begin\s*\(\))");
  static const std::regex kCompoundAdd(R"((\w+)\s*[+-]=[^=])");
  static const std::regex kAdhocInject(R"((^|[^\w])(inject_\w+))");
  static const std::regex kDirIter(R"(\b(recursive_)?directory_iterator\b)");
  static const std::regex kMmapCall(R"((^|[^\w])mmap\s*\()");
  static const std::regex kBinaryWrite(R"(\bofstream\b[^;]*\bbinary\b|\bfwrite\s*\()");
  static const std::regex kVersionStamp(R"(\bk\w*Version\b)");

  // D7's binary-write check is file-scoped: any mention of a version
  // constant means the format is stamped and loads can reject stale
  // files, so every write in the file inherits the exemption.
  bool version_stamped = false;
  if (fc.persist_scope) {
    for (const std::string& cl : s.code) {
      if (std::regex_search(cl, kVersionStamp)) {
        version_stamped = true;
        break;
      }
    }
  }

  for (std::size_t i = 0; i < s.code.size(); ++i) {
    const std::string& cl = s.code[i];
    const int line = static_cast<int>(i + 1);
    floats.observe_line(cl, a.in_fn[i]);
    if (rstrip(cl).empty()) continue;

    // D1 — nondet-source (all scanned files).
    if (std::regex_search(cl, kRand)) {
      emit(a, line, "nondet-source",
           "rand()/srand() draws from hidden global state; use stats::Rng "
           "seeded from the config");
    }
    if (std::regex_search(cl, kRandomDevice)) {
      emit(a, line, "nondet-source",
           "std::random_device is nondeterministic by design; campaigns must "
           "be a pure function of their seed");
    }
    if (std::regex_search(cl, kClockNow)) {
      if (fc.clock_boundary && !has_explicit_allow(a, i, "nondet-source")) {
        a.report.suppressed.push_back(
            {a.path, line, "nondet-source",
             "clock read inside the telemetry boundary [allowed: src/obs "
             "and src/runtime own the monotonic clock; wall-clock fields "
             "are excluded from goldens]"});
      } else {
        emit(a, line, "nondet-source",
             "clock reads differ across runs; results must never depend on "
             "wall-clock (telemetry-only reads need an allow)");
      }
    }
    if (std::regex_search(cl, kTimeSeed)) {
      emit(a, line, "nondet-source",
           "time(...) as a seed makes every run different; seed from the "
           "config instead");
    }
    if (std::regex_search(cl, kDateTime)) {
      emit(a, line, "nondet-source",
           "__DATE__/__TIME__ bake the build time into the binary; output "
           "would differ across rebuilds");
    }

    // D2 — unordered-iter (report/export paths).
    if (fc.report_path) {
      std::smatch m;
      if (std::regex_search(cl, m, kRangeFor)) {
        std::string expr = m[2].str();
        expr = std::string(rstrip(expr));
        const std::size_t ws = expr.find_last_of(" \t");
        const std::string ident = ws == std::string::npos ? expr : expr.substr(ws + 1);
        if (unordered.count(ident) != 0 ||
            expr.find("unordered_") != std::string::npos) {
          emit(a, line, "unordered-iter",
               "range-for over unordered container '" + ident +
                   "' in a report path; bucket order is implementation-"
                   "defined — copy to a sorted container first");
        }
      }
      for (auto it = std::sregex_iterator(cl.begin(), cl.end(), kBeginCall);
           it != std::sregex_iterator(); ++it) {
        const std::string ident = (*it)[1].str();
        if (unordered.count(ident) != 0) {
          emit(a, line, "unordered-iter",
               "iterator walk of unordered container '" + ident +
                   "' in a report path; bucket order is implementation-"
                   "defined — copy to a sorted container first");
        }
      }
    }

    // D3 — raw-rng (sharded code).
    if (fc.sharded && cl.find("fork") == std::string::npos) {
      if (std::regex_search(cl, kRawRng) || std::regex_search(cl, kRngTemp)) {
        emit(a, line, "raw-rng",
             "Rng constructed from a raw seed in sharded code; derive the "
             "stream with fork_stable(stable shard key) so results don't "
             "depend on shard scheduling");
      }
    }

    // D4 — shared-state (worker-executed code).
    if (fc.worker && a.in_fn[i] && std::regex_search(cl, kStaticLocal) &&
        !std::regex_search(cl, kStaticExempt)) {
      emit(a, line, "shared-state",
           "function-local static in worker-executed code is mutable state "
           "shared across threads; hoist it into shard-local state or make "
           "it const/atomic");
    }

    // D6 — adhoc-inject (src/ modules outside fault/).
    if (fc.injection_scope) {
      std::smatch m;
      if (std::regex_search(cl, m, kAdhocInject)) {
        emit(a, line, "adhoc-inject",
             "ad-hoc fault toggle '" + m[2].str() +
                 "'; injection points must query fault::Hook (gateway_down, "
                 "extra_space_loss, fail_shard, ...) so the active FaultPlan "
                 "stays the single replayable source of faults");
      }
    }

    // D7 — persist-nondet (src/io persistence code).
    if (fc.persist_scope) {
      if (std::regex_search(cl, kDirIter)) {
        emit(a, line, "persist-nondet",
             "directory iteration order is filesystem-dependent; collect "
             "the entries and sort them before they influence any artifact "
             "or output");
      }
      if (std::regex_search(cl, kMmapCall)) {
        emit(a, line, "persist-nondet",
             "branching on mmap availability in persistence code; the "
             "non-mmap fallback must yield byte-identical results — "
             "annotate with satlint:allow(persist-nondet) asserting the "
             "equivalence");
      }
      if (!version_stamped && std::regex_search(cl, kBinaryWrite)) {
        emit(a, line, "persist-nondet",
             "binary artifact written in a file with no format-version "
             "stamp; stamp the format (a k...Version constant checked on "
             "load) so stale files are rejected instead of misparsed");
      }
      if (std::regex_search(cl, kClockNow)) {
        emit(a, line, "persist-nondet",
             "wall-clock read in the persistence layer; a timestamp "
             "written into an artifact would break byte-identical "
             "replays — take stamps from the caller instead");
      }
    }

    // D5 — float-accum (merge paths).
    if (fc.merge_path) {
      for (auto it = std::sregex_iterator(cl.begin(), cl.end(), kCompoundAdd);
           it != std::sregex_iterator(); ++it) {
        const std::string ident = (*it)[1].str();
        // A step expression in a for-header ("t += interval") is a loop
        // counter, not a cross-item accumulation.
        static const std::regex kForHeader(R"(\bfor\s*\()");
        std::smatch fh;
        if (std::regex_search(cl, fh, kForHeader)) {
          int depth = 0;
          for (std::size_t p = static_cast<std::size_t>(fh.position(0));
               p < static_cast<std::size_t>(it->position(0)) && p < cl.size(); ++p) {
            if (cl[p] == '(') ++depth;
            if (cl[p] == ')') --depth;
          }
          if (depth > 0) continue;
        }
        if (floats.contains(ident)) {
          emit(a, line, "float-accum",
               "'" + ident +
                   "' accumulates floating-point values in a merge path; "
                   "float addition is order-sensitive — annotate the fixed "
                   "iteration order with // satlint: deterministic-merge: "
                   "<why>");
        }
      }
    }
  }
}

void run_stale_allow(Analysis& a) {
  for (std::size_t i = 0; i < a.allows.sites.size(); ++i) {
    if (a.allow_used[i]) continue;
    const lex::AllowSite& site = a.allows.sites[i];
    a.report.violations.push_back(
        {a.path, site.line, "stale-allow",
         "allow(" + site.allow.rule +
             ") suppresses nothing; a justification that pays for no live "
             "diagnostic hides drift — delete the annotation (or re-point "
             "it at the rule that actually fires)"});
  }
}

void sort_report(FileReport& report) {
  const auto by_pos = [](const Diagnostic& x, const Diagnostic& y) {
    return std::tie(x.line, x.rule, x.message) < std::tie(y.line, y.rule, y.message);
  };
  std::sort(report.violations.begin(), report.violations.end(), by_pos);
  std::sort(report.suppressed.begin(), report.suppressed.end(), by_pos);
}

}  // namespace

const std::vector<RuleInfo>& rules() { return kRules; }

FileClass classify(std::string_view path) {
  FileClass fc;
  // Module = directory under src/, or the top-level tree for examples/
  // and tests/.
  static const std::vector<std::string> kModules = {
      "stats", "geo",  "obs",   "runtime", "sim",   "orbit", "net",
      "transport", "bgp", "weather", "dns", "http", "video", "synth",
      "mlab", "ripe", "prolific", "snoid", "io", "fault"};
  for (const std::string& m : kModules) {
    if (path_has_dir(path, m)) fc.module = m;
  }
  if (fc.module.empty()) {
    for (std::string_view top : {"examples", "tests"}) {
      if (path_has_dir(path, top)) fc.module = std::string(top);
    }
  }

  const auto is = [&](std::initializer_list<std::string_view> mods) {
    for (std::string_view m : mods) {
      if (fc.module == m) return true;
    }
    return false;
  };
  // D2: report/export paths — where container order becomes output order.
  static const std::regex kReportFile(
      R"((campaign|report|export|pipeline|analysis)[^/]*\.(cpp|hpp|h)$)");
  fc.report_path = is({"io", "obs"}) ||
                   std::regex_search(std::string(path), kReportFile);
  // D3: the sharded campaign layers.
  fc.sharded = is({"runtime", "mlab", "ripe", "snoid"});
  // D4: anything executed on ThreadPool workers (shard bodies call into
  // these modules), plus the obs layer they all report to.
  fc.worker = fc.sharded || is({"sim", "orbit", "transport", "http", "dns",
                                "video", "weather", "stats", "obs"});
  // D5: where shard results are merged or cross-thread values folded.
  fc.merge_path = fc.sharded || is({"obs"});
  // D6: every src/ module except fault itself (which implements the
  // hook) — examples/tests may name injection knobs freely.
  fc.injection_scope =
      !fc.module.empty() && fc.module != "fault" && !is({"examples", "tests"});
  // D7: the persistence layer — the only place binary artifacts are
  // written and mapped, so the only place their hazards can originate.
  fc.persist_scope = is({"io"});
  // D1: the telemetry boundary. src/obs (flight recorder wall_us,
  // span timing) and src/runtime (queue-wait, watchdog) own the
  // monotonic clock; reads there are recorded as suppressions instead
  // of demanding a per-line allow.
  fc.clock_boundary = is({"obs", "runtime"});
  return fc;
}

FileReport lint_source(std::string_view path, std::string_view content,
                       const LintOptions& options) {
  for (const std::string& w : options.whitelist) {
    if (path.find(w) != std::string_view::npos) {
      FileReport report;
      report.path = std::string(path);
      return report;
    }
  }
  Analysis a = analyze(path, content);
  run_per_file_rules(a);
  sort_report(a.report);
  return a.report;
}

// ---------------------------------------------------------------------------
// Tree walking & the whole-program pass
// ---------------------------------------------------------------------------

namespace {

bool lintable(const std::filesystem::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".cpp" || ext == ".hpp" || ext == ".h";
}

std::string read_file(const std::filesystem::path& p) {
  std::ifstream in(p, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.substr(0, prefix.size()) == prefix;
}

/// The cross-TU pass: build (or load) the project graph, run D8/D9/D10,
/// then stale-allow. Findings are attached to the Analysis of their
/// file, which applies allow() handling uniformly; files without an
/// Analysis (outside the focus set) keep their findings unreported —
/// the full-tree CI scan focuses everything, so nothing is ever lost.
void project_pass(std::vector<Analysis*>& by_index,
                  const std::vector<std::pair<std::string, std::string>>& loaded,
                  const LintOptions& options) {
  std::vector<std::pair<std::string, std::string_view>> keyed;
  keyed.reserve(loaded.size());
  for (const auto& [vpath, content] : loaded) keyed.emplace_back(vpath, content);
  const std::uint64_t hash = graph::content_hash(keyed);

  std::optional<graph::Project> proj;
  if (!options.graph_cache.empty() &&
      std::filesystem::exists(options.graph_cache)) {
    proj = graph::deserialize(read_file(options.graph_cache), hash);
  }
  std::vector<lex::Sanitized> sanitized;
  if (!proj) {
    sanitized.resize(loaded.size());
    std::vector<graph::FileInput> inputs;
    inputs.reserve(loaded.size());
    for (std::size_t i = 0; i < loaded.size(); ++i) {
      // Reuse the focus files' existing sanitized view.
      if (by_index[i] != nullptr) {
        inputs.push_back({loaded[i].first, loaded[i].second, &by_index[i]->s});
      } else {
        sanitized[i] = lex::sanitize(loaded[i].second);
        inputs.push_back({loaded[i].first, loaded[i].second, &sanitized[i]});
      }
    }
    proj = graph::build(std::move(inputs));
    if (!options.graph_cache.empty()) {
      std::ofstream out(options.graph_cache, std::ios::binary);
      out << graph::serialize(*proj, hash);
    }
  }

  if (!options.dot_path.empty()) {
    std::ofstream out(options.dot_path, std::ios::binary);
    out << graph::to_dot(*proj);
  }

  // Project file index -> Analysis (project order is sorted-by-path,
  // matching `loaded`, but map defensively by path).
  std::map<std::string, Analysis*> by_path;
  for (std::size_t i = 0; i < loaded.size(); ++i) {
    if (by_index[i] != nullptr) by_path[loaded[i].first] = by_index[i];
  }
  const auto analysis_of = [&](int file) -> Analysis* {
    const auto it = by_path.find(proj->files[static_cast<std::size_t>(file)].path);
    return it == by_path.end() ? nullptr : it->second;
  };

  // D8 — layering.
  for (const graph::LayerFinding& f : check_layering(*proj)) {
    if (Analysis* a = analysis_of(f.file)) emit(*a, f.line, "layering", f.message);
  }

  // D9 — nondet-taint. Report surface = src/ report-path files only;
  // tests read timers by design and write no artifacts.
  std::vector<bool> report_path(proj->files.size(), false);
  for (std::size_t i = 0; i < proj->files.size(); ++i) {
    const std::string& path = proj->files[i].path;
    report_path[i] = starts_with(path, "src/") && classify(path).report_path;
  }
  const graph::TaintResult taint = graph::check_taint(*proj, report_path);
  for (const graph::TaintFinding& f : taint.findings) {
    if (Analysis* a = analysis_of(f.file)) emit(*a, f.line, "nondet-taint", f.message);
  }
  for (const graph::TaintFinding& f : taint.root_suppressions) {
    Analysis* a = analysis_of(f.file);
    if (a == nullptr) continue;
    a->report.suppressed.push_back({a->path, f.line, "nondet-taint", f.message});
    const std::size_t li = static_cast<std::size_t>(f.line - 1);
    if (li < a->allows.line_sites.size()) {
      for (const int idx : a->allows.line_sites[li]) {
        if (a->allows.sites[static_cast<std::size_t>(idx)].allow.rule ==
            "nondet-taint") {
          a->allow_used[static_cast<std::size_t>(idx)] = true;
        }
      }
    }
  }

  // D10 — worker-reach. Scan the bodies of worker-reachable functions in
  // src/ files the directory classification does NOT already treat as
  // worker code (there D3/D4 fire with better messages).
  std::set<std::pair<int, int>> flagged;  // (file, line) — bodies can nest
  for (const int fn : graph::worker_reachable(*proj)) {
    const int file = proj->file_of(fn);
    const std::string& path = proj->files[static_cast<std::size_t>(file)].path;
    if (!starts_with(path, "src/")) continue;
    Analysis* a = analysis_of(file);
    if (a == nullptr || a->fc.worker) continue;
    const lex::FunctionDef& def = proj->def(fn);
    const std::string label = def.qualified.empty() ? def.name : def.qualified;
    for (int line = def.line_begin; line <= def.line_end; ++line) {
      const std::size_t li = static_cast<std::size_t>(line - 1);
      if (li >= a->s.code.size()) break;
      const std::string& cl = a->s.code[li];
      if (rstrip(cl).empty()) continue;
      if (a->in_fn[li] && std::regex_search(cl, kStaticLocal) &&
          !std::regex_search(cl, kStaticExempt) &&
          flagged.insert({file, line}).second) {
        emit(*a, line, "worker-reach",
             "'" + label +
                 "' is reachable from a worker entry (ThreadPool::submit / "
                 "ShardedCampaign shard body); this function-local static "
                 "would be shared across worker threads — hoist it into "
                 "shard-local state or make it const/atomic");
      }
      if (cl.find("fork") == std::string::npos &&
          (std::regex_search(cl, kRawRng) || std::regex_search(cl, kRngTemp)) &&
          flagged.insert({file, -line}).second) {
        emit(*a, line, "worker-reach",
             "'" + label +
                 "' is reachable from a worker entry; an Rng constructed "
                 "from a raw seed here makes results depend on shard "
                 "scheduling — derive the stream with fork_stable(stable "
                 "key)");
      }
    }
  }

  // stale-allow — every justification must still pay for a diagnostic.
  for (Analysis* a : by_index) {
    if (a != nullptr) run_stale_allow(*a);
  }
}

TreeReport lint_paths(const std::vector<std::pair<std::string, std::filesystem::path>>&
                          virtual_and_real,
                      const LintOptions& options, bool project_scope) {
  TreeReport tree;
  std::vector<std::pair<std::string, std::string>> loaded;  // vpath, content
  for (const auto& [vpath, rpath] : virtual_and_real) {
    bool whitelisted = false;
    for (const std::string& w : options.whitelist) {
      if (vpath.find(w) != std::string::npos) whitelisted = true;
    }
    if (whitelisted) {
      ++tree.files_whitelisted;
      continue;
    }
    loaded.emplace_back(vpath, read_file(rpath));
  }
  tree.files_scanned = loaded.size();

  const std::set<std::string> focus(options.focus.begin(), options.focus.end());
  std::vector<Analysis> analyses;
  analyses.reserve(loaded.size());
  std::vector<Analysis*> by_index(loaded.size(), nullptr);
  for (std::size_t i = 0; i < loaded.size(); ++i) {
    if (!focus.empty() && focus.count(loaded[i].first) == 0) continue;
    analyses.push_back(analyze(loaded[i].first, loaded[i].second));
    by_index[i] = &analyses.back();
  }
  for (Analysis& a : analyses) run_per_file_rules(a);

  if (project_scope && options.cross_tu) {
    project_pass(by_index, loaded, options);
  }

  for (Analysis& a : analyses) {
    sort_report(a.report);
    if (!a.report.violations.empty() || !a.report.suppressed.empty()) {
      tree.files.push_back(std::move(a.report));
    }
  }
  return tree;
}

}  // namespace

TreeReport lint_tree(const std::string& root, const std::vector<std::string>& subdirs,
                     const LintOptions& options) {
  namespace fs = std::filesystem;
  std::vector<std::pair<std::string, fs::path>> files;
  for (const std::string& sub : subdirs) {
    const fs::path dir = fs::path(root) / sub;
    if (!fs::exists(dir)) continue;
    for (const auto& entry : fs::recursive_directory_iterator(dir)) {
      if (entry.is_regular_file() && lintable(entry.path())) {
        files.emplace_back(fs::relative(entry.path(), root).generic_string(),
                           entry.path());
      }
    }
  }
  std::sort(files.begin(), files.end());
  return lint_paths(files, options, /*project_scope=*/true);
}

TreeReport lint_files(const std::vector<std::string>& paths,
                      const LintOptions& options) {
  std::vector<std::pair<std::string, std::filesystem::path>> files;
  files.reserve(paths.size());
  for (const std::string& p : paths) files.emplace_back(p, p);
  return lint_paths(files, options, /*project_scope=*/false);
}

std::size_t TreeReport::violation_count() const {
  std::size_t n = 0;
  for (const FileReport& f : files) n += f.violations.size();
  return n;
}

std::size_t TreeReport::suppressed_count() const {
  std::size_t n = 0;
  for (const FileReport& f : files) n += f.suppressed.size();
  return n;
}

std::map<std::string, std::size_t> suppressions_by_rule(const TreeReport& report) {
  std::map<std::string, std::size_t> counts;
  for (const RuleInfo& r : kRules) counts[std::string(r.id)] = 0;
  for (const FileReport& f : report.files) {
    for (const Diagnostic& d : f.suppressed) ++counts[d.rule];
  }
  return counts;
}

// ---------------------------------------------------------------------------
// Suppression baseline
// ---------------------------------------------------------------------------

std::string format_baseline(const TreeReport& report) {
  const std::map<std::string, std::size_t> counts = suppressions_by_rule(report);
  std::ostringstream out;
  out << "# satlint suppression baseline — per-rule counts of justified\n"
      << "# allow()s (plus telemetry auto-suppressions) across the tree.\n"
      << "# CI fails on any drift; regenerate with:\n"
      << "#   satlint --root . --baseline tools/satlint/suppressions.baseline "
         "--write-baseline\n";
  for (const RuleInfo& r : kRules) {
    out << r.id << " " << counts.at(std::string(r.id)) << "\n";
  }
  return out.str();
}

std::optional<std::map<std::string, std::size_t>> parse_baseline(
    std::string_view text) {
  std::map<std::string, std::size_t> out;
  std::set<std::string> known;
  for (const RuleInfo& r : kRules) known.insert(std::string(r.id));

  std::istringstream in{std::string(text)};
  std::string line;
  while (std::getline(in, line)) {
    const std::string_view stripped = rstrip(line);
    if (stripped.empty() || stripped.front() == '#') continue;
    std::istringstream fields{std::string(stripped)};
    std::string rule;
    long count = -1;
    fields >> rule >> count;
    if (fields.fail() || count < 0 || known.count(rule) == 0) return std::nullopt;
    out[rule] = static_cast<std::size_t>(count);
  }
  return out;
}

std::vector<std::string> check_baseline(
    const TreeReport& report, const std::map<std::string, std::size_t>& baseline) {
  std::vector<std::string> errors;
  const std::map<std::string, std::size_t> counts = suppressions_by_rule(report);
  for (const RuleInfo& r : kRules) {
    const std::string id(r.id);
    const std::size_t actual = counts.at(id);
    const auto it = baseline.find(id);
    const std::size_t expected = it == baseline.end() ? 0 : it->second;
    if (actual > expected) {
      errors.push_back(
          id + ": " + std::to_string(actual) + " suppression(s), baseline " +
          std::to_string(expected) +
          " — a new allow() must bump tools/satlint/suppressions.baseline in "
          "the same PR");
    } else if (actual < expected) {
      errors.push_back(
          id + ": " + std::to_string(actual) + " suppression(s), baseline " +
          std::to_string(expected) +
          " — ratchet the baseline down so the budget cannot silently "
          "refill");
    }
  }
  return errors;
}

// ---------------------------------------------------------------------------
// JSON report (emit + parse, round-trippable)
// ---------------------------------------------------------------------------

namespace {

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default: out += c;
    }
  }
  return out;
}

void emit_diags(std::ostringstream& out, const TreeReport& report,
                const std::vector<Diagnostic> FileReport::*member) {
  bool first = true;
  for (const FileReport& f : report.files) {
    for (const Diagnostic& d : f.*member) {
      if (!first) out << ",";
      first = false;
      out << "\n    {\"file\":\"" << json_escape(d.file) << "\",\"line\":" << d.line
          << ",\"rule\":\"" << json_escape(d.rule) << "\",\"message\":\""
          << json_escape(d.message) << "\"}";
    }
  }
  if (!first) out << "\n  ";
}

/// Minimal JSON reader for the report schema (objects, arrays, strings,
/// non-negative integers). Not a general-purpose parser.
class JsonReader {
 public:
  explicit JsonReader(std::string_view text) : text_(text) {}

  bool ok() const { return ok_; }

  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool consume(char c) {
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    ok_ = false;
    return false;
  }

  bool peek_is(char c) {
    skip_ws();
    return pos_ < text_.size() && text_[pos_] == c;
  }

  std::string string() {
    skip_ws();
    std::string out;
    if (!consume('"')) return out;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c == '\\' && pos_ < text_.size()) {
        const char n = text_[pos_++];
        c = n == 'n' ? '\n' : n == 't' ? '\t' : n;
      }
      out += c;
    }
    if (!consume('"')) ok_ = false;
    return out;
  }

  long integer() {
    skip_ws();
    long v = 0;
    bool any = false;
    while (pos_ < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      v = v * 10 + (text_[pos_++] - '0');
      any = true;
    }
    if (!any) ok_ = false;
    return v;
  }

 private:
  std::string_view text_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace

std::string to_json(const TreeReport& report) {
  const std::map<std::string, std::size_t> counts = suppressions_by_rule(report);
  std::ostringstream out;
  out << "{\n  \"satlint_version\": 2,\n  \"files_scanned\": " << report.files_scanned
      << ",\n  \"files_whitelisted\": " << report.files_whitelisted
      << ",\n  \"suppression_count\": {";
  bool first = true;
  for (const RuleInfo& r : kRules) {
    if (!first) out << ",";
    first = false;
    out << "\n    \"" << r.id << "\": " << counts.at(std::string(r.id));
  }
  out << "\n  },\n  \"violations\": [";
  emit_diags(out, report, &FileReport::violations);
  out << "],\n  \"suppressed\": [";
  emit_diags(out, report, &FileReport::suppressed);
  out << "]\n}\n";
  return out.str();
}

std::optional<TreeReport> from_json(std::string_view json) {
  JsonReader r(json);
  TreeReport tree;
  if (!r.consume('{')) return std::nullopt;

  // file path -> report, in first-seen order via index map.
  std::map<std::string, std::size_t> index;
  const auto file_report = [&](const std::string& path) -> FileReport& {
    const auto it = index.find(path);
    if (it != index.end()) return tree.files[it->second];
    index.emplace(path, tree.files.size());
    tree.files.push_back({path, {}, {}});
    return tree.files.back();
  };

  bool first_key = true;
  while (r.ok() && !r.peek_is('}')) {
    if (!first_key && !r.consume(',')) return std::nullopt;
    first_key = false;
    const std::string key = r.string();
    if (!r.consume(':')) return std::nullopt;
    if (key == "satlint_version") {
      r.integer();
    } else if (key == "files_scanned") {
      tree.files_scanned = static_cast<std::size_t>(r.integer());
    } else if (key == "files_whitelisted") {
      tree.files_whitelisted = static_cast<std::size_t>(r.integer());
    } else if (key == "suppression_count") {
      // Derived from "suppressed" on emit; validated for shape, dropped.
      if (!r.consume('{')) return std::nullopt;
      bool first = true;
      while (r.ok() && !r.peek_is('}')) {
        if (!first && !r.consume(',')) return std::nullopt;
        first = false;
        r.string();
        if (!r.consume(':')) return std::nullopt;
        r.integer();
      }
      if (!r.consume('}')) return std::nullopt;
    } else if (key == "violations" || key == "suppressed") {
      if (!r.consume('[')) return std::nullopt;
      bool first = true;
      while (r.ok() && !r.peek_is(']')) {
        if (!first && !r.consume(',')) return std::nullopt;
        first = false;
        if (!r.consume('{')) return std::nullopt;
        Diagnostic d;
        bool first_field = true;
        while (r.ok() && !r.peek_is('}')) {
          if (!first_field && !r.consume(',')) return std::nullopt;
          first_field = false;
          const std::string field = r.string();
          if (!r.consume(':')) return std::nullopt;
          if (field == "file") {
            d.file = r.string();
          } else if (field == "line") {
            d.line = static_cast<int>(r.integer());
          } else if (field == "rule") {
            d.rule = r.string();
          } else if (field == "message") {
            d.message = r.string();
          } else {
            return std::nullopt;
          }
        }
        if (!r.consume('}')) return std::nullopt;
        FileReport& fr = file_report(d.file);
        (key == "violations" ? fr.violations : fr.suppressed).push_back(std::move(d));
      }
      if (!r.consume(']')) return std::nullopt;
    } else {
      return std::nullopt;
    }
  }
  if (!r.consume('}') || !r.ok()) return std::nullopt;
  return tree;
}

}  // namespace satlint
