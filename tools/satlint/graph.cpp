#include "graph.hpp"

#include <algorithm>
#include <cctype>
#include <regex>
#include <set>
#include <sstream>

namespace satlint::graph {

namespace {

// ---------------------------------------------------------------------------
// Modules & the declared layering matrix
// ---------------------------------------------------------------------------

std::string module_of(std::string_view path) {
  const auto seg = [&](std::size_t k) -> std::string_view {
    std::size_t start = 0;
    for (std::size_t i = 0; i < k; ++i) {
      const std::size_t slash = path.find('/', start);
      if (slash == std::string_view::npos) return {};
      start = slash + 1;
    }
    const std::size_t end = path.find('/', start);
    if (end == std::string_view::npos) return {};  // a file, not a dir segment
    return path.substr(start, end - start);
  };
  const std::string_view top = seg(0);
  if (top == "src" || top == "tools") {
    const std::string_view sub = seg(1);
    if (sub.empty()) return std::string(top);
    return std::string(top) + ":" + std::string(sub);
  }
  if (top == "bench" || top == "examples" || top == "tests") {
    return std::string(top);
  }
  return "";
}

// The module DAG. A src module may include itself plus exactly the
// modules listed; the foundation modules (stats, geo, sim) and the
// telemetry leaf (obs) include nothing, so the numeric core stays pure
// and obs stays the layer everything may report into without ever
// reaching back up. tools/* modules are standalone (own directory
// only); bench/examples/tests may include anything.
const std::map<std::string, std::vector<std::string>> kAllowedDeps = {
    {"src:stats", {}},
    {"src:geo", {}},
    {"src:sim", {}},
    {"src:obs", {}},
    {"src:bgp", {"src:stats"}},
    {"src:dns", {"src:geo", "src:stats"}},
    {"src:net", {"src:geo", "src:stats"}},
    {"src:fault", {"src:geo", "src:stats", "src:obs"}},
    {"src:runtime", {"src:fault", "src:obs"}},
    // orbit is a domain module: it may not reach into the runtime layer
    // (the timeline build's ThreadPool use carries a justified allow —
    // the one sanctioned inversion, see DESIGN.md §14).
    {"src:orbit", {"src:geo", "src:stats", "src:fault", "src:obs"}},
    {"src:weather", {"src:geo", "src:fault", "src:orbit"}},
    {"src:transport",
     {"src:stats", "src:fault", "src:obs", "src:orbit", "src:weather"}},
    {"src:http", {"src:stats", "src:transport"}},
    {"src:video", {"src:stats", "src:transport"}},
    // synth emits fault::FaultPlans (the scenario generator's fault
    // axis); fault is a lower layer (geo/stats/obs only), so no cycle.
    {"src:synth",
     {"src:geo", "src:stats", "src:net", "src:bgp", "src:orbit",
      "src:transport", "src:weather", "src:fault"}},
    // matrix is the invariant-harness layer over generated worlds: it
    // drives synth worlds through the campaign runtime, so it sits with
    // the campaign layers (above synth/runtime, below io).
    {"src:matrix",
     {"src:geo", "src:stats", "src:obs", "src:fault", "src:orbit",
      "src:weather", "src:transport", "src:runtime", "src:synth"}},
    {"src:mlab",
     {"src:stats", "src:sim", "src:obs", "src:orbit", "src:runtime",
      "src:synth", "src:transport"}},
    {"src:ripe",
     {"src:geo", "src:stats", "src:sim", "src:obs", "src:net", "src:dns",
      "src:orbit", "src:runtime"}},
    {"src:prolific",
     {"src:geo", "src:stats", "src:dns", "src:http", "src:synth",
      "src:transport", "src:video"}},
    {"src:snoid",
     {"src:stats", "src:obs", "src:bgp", "src:orbit", "src:runtime",
      "src:mlab", "src:ripe", "src:synth", "src:transport"}},
    // io is the presentation/persistence top: it renders campaign
    // results into artifacts, so it sees the campaign layers — and
    // nothing may include io back (enforced by io's absence from every
    // other allow list).
    // io also holds the run session (io/session.*), which installs
    // fault plans and sets the pool watchdog: fault and runtime are
    // lower layers, so no cycle. The paper report (io/paper.*) renders
    // every figure, so it also reads bgp, geo and http directly.
    {"src:io",
     {"src:stats", "src:geo", "src:obs", "src:fault", "src:orbit", "src:transport",
      "src:weather", "src:bgp", "src:http", "src:runtime", "src:synth", "src:mlab",
      "src:ripe", "src:prolific", "src:snoid"}},
};

bool edge_allowed(const std::string& from, const std::string& to) {
  if (from.empty() || to.empty()) return true;   // unclassified paths
  if (from == to) return true;                   // intra-module
  if (from == "bench" || from == "examples" || from == "tests") return true;
  if (from.rfind("tools:", 0) == 0) return false;  // tools are standalone
  const auto it = kAllowedDeps.find(from);
  if (it == kAllowedDeps.end()) return false;  // unknown src module
  return std::find(it->second.begin(), it->second.end(), to) != it->second.end();
}

// ---------------------------------------------------------------------------
// Include extraction & path resolution
// ---------------------------------------------------------------------------

std::string normalize_path(std::string_view p) {
  std::vector<std::string> segs;
  std::size_t start = 0;
  while (start <= p.size()) {
    const std::size_t slash = p.find('/', start);
    const std::string_view seg =
        p.substr(start, (slash == std::string_view::npos ? p.size() : slash) - start);
    if (seg == "..") {
      if (!segs.empty()) segs.pop_back();
    } else if (!seg.empty() && seg != ".") {
      segs.emplace_back(seg);
    }
    if (slash == std::string_view::npos) break;
    start = slash + 1;
  }
  std::string out;
  for (const std::string& s : segs) {
    if (!out.empty()) out += '/';
    out += s;
  }
  return out;
}

std::string dirname_of(std::string_view p) {
  const std::size_t slash = p.rfind('/');
  return slash == std::string_view::npos ? std::string() : std::string(p.substr(0, slash));
}

// ---------------------------------------------------------------------------
// Taint sources
// ---------------------------------------------------------------------------

struct SourcePattern {
  const std::regex re;
  const char* what;
};

const std::vector<SourcePattern>& source_patterns() {
  static const std::vector<SourcePattern> kPatterns = [] {
    std::vector<SourcePattern> v;
    v.push_back({std::regex(R"(\b(\w*_clock::now)\b)"), ""});
    v.push_back({std::regex(R"(\brandom_device\b)"), "std::random_device"});
    v.push_back({std::regex(R"(\b(rand|srand)\s*\()"), "rand()"});
    v.push_back({std::regex(R"(\btime\s*\(\s*(nullptr|NULL|0)\s*\))"),
                 "time(nullptr)"});
    v.push_back({std::regex(R"((^|[^\w])mmap\s*\()"), "mmap availability"});
    return v;
  }();
  return kPatterns;
}

// Names too generic to link call edges through: linking `v.size()` to
// some project function named `size` would wire the graph into noise.
bool stoplisted(const std::string& name) {
  static const std::set<std::string> kStop = {
      "size",       "empty",     "begin",      "end",       "cbegin",
      "cend",       "rbegin",    "rend",       "push_back", "emplace_back",
      "pop_back",   "pop_front", "push_front", "clear",     "reserve",
      "resize",     "insert",    "erase",      "find",      "count",
      "at",         "front",     "back",       "data",      "c_str",
      "str",        "substr",    "append",     "length",    "good",
      "fail",       "eof",       "open",       "close",     "read",
      "write",      "get",       "put",        "set",       "load",
      "store",      "exchange",  "lock",       "unlock",    "try_lock",
      "wait",       "wait_for",  "notify_one", "notify_all","join",
      "joinable",   "detach",    "reset",      "release",   "swap",
      "first",      "second",    "value",      "has_value", "value_or",
      "emplace",    "push",      "pop",        "top",       "tie",
      "min",        "max",       "abs",        "test",      "flip",
      "contains",   "merge",     "extract",    "assign",    "compare",
      "starts_with","ends_with", "rfind",      "find_first_of",
      "find_last_of","tellg",    "tellp",      "seekg",     "seekp",
      "flush",      "rdbuf",     "width",      "fill",      "precision"};
  return kStop.count(name) != 0;
}

/// Shared post-load step: builds the fn table, links call sites into
/// edges, and resolves per-call-site callees. Deterministic: files are
/// pre-sorted, defs/calls keep extraction order.
void link(Project& p) {
  p.fns.clear();
  std::map<std::string, std::vector<int>> by_name;
  for (std::size_t f = 0; f < p.files.size(); ++f) {
    for (std::size_t d = 0; d < p.files[f].symbols.defs.size(); ++d) {
      const int id = static_cast<int>(p.fns.size());
      p.fns.push_back({static_cast<int>(f), static_cast<int>(d)});
      by_name[p.files[f].symbols.defs[d].name].push_back(id);
    }
  }
  // Map (file, def) -> fn id for caller resolution.
  std::map<std::pair<int, int>, int> fn_id;
  for (std::size_t i = 0; i < p.fns.size(); ++i) {
    fn_id[{p.fns[i].file, p.fns[i].def}] = static_cast<int>(i);
  }

  p.edges.assign(p.fns.size(), {});
  p.redges.assign(p.fns.size(), {});
  p.calls.clear();
  std::set<std::tuple<int, int, int>> edge_seen;  // caller, callee, line
  for (std::size_t f = 0; f < p.files.size(); ++f) {
    for (const lex::CallSite& cs : p.files[f].symbols.calls) {
      if (stoplisted(cs.name)) continue;
      const auto it = by_name.find(cs.name);
      if (it == by_name.end()) continue;
      const int caller =
          cs.caller < 0 ? -1 : fn_id[{static_cast<int>(f), cs.caller}];
      for (const int callee : it->second) {
        const lex::FunctionDef& def = p.def(callee);
        if (!cs.member && !cs.qualifier.empty()) {
          // An explicit qualifier must agree with the callee's path —
          // only its last component, so `obs::ShardScope::enter` still
          // links a def recorded as `ShardScope::enter`.
          std::string q = cs.qualifier;
          const std::size_t sep = q.rfind("::");
          if (sep != std::string::npos) q = q.substr(sep + 2);
          if (def.qualified.find(q + "::" + cs.name) == std::string::npos) continue;
        }
        if (callee == caller) continue;
        p.calls.push_back({static_cast<int>(f), cs.line, caller, callee});
        if (caller >= 0 &&
            edge_seen.insert({caller, callee, 0}).second) {
          p.edges[static_cast<std::size_t>(caller)].push_back(callee);
          p.redges[static_cast<std::size_t>(callee)].push_back(caller);
        }
      }
    }
  }
  // A lambda runs in the dynamic context of whoever holds it; for both
  // taint (a tainted lambda taints its definer) and worker reachability
  // (a reached function's nested lambdas run on the worker) the
  // conservative edge is definer -> lambda.
  for (std::size_t i = 0; i < p.fns.size(); ++i) {
    const lex::FunctionDef& d = p.def(static_cast<int>(i));
    if (d.parent < 0) continue;
    const auto it = fn_id.find({p.fns[i].file, d.parent});
    if (it == fn_id.end()) continue;
    const int parent = it->second;
    if (edge_seen.insert({parent, static_cast<int>(i), 0}).second) {
      p.edges[static_cast<std::size_t>(parent)].push_back(static_cast<int>(i));
      p.redges[i].push_back(parent);
    }
  }

  std::sort(p.calls.begin(), p.calls.end(),
            [](const Project::ResolvedCall& a, const Project::ResolvedCall& b) {
              return std::tie(a.file, a.line, a.callee) <
                     std::tie(b.file, b.line, b.callee);
            });
}

std::string fn_label(const Project& p, int fn) {
  const lex::FunctionDef& d = p.def(fn);
  return d.qualified.empty() ? d.name : d.qualified;
}

}  // namespace

int Project::find_file(std::string_view path) const {
  for (std::size_t i = 0; i < files.size(); ++i) {
    if (files[i].path == path) return static_cast<int>(i);
  }
  return -1;
}

const std::map<std::string, std::vector<std::string>>& allowed_deps() {
  return kAllowedDeps;
}

Project build(std::vector<FileInput> inputs) {
  std::sort(inputs.begin(), inputs.end(),
            [](const FileInput& a, const FileInput& b) { return a.path < b.path; });

  Project p;
  std::map<std::string, int> index;
  for (const FileInput& in : inputs) {
    FileNode node;
    node.path = in.path;
    node.module = module_of(in.path);
    index[node.path] = static_cast<int>(p.files.size());
    p.files.push_back(std::move(node));
  }

  static const std::regex kIncludeDirective(R"(^\s*#\s*include\s*")");
  static const std::regex kIncludePath(R"rx(#\s*include\s*"([^"]+)")rx");

  for (std::size_t f = 0; f < inputs.size(); ++f) {
    const FileInput& in = inputs[f];
    FileNode& node = p.files[f];

    // Includes: the directive survives sanitizing but the path (a string
    // literal) is blanked, so confirm on sanitized code and read the
    // path from the raw line.
    std::size_t line_start = 0;
    for (std::size_t li = 0; li < in.code->code.size(); ++li) {
      const std::string& cl = in.code->code[li];
      std::size_t line_end = in.raw.find('\n', line_start);
      if (line_end == std::string_view::npos) line_end = in.raw.size();
      if (std::regex_search(cl, kIncludeDirective)) {
        const std::string raw_line(in.raw.substr(line_start, line_end - line_start));
        std::smatch m;
        if (std::regex_search(raw_line, m, kIncludePath)) {
          const std::string inc = m[1].str();
          int target = -1;
          for (const std::string& candidate :
               {normalize_path(dirname_of(in.path) + "/" + inc),
                normalize_path(inc), normalize_path("src/" + inc)}) {
            const auto it = index.find(candidate);
            if (it != index.end()) {
              target = it->second;
              break;
            }
          }
          if (target >= 0) {
            node.include_targets.push_back(target);
            node.include_lines.push_back(static_cast<int>(li + 1));
          }
        }
      }
      line_start = line_end + 1;
    }

    // Symbols & taint sources.
    node.symbols = lex::extract_symbols(*in.code);
    const lex::AllowMap allows = lex::build_allow_map(*in.code);
    for (std::size_t li = 0; li < in.code->code.size(); ++li) {
      const std::string& cl = in.code->code[li];
      if (lex::rstrip(cl).empty()) continue;
      for (const SourcePattern& sp : source_patterns()) {
        std::smatch m;
        if (!std::regex_search(cl, m, sp.re)) continue;
        SourceMark mark;
        mark.line = static_cast<int>(li + 1);
        mark.what = *sp.what ? sp.what : m[1].str();
        for (const int site : allows.line_sites[li]) {
          const lex::Allow& a = allows.sites[static_cast<std::size_t>(site)].allow;
          if (a.rule == "nondet-taint" && !a.justification.empty()) {
            mark.allowed = true;
            mark.justification = a.justification;
          }
        }
        node.sources.push_back(std::move(mark));
      }
    }
  }

  link(p);
  return p;
}

// ---------------------------------------------------------------------------
// D8: layering + include cycles
// ---------------------------------------------------------------------------

std::vector<LayerFinding> check_layering(const Project& p) {
  std::vector<LayerFinding> out;

  for (std::size_t f = 0; f < p.files.size(); ++f) {
    const FileNode& node = p.files[f];
    for (std::size_t k = 0; k < node.include_targets.size(); ++k) {
      const FileNode& target =
          p.files[static_cast<std::size_t>(node.include_targets[k])];
      if (edge_allowed(node.module, target.module)) continue;
      std::string why;
      if (node.module.rfind("tools:", 0) == 0) {
        why = "tools are standalone: a tool may include only its own "
              "directory and link everything else as a library";
      } else if (kAllowedDeps.find(node.module) == kAllowedDeps.end()) {
        why = "module '" + node.module +
              "' is not in the layering matrix; declare its allowed "
              "dependencies in tools/satlint/graph.cpp (kAllowedDeps) "
              "before it grows includes";
      } else {
        why = "the module DAG does not allow '" + node.module +
              "' -> '" + target.module +
              "'; move the shared code down a layer or justify the "
              "inversion with satlint:allow(layering)";
      }
      out.push_back({static_cast<int>(f), node.include_lines[k],
                     "illegal include of " + target.path + ": " + why});
    }
  }

  // Include cycles (any module): iterative Tarjan SCC over files.
  const int n = static_cast<int>(p.files.size());
  std::vector<int> idx(static_cast<std::size_t>(n), -1),
      low(static_cast<std::size_t>(n), 0), comp(static_cast<std::size_t>(n), -1);
  std::vector<bool> on_stack(static_cast<std::size_t>(n), false);
  std::vector<int> stack;
  std::vector<std::vector<int>> sccs;
  int counter = 0;
  struct Frame {
    int v;
    std::size_t child;
  };
  for (int s = 0; s < n; ++s) {
    if (idx[static_cast<std::size_t>(s)] != -1) continue;
    std::vector<Frame> frames{{s, 0}};
    idx[static_cast<std::size_t>(s)] = low[static_cast<std::size_t>(s)] = counter++;
    stack.push_back(s);
    on_stack[static_cast<std::size_t>(s)] = true;
    while (!frames.empty()) {
      Frame& fr = frames.back();
      const auto& targets =
          p.files[static_cast<std::size_t>(fr.v)].include_targets;
      if (fr.child < targets.size()) {
        const int w = targets[fr.child++];
        if (idx[static_cast<std::size_t>(w)] == -1) {
          idx[static_cast<std::size_t>(w)] = low[static_cast<std::size_t>(w)] =
              counter++;
          stack.push_back(w);
          on_stack[static_cast<std::size_t>(w)] = true;
          frames.push_back({w, 0});
        } else if (on_stack[static_cast<std::size_t>(w)]) {
          low[static_cast<std::size_t>(fr.v)] = std::min(
              low[static_cast<std::size_t>(fr.v)], idx[static_cast<std::size_t>(w)]);
        }
      } else {
        if (low[static_cast<std::size_t>(fr.v)] == idx[static_cast<std::size_t>(fr.v)]) {
          std::vector<int> scc;
          for (;;) {
            const int w = stack.back();
            stack.pop_back();
            on_stack[static_cast<std::size_t>(w)] = false;
            comp[static_cast<std::size_t>(w)] = static_cast<int>(sccs.size());
            scc.push_back(w);
            if (w == fr.v) break;
          }
          sccs.push_back(std::move(scc));
        }
        const int v = fr.v;
        frames.pop_back();
        if (!frames.empty()) {
          low[static_cast<std::size_t>(frames.back().v)] =
              std::min(low[static_cast<std::size_t>(frames.back().v)],
                       low[static_cast<std::size_t>(v)]);
        }
      }
    }
  }
  for (const std::vector<int>& scc : sccs) {
    bool cyclic = scc.size() > 1;
    if (scc.size() == 1) {
      const auto& t = p.files[static_cast<std::size_t>(scc[0])].include_targets;
      cyclic = std::find(t.begin(), t.end(), scc[0]) != t.end();
    }
    if (!cyclic) continue;
    // Anchor the finding at the lexicographically-smallest member, on
    // its first include edge that stays inside the cycle.
    std::vector<int> sorted = scc;
    std::sort(sorted.begin(), sorted.end(), [&](int a, int b) {
      return p.files[static_cast<std::size_t>(a)].path <
             p.files[static_cast<std::size_t>(b)].path;
    });
    const int anchor = sorted.front();
    const FileNode& node = p.files[static_cast<std::size_t>(anchor)];
    int line = 1;
    for (std::size_t k = 0; k < node.include_targets.size(); ++k) {
      if (comp[static_cast<std::size_t>(node.include_targets[k])] ==
          comp[static_cast<std::size_t>(anchor)]) {
        line = node.include_lines[k];
        break;
      }
    }
    std::string members;
    for (const int f : sorted) {
      if (!members.empty()) members += " -> ";
      members += p.files[static_cast<std::size_t>(f)].path;
    }
    out.push_back({anchor, line,
                   "include cycle (" + members +
                       "); break the cycle — cyclic headers make layering "
                       "meaningless and build order fragile"});
  }

  std::sort(out.begin(), out.end(), [&](const LayerFinding& a, const LayerFinding& b) {
    return std::tie(p.files[static_cast<std::size_t>(a.file)].path, a.line,
                    a.message) <
           std::tie(p.files[static_cast<std::size_t>(b.file)].path, b.line,
                    b.message);
  });
  return out;
}

// ---------------------------------------------------------------------------
// D9: nondet taint
// ---------------------------------------------------------------------------

TaintResult check_taint(const Project& p, const std::vector<bool>& report_path) {
  TaintResult result;

  // Roots: functions whose body covers an unsanctioned source line.
  // taint_via[fn] = -1 for a root, else the callee the taint came from;
  // root_of[fn] points at (file, source index) for chain rendering.
  const int nfn = static_cast<int>(p.fns.size());
  std::vector<int> taint_via(static_cast<std::size_t>(nfn), -2);  // -2 = clean
  std::vector<std::pair<int, int>> root_of(static_cast<std::size_t>(nfn), {-1, -1});
  std::vector<int> queue;

  for (std::size_t f = 0; f < p.files.size(); ++f) {
    const FileNode& node = p.files[f];
    for (std::size_t s = 0; s < node.sources.size(); ++s) {
      const SourceMark& mark = node.sources[s];
      if (mark.allowed) {
        result.root_suppressions.push_back(
            {static_cast<int>(f), mark.line,
             "nondeterminism source (" + mark.what +
                 ") sanctioned as a taint root [allowed: " + mark.justification +
                 "]"});
        continue;
      }
      // The innermost function whose body covers the line.
      int best = -1;
      for (std::size_t d = 0; d < node.symbols.defs.size(); ++d) {
        const lex::FunctionDef& def = node.symbols.defs[d];
        if (mark.line < def.line_begin || mark.line > def.line_end) continue;
        if (best < 0 ||
            def.line_begin >= node.symbols.defs[static_cast<std::size_t>(best)].line_begin) {
          best = static_cast<int>(d);
        }
      }
      if (best < 0) continue;
      int fn = -1;
      for (std::size_t i = 0; i < p.fns.size(); ++i) {
        if (p.fns[i].file == static_cast<int>(f) && p.fns[i].def == best) {
          fn = static_cast<int>(i);
          break;
        }
      }
      if (fn < 0 || taint_via[static_cast<std::size_t>(fn)] != -2) continue;
      taint_via[static_cast<std::size_t>(fn)] = -1;
      root_of[static_cast<std::size_t>(fn)] = {static_cast<int>(f),
                                               static_cast<int>(s)};
      queue.push_back(fn);
    }
  }

  // Propagate: a caller of a tainted function is tainted.
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const int fn = queue[head];
    for (const int caller : p.redges[static_cast<std::size_t>(fn)]) {
      if (taint_via[static_cast<std::size_t>(caller)] != -2) continue;
      taint_via[static_cast<std::size_t>(caller)] = fn;
      root_of[static_cast<std::size_t>(caller)] =
          root_of[static_cast<std::size_t>(fn)];
      queue.push_back(caller);
    }
  }

  // Fire on call sites in report-path files whose callee is tainted and
  // defined in another file.
  std::set<std::pair<int, int>> seen;  // (file, line)
  for (const Project::ResolvedCall& rc : p.calls) {
    if (!report_path[static_cast<std::size_t>(rc.file)]) continue;
    if (taint_via[static_cast<std::size_t>(rc.callee)] == -2) continue;
    if (p.file_of(rc.callee) == rc.file) continue;  // per-file rules own it
    if (!seen.insert({rc.file, rc.line}).second) continue;

    // Render the chain callee -> ... -> source.
    std::string chain = fn_label(p, rc.callee);
    int hop = rc.callee;
    int hops = 0;
    while (taint_via[static_cast<std::size_t>(hop)] >= 0 && hops < 6) {
      hop = taint_via[static_cast<std::size_t>(hop)];
      chain += " -> " + fn_label(p, hop);
      ++hops;
    }
    const auto [rf, rs] = root_of[static_cast<std::size_t>(rc.callee)];
    std::string src_at = "?";
    std::string what = "a nondeterminism source";
    if (rf >= 0) {
      const SourceMark& mark =
          p.files[static_cast<std::size_t>(rf)].sources[static_cast<std::size_t>(rs)];
      what = mark.what;
      src_at = p.files[static_cast<std::size_t>(rf)].path + ":" +
               std::to_string(mark.line);
    }
    result.findings.push_back(
        {rc.file, rc.line,
         "call into '" + fn_label(p, rc.callee) + "' reaches " + what + " (" +
             src_at + "; chain: " + chain +
             "); a report/export path must stay a pure function of the "
             "seed — route the value out of the artifact or sanction the "
             "flow with satlint:allow(nondet-taint)"});
  }
  return result;
}

// ---------------------------------------------------------------------------
// D10: worker reachability
// ---------------------------------------------------------------------------

std::vector<int> worker_reachable(const Project& p) {
  std::vector<bool> reached(p.fns.size(), false);
  std::vector<int> queue;
  for (std::size_t i = 0; i < p.fns.size(); ++i) {
    if (p.def(static_cast<int>(i)).worker_entry) {
      reached[i] = true;
      queue.push_back(static_cast<int>(i));
    }
  }
  // Everything a reached function calls (and every lambda it defines —
  // link() adds definer -> lambda edges) runs on the worker.
  for (std::size_t head = 0; head < queue.size(); ++head) {
    for (const int callee : p.edges[static_cast<std::size_t>(queue[head])]) {
      if (!reached[static_cast<std::size_t>(callee)]) {
        reached[static_cast<std::size_t>(callee)] = true;
        queue.push_back(callee);
      }
    }
  }
  std::vector<int> out;
  for (std::size_t i = 0; i < p.fns.size(); ++i) {
    if (reached[i]) out.push_back(static_cast<int>(i));
  }
  return out;
}

// ---------------------------------------------------------------------------
// DOT export
// ---------------------------------------------------------------------------

std::string to_dot(const Project& p) {
  // Module-level edges, src/tools only (bench/tests/examples may include
  // anything — charting them hides the architecture instead of showing
  // it).
  std::set<std::pair<std::string, std::string>> edges;
  std::set<std::string> nodes;
  for (const FileNode& node : p.files) {
    if (node.module.rfind("src:", 0) != 0 && node.module.rfind("tools:", 0) != 0) {
      continue;
    }
    nodes.insert(node.module);
    for (const int target : node.include_targets) {
      const std::string& to = p.files[static_cast<std::size_t>(target)].module;
      if (to.empty() || to == node.module) continue;
      if (to.rfind("src:", 0) != 0 && to.rfind("tools:", 0) != 0) continue;
      nodes.insert(to);
      edges.insert({node.module, to});
    }
  }
  const auto id = [](const std::string& m) {
    std::string out = m;
    for (char& c : out) {
      if (c == ':') c = '_';
    }
    return out;
  };
  const auto label = [](const std::string& m) {
    const std::size_t colon = m.find(':');
    return colon == std::string::npos ? m : m.substr(colon + 1);
  };
  std::ostringstream out;
  out << "// satnetperf module DAG — generated by `satlint --graph`.\n"
      << "digraph satnet_layering {\n"
      << "  rankdir=BT;\n"
      << "  node [shape=box, fontname=\"Helvetica\", fontsize=11];\n"
      << "  edge [color=\"#666666\", arrowsize=0.7];\n";
  out << "  subgraph cluster_src {\n    label=\"src/\";\n    color=\"#bbbbbb\";\n";
  for (const std::string& n : nodes) {
    if (n.rfind("src:", 0) == 0) {
      out << "    " << id(n) << " [label=\"" << label(n) << "\"];\n";
    }
  }
  out << "  }\n";
  out << "  subgraph cluster_tools {\n    label=\"tools/\";\n    color=\"#bbbbbb\";\n";
  for (const std::string& n : nodes) {
    if (n.rfind("tools:", 0) == 0) {
      out << "    " << id(n) << " [label=\"" << label(n) << "\"];\n";
    }
  }
  out << "  }\n";
  for (const auto& [from, to] : edges) {
    out << "  " << id(from) << " -> " << id(to);
    if (!edge_allowed(from, to)) {
      out << " [color=\"#cc3333\", style=dashed, label=\"allow\", fontsize=9]";
    }
    out << ";\n";
  }
  out << "}\n";
  return out.str();
}

// ---------------------------------------------------------------------------
// Extraction JSON (golden for the call-graph front end)
// ---------------------------------------------------------------------------

namespace {

std::string jesc(std::string_view s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

std::string extraction_json(const Project& p, std::string_view path) {
  const int f = p.find_file(path);
  std::ostringstream out;
  out << "{\n  \"file\": \"" << jesc(path) << "\",\n  \"functions\": [";
  if (f >= 0) {
    const FileNode& node = p.files[static_cast<std::size_t>(f)];
    for (std::size_t d = 0; d < node.symbols.defs.size(); ++d) {
      const lex::FunctionDef& def = node.symbols.defs[d];
      out << (d == 0 ? "" : ",") << "\n    {\"name\":\"" << jesc(def.name)
          << "\",\"qualified\":\"" << jesc(def.qualified)
          << "\",\"line_begin\":" << def.line_begin
          << ",\"line_end\":" << def.line_end
          << ",\"lambda\":" << (def.is_lambda ? "true" : "false")
          << ",\"worker_entry\":" << (def.worker_entry ? "true" : "false")
          << ",\"parent\":" << def.parent << "}";
    }
    if (!node.symbols.defs.empty()) out << "\n  ";
  }
  out << "],\n  \"calls\": [";
  if (f >= 0) {
    const FileNode& node = p.files[static_cast<std::size_t>(f)];
    for (std::size_t c = 0; c < node.symbols.calls.size(); ++c) {
      const lex::CallSite& cs = node.symbols.calls[c];
      out << (c == 0 ? "" : ",") << "\n    {\"caller\":" << cs.caller
          << ",\"name\":\"" << jesc(cs.name) << "\",\"qualifier\":\""
          << jesc(cs.qualifier) << "\",\"member\":" << (cs.member ? "true" : "false")
          << ",\"line\":" << cs.line << "}";
    }
    if (!node.symbols.calls.empty()) out << "\n  ";
  }
  out << "]\n}\n";
  return out.str();
}

// ---------------------------------------------------------------------------
// Cache
// ---------------------------------------------------------------------------

std::uint64_t content_hash(
    const std::vector<std::pair<std::string, std::string_view>>& path_and_raw) {
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a 64
  const auto mix = [&](std::string_view s) {
    for (const char c : s) {
      h ^= static_cast<unsigned char>(c);
      h *= 1099511628211ull;
    }
  };
  for (const auto& [path, raw] : path_and_raw) {
    mix(path);
    h ^= 0xff;
    h *= 1099511628211ull;
    mix(raw);
    h ^= 0xfe;
    h *= 1099511628211ull;
  }
  return h;
}

namespace {

std::vector<std::string> split_fields(const std::string& line, std::size_t n) {
  // Splits on '|' into exactly n fields; the last field absorbs any
  // extra separators (justifications and messages may contain '|').
  std::vector<std::string> out;
  std::size_t start = 0;
  for (std::size_t k = 0; k + 1 < n; ++k) {
    const std::size_t bar = line.find('|', start);
    if (bar == std::string::npos) return {};
    out.push_back(line.substr(start, bar - start));
    start = bar + 1;
  }
  out.push_back(line.substr(start));
  return out;
}

}  // namespace

std::string serialize(const Project& p, std::uint64_t hash) {
  std::ostringstream out;
  out << "satlint-graph-cache 1\n";
  out << "hash " << std::hex << hash << std::dec << "\n";
  out << "files " << p.files.size() << "\n";
  for (const FileNode& node : p.files) {
    out << "f " << node.path << "|" << node.module << "|"
        << node.include_targets.size() << "|" << node.symbols.defs.size() << "|"
        << node.symbols.calls.size() << "|" << node.sources.size() << "\n";
    for (std::size_t k = 0; k < node.include_targets.size(); ++k) {
      out << "i " << node.include_targets[k] << "|" << node.include_lines[k]
          << "\n";
    }
    for (const lex::FunctionDef& d : node.symbols.defs) {
      out << "d " << d.name << "|" << d.qualified << "|" << d.line_begin << "|"
          << d.line_end << "|" << (d.is_lambda ? 1 : 0) << "|"
          << (d.worker_entry ? 1 : 0) << "|" << d.parent << "\n";
    }
    for (const lex::CallSite& c : node.symbols.calls) {
      out << "c " << c.caller << "|" << c.name << "|" << c.qualifier << "|"
          << (c.member ? 1 : 0) << "|" << c.line << "\n";
    }
    for (const SourceMark& s : node.sources) {
      out << "s " << s.line << "|" << s.what << "|" << (s.allowed ? 1 : 0)
          << "|" << s.justification << "\n";
    }
  }
  return out.str();
}

std::optional<Project> deserialize(std::string_view text, std::uint64_t expect_hash) {
  std::istringstream in{std::string(text)};
  std::string line;
  if (!std::getline(in, line) || line != "satlint-graph-cache 1") return std::nullopt;
  if (!std::getline(in, line) || line.rfind("hash ", 0) != 0) return std::nullopt;
  std::uint64_t stored = 0;
  {
    std::istringstream hs(line.substr(5));
    hs >> std::hex >> stored;
    if (hs.fail()) return std::nullopt;
  }
  if (stored != expect_hash) return std::nullopt;
  if (!std::getline(in, line) || line.rfind("files ", 0) != 0) return std::nullopt;
  std::size_t nfiles = 0;
  try {
    nfiles = static_cast<std::size_t>(std::stoul(line.substr(6)));
  } catch (...) {
    return std::nullopt;
  }

  Project p;
  p.files.reserve(nfiles);
  const auto to_int = [](const std::string& s, bool* ok) {
    try {
      *ok = true;
      return std::stoi(s);
    } catch (...) {
      *ok = false;
      return 0;
    }
  };
  for (std::size_t f = 0; f < nfiles; ++f) {
    if (!std::getline(in, line) || line.rfind("f ", 0) != 0) return std::nullopt;
    const auto head = split_fields(line.substr(2), 6);
    if (head.size() != 6) return std::nullopt;
    bool ok = true;
    FileNode node;
    node.path = head[0];
    node.module = head[1];
    const int ninc = to_int(head[2], &ok);
    if (!ok) return std::nullopt;
    const int ndef = to_int(head[3], &ok);
    if (!ok) return std::nullopt;
    const int ncall = to_int(head[4], &ok);
    if (!ok) return std::nullopt;
    const int nsrc = to_int(head[5], &ok);
    if (!ok) return std::nullopt;
    for (int k = 0; k < ninc; ++k) {
      if (!std::getline(in, line) || line.rfind("i ", 0) != 0) return std::nullopt;
      const auto fields = split_fields(line.substr(2), 2);
      if (fields.size() != 2) return std::nullopt;
      node.include_targets.push_back(to_int(fields[0], &ok));
      if (!ok) return std::nullopt;
      node.include_lines.push_back(to_int(fields[1], &ok));
      if (!ok) return std::nullopt;
    }
    for (int k = 0; k < ndef; ++k) {
      if (!std::getline(in, line) || line.rfind("d ", 0) != 0) return std::nullopt;
      const auto fields = split_fields(line.substr(2), 7);
      if (fields.size() != 7) return std::nullopt;
      lex::FunctionDef d;
      d.name = fields[0];
      d.qualified = fields[1];
      d.line_begin = to_int(fields[2], &ok);
      if (!ok) return std::nullopt;
      d.line_end = to_int(fields[3], &ok);
      if (!ok) return std::nullopt;
      d.is_lambda = fields[4] == "1";
      d.worker_entry = fields[5] == "1";
      d.parent = to_int(fields[6], &ok);
      if (!ok) return std::nullopt;
      node.symbols.defs.push_back(std::move(d));
    }
    for (int k = 0; k < ncall; ++k) {
      if (!std::getline(in, line) || line.rfind("c ", 0) != 0) return std::nullopt;
      const auto fields = split_fields(line.substr(2), 5);
      if (fields.size() != 5) return std::nullopt;
      lex::CallSite c;
      c.caller = to_int(fields[0], &ok);
      if (!ok) return std::nullopt;
      c.name = fields[1];
      c.qualifier = fields[2];
      c.member = fields[3] == "1";
      c.line = to_int(fields[4], &ok);
      if (!ok) return std::nullopt;
      node.symbols.calls.push_back(std::move(c));
    }
    for (int k = 0; k < nsrc; ++k) {
      if (!std::getline(in, line) || line.rfind("s ", 0) != 0) return std::nullopt;
      const auto fields = split_fields(line.substr(2), 4);
      if (fields.size() != 4) return std::nullopt;
      SourceMark s;
      s.line = to_int(fields[0], &ok);
      if (!ok) return std::nullopt;
      s.what = fields[1];
      s.allowed = fields[2] == "1";
      s.justification = fields[3];
      node.sources.push_back(std::move(s));
    }
    p.files.push_back(std::move(node));
  }
  // Validate include targets before linking.
  for (const FileNode& node : p.files) {
    for (const int t : node.include_targets) {
      if (t < 0 || t >= static_cast<int>(p.files.size())) return std::nullopt;
    }
  }
  link(p);
  return p;
}

}  // namespace satlint::graph
