// satlint CLI: scans src/, tools/, examples/, tests/ and exits
// nonzero on any determinism/concurrency contract violation.
//
//   satlint --root <repo>                 lint the whole tree
//   satlint --root <repo> --json r.json   also write the JSON report
//   satlint --root <repo> --graph g.dot   export the module include DAG
//   satlint --root <repo> --graph-cache f reuse the call/include graph
//                                         when no file changed
//   satlint --root <repo> --changed REF   report only on files changed
//                                         vs merge-base(REF, HEAD) — the
//                                         graph still covers the tree
//   satlint --root <repo> --baseline f    gate per-rule suppression
//                                         counts against a committed
//                                         baseline (--write-baseline
//                                         regenerates it)
//   satlint file.cpp ...                  lint explicit files (per-file
//                                         rules only)
//   satlint --list-rules                  print every rule + summary
//
// Diagnostics are GCC-style (file:line: error[rule]: message) so editors
// and CI annotate them natively.
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "satlint.hpp"

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--root DIR] [--json FILE] [--graph FILE] "
               "[--graph-cache FILE] [--changed BASE_REF] [--baseline FILE] "
               "[--write-baseline] [--quiet] [--list-rules] [files...]\n",
               argv0);
  return 2;
}

std::string run_command(const std::string& cmd) {
  std::string out;
  std::FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) return out;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, pipe)) > 0) out.append(buf, n);
  pclose(pipe);
  return out;
}

std::string strip(std::string s) {
  while (!s.empty() && (s.back() == '\n' || s.back() == '\r' || s.back() == ' ')) {
    s.pop_back();
  }
  return s;
}

bool lintable_name(const std::string& p) {
  const auto ends = [&](const char* suffix) {
    const std::size_t n = std::string(suffix).size();
    return p.size() >= n && p.compare(p.size() - n, n, suffix) == 0;
  };
  return ends(".cpp") || ends(".hpp") || ends(".h");
}

/// Files changed in the working tree vs merge-base(base_ref, HEAD),
/// plus untracked files — the pre-push surface.
std::vector<std::string> changed_files(const std::string& root,
                                       const std::string& base_ref) {
  const std::string git = "git -C '" + root + "' ";
  std::string base = strip(run_command(git + "merge-base '" + base_ref +
                                       "' HEAD 2>/dev/null"));
  if (base.empty()) base = base_ref;  // detached fetch; diff the ref itself
  const std::string diff =
      run_command(git + "diff --name-only '" + base + "' 2>/dev/null") +
      run_command(git + "ls-files --others --exclude-standard 2>/dev/null");
  std::vector<std::string> out;
  std::istringstream in(diff);
  std::string line;
  while (std::getline(in, line)) {
    line = strip(line);
    if (!line.empty() && lintable_name(line)) out.push_back(line);
  }
  return out;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

}  // namespace

int main(int argc, char** argv) {
  std::string root = ".";
  std::string json_path;
  std::string baseline_path;
  std::string changed_ref;
  bool write_baseline = false;
  bool quiet = false;
  std::vector<std::string> files;
  satlint::LintOptions options;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--root" && i + 1 < argc) {
      root = argv[++i];
    } else if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else if (arg == "--graph" && i + 1 < argc) {
      options.dot_path = argv[++i];
    } else if (arg == "--graph-cache" && i + 1 < argc) {
      options.graph_cache = argv[++i];
    } else if (arg == "--changed" && i + 1 < argc) {
      changed_ref = argv[++i];
    } else if (arg == "--baseline" && i + 1 < argc) {
      baseline_path = argv[++i];
    } else if (arg == "--write-baseline") {
      write_baseline = true;
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (arg == "--list-rules") {
      for (const satlint::RuleInfo& r : satlint::rules()) {
        std::printf("%-16s %s\n", std::string(r.id).c_str(),
                    std::string(r.summary).c_str());
      }
      return 0;
    } else if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      return usage(argv[0]);
    } else {
      files.push_back(arg);
    }
  }
  if (write_baseline && baseline_path.empty()) {
    std::fprintf(stderr, "satlint: --write-baseline needs --baseline FILE\n");
    return 2;
  }

  if (!changed_ref.empty()) {
    options.focus = changed_files(root, changed_ref);
    if (options.focus.empty()) {
      if (!quiet) {
        std::printf("satlint: no C++ files changed vs %s\n", changed_ref.c_str());
      }
      return 0;
    }
  }

  const std::vector<std::string> subdirs = {"src", "tools", "examples", "tests"};
  const satlint::TreeReport report =
      files.empty() ? satlint::lint_tree(root, subdirs, options)
                    : satlint::lint_files(files, options);

  for (const satlint::FileReport& f : report.files) {
    for (const satlint::Diagnostic& d : f.violations) {
      std::fprintf(stderr, "%s:%d: error[%s]: %s\n", d.file.c_str(), d.line,
                   d.rule.c_str(), d.message.c_str());
    }
  }

  if (!json_path.empty()) {
    const std::string json = satlint::to_json(report);
    std::FILE* out = std::fopen(json_path.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "satlint: cannot write %s\n", json_path.c_str());
      return 2;
    }
    std::fwrite(json.data(), 1, json.size(), out);
    std::fclose(out);
  }

  // The baseline gate only makes sense for a full-tree scan: a --changed
  // or explicit-file run sees a subset of the suppressions.
  bool baseline_ok = true;
  if (!baseline_path.empty() && files.empty() && changed_ref.empty()) {
    if (write_baseline) {
      std::ofstream out(baseline_path, std::ios::binary);
      out << satlint::format_baseline(report);
      if (!quiet) std::printf("satlint: wrote %s\n", baseline_path.c_str());
    } else {
      const auto baseline = satlint::parse_baseline(read_file(baseline_path));
      if (!baseline) {
        std::fprintf(stderr, "satlint: cannot parse baseline %s\n",
                     baseline_path.c_str());
        baseline_ok = false;
      } else {
        for (const std::string& err : satlint::check_baseline(report, *baseline)) {
          std::fprintf(stderr, "satlint: suppression baseline: %s\n", err.c_str());
          baseline_ok = false;
        }
      }
    }
  }

  if (!quiet) {
    std::printf(
        "satlint: %zu file(s) scanned, %zu whitelisted, %zu violation(s), "
        "%zu suppression(s)\n",
        report.files_scanned, report.files_whitelisted, report.violation_count(),
        report.suppressed_count());
  }
  return report.clean() && baseline_ok ? 0 : 1;
}
