// benchreport CLI: normalize BENCH_*.json files, append to the ledger,
// and gate against a baseline.
//
//   benchreport --append BENCH_a.json ... [--ledger DIR] [--run-id ID]
//   benchreport --check  BENCH_a.json ... [--baseline FILE]
//                        [--tolerance X] [--ratios-only]
//
// --append writes one {"type":"benchrun",...} line per file to
// <ledger>/history.jsonl (created if missing). --check compares the
// given files against the baseline ledger (default
// <ledger>/baseline.jsonl) and exits 1 when a gated metric regresses
// past the tolerance. Missing benches are reported but never fail the
// gate, so partial runs stay usable.
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "benchreport.hpp"

namespace {

using namespace satnet::benchreport;

int usage() {
  std::fprintf(stderr,
               "usage: benchreport --append FILES... [--ledger DIR] [--run-id ID]\n"
               "       benchreport --check FILES... [--baseline FILE]\n"
               "                   [--tolerance X] [--ratios-only] [--ledger DIR]\n");
  return 2;
}

std::string basename_no_ext(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  std::string name = slash == std::string::npos ? path : path.substr(slash + 1);
  const std::size_t dot = name.find_last_of('.');
  if (dot != std::string::npos) name = name.substr(0, dot);
  return name;
}

bool load_runs(const std::vector<std::string>& files, const std::string& run_id,
               std::vector<BenchRun>* out) {
  for (const std::string& path : files) {
    std::string text;
    std::string error;
    if (!read_file(path, &text, &error)) {
      std::fprintf(stderr, "benchreport: %s\n", error.c_str());
      return false;
    }
    BenchRun run;
    if (!parse_bench_json(text, basename_no_ext(path), &run, &error)) {
      std::fprintf(stderr, "benchreport: %s: %s\n", path.c_str(), error.c_str());
      return false;
    }
    run.run_id = run_id;
    out->push_back(std::move(run));
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  bool do_append = false;
  bool do_check = false;
  bool ratios_only = false;
  double tolerance = 0.15;
  std::string ledger_dir = "bench/ledger";
  std::string baseline_path;
  std::string run_id = "local";
  std::vector<std::string> files;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--append") {
      do_append = true;
    } else if (arg == "--check") {
      do_check = true;
    } else if (arg == "--ratios-only") {
      ratios_only = true;
    } else if (arg == "--ledger" && i + 1 < argc) {
      ledger_dir = argv[++i];
    } else if (arg == "--baseline" && i + 1 < argc) {
      baseline_path = argv[++i];
    } else if (arg == "--run-id" && i + 1 < argc) {
      run_id = argv[++i];
    } else if (arg == "--tolerance" && i + 1 < argc) {
      if (!parse_tolerance(argv[++i], &tolerance)) {
        std::fprintf(stderr,
                     "benchreport: --tolerance expects a finite number >= 0, got '%s'\n",
                     argv[i]);
        return 2;
      }
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "benchreport: unknown flag %s\n", arg.c_str());
      return usage();
    } else {
      files.push_back(arg);
    }
  }
  if ((do_append == do_check) || files.empty()) return usage();

  std::vector<BenchRun> runs;
  if (!load_runs(files, run_id, &runs)) return 2;

  if (do_append) {
    const std::string path = ledger_dir + "/history.jsonl";
    std::ofstream out(path, std::ios::app);
    if (!out) {
      std::fprintf(stderr, "benchreport: cannot open %s for append\n",
                   path.c_str());
      return 2;
    }
    for (const BenchRun& run : runs) {
      out << ledger_line(run) << "\n";
      std::printf("benchreport: appended %s (%zu metrics) to %s\n",
                  run.bench.c_str(), run.metrics.size(), path.c_str());
    }
    return 0;
  }

  if (baseline_path.empty()) baseline_path = ledger_dir + "/baseline.jsonl";
  std::string text;
  std::string error;
  if (!read_file(baseline_path, &text, &error)) {
    std::fprintf(stderr, "benchreport: %s\n", error.c_str());
    return 2;
  }
  const std::vector<BenchRun> baseline = parse_ledger(text);
  if (baseline.empty()) {
    std::fprintf(stderr, "benchreport: baseline %s has no benchrun lines\n",
                 baseline_path.c_str());
    return 2;
  }
  const CheckResult result = check(baseline, runs, tolerance, ratios_only);
  std::fputs(render_table(result, tolerance).c_str(), stdout);
  return result.ok() ? 0 : 1;
}
