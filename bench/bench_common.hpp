// Shared helpers for the google-benchmark binaries (bench_timeline,
// bench_matrix): each prints a timing table, writes its BENCH_*.json
// report for the bench ledger, then runs its registered kernels. The
// paper's tables and figures are not benches: `satnetctl paper` prints
// them (src/io/paper.hpp).
//
// Every bench accepts the shared run flags of io/session.hpp
// (--threads, --metrics-out, --trace-out, --fault-plan, ...) next to
// google-benchmark's own; any other argument exits 2 with one
// diagnostic.
#pragma once

#include <benchmark/benchmark.h>

#include <cstdio>

#include "io/session.hpp"

namespace satnet::bench {

/// Worker threads for campaign construction (--threads N; 0 = one per
/// hardware thread). Output is identical for every value — the knob only
/// moves wall-clock.
inline unsigned& threads() {
  static unsigned t = 0;
  return t;
}

inline void header(const char* figure, const char* caption) {
  std::printf("\n================================================================\n");
  std::printf("%s — %s\n", figure, caption);
  std::printf("================================================================\n");
}

inline void note(const char* text) { std::printf("  %s\n", text); }

}  // namespace satnet::bench

/// Parses the shared run flags left after google-benchmark strips its
/// own, prints the report, runs the registered kernels, then writes the
/// requested exports.
#define SATNET_BENCH_MAIN(print_fn)                               \
  int main(int argc, char** argv) {                               \
    ::satnet::io::RunSession session(argc, argv);                 \
    ::benchmark::Initialize(&argc, argv);                         \
    session.start(argc, argv, 1);                                 \
    ::satnet::bench::threads() = session.threads();               \
    print_fn();                                                   \
    ::benchmark::RunSpecifiedBenchmarks();                        \
    ::benchmark::Shutdown();                                      \
    return session.finish(0);                                     \
  }
