// Shared types of the end-to-end benchmark (see run.py for how it is
// driven and main.cpp for what one run reports).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// Worker threads every workload hands the library (nproc = 4).
inline constexpr unsigned kThreads = 4;

/// What one timed pass of a workload did. Only the library calls are
/// inside `ms`; the output checks run after the clock stops.
struct Pass {
  double ms = 0;
  std::uint64_t items = 0;       ///< records / traceroutes / worlds produced
  std::uint64_t ops = 0;         ///< shards / probes / worlds attempted
  std::uint64_t failed_ops = 0;  ///< a failed output check fails them all
  std::string error;             ///< first failed check; empty when all pass
  /// Latency of each operation, for workloads that time their operations
  /// one by one (the matrix's worlds); empty otherwise.
  std::vector<double> op_ms;
};

/// One line of the per-layer report.
struct Row {
  std::string name;
  double value = 0;
  std::string unit;
  std::string base;    ///< sample count or denominator behind the value
  std::string absent;  ///< non-empty: not measured on this workload, and why
};

/// Registry counters and gauges by name.
using Counters = std::map<std::string, double>;
Counters read_counters();
/// after - before, name by name (a name new in `after` counts from 0).
Counters delta(const Counters& after, const Counters& before);

/// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }
std::uint64_t fnv1a(std::string_view bytes);

/// Per span name over the traced passes: total duration and total self
/// time, in ms.
struct SpanTotal {
  double ms = 0;
  double self_ms = 0;
  std::size_t count = 0;
};
std::map<std::string, SpanTotal> span_totals(std::uint64_t first_pass,
                                             std::uint64_t last_pass);

class Workload {
 public:
  virtual ~Workload() = default;

  virtual const char* item_unit() const = 0;  ///< what `Pass::items` counts
  virtual const char* op_unit() const = 0;    ///< what `Pass::ops` counts

  /// One-off construction before the first timed call; its time is
  /// `setup_s`. Called several times; each call replaces what the
  /// previous one built.
  virtual void setup() = 0;
  /// Untimed: runs the pass's calls once on a small input after set-up,
  /// so lazy statics and first-use allocations happen before the first
  /// timed pass.
  virtual void warmup() {}
  /// One timed pass plus its output checks.
  virtual Pass pass() = 0;
  /// Workload-specific per-layer rows, from the spans of traced passes
  /// [first_pass, last_pass] and the registry delta over them. May run
  /// extra traced calls of its own.
  virtual void layer_rows(std::uint64_t first_pass, std::uint64_t last_pass,
                          const Counters& traced_delta, std::size_t traced_passes,
                          std::vector<Row>& rows) = 0;
  /// Self-check hook: makes every later pass produce a wrong output.
  virtual void inject_fault() = 0;
};

/// nullptr for an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed);

/// Layer rows every workload reports: registry-derived ratios over the
/// traced passes.
void counter_rows(const Counters& traced_delta, std::size_t traced_passes,
                  std::vector<Row>& rows);
/// Per-call probes on inputs drawn from `seed`: AccessNetwork::sample,
/// World::sample_path, TcpFlow::run_for and ripe::build_traceroute.
void probe_rows(std::uint64_t seed, std::vector<Row>& rows);

}  // namespace perfbench
