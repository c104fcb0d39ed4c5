// Deterministic evaluation of one generated world.
//
// evaluate_world() drives a synth::GeneratedWorld through the sharded
// campaign runtime — one shard per terminal, fork_stable streams keyed
// by terminal name — and folds the results into a WorldEval: a canonical
// text report (the byte-compared artifact), per-sample reachability
// bits, flow-conservation accounting, and a small set of scalar
// metrics. Everything in a WorldEval is a pure function of (spec,
// options); the invariant harness (invariants.hpp) compares WorldEvals
// across thread counts, timeline ablation, and widening fault
// plans instead of pinning goldens.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "fault/plan.hpp"
#include "synth/worldgen.hpp"

namespace satnet::matrix {

/// Deliberate breakages for the harness self-check: each one must be
/// caught by exactly the invariant it violates, proving the matrix
/// would notice the real thing.
enum class Mutation {
  none,
  thread_stamp,  ///< stamps the thread count into the report (thread identity)
  nan_metric,    ///< exports a NaN metric (finite metrics)
  flow_bytes,    ///< corrupts one flow's byte accounting (conservation)
};

struct EvalOptions {
  unsigned threads = 1;
  /// Widens every monotone fault window (gateway_outage,
  /// weather_escalation, burst_loss) by this fraction of the gap to the
  /// next same-(kind, target) window — see widen_plan().
  double widen_fraction = 0.0;
  /// false ablates the epoch timeline for the duration of the
  /// evaluation (value-transparency check); restored on exit.
  bool use_timeline = true;
  Mutation mutation = Mutation::none;
};

/// Everything the invariants compare.
struct WorldEval {
  /// Canonical text: spec summary, one line per terminal, aggregates.
  /// Byte-identical across thread counts and timeline ablation.
  std::string report;
  /// Terminal-major reachability bits: ok_bits[terminal * samples + k]
  /// is 1 when the terminal had a usable sky at sample k (reachable and
  /// not weather-blacked-out). The monotone-degradation axis.
  std::vector<std::uint8_t> ok_bits;
  std::size_t samples_per_terminal = 0;
  std::size_t flows = 0;
  std::size_t conservation_violations = 0;
  /// Scalar metrics, sorted by name; the finite-metrics invariant scans
  /// these plus the process metrics registry.
  std::vector<std::pair<std::string, double>> metrics;
};

/// Widens the monotone fault windows of a plan: each gateway_outage /
/// weather_escalation / burst_loss window's end moves toward the next
/// same-(kind, target) window start (or the horizon) by `fraction` of
/// the gap. Widened plans are nested supersets as fraction grows, and
/// handoff_storm / shard_failure events are left untouched (storms move
/// epoch boundaries, which is not a monotone axis). fraction 0 returns
/// the plan unchanged.
fault::FaultPlan widen_plan(const fault::FaultPlan& plan, double horizon_sec,
                            double fraction);

/// Evaluates a world. Installs the (possibly widened) fault plan for
/// the duration; not reentrant (the fault hook and ablation switches
/// are process-wide) — callers run evaluations sequentially.
WorldEval evaluate_world(const synth::GeneratedWorld& world, const EvalOptions& options);

}  // namespace satnet::matrix
