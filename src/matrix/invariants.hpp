// The cross-cutting invariant catalog for generated worlds.
//
// Instead of pinning goldens per scenario, the matrix asserts properties
// every correct world must have (DESIGN.md §15):
//   thread-identity        byte-identical report at 1/2/8 threads
//   ablation-identity      byte-identical report with the epoch timeline
//                          disabled
//   flow-conservation      bytes_sent == bytes_acked + bytes_retrans on
//                          every simulated flow
//   monotone-degradation   widening the monotone fault windows never
//                          turns an unreachable sample reachable
//   finite-metrics         no NaN/Inf in the world's scalar metrics or
//                          the process metrics registry
// check_spec() runs them all on one spec and reports the first
// violation; the Mutation hooks in eval.hpp prove each detector fires.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "matrix/eval.hpp"
#include "synth/worldgen.hpp"

namespace satnet::matrix {

struct CheckOptions {
  std::vector<unsigned> thread_counts = {1, 2, 8};
  /// Widening fractions, checked in order; each must be pointwise no
  /// better than the previous (nested supersets of fault windows).
  std::vector<double> widen_fractions = {0.35, 0.7};
  Mutation mutation = Mutation::none;
};

struct InvariantViolation {
  std::string invariant;  ///< catalog name, e.g. "thread-identity"
  std::string detail;
};

/// Materializes the spec and runs the whole catalog. Returns the first
/// violation, or nullopt when every invariant holds. Sequential and not
/// reentrant (installs fault hooks and flips ablation switches).
std::optional<InvariantViolation> check_spec(const synth::ScenarioSpec& spec,
                                             const CheckOptions& options = {});

}  // namespace satnet::matrix
