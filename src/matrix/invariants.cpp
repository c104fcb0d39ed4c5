#include "matrix/invariants.hpp"

#include <cmath>
#include <cstdio>

#include "obs/export.hpp"
#include "obs/metrics.hpp"

namespace satnet::matrix {

namespace {

std::string first_diff(const std::string& a, const std::string& b) {
  std::size_t i = 0;
  while (i < a.size() && i < b.size() && a[i] == b[i]) ++i;
  // Report the enclosing line so the diff is readable in CI logs.
  const std::size_t line_start = a.rfind('\n', i == 0 ? 0 : i - 1);
  const std::size_t from = line_start == std::string::npos ? 0 : line_start + 1;
  const std::size_t a_end = std::min(a.size(), a.find('\n', from));
  const std::size_t b_end = std::min(b.size(), b.find('\n', from));
  return "first divergence at byte " + std::to_string(i) + ": \"" +
         a.substr(from, a_end - from) + "\" vs \"" + b.substr(from, b_end - from) + "\"";
}

}  // namespace

std::optional<InvariantViolation> check_spec(const synth::ScenarioSpec& spec,
                                             const CheckOptions& options) {
  const synth::GeneratedWorld world(spec);

  EvalOptions base_opts;
  base_opts.threads = options.thread_counts.empty() ? 1 : options.thread_counts.front();
  base_opts.mutation = options.mutation;
  const WorldEval base = evaluate_world(world, base_opts);

  // Thread identity: the report is a pure function of the spec, so any
  // thread count must reproduce it byte for byte.
  for (std::size_t i = 1; i < options.thread_counts.size(); ++i) {
    EvalOptions opts = base_opts;
    opts.threads = options.thread_counts[i];
    const WorldEval eval = evaluate_world(world, opts);
    if (eval.report != base.report) {
      return InvariantViolation{
          "thread-identity",
          "threads=" + std::to_string(opts.threads) + " diverges from threads=" +
              std::to_string(base_opts.threads) + ": " +
              first_diff(base.report, eval.report)};
    }
  }

  // Ablation identity: the epoch timeline is a value-transparent
  // accelerator.
  {
    EvalOptions opts = base_opts;
    opts.use_timeline = false;
    const WorldEval eval = evaluate_world(world, opts);
    if (eval.report != base.report) {
      return InvariantViolation{"ablation-identity",
                                "timeline off diverges: " +
                                    first_diff(base.report, eval.report)};
    }
  }

  // Flow conservation: every simulated flow's bytes balance.
  if (base.conservation_violations > 0) {
    return InvariantViolation{
        "flow-conservation", std::to_string(base.conservation_violations) + " of " +
                                 std::to_string(base.flows) +
                                 " flows violate bytes_sent == bytes_acked + bytes_retrans"};
  }

  // Monotone degradation: widening the monotone fault windows can only
  // lose reachability, never gain it.
  {
    std::vector<std::uint8_t> prev = base.ok_bits;
    double prev_fraction = 0.0;
    for (const double fraction : options.widen_fractions) {
      EvalOptions opts = base_opts;
      opts.widen_fraction = fraction;
      const WorldEval eval = evaluate_world(world, opts);
      if (eval.ok_bits.size() != prev.size()) {
        return InvariantViolation{"monotone-degradation",
                                  "ok-bit vector size changed under widening"};
      }
      for (std::size_t j = 0; j < prev.size(); ++j) {
        if (eval.ok_bits[j] && !prev[j]) {
          const std::size_t samples = eval.samples_per_terminal;
          char buf[192];
          std::snprintf(buf, sizeof(buf),
                        "terminal %zu sample %zu became reachable when widening "
                        "%.2f -> %.2f",
                        samples > 0 ? j / samples : j, samples > 0 ? j % samples : 0,
                        prev_fraction, fraction);
          return InvariantViolation{"monotone-degradation", buf};
        }
      }
      prev = eval.ok_bits;
      prev_fraction = fraction;
    }
  }

  // Finite metrics: nothing exported may be NaN/Inf — neither the
  // world's own scalars nor anything in the process registry.
  for (const auto& [name, value] : base.metrics) {
    if (!std::isfinite(value)) {
      return InvariantViolation{"finite-metrics", "world metric " + name + " is not finite"};
    }
  }
  {
    const std::vector<std::string> bad =
        obs::nonfinite_metrics(obs::MetricsRegistry::global().scrape());
    if (!bad.empty()) {
      return InvariantViolation{"finite-metrics",
                                "registry metric " + bad.front() + " is not finite"};
    }
  }

  return std::nullopt;
}

}  // namespace satnet::matrix
