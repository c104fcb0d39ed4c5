#include "matrix/eval.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <map>
#include <string>

#include "fault/hook.hpp"
#include "orbit/timeline.hpp"
#include "stats/rng.hpp"
#include "transport/linkmodel.hpp"
#include "transport/quic.hpp"
#include "transport/tcp.hpp"
#include "runtime/sharded.hpp"
#include "weather/weather.hpp"

namespace satnet::matrix {

namespace {

/// Cap on samples per terminal so a long-horizon world stays cheap; the
/// effective cadence stretches instead of the evaluation exploding.
constexpr std::size_t kMaxSamples = 40;

/// Restores the timeline ablation switch on scope exit.
class ScopedAblation {
 public:
  explicit ScopedAblation(bool use_timeline) : timeline_was_(orbit::timeline_enabled()) {
    orbit::set_timeline_enabled(use_timeline && timeline_was_);
  }
  ~ScopedAblation() { orbit::set_timeline_enabled(timeline_was_); }
  ScopedAblation(const ScopedAblation&) = delete;
  ScopedAblation& operator=(const ScopedAblation&) = delete;

 private:
  bool timeline_was_;
};

struct TerminalResult {
  std::string line;
  std::vector<std::uint8_t> ok;
  std::size_t flows = 0;
  std::size_t violations = 0;
  std::size_t reachable = 0;
  std::size_t handoffs = 0;
  double sum_one_way_ms = 0;
  double tcp_goodput_mbps = 0;
  double quic_goodput_mbps = 0;
};

}  // namespace

fault::FaultPlan widen_plan(const fault::FaultPlan& plan, double horizon_sec,
                            double fraction) {
  if (fraction <= 0.0 || plan.empty()) return plan;
  const auto widens = [](fault::EventKind kind) {
    return kind == fault::EventKind::gateway_outage ||
           kind == fault::EventKind::weather_escalation ||
           kind == fault::EventKind::burst_loss;
  };
  std::vector<fault::FaultEvent> events = plan.events();
  // Events are in canonical (kind, target, t_start) order, so the next
  // same-stream window is simply the next event with equal (kind,
  // target). The new end moves a fraction of the way toward that limit
  // — nested supersets as fraction grows, never overlapping.
  for (std::size_t i = 0; i < events.size(); ++i) {
    fault::FaultEvent& ev = events[i];
    if (!widens(ev.kind)) continue;
    double limit = std::max(horizon_sec, ev.t_end_sec);
    if (i + 1 < events.size() && events[i + 1].kind == ev.kind &&
        events[i + 1].target == ev.target) {
      limit = events[i + 1].t_start_sec;
    }
    const double f = std::min(fraction, 1.0);
    ev.t_end_sec = ev.t_end_sec + f * std::max(0.0, limit - ev.t_end_sec);
  }
  fault::FaultPlan widened{std::move(events)};
  widened.validate();
  return widened;
}

WorldEval evaluate_world(const synth::GeneratedWorld& world, const EvalOptions& options) {
  const synth::ScenarioSpec& spec = world.spec();
  const fault::FaultPlan plan =
      widen_plan(spec.faults, spec.horizon_sec, options.widen_fraction);
  const fault::ScopedHook hook(plan);
  const ScopedAblation ablation(options.use_timeline);

  std::size_t samples = static_cast<std::size_t>(
      std::floor(spec.horizon_sec / std::max(1.0, spec.step_sec)));
  samples = std::clamp<std::size_t>(samples, 1, kMaxSamples);
  const double step =
      spec.horizon_sec / static_cast<double>(samples);  // stretched cadence

  // Warm the epoch timeline with exactly the queries the shards will
  // make, per LEO/MEO network (no-op for GEO and under ablation). The
  // hook is already installed, so era keys match the evaluation.
  if (options.use_timeline) {
    for (std::size_t n = 0; n < world.n_networks(); ++n) {
      std::vector<orbit::TimelineQuery> queries;
      for (std::size_t i = 0; i < spec.terminals.size(); ++i) {
        if (spec.terminals[i].network != n) continue;
        for (std::size_t k = 0; k < samples; ++k) {
          const double t = static_cast<double>(k) * step;
          queries.push_back({world.terminal_position(i, t), t});
        }
      }
      if (!queries.empty()) {
        orbit::EpochTimeline::ensure(world.network(n), std::move(queries),
                                     options.threads);
      }
    }
  }

  const stats::Rng master(spec.seed);
  const auto shard_fn = [&](std::size_t i) {
    TerminalResult r;
    const synth::TerminalSpec& term = spec.terminals[i];
    const orbit::AccessNetwork& net = world.network(term.network);
    const transport::LinkTraits& traits = spec.networks[term.network].traits;
    stats::Rng rng = master.fork_stable("matrix.eval").fork_stable(term.name);

    r.ok.resize(samples, 0);
    std::size_t first_ok = samples;
    orbit::AccessSample first_sample;
    weather::LinkImpact first_impact;
    double first_t = 0;
    for (std::size_t k = 0; k < samples; ++k) {
      const double t = static_cast<double>(k) * step;
      const geo::GeoPoint pos = world.terminal_position(i, t);
      const orbit::AccessSample s = net.sample_with_handoff(pos, t);
      const weather::LinkImpact impact =
          world.weather().impact_at(pos, t, net.config().orbit);
      const bool ok = s.reachable && !impact.outage;
      r.ok[k] = ok ? 1 : 0;
      if (ok) {
        ++r.reachable;
        r.sum_one_way_ms += s.one_way_ms;
        if (s.handoff) ++r.handoffs;
        if (first_ok == samples) {
          first_ok = k;
          first_sample = s;
          first_impact = impact;
          first_t = t;
        }
      }
    }

    if (first_ok < samples) {
      transport::PathProfile path =
          transport::build_download_profile(first_sample, traits, 2.0, rng);
      transport::apply_impairment(path, first_impact);
      transport::apply_link_faults(path, net.config().name, first_t);
      if (path.bottleneck_mbps > 0) {
        transport::FlowResult tcp =
            transport::TcpFlow(path, {}, rng.fork_stable("tcp")).run_for(3000.0);
        transport::FlowResult quic =
            transport::QuicFlow(path, {}, rng.fork_stable("quic")).run_for(3000.0);
        if (options.mutation == Mutation::flow_bytes && i == 0) {
          tcp.bytes_acked += 1;  // deliberate: the self-check must trip conservation
        }
        r.flows = 2;
        r.violations = (tcp.conserved() ? 0 : 1) + (quic.conserved() ? 0 : 1);
        r.tcp_goodput_mbps = tcp.goodput_mbps;
        r.quic_goodput_mbps = quic.goodput_mbps;
        char buf[256];
        std::snprintf(buf, sizeof(buf),
                      " tcp=%.4f/%.5f quic=%.4f/%.5f conserved=%d",
                      tcp.goodput_mbps, tcp.retrans_fraction, quic.goodput_mbps,
                      quic.retrans_fraction,
                      tcp.conserved() && quic.conserved() ? 1 : 0);
        r.line = buf;
      }
    }
    char head[192];
    std::snprintf(head, sizeof(head), "%s net=%s ok=%zu/%zu mean_ow_ms=%.4f handoffs=%zu",
                  term.name.c_str(), net.config().name.c_str(), r.reachable, samples,
                  r.reachable > 0 ? r.sum_one_way_ms / static_cast<double>(r.reachable)
                                  : 0.0,
                  r.handoffs);
    r.line = std::string(head) + r.line;
    return r;
  };

  runtime::RetryPolicy policy;
  policy.max_attempts = 2;
  policy.degrade = true;  // injected shard failures quarantine deterministically
  runtime::CampaignReport report;
  const runtime::ShardedCampaign<TerminalResult> campaign(spec.terminals.size(), shard_fn,
                                                          "matrix.eval");
  const std::vector<TerminalResult> results =
      campaign.run_with_report(options.threads, policy, &report);

  WorldEval eval;
  eval.samples_per_terminal = samples;
  eval.report = "world " + spec.summary() + "\n";
  std::size_t reachable_total = 0;
  std::size_t sample_total = 0;
  std::size_t handoff_total = 0;
  double one_way_sum = 0;
  double tcp_goodput_sum = 0;
  std::size_t flows_with_goodput = 0;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const TerminalResult& r = results[i];
    if (r.line.empty()) {
      // Quarantined shard: the default slot. Deterministic (the failure
      // decision hashes (phase, shard, attempt)), so it may appear in
      // the byte-compared report.
      eval.report += spec.terminals[i].name + " degraded\n";
    } else {
      eval.report += r.line + "\n";
    }
    if (r.ok.size() == samples) {
      eval.ok_bits.insert(eval.ok_bits.end(), r.ok.begin(), r.ok.end());
    } else {
      eval.ok_bits.insert(eval.ok_bits.end(), samples, 0);
    }
    reachable_total += r.reachable;
    sample_total += samples;
    handoff_total += r.handoffs;
    one_way_sum += r.sum_one_way_ms;
    eval.flows += r.flows;
    eval.conservation_violations += r.violations;
    if (r.flows > 0) {
      tcp_goodput_sum += r.tcp_goodput_mbps;
      ++flows_with_goodput;
    }
  }

  const double ok_fraction =
      sample_total > 0
          ? static_cast<double>(reachable_total) / static_cast<double>(sample_total)
          : 0.0;
  const double mean_one_way =
      reachable_total > 0 ? one_way_sum / static_cast<double>(reachable_total) : 0.0;
  const double mean_tcp_goodput =
      flows_with_goodput > 0 ? tcp_goodput_sum / static_cast<double>(flows_with_goodput)
                             : 0.0;
  eval.metrics.emplace_back("matrix.conservation_violations",
                            static_cast<double>(eval.conservation_violations));
  eval.metrics.emplace_back("matrix.degraded", static_cast<double>(report.degraded));
  eval.metrics.emplace_back("matrix.flows", static_cast<double>(eval.flows));
  eval.metrics.emplace_back("matrix.handoffs", static_cast<double>(handoff_total));
  eval.metrics.emplace_back("matrix.mean_one_way_ms", mean_one_way);
  eval.metrics.emplace_back("matrix.ok_fraction", ok_fraction);
  eval.metrics.emplace_back("matrix.tcp_goodput_mean_mbps", mean_tcp_goodput);
  if (options.mutation == Mutation::nan_metric) {
    eval.metrics.emplace_back("matrix.zz_mutant",
                              std::numeric_limits<double>::quiet_NaN());
  }

  char agg[224];
  std::snprintf(agg, sizeof(agg),
                "aggregate ok=%.6f mean_ow_ms=%.4f handoffs=%zu flows=%zu "
                "degraded=%zu retries=%zu",
                ok_fraction, mean_one_way, handoff_total, eval.flows, report.degraded,
                report.retries);
  eval.report += agg;
  eval.report += "\n";
  if (options.mutation == Mutation::thread_stamp) {
    // Deliberate: leaks the thread count into the byte-compared report,
    // which the thread-identity invariant must catch.
    eval.report += "threads=" + std::to_string(options.threads) + "\n";
  }
  return eval;
}

}  // namespace satnet::matrix
