// Layer measurements every workload reports in its traced run: ratios
// derived from the library's own registry counters, and per-call
// latency probes on inputs drawn from the workload seed.
#include <algorithm>
#include <cmath>
#include <cstdio>

#include "bench.hpp"
#include "mlab/campaign.hpp"
#include "obs/metrics.hpp"
#include "orbit/timeline.hpp"
#include "ripe/atlas.hpp"
#include "synth/world.hpp"
#include "trace.hpp"
#include "transport/tcp.hpp"

namespace perfbench {

Counters read_counters() {
  Counters out;
  for (const satnet::obs::MetricValue& m : satnet::obs::MetricsRegistry::global().scrape().metrics) {
    if (m.kind != satnet::obs::MetricKind::histogram) out[m.name] = m.value;
  }
  return out;
}

Counters delta(const Counters& after, const Counters& before) {
  Counters out = after;
  for (auto& [name, value] : out) {
    const auto it = before.find(name);
    if (it != before.end()) value -= it->second;
  }
  return out;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

std::uint64_t fnv1a(std::string_view bytes) {
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

std::map<std::string, SpanTotal> span_totals(std::uint64_t first_pass, std::uint64_t last_pass) {
  std::map<std::string, SpanTotal> out;
  const std::vector<Span>& spans = trace().spans();
  const std::vector<double> self = trace().self_ms();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].pass < first_pass || spans[i].pass > last_pass) continue;
    SpanTotal& t = out[spans[i].name];
    t.ms += spans[i].ms();
    t.self_ms += self[i];
    ++t.count;
  }
  return out;
}

namespace {

std::string fmt_count(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.0f", v);
  return buf;
}

/// value = num / den, or absent when a counter is missing or den is 0.
Row ratio_row(const Counters& d, const char* name, const std::string& num, const std::string& den,
              const char* unit, bool den_is_sum_with_num = false) {
  Row r{name, 0, unit, "", ""};
  const auto n = d.find(num);
  const auto m = d.find(den);
  if (n == d.end() || m == d.end()) {
    r.absent = "counter " + (n == d.end() ? num : den) + " not exported";
    return r;
  }
  const double base = den_is_sum_with_num ? n->second + m->second : m->second;
  r.base = (den_is_sum_with_num ? num + " + " + den : den) + " = " + fmt_count(base);
  if (base <= 0) {
    r.absent = "no " + den + " in the traced passes";
  } else {
    r.value = n->second / base;
  }
  return r;
}

Row per_pass_row(const Counters& d, const char* name, const std::string& counter, const char* unit,
                 std::size_t passes) {
  Row r{name, 0, unit, "counter " + counter + " per traced pass, " + std::to_string(passes) + " passes", ""};
  const auto it = d.find(counter);
  if (it == d.end()) {
    r.absent = "counter " + counter + " not exported";
  } else {
    r.value = it->second / static_cast<double>(passes);
  }
  return r;
}

void latency_rows(std::vector<Row>& rows, const std::string& name, const std::vector<double>& us,
                  const std::string& what) {
  const std::string base = "n=" + std::to_string(us.size()) + " " + what;
  rows.push_back({name + "_p50", quantile(us, 0.5), "us", base, ""});
  rows.push_back({name + "_p99", quantile(us, 0.99), "us", base, ""});
}

}  // namespace

void counter_rows(const Counters& d, std::size_t passes, std::vector<Row>& rows) {
  rows.push_back(ratio_row(d, "orbit.exact_evals_per_query", "orbit.best_visible.exact_evals",
                           "orbit.best_visible.queries", "ratio"));
  rows.push_back(ratio_row(d, "orbit.sats_swept_per_query", "orbit.best_visible.sats_swept",
                           "orbit.best_visible.queries", "ratio"));
  rows.push_back(ratio_row(d, "timeline.hit_ratio", "timeline.replay.hit", "timeline.replay.fallback",
                           "ratio", true));
  rows.push_back(per_pass_row(d, "timeline.epochs", "timeline.build.epochs", "count", passes));
  rows.push_back(per_pass_row(d, "orbit.timeline_build_ms", "timeline.build.ms", "ms", passes));
  rows.push_back(ratio_row(d, "runtime.utilization", "runtime.pool.busy_us", "runtime.pool.idle_us",
                           "ratio", true));
  double wait_us = 0;
  bool any_wait = false;
  for (const auto& [name, value] : d) {
    if (name.rfind("profile.", 0) == 0 && name.size() > 14 &&
        name.compare(name.size() - 14, 14, ".queue_wait_us") == 0) {
      wait_us += value;
      any_wait = true;
    }
  }
  Row wait{"runtime.queue_wait_ms", wait_us / 1e3 / static_cast<double>(passes), "ms",
           "sum of profile.*.queue_wait_us per traced pass", ""};
  if (!any_wait) wait.absent = "no profile.*.queue_wait_us counter exported";
  rows.push_back(wait);
  rows.push_back(per_pass_row(d, "runtime.shards", "runtime.shard.count", "count", passes));
  rows.push_back(per_pass_row(d, "runtime.retries", "runtime.shard.retry", "count", passes));
  Row degraded = per_pass_row(d, "runtime.degraded", "runtime.shard.degraded", "count", passes);
  if (!degraded.absent.empty()) {
    // The counter registers on first use; no quarantined shard yet.
    degraded.absent.clear();
    degraded.base = "counter runtime.shard.degraded not yet registered: no shard quarantined";
  }
  rows.push_back(degraded);
  rows.push_back(ratio_row(d, "access.cache.hit_ratio", "access.cache.hit", "access.cache.miss", "ratio",
                           true));
}

void probe_rows(std::uint64_t seed, std::vector<Row>& rows) {
  using namespace satnet;
  constexpr std::size_t kCalls = 2000;
  stats::Rng rng(seed ^ 0x70726f6265ull);
  const synth::World world;

  // orbit: AccessNetwork::sample on the NDT campaign's planned queries,
  // with no timeline installed, so each call runs the access path.
  mlab::CampaignConfig campaign;
  campaign.volume_scale = 0.004;
  campaign.seed = seed;
  const auto plan = mlab::planned_access_queries(world, campaign);
  std::vector<std::pair<const orbit::AccessNetwork*, orbit::TimelineQuery>> queries;
  for (const auto& [net, qs] : plan) {
    for (const auto& q : qs) queries.emplace_back(net, q);
  }
  orbit::EpochTimeline::clear_installed();
  std::vector<double> us;
  for (std::size_t i = 0; i < kCalls && !queries.empty(); ++i) {
    const auto& [net, q] = rng.pick(queries);
    const double t0 = now_ms();
    (void)net->sample(q.terminal, q.t_sec);
    us.push_back((now_ms() - t0) * 1e3);
  }
  latency_rows(rows, "orbit.sample_us", us, "AccessNetwork::sample on planned NDT queries");

  // synth: World::sample_path for random subscribers over the campaign
  // window; the usable paths feed the transport probe.
  us.clear();
  std::vector<transport::PathProfile> paths;
  const double horizon_sec = campaign.duration_days * 86400.0;
  for (std::size_t i = 0; i < kCalls; ++i) {
    const synth::Subscriber& sub = rng.pick(world.subscribers());
    const double t = rng.uniform(0.0, horizon_sec);
    stats::Rng path_rng = rng.fork(i);
    const double t0 = now_ms();
    const synth::PathSample s = world.sample_path(sub, t, path_rng);
    us.push_back((now_ms() - t0) * 1e3);
    if (s.ok) paths.push_back(s.download);
  }
  latency_rows(rows, "synth.sample_path_us", us, "World::sample_path");

  // transport: one 10-s NDT-style TcpFlow per usable path (cycled to n).
  us.clear();
  std::size_t rtos = 0;
  for (std::size_t i = 0; i < kCalls && !paths.empty(); ++i) {
    transport::TcpFlow flow(paths[i % paths.size()], transport::TcpOptions{}, rng.fork(i));
    const double t0 = now_ms();
    const transport::FlowResult r = flow.run_for(10000.0);
    us.push_back((now_ms() - t0) * 1e3);
    rtos += r.n_rtos;
  }
  latency_rows(rows, "transport.flow_us", us, "TcpFlow::run_for(10000)");
  rows.push_back({"transport.rtos_per_flow", us.empty() ? 0.0 : static_cast<double>(rtos) / static_cast<double>(us.size()),
                  "count", "n=" + std::to_string(us.size()) + " flows", ""});

  // ripe: build_traceroute from random probes at random times of the
  // Atlas year to random roots.
  const orbit::AccessNetwork starlink = orbit::make_starlink_access(world.starlink_constellation());
  const std::vector<ripe::Probe> probes = ripe::starlink_probe_candidates();
  us.clear();
  std::size_t hops = 0;
  for (std::size_t i = 0; i < kCalls; ++i) {
    const ripe::Probe& probe = rng.pick(probes);
    const double t = rng.uniform(probe.start_day, 366.0) * 86400.0;
    const char root = static_cast<char>('A' + rng.uniform_int(0, 12));
    stats::Rng route_rng = rng.fork(i);
    const double t0 = now_ms();
    const net::Route route = ripe::build_traceroute(starlink, probe, t, root, route_rng);
    us.push_back((now_ms() - t0) * 1e3);
    hops += route.hop_count();
  }
  latency_rows(rows, "ripe.traceroute_us", us, "ripe::build_traceroute");
  rows.push_back({"ripe.hops_per_traceroute", static_cast<double>(hops) / static_cast<double>(kCalls),
                  "count", "n=" + std::to_string(kCalls) + " traceroutes", ""});
  orbit::EpochTimeline::clear_installed();
}

}  // namespace perfbench
