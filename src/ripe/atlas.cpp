#include "ripe/atlas.hpp"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <map>

#include "geo/places.hpp"
#include "obs/metrics.hpp"
#include "orbit/timeline.hpp"
#include "runtime/sharded.hpp"
#include "sim/event_queue.hpp"

namespace satnet::ripe {

namespace {

/// Starlink customer public space in the simulation: 98.97.<pop>.0/24.
constexpr std::uint8_t kStarlinkPublicA = 98;
constexpr std::uint8_t kStarlinkPublicB = 97;

net::Ipv4 root_server_ip(char root) {
  // Synthetic but stable per-letter addresses in the real roots' style.
  return net::Ipv4(198, 41, static_cast<std::uint8_t>(root - 'A'), 4);
}

double lte_rtt_ms(stats::Rng& rng) { return rng.uniform(28.0, 60.0); }

/// One scheduled measurement round of a probe: when it fires and the
/// stream it draws from. A probe's whole schedule is a pure function of
/// (seed, probe id) — fork_stable for the probe stream, fork(t) per
/// round — so the timeline pre-pass below can enumerate it without
/// advancing anything the shard bodies will draw.
struct ProbeRound {
  double jittered = 0;
  stats::Rng round_rng;
};

std::vector<ProbeRound> probe_schedule(const stats::Rng& master, const Probe& probe,
                                       double horizon_sec, double interval_sec) {
  std::vector<ProbeRound> rounds;
  stats::Rng probe_rng = master.fork_stable(static_cast<std::uint64_t>(probe.id));
  for (double t = probe.start_day * 86400.0; t < horizon_sec; t += interval_sec) {
    // Stagger rounds so probes do not fire in lockstep.
    const double jittered = t + probe_rng.uniform(0.0, interval_sec * 0.5);
    if (jittered >= horizon_sec) break;
    rounds.push_back({jittered, probe_rng.fork(static_cast<std::uint64_t>(t))});
  }
  return rounds;
}

}  // namespace

net::Ipv4 probe_public_ip(const Probe& probe, std::size_t pop_index) {
  return net::Ipv4(kStarlinkPublicA, kStarlinkPublicB,
                   static_cast<std::uint8_t>(pop_index & 0xff),
                   static_cast<std::uint8_t>(1 + probe.id % 250));
}

std::string reverse_dns(net::Ipv4 ip, const orbit::AccessNetwork& starlink) {
  const std::uint32_t v = ip.value();
  if (((v >> 24) & 0xff) != kStarlinkPublicA || ((v >> 16) & 0xff) != kStarlinkPublicB) {
    return "";
  }
  const std::size_t pop = (v >> 8) & 0xff;
  if (pop >= starlink.config().pops.size()) return "";
  return "customer." + starlink.config().pops[pop].name + ".pop.starlinkisp.net";
}

net::Route build_traceroute(const orbit::AccessNetwork& starlink, const Probe& probe,
                            double t_sec, char root, stats::Rng& rng) {
  net::Route route;
  const auto& roots = dns::root_servers();
  const auto& root_spec = roots[static_cast<std::size_t>(root - 'A')];

  const orbit::AccessSample access = starlink.sample(probe.location, t_sec);
  if (!access.reachable) {
    // Outage: the probe's first hops answer, everything beyond is silent.
    route.hops.push_back({1, "cpe.lan", net::Ipv4(192, 168, 1, 1),
                          rng.uniform(0.4, 2.0), true});
    for (int ttl = 2; ttl <= 5; ++ttl) route.hops.push_back({ttl, "", {}, 0.0, false});
    return route;
  }

  const auto& pop = starlink.config().pops[access.pop_index];
  const double pop_rtt = 2.0 * access.one_way_ms + std::abs(rng.normal(0.0, 2.0));

  route.hops.push_back(
      {1, "cpe.lan", net::Ipv4(192, 168, 1, 1), rng.uniform(0.4, 2.0), true});
  route.hops.push_back({2, "", net::kCgnatGateway, pop_rtt, true});
  route.hops.push_back({3, pop.name + ".pop.starlinkisp.net",
                        net::Ipv4(149, 19, static_cast<std::uint8_t>(access.pop_index), 1),
                        pop_rtt + rng.uniform(0.2, 1.0), true});

  const dns::InstanceChoice instance = dns::nearest_instance(root_spec, pop.location);
  net::Backbone backbone;
  auto transit = backbone.build(pop.location, instance.location, pop_rtt, 4, rng);
  const int last_ttl = transit.empty() ? 4 : transit.back().ttl + 1;
  const double dest_rtt = (transit.empty() ? pop_rtt : transit.back().rtt_ms) +
                          std::abs(rng.normal(0.6, 0.4));
  for (auto& h : transit) route.hops.push_back(std::move(h));
  route.hops.push_back({last_ttl, std::string(1, static_cast<char>(std::tolower(root))) +
                                      ".root-servers.net",
                        root_server_ip(root), dest_rtt, true});
  return route;
}

AtlasDataset run_atlas_campaign(const AtlasConfig& config) {
  AtlasDataset dataset;
  dataset.probes = starlink_probe_candidates();

  const orbit::AccessNetwork starlink =
      orbit::make_starlink_access(std::make_shared<orbit::Constellation>(
          orbit::starlink_shells()));
  const net::Backbone backbone;
  const stats::Rng master(config.seed);
  const double horizon = config.duration_days * 86400.0;
  const double interval = config.round_interval_hours * 3600.0;

  // One shard per probe: a probe's whole schedule is a pure function of
  // (seed, probe id), so shards can run on any worker in any order.
  struct ProbeRecords {
    std::vector<TracerouteRecord> traceroutes;
    std::vector<SslCertRecord> sslcerts;
  };
  obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
  obs::Counter& probes_simulated =
      reg.counter("ripe.probes_simulated", "Atlas probes whose schedule ran");
  obs::Counter& traceroutes_total =
      reg.counter("ripe.traceroutes", "traceroute records produced");
  obs::Counter& hops_total =
      reg.counter("ripe.traceroute_hops", "hops across all traceroutes");
  obs::Counter& sslcerts_total =
      reg.counter("ripe.sslcerts", "SSLCert built-in runs recorded");

  // Timeline pre-pass: replay every probe's round schedule (peeking the
  // off-Starlink decision on a *copy* of the round stream, so the shard
  // draws are untouched) and precompute the access state those rounds
  // will query. The shards' sample_with_handoff calls then replay.
  if (orbit::timeline_enabled()) {
    std::vector<orbit::TimelineQuery> queries;
    for (const Probe& probe : dataset.probes) {
      for (const ProbeRound& round : probe_schedule(master, probe, horizon, interval)) {
        stats::Rng peek = round.round_rng;
        const bool off_starlink =
            probe.stale_asn || (probe.lte_failover && peek.chance(0.35));
        if (!off_starlink) queries.push_back({probe.location, round.jittered});
      }
    }
    orbit::EpochTimeline::ensure(starlink, std::move(queries), config.threads);
  }

  runtime::ShardedCampaign<ProbeRecords> campaign(
      dataset.probes.size(),
      [&](std::size_t probe_index) {
    const Probe& probe = dataset.probes[probe_index];
    ProbeRecords local;
    sim::EventQueue queue;
    for (ProbeRound& round : probe_schedule(master, probe, horizon, interval)) {
      queue.schedule_at(round.jittered, [&, probe,
                                         round_rng = round.round_rng](sim::Time now) mutable {
        // Decoys: stale-ASN probes are not on Starlink at all; the LTE
        // failover probe bypasses Starlink on a fraction of rounds.
        const bool off_starlink =
            probe.stale_asn || (probe.lte_failover && round_rng.chance(0.35));

        const orbit::AccessSample access =
            off_starlink ? orbit::AccessSample{}
                         : starlink.sample_with_handoff(probe.location, now);

        // SSLCert built-in runs each round and exposes the public IP.
        if (access.reachable) {
          local.sslcerts.push_back(
              {probe.id, now, probe_public_ip(probe, access.pop_index)});
        }

        const auto& pops = starlink.config().pops;
        for (const auto& root_spec : dns::root_servers()) {
          TracerouteRecord rec;
          rec.probe_id = probe.id;
          rec.t_sec = now;
          rec.root = root_spec.letter;
          if (off_starlink) {
            // Terrestrial/LTE path: no CGNAT hop.
            rec.via_cgnat = false;
            const double base = lte_rtt_ms(round_rng);
            const dns::InstanceChoice inst =
                dns::nearest_instance(root_spec, probe.location);
            rec.dest_rtt_ms = base + 2.0 * geo::fiber_delay_ms(inst.surface_km);
            rec.hop_count = 2 + backbone.expected_hops(inst.surface_km) + 1;
            rec.instance_city = std::string(inst.city);
          } else if (!access.reachable) {
            rec.via_cgnat = false;  // outage: traceroute dies at the CPE
            rec.hop_count = 1;
          } else {
            const auto& pop = pops[access.pop_index];
            rec.via_cgnat = true;
            rec.pop_name = pop.name;
            rec.cgnat_rtt_ms =
                2.0 * access.one_way_ms + std::abs(round_rng.normal(0.0, 2.5));
            const dns::InstanceChoice inst =
                dns::nearest_instance(root_spec, pop.location);
            rec.dest_rtt_ms = rec.cgnat_rtt_ms +
                              2.0 * geo::fiber_delay_ms(inst.surface_km) +
                              std::abs(round_rng.normal(1.0, 1.2));
            rec.hop_count = 3 + backbone.expected_hops(inst.surface_km) + 1;
            rec.instance_city = std::string(inst.city);
          }
          local.traceroutes.push_back(std::move(rec));
        }
      });
    }
    queue.run();
    probes_simulated.add(1);
    traceroutes_total.add(local.traceroutes.size());
    std::uint64_t hops = 0;
    for (const auto& t : local.traceroutes) {
      hops += static_cast<std::uint64_t>(t.hop_count);
    }
    hops_total.add(hops);
    sslcerts_total.add(local.sslcerts.size());
    return local;
  },
      "ripe.atlas");

  // Canonical merge: probe order, event-time order within a probe.
  for (auto& piece : campaign.run_with_report(config.threads, config.retry, nullptr)) {
    dataset.traceroutes.insert(dataset.traceroutes.end(),
                               std::make_move_iterator(piece.traceroutes.begin()),
                               std::make_move_iterator(piece.traceroutes.end()));
    dataset.sslcerts.insert(dataset.sslcerts.end(),
                            std::make_move_iterator(piece.sslcerts.begin()),
                            std::make_move_iterator(piece.sslcerts.end()));
  }
  return dataset;
}

std::vector<int> validated_probe_ids(const AtlasDataset& dataset) {
  std::map<int, std::pair<std::size_t, std::size_t>> counts;  // id -> (cgnat, total)
  for (const auto& t : dataset.traceroutes) {
    auto& c = counts[t.probe_id];
    if (t.via_cgnat) ++c.first;
    ++c.second;
  }
  std::vector<int> out;
  for (const auto& [id, c] : counts) {
    if (c.second > 0 && static_cast<double>(c.first) / static_cast<double>(c.second) > 0.5) {
      out.push_back(id);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace satnet::ripe
