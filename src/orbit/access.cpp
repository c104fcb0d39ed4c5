#include "orbit/access.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>

#include "fault/hook.hpp"
#include "geo/places.hpp"
#include "orbit/timeline.hpp"

namespace satnet::orbit {

AccessNetwork::AccessNetwork(AccessConfig config,
                             std::shared_ptr<const Constellation> constellation)
    : config_(std::move(config)), constellation_(std::move(constellation)) {
  if (config_.orbit == OrbitClass::geo) {
    throw std::invalid_argument("GEO access requires a GeoFleet");
  }
  if (!constellation_) throw std::invalid_argument("null constellation");
  if (config_.pops.empty() || config_.gateways.empty()) {
    throw std::invalid_argument("access network needs PoPs and gateways");
  }
  identity_hash_ = access_identity_hash(config_, constellation_.get());
}

AccessNetwork::AccessNetwork(AccessConfig config, GeoFleet fleet)
    : config_(std::move(config)), fleet_(std::move(fleet)) {
  if (config_.orbit != OrbitClass::geo) {
    throw std::invalid_argument("GeoFleet requires OrbitClass::geo");
  }
  if (config_.pops.empty() || config_.gateways.empty()) {
    throw std::invalid_argument("access network needs PoPs and gateways");
  }
  if (fleet_.slots().empty()) throw std::invalid_argument("empty GEO fleet");
  identity_hash_ = access_identity_hash(config_, nullptr);
}

std::size_t AccessNetwork::assigned_pop(const geo::GeoPoint& user, double t_sec) const {
  for (const auto& ov : config_.overrides) {
    if (t_sec < ov.from_sec || t_sec >= ov.until_sec) continue;
    if (geo::surface_distance_km(user, ov.region_center) <= ov.radius_km) {
      return ov.pop_index;
    }
  }
  std::size_t best = 0;
  double best_km = std::numeric_limits<double>::max();
  for (std::size_t i = 0; i < config_.pops.size(); ++i) {
    const double km = geo::surface_distance_km(user, config_.pops[i].location);
    if (km < best_km) {
      best_km = km;
      best = i;
    }
  }
  return best;
}

std::optional<VisibleSat> AccessNetwork::serving_sat_at_epoch(const geo::GeoPoint& user,
                                                              double epoch_sec) const {
  if (config_.orbit == OrbitClass::geo) {
    return fleet_.best_visible(user, config_.min_elevation_deg);
  }
  if (timeline_enabled()) {
    if (const EpochTimeline* tl = EpochTimeline::find(identity_hash_)) {
      SatId id{};
      switch (tl->replay_serving(user, epoch_sec, &id)) {
        case EpochTimeline::ServingReplay::outage:
          return std::nullopt;
        case EpochTimeline::ServingReplay::serving:
          return serving_visible_sat(user, id, epoch_sec);
        case EpochTimeline::ServingReplay::miss:
          break;  // uncovered epoch: fall through to the sweep
      }
    }
  }
  return constellation_->best_visible(user, epoch_sec, config_.min_elevation_deg);
}

VisibleSat AccessNetwork::serving_visible_sat(const geo::GeoPoint& user, const SatId& id,
                                              double epoch_sec) const {
  const geo::GeoPoint pos = constellation_->position(id, epoch_sec);
  return VisibleSat{id, pos, geo::elevation_deg(user, pos),
                    geo::slant_range_km(geo::GeoPoint{user.lat_deg, user.lon_deg, 0.0}, pos)};
}

double AccessNetwork::effective_reconfig_interval(double t_sec) const {
  double interval = config_.reconfig_interval_sec;
  if (interval <= 0) return interval;
  if (const fault::Hook* hook = fault::Hook::active()) {
    interval /= hook->reconfig_interval_scale(config_.name, t_sec);
  }
  return interval;
}

std::size_t AccessNetwork::best_gateway(const geo::GeoPoint& user, const VisibleSat& sat,
                                        double t_sec) const {
  // Bent-pipe scheduling: the terminal's traffic lands at the gateway
  // serving its cell — the one nearest the *terminal* among gateways the
  // serving satellite can see. The (possibly long) fiber backhaul to the
  // assigned PoP is paid afterwards; this is exactly the mechanism behind
  // the paper's Alaska-via-Seattle and Manila-via-Tokyo latencies.
  // Gateways inside a fault-plan outage window are ineligible, so traffic
  // spills to the next-nearest site (or, with none left, to outage).
  const fault::Hook* hook = fault::Hook::active();
  std::size_t best = config_.gateways.size();
  double best_km = std::numeric_limits<double>::max();
  constexpr double kGatewayMinElevationDeg = 10.0;
  for (std::size_t i = 0; i < config_.gateways.size(); ++i) {
    const auto& gw = config_.gateways[i];
    if (geo::elevation_deg(gw.location, sat.position) < kGatewayMinElevationDeg) continue;
    if (hook && hook->gateway_down(gw.name, t_sec)) continue;
    const double km = geo::surface_distance_km(user, gw.location);
    if (km < best_km) {
      best_km = km;
      best = i;
    }
  }
  return best;  // == gateways.size() when no eligible gateway sees the satellite
}

AccessSample AccessNetwork::build_sample(const geo::GeoPoint& user, double t_sec,
                                         const std::optional<VisibleSat>& sat) const {
  AccessSample s;
  if (!sat) return s;  // terminal cannot see any satellite: outage
  const std::size_t pop = assigned_pop(user, t_sec);
  const std::size_t gw_idx = best_gateway(user, *sat, t_sec);
  if (gw_idx >= config_.gateways.size()) return s;  // satellite sees no gateway

  const auto& gw = config_.gateways[gw_idx];
  s.reachable = true;
  s.serving_sat = sat->id;
  s.pop_index = pop;
  s.gateway_index = gw_idx;
  s.up_ms = geo::radio_delay_ms(sat->slant_km);
  s.down_ms = geo::radio_delay_ms(geo::slant_range_km(gw.location, sat->position));
  s.backhaul_ms = geo::fiber_delay_ms(
      geo::surface_distance_km(gw.location, config_.pops[pop].location));
  s.scheduling_ms = config_.scheduling_overhead_ms;
  s.one_way_ms = s.up_ms + s.down_ms + s.backhaul_ms + s.scheduling_ms;
  return s;
}

AccessSample AccessNetwork::sample(const geo::GeoPoint& user, double t_sec) const {
  double epoch = t_sec;
  const double interval = effective_reconfig_interval(t_sec);
  if (interval > 0) {
    epoch = std::floor(t_sec / interval) * interval;
    if (timeline_enabled()) {
      if (const EpochTimeline* tl = EpochTimeline::find(identity_hash_)) {
        AccessSample s;
        if (tl->replay_sample(user, t_sec, epoch, &s)) return s;
        // Uncovered key or stale era (counted as timeline.replay.fallback):
        // the on-demand path below answers instead, with identical bytes.
      }
    }
  }
  return build_sample(user, t_sec, serving_sat_at_epoch(user, epoch));
}

AccessSample AccessNetwork::sample_with_handoff(const geo::GeoPoint& user,
                                                double t_sec) const {
  AccessSample s = sample(user, t_sec);
  if (!s.reachable || config_.reconfig_interval_sec <= 0 ||
      config_.orbit == OrbitClass::geo) {
    return s;
  }
  const double interval = effective_reconfig_interval(t_sec);
  const double epoch = std::floor(t_sec / interval) * interval;
  if (epoch - interval < 0) return s;
  const auto prev = serving_sat_at_epoch(user, epoch - interval);
  s.handoff = !prev || !(prev->id == *s.serving_sat);
  return s;
}

double AccessNetwork::floor_one_way_ms(const geo::GeoPoint& user, double t_sec) const {
  const AccessSample s = sample(user, t_sec);
  if (!s.reachable) return std::numeric_limits<double>::infinity();
  return s.up_ms + s.down_ms + s.backhaul_ms;
}

namespace {

Pop make_pop(std::string name, std::string city, std::string country) {
  const geo::GeoPoint p = geo::city_point(city);
  return Pop{std::move(name), std::move(city), std::move(country), p};
}

Gateway make_gateway(std::string city, std::size_t pop_index) {
  const geo::GeoPoint p = geo::city_point(city);
  return Gateway{std::move(city), p, pop_index};
}

}  // namespace

AccessNetwork make_starlink_access(std::shared_ptr<const Constellation> constellation) {
  AccessConfig cfg;
  cfg.name = "starlink";
  cfg.orbit = OrbitClass::leo;
  cfg.min_elevation_deg = 25.0;
  cfg.scheduling_overhead_ms = 12.0;  // uplink request/grant + frame alignment
  cfg.reconfig_interval_sec = 15.0;

  // PoPs (rDNS-style names mirror "customer.<code>.pop.starlinkisp.net").
  cfg.pops = {
      make_pop("sttlwax1", "seattle", "US"),        // 0
      make_pop("lsancax1", "los angeles", "US"),    // 1
      make_pop("dnvrcox1", "denver", "US"),         // 2
      make_pop("dllstxx1", "dallas", "US"),         // 3
      make_pop("chcgilx1", "chicago", "US"),        // 4
      make_pop("atlngax1", "atlanta", "US"),        // 5
      make_pop("nycmnyx1", "new york", "US"),       // 6
      make_pop("ashbvax1", "ashburn", "US"),        // 7
      make_pop("mmimflx1", "miami", "US"),          // 8
      make_pop("frntdeu1", "frankfurt", "DE"),      // 9
      make_pop("lndngbr1", "london", "GB"),         // 10
      make_pop("mdrdesp1", "madrid", "ES"),         // 11
      make_pop("mlanitx1", "milan", "IT"),          // 12
      make_pop("wrswpol1", "warsaw", "PL"),         // 13
      make_pop("sydnaus1", "sydney", "AU"),         // 14
      make_pop("acklnzl1", "auckland", "NZ"),       // 15
      make_pop("tkyojpn1", "tokyo", "JP"),          // 16
      make_pop("sntgchl1", "santiago", "CL"),       // 17
      make_pop("trntcan1", "toronto", "CA"),        // 18
      make_pop("vncvcan1", "vancouver", "CA"),      // 19
  };

  // Gateways: one near each PoP plus sites in regions without a local PoP
  // (Alaska backhauls to Seattle; Manila to Tokyo) — the mechanism behind
  // the paper's Alaska and Philippines latency anomalies.
  cfg.gateways = {
      make_gateway("seattle", 0),      make_gateway("los angeles", 1),
      make_gateway("denver", 2),       make_gateway("dallas", 3),
      make_gateway("chicago", 4),      make_gateway("atlanta", 5),
      make_gateway("new york", 6),     make_gateway("ashburn", 7),
      make_gateway("miami", 8),        make_gateway("frankfurt", 9),
      make_gateway("london", 10),      make_gateway("madrid", 11),
      make_gateway("milan", 12),       make_gateway("warsaw", 13),
      make_gateway("sydney", 14),      make_gateway("auckland", 15),
      make_gateway("tokyo", 16),       make_gateway("santiago", 17),
      make_gateway("toronto", 18),     make_gateway("vancouver", 19),
      make_gateway("anchorage", 0),    make_gateway("manila", 16),
      make_gateway("kansas city", 2),  make_gateway("salt lake city", 2),
      make_gateway("phoenix", 1),      make_gateway("munich", 9),
      make_gateway("paris", 10),       make_gateway("vienna", 9),
      make_gateway("brussels", 10),    make_gateway("amsterdam", 10),
      make_gateway("prague", 9),       make_gateway("dublin", 10),
      make_gateway("manchester", 10),  make_gateway("marseille", 12),
      make_gateway("melbourne", 14),   make_gateway("perth", 14),
      make_gateway("brisbane", 14),    make_gateway("rome", 12),
      make_gateway("lisbon", 11),      make_gateway("oslo", 9),
      make_gateway("stockholm", 13),   make_gateway("montreal", 18),
  };

  // Scripted PoP migrations, relative to the campaign epoch
  // t=0 == 2022-05-03 00:00 UTC (the RIPE window start):
  constexpr double kDay = 86400.0;
  // New Zealand served from Sydney until 2022-07-12 (day 70), then the
  // default nearest-PoP policy picks the new Auckland PoP.
  cfg.overrides.push_back(
      {geo::city_point("auckland"), 1200.0, /*pop=*/14, 0.0, 70 * kDay});
  // Netherlands served from Frankfurt until day 150, then re-homed to
  // London (the paper's ~10 ms improvement for the NL probe).
  cfg.overrides.push_back(
      {geo::city_point("amsterdam"), 300.0, /*pop=*/9, 0.0, 150 * kDay});
  cfg.overrides.push_back(
      {geo::city_point("amsterdam"), 300.0, /*pop=*/10, 150 * kDay, 1e18});
  // One Nevada terminal region flipped to Denver for ~1 month around
  // September 2022 (days 130-160), then reverted to Los Angeles.
  cfg.overrides.push_back(
      {geo::GeoPoint{39.53, -119.81, 0.0} /* Reno */, 120.0, /*pop=*/2,
       130 * kDay, 160 * kDay});
  // Alaska has no local PoP and is wired into Seattle (the paper's
  // explanation for the Alaska probe's 80 ms median RTT).
  cfg.overrides.push_back({geo::city_point("anchorage"), 1500.0, /*pop=*/0, 0.0, 1e18});

  return AccessNetwork(std::move(cfg), std::move(constellation));
}

AccessNetwork make_oneweb_access(std::shared_ptr<const Constellation> constellation,
                                 double scheduling_overhead_ms) {
  AccessConfig cfg;
  cfg.name = "oneweb";
  cfg.orbit = OrbitClass::leo;
  cfg.min_elevation_deg = 30.0;
  cfg.scheduling_overhead_ms = scheduling_overhead_ms;
  cfg.reconfig_interval_sec = 30.0;
  // Only two US PoPs (the paper finds OneWeb peering with just two
  // US-based providers), so all non-US traffic takes a transoceanic
  // backhaul — the mechanism behind its ~3x higher median latency.
  cfg.pops = {
      make_pop("ashburn-ow", "ashburn", "US"),
      make_pop("seattle-ow", "seattle", "US"),
  };
  cfg.gateways = {
      make_gateway("ashburn", 0),   make_gateway("seattle", 1),
      make_gateway("denver", 1),    make_gateway("london", 0),
      make_gateway("frankfurt", 0), make_gateway("oslo", 0),
      make_gateway("madrid", 0),    make_gateway("tokyo", 1),
      make_gateway("sydney", 1),    make_gateway("santiago", 0),
      make_gateway("anchorage", 1), make_gateway("dubai", 0),
  };
  return AccessNetwork(std::move(cfg), std::move(constellation));
}

AccessNetwork make_o3b_access(std::shared_ptr<const Constellation> constellation,
                              double scheduling_overhead_ms) {
  AccessConfig cfg;
  cfg.name = "o3b";
  cfg.orbit = OrbitClass::meo;
  cfg.min_elevation_deg = 15.0;
  cfg.scheduling_overhead_ms = scheduling_overhead_ms;
  cfg.reconfig_interval_sec = 120.0;  // MEO handoffs are far less frequent
  cfg.pops = {
      make_pop("o3b-suva", "suva", "FJ"),
      make_pop("o3b-singapore", "singapore", "SG"),
      make_pop("o3b-lagos", "lagos", "NG"),
      make_pop("o3b-lima", "lima", "PE"),
      make_pop("o3b-athens", "athens", "GR"),
  };
  cfg.gateways = {
      make_gateway("suva", 0),   make_gateway("singapore", 1),
      make_gateway("lagos", 2),  make_gateway("lima", 3),
      make_gateway("athens", 4), make_gateway("nairobi", 2),
      make_gateway("bogota", 3),
  };
  return AccessNetwork(std::move(cfg), std::move(constellation));
}

HandoffStats measure_handoffs(const AccessNetwork& net, const geo::GeoPoint& user,
                              double t_start_sec, double duration_sec) {
  HandoffStats out;
  const double interval = net.config().reconfig_interval_sec;
  if (interval <= 0 || duration_sec <= 0) return out;

  std::optional<SatId> current;
  double dwell_start = t_start_sec;
  std::vector<double> dwells;
  std::size_t outages = 0;

  // Integer epoch stepping: accumulating `t += interval` compounds one
  // rounding error per epoch, so at large t_start_sec the loop gains or
  // loses epochs against the [t_start, t_start + duration) window. Each
  // epoch time is instead derived directly from its index, making the
  // epoch count exactly floor(duration / interval) at any start offset.
  const auto n_epochs = static_cast<std::size_t>(duration_sec / interval);
  for (std::size_t i = 0; i < n_epochs; ++i) {
    const double t = t_start_sec + static_cast<double>(i) * interval;
    ++out.epochs;
    const AccessSample s = net.sample(user, t);
    if (!s.reachable) {
      ++outages;
      current.reset();
      dwell_start = t + interval;
      continue;
    }
    if (!current) {
      current = s.serving_sat;
      dwell_start = t;
    } else if (!(*current == *s.serving_sat)) {
      ++out.handoffs;
      dwells.push_back(t - dwell_start);
      current = s.serving_sat;
      dwell_start = t;
    }
  }
  // The last dwell is right-censored: the window closed while the
  // satellite was still serving. Report it separately instead of mixing
  // the truncated value into the completed-dwell statistics.
  if (current) {
    out.censored = 1;
    out.censored_dwell_sec = t_start_sec + duration_sec - dwell_start;
  }

  if (!dwells.empty()) {
    double sum = 0;
    for (const double d : dwells) {
      sum += d;
      out.max_dwell_sec = std::max(out.max_dwell_sec, d);
    }
    out.mean_dwell_sec = sum / static_cast<double>(dwells.size());
  }
  out.outage_fraction =
      out.epochs ? static_cast<double>(outages) / static_cast<double>(out.epochs) : 0.0;
  return out;
}

AccessNetwork make_geo_access(const std::string& teleport_city, double slot_lon_deg,
                              double scheduling_overhead_ms) {
  AccessConfig cfg;
  cfg.name = "geo-" + teleport_city;
  cfg.orbit = OrbitClass::geo;
  cfg.min_elevation_deg = 10.0;
  cfg.scheduling_overhead_ms = scheduling_overhead_ms;
  cfg.reconfig_interval_sec = 0.0;  // no handoffs in GEO
  cfg.pops = {make_pop("teleport-" + teleport_city, teleport_city, "US")};
  cfg.gateways = {make_gateway(teleport_city, 0)};
  GeoFleet fleet;
  fleet.add_slot("slot", slot_lon_deg);
  return AccessNetwork(std::move(cfg), std::move(fleet));
}

}  // namespace satnet::orbit
