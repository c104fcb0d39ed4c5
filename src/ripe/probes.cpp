#include "ripe/probes.hpp"

#include <stdexcept>

#include "geo/places.hpp"
#include "stats/rng.hpp"

namespace satnet::ripe {

double start_day_for(const std::string& yymm) {
  // Campaign epoch: 2022-05-03. Month labels follow Table 2.
  if (yymm == "22/05") return 0;
  if (yymm == "22/06") return 30;
  if (yymm == "22/08") return 90;
  if (yymm == "22/10") return 150;
  if (yymm == "22/11") return 180;
  if (yymm == "23/01") return 245;
  if (yymm == "23/02") return 275;
  if (yymm == "23/03") return 305;
  throw std::invalid_argument("unknown start label: " + yymm);
}

namespace {

struct CountrySpec {
  const char* country;
  const char* anchor_city;
  int count;
  const char* start;
};

// Non-US rows of Table 2.
constexpr CountrySpec kWorldProbes[] = {
    {"AT", "vienna", 2, "22/05"},    {"AU", "sydney", 4, "22/05"},
    {"BE", "brussels", 1, "23/01"},  {"CA", "toronto", 2, "22/05"},
    {"CL", "santiago", 1, "23/02"},  {"DE", "frankfurt", 5, "22/05"},
    {"ES", "madrid", 2, "22/06"},    {"FR", "paris", 4, "22/11"},
    {"GB", "london", 5, "22/08"},    {"IT", "milan", 1, "22/10"},
    {"NL", "amsterdam", 3, "22/05"}, {"NZ", "auckland", 1, "22/05"},
    {"PH", "manila", 1, "23/03"},    {"PL", "warsaw", 1, "23/01"},
};

struct StateSpec {
  const char* state;
  int count;
};

// 33 US probes spread over the states of Figure 8a.
constexpr StateSpec kUsProbes[] = {
    {"NY", 1}, {"PA", 2}, {"NJ", 1}, {"VA", 2}, {"NC", 1}, {"FL", 1}, {"GA", 1},
    {"TN", 1}, {"MO", 1}, {"KS", 1}, {"IA", 1}, {"MN", 1}, {"WI", 1}, {"MI", 1},
    {"OH", 1}, {"IL", 1}, {"TX", 2}, {"OK", 1}, {"AZ", 1}, {"NM", 1}, {"NV", 2},
    {"UT", 1}, {"CA", 1}, {"CO", 1}, {"MT", 1}, {"ID", 1}, {"OR", 1}, {"WA", 1},
    {"AK", 1},
};

}  // namespace

std::vector<Probe> starlink_probe_candidates() {
  std::vector<Probe> probes;
  stats::Rng rng(0x41a5u);  // fixed: probe placement is part of the scenario
  int next_id = 1000;

  for (const auto& spec : kWorldProbes) {
    const geo::GeoPoint anchor = geo::city_point(spec.anchor_city);
    for (int i = 0; i < spec.count; ++i) {
      Probe p;
      p.id = next_id++;
      p.country = spec.country;
      p.location = {anchor.lat_deg + rng.uniform(-0.8, 0.8),
                    anchor.lon_deg + rng.uniform(-0.8, 0.8), 0.0};
      p.start_day = start_day_for(spec.start);
      probes.push_back(std::move(p));
    }
  }

  for (const auto& spec : kUsProbes) {
    const auto state = geo::find_us_state(spec.state);
    for (int i = 0; i < spec.count; ++i) {
      Probe p;
      p.id = next_id++;
      p.country = "US";
      p.us_state = spec.state;
      if (std::string_view(spec.state) == "NV") {
        // One Nevada probe sits in Reno (inside the scripted Denver
        // override region); the other in Las Vegas.
        p.location = i == 0 ? geo::GeoPoint{39.53, -119.81, 0.0}
                            : geo::GeoPoint{36.17, -115.14, 0.0};
      } else {
        p.location = {state->lat_deg + rng.uniform(-0.8, 0.8),
                      state->lon_deg + rng.uniform(-0.8, 0.8), 0.0};
      }
      p.start_day = 0;  // Table 2: all US probes active from 22/05
      probes.push_back(std::move(p));
    }
  }

  // Decoys: metadata claims Starlink but traceroutes say otherwise. The
  // first is one aggregate: GCC 12 at -O3 reports a false
  // -Wmaybe-uninitialized on the member-by-member form.
  probes.push_back({.id = next_id++,
                    .country = "US",
                    .us_state = "TX",
                    .location = {30.3, -97.7, 0.0},
                    .start_day = 0,
                    // user switched to cable; probes table not updated
                    .stale_asn = true});
  {
    Probe p;
    p.id = next_id++;
    p.country = "DE";
    p.location = {51.2, 6.8, 0.0};
    p.start_day = 0;
    p.stale_asn = true;
    probes.push_back(std::move(p));
  }
  // The fifth French probe is genuine but multihomed: an LTE failover
  // carries a share of its traffic off-Starlink. It must survive the
  // majority-vote validation (it counts toward Table 2's 67 probes).
  {
    Probe p;
    p.id = next_id++;
    p.country = "FR";
    p.location = {45.76, 4.84, 0.0};
    p.start_day = start_day_for("22/11");
    p.lte_failover = true;
    probes.push_back(std::move(p));
  }

  return probes;
}

}  // namespace satnet::ripe
