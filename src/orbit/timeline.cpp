#include "orbit/timeline.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string_view>
#include <unordered_map>

#include "fault/hook.hpp"
#include "fault/plan.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"
#include "orbit/access.hpp"
// satlint:allow(layering): deliberate inversion — timeline construction fans out on the shared pool; DESIGN.md §14 records the debt
#include "runtime/thread_pool.hpp"

namespace satnet::orbit {

namespace {

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }
double from_bits(std::uint64_t v) { return std::bit_cast<double>(v); }

void hash_mix(std::uint64_t& h, std::uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
}

std::uint64_t fnv1a(std::string_view s, std::uint64_t h = 0xcbf29ce484222325ull) {
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

struct TimelineCounters {
  obs::Counter& build_ms;
  obs::Counter& build_epochs;
  obs::Counter& build_bytes;
  obs::Counter& replay_hit;
  obs::Counter& replay_fallback;
};

TimelineCounters& counters() {
  // satlint:allow(shared-state): cached references to thread-safe striped counters; magic-static init is synchronized
  static TimelineCounters c{
      obs::MetricsRegistry::global().counter("timeline.build.ms",
                                             "wall milliseconds spent building timeline layers"),
      obs::MetricsRegistry::global().counter(
          "timeline.build.epochs", "per-epoch entries materialized (serving + sample)"),
      obs::MetricsRegistry::global().counter("timeline.build.bytes",
                                             "payload bytes of newly built timeline entries"),
      obs::MetricsRegistry::global().counter("timeline.replay.hit",
                                             "access queries answered from the timeline"),
      obs::MetricsRegistry::global().counter(
          "timeline.replay.fallback",
          "access queries a snapshot could not answer (uncovered key or stale era)"),
  };
  return c;
}

/// --no-timeline switch. Default on: a timeline only ever replays
/// values the on-demand path would compute, so opting out is an
/// ablation, not a safety valve.
std::atomic<bool> g_timeline_enabled{true};

/// Suppresses replay hit/fallback counting while ensure() itself probes
/// networks (its serving/sample computations route back through the
/// access layer, which consults any previously installed snapshot).
thread_local bool g_in_build = false;

/// Timeline layer tags for flight-recorder replay events (the `a`
/// payload word): which lookup table answered or missed.
constexpr std::uint64_t kServingLayer = 0;
constexpr std::uint64_t kSampleLayer = 1;

/// Counter bump + flight-recorder record for one replay outcome. Build
/// probes stay silent (same suppression as the counters). The record is
/// det inside a shard scope: for a fixed thread count the shard's
/// replay sequence is deterministic.
void record_replay_hit(std::uint64_t layer) {
  if (g_in_build) return;
  counters().replay_hit.add(1);
  obs::FlightRecorder::global().record(obs::EventKind::timeline_hit, layer);
}

void record_replay_fallback(std::uint64_t layer) {
  if (g_in_build) return;
  counters().replay_fallback.add(1);
  obs::FlightRecorder::global().record(obs::EventKind::timeline_fallback, layer);
}

/// Hash of the fault events (outages, storms) active at time t — the
/// stored era key. Two times with equal keys and no plan edge between
/// them see an identical fault environment.
std::uint64_t era_fault_key(const fault::Hook* hook, double t_sec) {
  std::uint64_t h = 0x9e3779b97f4a7c15ull;
  if (!hook) return h;
  for (const auto& ev : hook->plan().events()) {
    if (ev.kind != fault::EventKind::gateway_outage &&
        ev.kind != fault::EventKind::handoff_storm) {
      continue;
    }
    if (!ev.active_at(t_sec)) continue;
    hash_mix(h, static_cast<std::uint64_t>(ev.kind));
    hash_mix(h, fnv1a(ev.target));
    hash_mix(h, bits(ev.t_start_sec));
    hash_mix(h, bits(ev.t_end_sec));
    hash_mix(h, bits(ev.magnitude));
  }
  return h;
}

/// Representative instant strictly inside era e of the boundary list:
/// the era's fault environment is constant, so any interior point
/// samples it. Eras follow upper_bound numbering: era 0 is (-inf,
/// b[0]), era e is [b[e-1], b[e]), the last era is [b[n-1], +inf).
double era_representative(const std::vector<double>& boundaries, std::size_t era) {
  if (boundaries.empty()) return 0.0;
  if (era == 0) return boundaries.front() - 1.0;
  if (era >= boundaries.size()) return boundaries.back() + 1.0;
  return boundaries[era - 1] + (boundaries[era] - boundaries[era - 1]) / 2.0;
}

/// Era boundary list under a given hook: PoP override edges plus
/// outage/storm window edges.
std::vector<double> merged_boundaries(const std::vector<double>& static_boundaries,
                                      const fault::Hook* hook) {
  std::vector<double> out = static_boundaries;
  if (hook) {
    for (const auto& ev : hook->plan().events()) {
      if (ev.kind != fault::EventKind::gateway_outage &&
          ev.kind != fault::EventKind::handoff_storm) {
        continue;
      }
      out.push_back(ev.t_start_sec);
      out.push_back(ev.t_end_sec);
    }
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
  }
  return out;
}

std::vector<double> override_boundaries(const AccessConfig& config) {
  std::vector<double> out;
  for (const auto& ov : config.overrides) {
    out.push_back(ov.from_sec);
    out.push_back(ov.until_sec);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::uint64_t next_timeline_id() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

/// The installed-snapshot set: an immutable vector sorted by identity
/// behind an atomic pointer. Installs build a new vector and retire the
/// old one into a graveyard (never destroyed), so a raw pointer
/// returned by find() stays valid for the process lifetime — the same
/// discipline fault::Hook::install uses for plans.
struct Registry {
  std::vector<std::shared_ptr<const EpochTimeline>> items;  ///< sorted by identity
};

std::atomic<const Registry*>& registry_slot() {
  static std::atomic<const Registry*> slot{nullptr};
  return slot;
}

std::mutex& registry_mutex() {
  // satlint:allow(shared-state): install-path mutex; magic-static init is synchronized and all mutation happens under the lock
  static std::mutex m;
  return m;
}

std::vector<std::unique_ptr<const Registry>>& registry_graveyard() {
  // satlint:allow(shared-state): retired registries, mutated only under registry_mutex; kept alive so replay pointers stay valid
  static std::vector<std::unique_ptr<const Registry>> g;
  return g;
}

}  // namespace

bool timeline_enabled() { return g_timeline_enabled.load(std::memory_order_relaxed); }

void set_timeline_enabled(bool enabled) {
  g_timeline_enabled.store(enabled, std::memory_order_relaxed);
}

std::uint64_t access_identity_hash(const AccessConfig& config,
                                   const Constellation* constellation) {
  std::uint64_t h = fnv1a(config.name);
  hash_mix(h, static_cast<std::uint64_t>(config.orbit));
  hash_mix(h, bits(config.min_elevation_deg));
  hash_mix(h, bits(config.scheduling_overhead_ms));
  hash_mix(h, bits(config.reconfig_interval_sec));
  for (const auto& pop : config.pops) {
    hash_mix(h, fnv1a(pop.name));
    hash_mix(h, fnv1a(pop.city));
    hash_mix(h, bits(pop.location.lat_deg));
    hash_mix(h, bits(pop.location.lon_deg));
  }
  for (const auto& gw : config.gateways) {
    hash_mix(h, fnv1a(gw.name));
    hash_mix(h, bits(gw.location.lat_deg));
    hash_mix(h, bits(gw.location.lon_deg));
    hash_mix(h, static_cast<std::uint64_t>(gw.pop_index));
  }
  for (const auto& ov : config.overrides) {
    hash_mix(h, bits(ov.region_center.lat_deg));
    hash_mix(h, bits(ov.region_center.lon_deg));
    hash_mix(h, bits(ov.radius_km));
    hash_mix(h, static_cast<std::uint64_t>(ov.pop_index));
    hash_mix(h, bits(ov.from_sec));
    hash_mix(h, bits(ov.until_sec));
  }
  if (constellation) {
    for (const auto& shell : constellation->shells()) {
      hash_mix(h, fnv1a(shell.name));
      hash_mix(h, bits(shell.altitude_km));
      hash_mix(h, bits(shell.inclination_deg));
      hash_mix(h, static_cast<std::uint64_t>(shell.planes));
      hash_mix(h, static_cast<std::uint64_t>(shell.sats_per_plane));
      hash_mix(h, static_cast<std::uint64_t>(shell.phase_factor));
    }
    // Non-default orbit models fold in the model tag and element hash so
    // a Walker snapshot can never answer for an SGP4 world with the same
    // shells (or vice versa). Walker needs nothing more: the shells above
    // fully determine its ephemeris.
    if (constellation->model() != OrbitModel::walker) {
      hash_mix(h, fnv1a(to_string(constellation->model())));
      hash_mix(h, constellation->ephemeris_hash());
    }
  }
  return h;
}

// ------------------------------------------------------------ snapshot

EpochTimeline::EpochTimeline(std::uint64_t identity, Arrays arrays)
    : identity_(identity), instance_id_(next_timeline_id()), arrays_(std::move(arrays)) {}

std::uint32_t EpochTimeline::pack_sat(const SatId& id) {
  return static_cast<std::uint32_t>((id.shell << 20) | (id.plane << 10) | id.index);
}

SatId EpochTimeline::unpack_sat(std::uint32_t packed) {
  return SatId{(packed >> 20) & 0x3FFu, (packed >> 10) & 0x3FFu, packed & 0x3FFu};
}

std::uint32_t EpochTimeline::era_of(double t_sec) const {
  return static_cast<std::uint32_t>(
      std::upper_bound(arrays_.boundaries.begin(), arrays_.boundaries.end(), t_sec) -
      arrays_.boundaries.begin());
}

// --------------------------------------------------- per-thread validity

namespace {

/// Distinct from every real hook pointer *and* nullptr, so a fresh
/// validity cache always refreshes once.
const fault::Hook* validity_sentinel() {
  static const char tag = 0;
  return reinterpret_cast<const fault::Hook*>(&tag);
}

}  // namespace

struct EpochTimeline::Validity {
  const fault::Hook* generation = validity_sentinel();
  std::vector<std::uint8_t> valid;  ///< one flag per stored era
};

EpochTimeline::Validity& EpochTimeline::validity_for_thread() const {
  thread_local std::unordered_map<std::uint64_t, std::unique_ptr<Validity>> caches;
  auto& slot = caches[instance_id_];
  if (!slot) slot = std::make_unique<Validity>();
  Validity& v = *slot;

  const fault::Hook* hook = fault::Hook::active();
  if (v.generation == hook) return v;
  v.generation = hook;
  const std::vector<double>& boundaries = arrays_.boundaries;
  const std::size_t n_eras = boundaries.size() + 1;
  v.valid.assign(n_eras, 1);
  // A stored era stays valid iff the *current* fault environment is
  // constant across its interval (no current boundary strictly inside)
  // and matches the environment it was built under (era-key compare at
  // a representative interior instant).
  const std::vector<double> current = merged_boundaries(arrays_.static_boundaries, hook);
  for (std::size_t e = 0; e < n_eras; ++e) {
    const bool open_low = e == 0;
    const bool open_high = e == n_eras - 1;
    const double lo = open_low ? 0.0 : boundaries[e - 1];
    const double hi = open_high ? 0.0 : boundaries[e];
    auto it = open_low ? current.begin()
                       : std::upper_bound(current.begin(), current.end(), lo);
    if (it != current.end() && (open_high || *it < hi)) {
      v.valid[e] = 0;
      continue;
    }
    if (era_fault_key(hook, era_representative(boundaries, e)) != arrays_.era_keys[e]) {
      v.valid[e] = 0;
    }
  }
  return v;
}

// -------------------------------------------------------------- replay

namespace {

/// lower_bound over parallel sorted arrays compared as key tuples.
template <typename Less>
std::size_t soa_lower_bound(std::size_t n, Less less_at) {
  std::size_t lo = 0, hi = n;
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (less_at(mid)) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

/// Index of the serving entry keyed (lat, lon, epoch), or s_lat.size().
std::size_t find_serving(const EpochTimeline::Arrays& v, std::uint64_t lat,
                         std::uint64_t lon, std::uint64_t epoch) {
  const std::size_t n = v.s_lat.size();
  const std::size_t i = soa_lower_bound(n, [&](std::size_t m) {
    if (v.s_lat[m] != lat) return v.s_lat[m] < lat;
    if (v.s_lon[m] != lon) return v.s_lon[m] < lon;
    return v.s_epoch[m] < epoch;
  });
  const bool hit =
      i < n && v.s_lat[i] == lat && v.s_lon[i] == lon && v.s_epoch[i] == epoch;
  return hit ? i : n;
}

/// Index of the sample entry keyed (lat, lon, epoch, era), or m_lat.size().
std::size_t find_sample(const EpochTimeline::Arrays& v, std::uint64_t lat,
                        std::uint64_t lon, std::uint64_t epoch, std::uint32_t era) {
  const std::size_t n = v.m_lat.size();
  const std::size_t i = soa_lower_bound(n, [&](std::size_t m) {
    if (v.m_lat[m] != lat) return v.m_lat[m] < lat;
    if (v.m_lon[m] != lon) return v.m_lon[m] < lon;
    if (v.m_epoch[m] != epoch) return v.m_epoch[m] < epoch;
    return v.m_era[m] < era;
  });
  const bool hit = i < n && v.m_lat[i] == lat && v.m_lon[i] == lon &&
                   v.m_epoch[i] == epoch && v.m_era[i] == era;
  return hit ? i : n;
}

}  // namespace

EpochTimeline::ServingReplay EpochTimeline::replay_serving(const geo::GeoPoint& user,
                                                           double epoch_sec,
                                                           SatId* out) const {
  if (user.alt_km != 0.0) return ServingReplay::miss;  // keys are ground-level
  const Arrays& v = arrays_;
  const std::size_t i =
      find_serving(v, bits(user.lat_deg), bits(user.lon_deg), bits(epoch_sec));
  if (i == v.s_lat.size()) {
    record_replay_fallback(kServingLayer);
    return ServingReplay::miss;
  }
  record_replay_hit(kServingLayer);
  if (v.s_sat[i] == kNoSat) return ServingReplay::outage;
  *out = unpack_sat(v.s_sat[i]);
  return ServingReplay::serving;
}

bool EpochTimeline::replay_sample(const geo::GeoPoint& user, double t_sec,
                                  double epoch_sec, AccessSample* out) const {
  if (user.alt_km != 0.0) return false;  // keys are ground-level; not counted
  const Validity& valid = validity_for_thread();
  const std::uint32_t era = era_of(t_sec);
  if (!valid.valid[era]) {
    record_replay_fallback(kSampleLayer);
    return false;
  }
  const Arrays& v = arrays_;
  const std::size_t i =
      find_sample(v, bits(user.lat_deg), bits(user.lon_deg), bits(epoch_sec), era);
  if (i == v.m_lat.size()) {
    record_replay_fallback(kSampleLayer);
    return false;
  }
  record_replay_hit(kSampleLayer);
  AccessSample s;
  if (v.m_sat[i] != kNoSat) {
    s.reachable = true;
    s.serving_sat = unpack_sat(v.m_sat[i]);
    s.pop_index = v.m_popgw[i] >> 16;
    s.gateway_index = v.m_popgw[i] & 0xFFFFu;
    s.up_ms = from_bits(v.m_up[i]);
    s.down_ms = from_bits(v.m_down[i]);
    s.backhaul_ms = from_bits(v.m_backhaul[i]);
    s.scheduling_ms = from_bits(v.m_sched[i]);
    s.one_way_ms = from_bits(v.m_oneway[i]);
  }
  *out = s;
  return true;
}

// ------------------------------------------------------------ registry

const EpochTimeline* EpochTimeline::find(std::uint64_t identity) {
  const Registry* reg = registry_slot().load(std::memory_order_acquire);
  if (!reg) return nullptr;
  const auto it = std::lower_bound(
      reg->items.begin(), reg->items.end(), identity,
      [](const auto& tl, std::uint64_t id) { return tl->identity() < id; });
  if (it == reg->items.end() || (*it)->identity() != identity) return nullptr;
  return it->get();
}

void EpochTimeline::install(std::shared_ptr<const EpochTimeline> timeline) {
  if (!timeline) return;
  std::lock_guard<std::mutex> lock(registry_mutex());
  const Registry* old = registry_slot().load(std::memory_order_acquire);
  auto next = std::make_unique<Registry>();
  if (old) next->items = old->items;
  const auto it = std::lower_bound(
      next->items.begin(), next->items.end(), timeline->identity(),
      [](const auto& tl, std::uint64_t id) { return tl->identity() < id; });
  if (it != next->items.end() && (*it)->identity() == timeline->identity()) {
    *it = std::move(timeline);
  } else {
    next->items.insert(it, std::move(timeline));
  }
  registry_slot().store(next.get(), std::memory_order_release);
  registry_graveyard().push_back(std::move(next));
}

void EpochTimeline::clear_installed() {
  std::lock_guard<std::mutex> lock(registry_mutex());
  auto next = std::make_unique<Registry>();
  registry_slot().store(next.get(), std::memory_order_release);
  registry_graveyard().push_back(std::move(next));
}

// -------------------------------------------------------------- ensure

namespace {

struct ServingKey {
  std::uint64_t lat = 0, lon = 0, epoch = 0;
  friend bool operator<(const ServingKey& a, const ServingKey& b) {
    if (a.lat != b.lat) return a.lat < b.lat;
    if (a.lon != b.lon) return a.lon < b.lon;
    return a.epoch < b.epoch;
  }
  friend bool operator==(const ServingKey& a, const ServingKey& b) {
    return a.lat == b.lat && a.lon == b.lon && a.epoch == b.epoch;
  }
};

struct SampleKey {
  std::uint64_t lat = 0, lon = 0, epoch = 0;
  std::uint32_t era = 0;
  std::uint64_t t = 0;  ///< representative query instant (era-interior)
  friend bool operator<(const SampleKey& a, const SampleKey& b) {
    if (a.lat != b.lat) return a.lat < b.lat;
    if (a.lon != b.lon) return a.lon < b.lon;
    if (a.epoch != b.epoch) return a.epoch < b.epoch;
    if (a.era != b.era) return a.era < b.era;
    return a.t < b.t;
  }
  friend bool same_key(const SampleKey& a, const SampleKey& b) {
    return a.lat == b.lat && a.lon == b.lon && a.epoch == b.epoch && a.era == b.era;
  }
};

/// Runs `fn(i)` for i in [0, n), inline below a small threshold, else
/// chunked across a ThreadPool. Each i writes only its own output slot,
/// so the result is identical at any worker count.
void for_each_slot(std::size_t n, unsigned threads, const std::function<void(std::size_t)>& fn) {
  const unsigned workers = runtime::resolve_threads(threads);
  constexpr std::size_t kInlineThreshold = 256;
  if (workers <= 1 || n < kInlineThreshold) {
    g_in_build = true;
    for (std::size_t i = 0; i < n; ++i) fn(i);
    g_in_build = false;
    return;
  }
  const std::size_t chunk = std::max<std::size_t>(64, n / (workers * 8u));
  runtime::ThreadPool pool(workers);
  for (std::size_t begin = 0; begin < n; begin += chunk) {
    const std::size_t end = std::min(n, begin + chunk);
    pool.submit([begin, end, &fn] {
      g_in_build = true;
      for (std::size_t i = begin; i < end; ++i) fn(i);
      g_in_build = false;
    });
  }
  pool.wait_idle();
}

}  // namespace

void EpochTimeline::ensure(const AccessNetwork& net, std::vector<TimelineQuery> queries,
                           unsigned threads) {
  if (!timeline_enabled()) return;
  const AccessConfig& config = net.config();
  if (config.orbit == OrbitClass::geo || config.reconfig_interval_sec <= 0) return;
  if (queries.empty()) return;
  // Packed SatIds carry 10 bits per field; a constellation that does not
  // fit simply never gets a timeline (the on-demand path serves it).
  if (net.constellation_->shells().size() > 0x400) return;
  for (const auto& shell : net.constellation_->shells()) {
    if (shell.planes > 0x400 || shell.sats_per_plane > 0x400) return;
  }
  // TLE catalogs put every satellite in one synthetic shell at {0, 0, i}.
  if (net.constellation_->shells().empty() && net.constellation_->total_sats() > 0x400) {
    return;
  }
  // satlint:allow(nondet-source): build-cost telemetry; results never read it
  // satlint:allow(nondet-taint): t0 feeds only the build_ms counter; timeline epochs are a pure function of the constellation
  const auto t0 = std::chrono::steady_clock::now();

  const fault::Hook* hook = fault::Hook::active();
  std::vector<double> static_b = override_boundaries(config);
  std::vector<double> merged = merged_boundaries(static_b, hook);
  std::vector<std::uint64_t> era_keys(merged.size() + 1);
  for (std::size_t e = 0; e < era_keys.size(); ++e) {
    era_keys[e] = era_fault_key(hook, era_representative(merged, e));
  }

  // Canonical key sets: each query contributes a sample key at its
  // epoch and serving keys for the epoch and its predecessor (the
  // handoff comparison), deduplicated in sorted order.
  std::vector<ServingKey> skeys;
  std::vector<SampleKey> mkeys;
  skeys.reserve(queries.size() * 2);
  mkeys.reserve(queries.size());
  for (const auto& q : queries) {
    if (q.terminal.alt_km != 0.0) continue;  // replay keys are ground-level
    const double interval = net.effective_reconfig_interval(q.t_sec);
    if (interval <= 0) continue;
    const double epoch = std::floor(q.t_sec / interval) * interval;
    const std::uint64_t lat = bits(q.terminal.lat_deg);
    const std::uint64_t lon = bits(q.terminal.lon_deg);
    skeys.push_back({lat, lon, bits(epoch)});
    if (epoch - interval >= 0) skeys.push_back({lat, lon, bits(epoch - interval)});
    const auto era = static_cast<std::uint32_t>(
        std::upper_bound(merged.begin(), merged.end(), q.t_sec) - merged.begin());
    mkeys.push_back({lat, lon, bits(epoch), era, bits(q.t_sec)});
  }
  std::sort(skeys.begin(), skeys.end());
  skeys.erase(std::unique(skeys.begin(), skeys.end()), skeys.end());
  std::sort(mkeys.begin(), mkeys.end());
  mkeys.erase(std::unique(mkeys.begin(), mkeys.end(),
                          [](const SampleKey& a, const SampleKey& b) {
                            return same_key(a, b);
                          }),
              mkeys.end());

  // Reuse of the installed snapshot: the serving layer is always
  // mergeable (fault-independent); the sample layer carries over only
  // when the era partition and per-era keys are unchanged.
  const std::uint64_t identity = net.identity_hash();
  const EpochTimeline* existing = find(identity);
  const bool sample_reuse = existing && existing->arrays_.static_boundaries == static_b &&
                            existing->arrays_.boundaries == merged &&
                            existing->arrays_.era_keys == era_keys;

  std::vector<ServingKey> missing_s;
  if (!existing) {
    missing_s = std::move(skeys);
  } else {
    const Arrays& v = existing->arrays_;
    for (const auto& k : skeys) {
      if (find_serving(v, k.lat, k.lon, k.epoch) == v.s_lat.size()) {
        missing_s.push_back(k);
      }
    }
  }
  std::vector<SampleKey> missing_m;
  if (!sample_reuse) {
    missing_m = std::move(mkeys);
  } else {
    const Arrays& v = existing->arrays_;
    for (const auto& k : mkeys) {
      if (find_sample(v, k.lat, k.lon, k.epoch, k.era) == v.m_lat.size()) {
        missing_m.push_back(k);
      }
    }
  }
  if (missing_s.empty() && missing_m.empty() && sample_reuse) return;  // warm

  // Build the missing serving decisions, each into its own slot: one
  // exact serving evaluation per distinct key.
  std::vector<std::uint32_t> built_s(missing_s.size(), kNoSat);
  for_each_slot(missing_s.size(), threads, [&](std::size_t i) {
    const ServingKey& k = missing_s[i];
    const geo::GeoPoint user{from_bits(k.lat), from_bits(k.lon), 0.0};
    if (const auto sat = net.serving_sat_at_epoch(user, from_bits(k.epoch))) {
      built_s[i] = pack_sat(sat->id);
    }
  });

  // Deterministic merge: existing entries and fresh slots interleave in
  // key order, independent of how many workers computed them.
  Arrays arrays;
  arrays.static_boundaries = std::move(static_b);
  arrays.boundaries = std::move(merged);
  arrays.era_keys = std::move(era_keys);

  const std::size_t old_s = existing ? existing->serving_size() : 0;
  arrays.s_lat.reserve(old_s + missing_s.size());
  arrays.s_lon.reserve(old_s + missing_s.size());
  arrays.s_epoch.reserve(old_s + missing_s.size());
  arrays.s_sat.reserve(old_s + missing_s.size());
  {
    std::size_t a = 0, b = 0;
    const Arrays* v = existing ? &existing->arrays_ : nullptr;
    const std::size_t na = existing ? old_s : 0;
    while (a < na || b < missing_s.size()) {
      bool take_existing;
      if (a >= na) {
        take_existing = false;
      } else if (b >= missing_s.size()) {
        take_existing = true;
      } else {
        const ServingKey ka{v->s_lat[a], v->s_lon[a], v->s_epoch[a]};
        take_existing = ka < missing_s[b];
      }
      if (take_existing) {
        arrays.s_lat.push_back(v->s_lat[a]);
        arrays.s_lon.push_back(v->s_lon[a]);
        arrays.s_epoch.push_back(v->s_epoch[a]);
        arrays.s_sat.push_back(v->s_sat[a]);
        ++a;
      } else {
        arrays.s_lat.push_back(missing_s[b].lat);
        arrays.s_lon.push_back(missing_s[b].lon);
        arrays.s_epoch.push_back(missing_s[b].epoch);
        arrays.s_sat.push_back(built_s[b]);
        ++b;
      }
    }
  }

  // Build the missing samples: the exact on-demand computation at the
  // stored representative instant — within one (epoch, era) cell any
  // instant yields identical bytes. Every sample key's (lat, lon, epoch)
  // is a serving key, now in the merged serving layer, so the serving
  // satellite is rebuilt from its packed id (serving_visible_sat is the
  // replay path's reconstruction) instead of being chosen a second time.
  std::vector<AccessSample> built_m(missing_m.size());
  for_each_slot(missing_m.size(), threads, [&](std::size_t i) {
    const SampleKey& k = missing_m[i];
    const std::size_t j = find_serving(arrays, k.lat, k.lon, k.epoch);
    const geo::GeoPoint user{from_bits(k.lat), from_bits(k.lon), 0.0};
    const double epoch = from_bits(k.epoch);
    std::optional<VisibleSat> sat;
    if (arrays.s_sat[j] != kNoSat) {
      sat = net.serving_visible_sat(user, unpack_sat(arrays.s_sat[j]), epoch);
    }
    built_m[i] = net.build_sample(user, from_bits(k.t), sat);
  });

  const std::size_t old_m = sample_reuse ? existing->sample_size() : 0;
  const std::size_t total_m = old_m + missing_m.size();
  arrays.m_lat.reserve(total_m);
  arrays.m_lon.reserve(total_m);
  arrays.m_epoch.reserve(total_m);
  arrays.m_era.reserve(total_m);
  arrays.m_sat.reserve(total_m);
  arrays.m_popgw.reserve(total_m);
  arrays.m_up.reserve(total_m);
  arrays.m_down.reserve(total_m);
  arrays.m_backhaul.reserve(total_m);
  arrays.m_sched.reserve(total_m);
  arrays.m_oneway.reserve(total_m);
  {
    const auto push_existing = [&](const Arrays& v, std::size_t a) {
      arrays.m_lat.push_back(v.m_lat[a]);
      arrays.m_lon.push_back(v.m_lon[a]);
      arrays.m_epoch.push_back(v.m_epoch[a]);
      arrays.m_era.push_back(v.m_era[a]);
      arrays.m_sat.push_back(v.m_sat[a]);
      arrays.m_popgw.push_back(v.m_popgw[a]);
      arrays.m_up.push_back(v.m_up[a]);
      arrays.m_down.push_back(v.m_down[a]);
      arrays.m_backhaul.push_back(v.m_backhaul[a]);
      arrays.m_sched.push_back(v.m_sched[a]);
      arrays.m_oneway.push_back(v.m_oneway[a]);
    };
    const auto push_built = [&](std::size_t b) {
      const SampleKey& k = missing_m[b];
      const AccessSample& s = built_m[b];
      arrays.m_lat.push_back(k.lat);
      arrays.m_lon.push_back(k.lon);
      arrays.m_epoch.push_back(k.epoch);
      arrays.m_era.push_back(k.era);
      arrays.m_sat.push_back(s.reachable ? pack_sat(*s.serving_sat) : kNoSat);
      arrays.m_popgw.push_back(static_cast<std::uint32_t>(s.pop_index) << 16 |
                               static_cast<std::uint32_t>(s.gateway_index));
      arrays.m_up.push_back(bits(s.up_ms));
      arrays.m_down.push_back(bits(s.down_ms));
      arrays.m_backhaul.push_back(bits(s.backhaul_ms));
      arrays.m_sched.push_back(bits(s.scheduling_ms));
      arrays.m_oneway.push_back(bits(s.one_way_ms));
    };
    std::size_t a = 0, b = 0;
    while (a < old_m || b < missing_m.size()) {
      bool take_existing;
      if (a >= old_m) {
        take_existing = false;
      } else if (b >= missing_m.size()) {
        take_existing = true;
      } else {
        const Arrays& v = existing->arrays_;
        const SampleKey ka{v.m_lat[a], v.m_lon[a], v.m_epoch[a], v.m_era[a], 0};
        take_existing = ka < missing_m[b];
      }
      if (take_existing) {
        push_existing(existing->arrays_, a);
        ++a;
      } else {
        push_built(b);
        ++b;
      }
    }
  }

  auto snapshot = std::make_shared<EpochTimeline>(identity, std::move(arrays));
  const std::size_t new_bytes =
      missing_s.size() * (3 * sizeof(std::uint64_t) + sizeof(std::uint32_t)) +
      missing_m.size() * (3 * sizeof(std::uint64_t) + 3 * sizeof(std::uint32_t) +
                          5 * sizeof(std::uint64_t));
  install(std::move(snapshot));

  // satlint:allow(nondet-source): build-cost telemetry; results never read it
  // satlint:allow(nondet-taint): elapsed feeds only the build_ms counter; the installed snapshot is already immutable
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  counters().build_ms.add(static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(elapsed).count()));
  counters().build_epochs.add(missing_s.size() + missing_m.size());
  counters().build_bytes.add(new_bytes);
}

}  // namespace satnet::orbit
