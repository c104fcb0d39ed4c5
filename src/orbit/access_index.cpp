#include "orbit/access_index.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <stdexcept>
#include <unordered_map>

#include "fault/hook.hpp"
#include "obs/metrics.hpp"
#include "orbit/access.hpp"

namespace satnet::orbit {

namespace {

constexpr double kPi = 3.14159265358979323846;

/// Ground cells are 1 degree on a side; the half-diagonal bounds the
/// central angle between any terminal in the cell and the cell center
/// (longitude degrees shrink with latitude, so sqrt(2)/2 degrees is an
/// upper bound at every latitude).
constexpr double kCellDeg = 1.0;
constexpr double kCellHalfDiagRad = 0.7072 * kPi / 180.0;

/// Extra gate slack absorbing frame rounding (same idea as
/// best_visible's 1e-6, widened since the index gate is reused across a
/// whole slab).
constexpr double kRoundingSlackRad = 1e-3;

/// Soft bounds on the thread-local maps; crossing one clears that map
/// (counted as evictions). Generous enough that campaigns never hit
/// them — they exist so pathological query patterns stay bounded.
constexpr std::size_t kMaxMemoEntries = std::size_t{1} << 20;
constexpr std::size_t kMaxSlabEntries = std::size_t{1} << 16;

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

void hash_mix(std::uint64_t& h, std::uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
}

struct ServingKey {
  std::uint64_t lat = 0, lon = 0, epoch = 0;
  bool operator==(const ServingKey&) const = default;
};

struct ServingKeyHash {
  std::size_t operator()(const ServingKey& k) const {
    std::uint64_t h = 0x6b5fca5a17a4e3ull;
    hash_mix(h, k.lat);
    hash_mix(h, k.lon);
    hash_mix(h, k.epoch);
    return static_cast<std::size_t>(h);
  }
};

struct SampleKey {
  std::uint64_t lat = 0, lon = 0, epoch = 0;
  std::uint32_t era = 0;
  bool operator==(const SampleKey&) const = default;
};

struct SampleKeyHash {
  std::size_t operator()(const SampleKey& k) const {
    std::uint64_t h = 0x2c4e99d31ab7f09ull;
    hash_mix(h, k.lat);
    hash_mix(h, k.lon);
    hash_mix(h, k.epoch);
    hash_mix(h, k.era);
    return static_cast<std::size_t>(h);
  }
};

struct SlabKey {
  std::int32_t cell_lat = 0, cell_lon = 0;
  std::int64_t slab = 0;
  bool operator==(const SlabKey&) const = default;
};

struct SlabKeyHash {
  std::size_t operator()(const SlabKey& k) const {
    std::uint64_t h = 0x8f1d3acb92e604ull;
    hash_mix(h, static_cast<std::uint32_t>(k.cell_lat));
    hash_mix(h, static_cast<std::uint32_t>(k.cell_lon));
    hash_mix(h, static_cast<std::uint64_t>(k.slab));
    return static_cast<std::size_t>(h);
  }
};

struct Counters {
  obs::Counter& hit;
  obs::Counter& miss;
  obs::Counter& invalidation;
  obs::Counter& slab_build;
  obs::Counter& eviction;
};

Counters& counters() {
  // satlint:allow(shared-state): cached references to thread-safe striped counters; magic-static init is synchronized
  static Counters c{
      obs::MetricsRegistry::global().counter("access.cache.hit",
                                             "access-index memo hits"),
      obs::MetricsRegistry::global().counter("access.cache.miss",
                                             "access-index memo misses"),
      obs::MetricsRegistry::global().counter(
          "access.cache.invalidation",
          "memo entries dropped because a fault plan was (un)installed"),
      obs::MetricsRegistry::global().counter(
          "access.cache.slab_build", "(cell, slab) candidate lists built"),
      obs::MetricsRegistry::global().counter(
          "access.cache.eviction", "memo entries dropped by the size bound"),
  };
  return c;
}

}  // namespace

namespace {

/// A sentinel distinct from every real hook pointer *and* from nullptr,
/// so a fresh cache always refreshes its era boundaries once.
const fault::Hook* uninstalled_sentinel() {
  static const char tag = 0;
  return reinterpret_cast<const fault::Hook*>(&tag);
}

struct ThreadCache {
  const fault::Hook* generation = uninstalled_sentinel();
  std::vector<double> era_boundaries;
  std::unordered_map<SlabKey, std::vector<SatId>, SlabKeyHash> slabs;
  std::unordered_map<ServingKey, std::optional<VisibleSat>, ServingKeyHash> serving;
  std::unordered_map<SampleKey, AccessSample, SampleKeyHash> samples;
};

/// Per-thread caches keyed by a process-unique index id (never a raw
/// pointer: ids are not reused, so a new index at a recycled address
/// cannot alias a dead one's cache).
ThreadCache& thread_cache(std::uint64_t index_id) {
  thread_local std::unordered_map<std::uint64_t, std::unique_ptr<ThreadCache>> caches;
  auto& slot = caches[index_id];
  if (!slot) slot = std::make_unique<ThreadCache>();
  return *slot;
}

std::uint64_t next_index_id() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

struct AccessIndex::Impl {
  std::uint64_t id = 0;
  std::shared_ptr<const Constellation> constellation;
  double min_elevation_deg = 0;
  double slab_sec = 60.0;
  /// Era boundaries that exist without any fault plan: the PoP override
  /// activation edges. Sorted, deduplicated, finite.
  std::vector<double> static_boundaries;
  /// Slab-granularity cone gate, cos(theta_max + cell half-diagonal +
  /// motion slack + rounding slack), from the propagator's conservative
  /// altitude/rate bounds (altitude varies per satellite, so one
  /// worst-case gate covers the catalog).
  double cos_gate = 2.0;

  void refresh_eras(ThreadCache& tc, const fault::Hook* hook) const;
  const std::vector<SatId>& slab_candidates(ThreadCache& tc, const SlabKey& key) const;
  std::optional<VisibleSat> serving_cached(ThreadCache& tc, const geo::GeoPoint& user,
                                           double epoch_sec) const;
};

void AccessIndex::Impl::refresh_eras(ThreadCache& tc, const fault::Hook* hook) const {
  if (tc.generation == hook) return;
  tc.generation = hook;
  tc.era_boundaries = static_boundaries;
  if (hook) {
    for (const auto& ev : hook->plan().events()) {
      if (ev.kind != fault::EventKind::gateway_outage &&
          ev.kind != fault::EventKind::handoff_storm) {
        continue;
      }
      tc.era_boundaries.push_back(ev.t_start_sec);
      tc.era_boundaries.push_back(ev.t_end_sec);
    }
    std::sort(tc.era_boundaries.begin(), tc.era_boundaries.end());
    tc.era_boundaries.erase(
        std::unique(tc.era_boundaries.begin(), tc.era_boundaries.end()),
        tc.era_boundaries.end());
  }
  // Era numbering changed, so sample keys from the old plan are stale.
  // The geometry layers (slabs, serving memo) are fault-independent and
  // survive the swap — that is the "never the whole index" contract.
  counters().invalidation.add(tc.samples.size());
  tc.samples.clear();
}

const std::vector<SatId>& AccessIndex::Impl::slab_candidates(ThreadCache& tc,
                                                             const SlabKey& key) const {
  const auto it = tc.slabs.find(key);
  if (it != tc.slabs.end()) return it->second;
  if (tc.slabs.size() >= kMaxSlabEntries) {
    counters().eviction.add(tc.slabs.size());
    tc.slabs.clear();
  }
  counters().slab_build.add(1);

  // One cone test per (cell, slab) over the batch frame at the slab
  // midpoint, with the gate widened so every satellite that can clear
  // min_elevation_deg from anywhere in the cell at any instant of the
  // slab passes. Frame order is canonical (shell, plane, index) order.
  const double t_mid = (static_cast<double>(key.slab) + 0.5) * slab_sec;
  const double clat =
      geo::deg_to_rad((static_cast<double>(key.cell_lat) + 0.5) * kCellDeg);
  const double clon =
      geo::deg_to_rad((static_cast<double>(key.cell_lon) + 0.5) * kCellDeg);
  const double gx = std::cos(clat) * std::cos(clon);
  const double gy = std::cos(clat) * std::sin(clon);
  const double gz = std::sin(clat);

  std::vector<SatId> cands;
  const auto& prop = static_cast<const Sgp4Propagator&>(constellation->propagator());
  const BatchFrame& frame = prop.frame_at(t_mid);
  for (std::size_t f = 0; f < frame.size(); ++f) {
    if (gx * frame.ux[f] + gy * frame.uy[f] + gz * frame.uz[f] >= cos_gate) {
      cands.push_back(constellation->sat_id_from_flat(f));
    }
  }
  return tc.slabs.emplace(key, std::move(cands)).first->second;
}

std::optional<VisibleSat> AccessIndex::Impl::serving_cached(
    ThreadCache& tc, const geo::GeoPoint& user, double epoch_sec) const {
  // The serving satellite depends only on (lat, lon, epoch): the exact
  // evaluation below zeroes ground altitude exactly as best_visible does.
  const ServingKey key{bits(user.lat_deg), bits(user.lon_deg), bits(epoch_sec)};
  if (const auto it = tc.serving.find(key); it != tc.serving.end()) {
    counters().hit.add(1);
    return it->second;
  }
  counters().miss.add(1);

  const SlabKey slab{
      static_cast<std::int32_t>(std::floor(user.lat_deg / kCellDeg)),
      static_cast<std::int32_t>(std::floor(user.lon_deg / kCellDeg)),
      static_cast<std::int64_t>(std::floor(epoch_sec / slab_sec))};
  const std::vector<SatId>& cands = slab_candidates(tc, slab);

  // Exact ephemeris over the candidate superset, in canonical order with
  // strict-improvement selection: the same operations, on a superset of
  // the same satellites, as best_visible's exact path — so the winner
  // (and every double in it) matches the full sweep bit-for-bit.
  std::optional<VisibleSat> best;
  for (const SatId& id : cands) {
    const geo::GeoPoint pos = constellation->position(id, epoch_sec);
    const double elev = geo::elevation_deg(user, pos);
    if (elev >= min_elevation_deg && (!best || elev > best->elevation_deg)) {
      best = VisibleSat{
          id, pos, elev,
          geo::slant_range_km({user.lat_deg, user.lon_deg, 0.0}, pos)};
    }
  }

  if (tc.serving.size() >= kMaxMemoEntries) {
    counters().eviction.add(tc.serving.size());
    tc.serving.clear();
  }
  tc.serving.emplace(key, best);
  return best;
}

namespace {

std::atomic<bool> g_cache_enabled{true};

}  // namespace

bool access_cache_enabled() {
  return g_cache_enabled.load(std::memory_order_relaxed);
}

void set_access_cache_enabled(bool enabled) {
  g_cache_enabled.store(enabled, std::memory_order_relaxed);
}

AccessIndex::AccessIndex(const AccessConfig& config,
                         std::shared_ptr<const Constellation> constellation) {
  if (!constellation || constellation->model() != OrbitModel::sgp4) {
    throw std::invalid_argument("AccessIndex: needs an SGP4 constellation");
  }
  auto impl = std::make_unique<Impl>();
  impl->id = next_index_id();
  impl->constellation = std::move(constellation);
  impl->min_elevation_deg = config.min_elevation_deg;
  // Slabs cover a handful of reconfiguration epochs so one cone sweep
  // amortizes across them without the motion slack ballooning the gate.
  impl->slab_sec = std::max(60.0, 4.0 * config.reconfig_interval_sec);

  for (const auto& ov : config.overrides) {
    impl->static_boundaries.push_back(ov.from_sec);
    impl->static_boundaries.push_back(ov.until_sec);
  }
  std::sort(impl->static_boundaries.begin(), impl->static_boundaries.end());
  impl->static_boundaries.erase(
      std::unique(impl->static_boundaries.begin(), impl->static_boundaries.end()),
      impl->static_boundaries.end());

  const double e_min = geo::deg_to_rad(config.min_elevation_deg);
  const Propagator& prop = impl->constellation->propagator();
  const double ratio =
      geo::kEarthRadiusKm / (geo::kEarthRadiusKm + prop.max_gate_altitude_km());
  const double theta_max =
      std::acos(std::clamp(ratio * std::cos(e_min), -1.0, 1.0)) - e_min;
  // A satellite's ECEF direction is the composition of the orbital
  // rotation and Earth's rotation, so its angular rate is bounded by the
  // sum of the two; half a slab away from the midpoint sample the
  // direction has moved at most rate * slab/2.
  const double motion_slack =
      (prop.max_angular_rate_rad_per_sec() + kEarthRotationRadPerSec) * impl->slab_sec /
      2.0;
  impl->cos_gate = std::cos(
      std::min(kPi, theta_max + kCellHalfDiagRad + motion_slack + kRoundingSlackRad));

  impl_ = std::move(impl);
}

AccessIndex::~AccessIndex() = default;

std::optional<VisibleSat> AccessIndex::serving(const geo::GeoPoint& user,
                                               double epoch_sec) const {
  return impl_->serving_cached(thread_cache(impl_->id), user, epoch_sec);
}

AccessSample AccessIndex::sample(const AccessNetwork& net, const geo::GeoPoint& user,
                                 double t_sec, double epoch_sec) const {
  ThreadCache& tc = thread_cache(impl_->id);
  impl_->refresh_eras(tc, fault::Hook::active());

  // Within one era every time-dependent input of build_sample (override
  // windows, gateway outages) is constant, so (lat, lon, epoch, era)
  // fully determines the sample.
  const auto era = static_cast<std::uint32_t>(
      std::upper_bound(tc.era_boundaries.begin(), tc.era_boundaries.end(), t_sec) -
      tc.era_boundaries.begin());
  const SampleKey key{bits(user.lat_deg), bits(user.lon_deg), bits(epoch_sec), era};
  if (const auto it = tc.samples.find(key); it != tc.samples.end()) {
    counters().hit.add(1);
    return it->second;
  }
  counters().miss.add(1);

  const AccessSample s =
      net.build_sample(user, t_sec, impl_->serving_cached(tc, user, epoch_sec));
  if (tc.samples.size() >= kMaxMemoEntries) {
    counters().eviction.add(tc.samples.size());
    tc.samples.clear();
  }
  tc.samples.emplace(key, s);
  return s;
}

std::vector<SatId> AccessIndex::candidates_for_test(const geo::GeoPoint& user,
                                                    double epoch_sec) const {
  ThreadCache& tc = thread_cache(impl_->id);
  const SlabKey slab{
      static_cast<std::int32_t>(std::floor(user.lat_deg / kCellDeg)),
      static_cast<std::int32_t>(std::floor(user.lon_deg / kCellDeg)),
      static_cast<std::int64_t>(std::floor(epoch_sec / impl_->slab_sec))};
  return impl_->slab_candidates(tc, slab);
}

}  // namespace satnet::orbit
