// Access-interval visibility index with epoch-keyed caching.
//
// Every campaign layer asks the same two questions over and over: "which
// satellite serves this terminal at this reconfiguration epoch?" and
// "what does the full access path look like at this instant?". Both
// reduce to geometry that repeats — terminals cluster in cities, epochs
// quantize onto a coarse grid — so the index amortizes it.
//
// The index exists for SGP4 constellations only, where one serving
// decision otherwise pays for a whole-constellation batch frame
// (Sgp4Propagator::frame_at). A Walker decision is already as cheap as a
// candidate list — walker_cone_sweep's per-plane windows emit only the
// slots near the terminal — so AccessNetwork builds no index for Walker
// shells, and the constructor rejects them.
//
//  * Interval layer (pure geometry): for each (1-degree ground cell,
//    time slab) it precomputes the satellites whose visibility interval
//    can intersect the slab, via the same central-angle cone test as
//    Constellation::best_visible widened by the cell half-diagonal and
//    the satellites' angular motion across the slab. The candidate list
//    is a strict superset of the visible set, kept in canonical sweep
//    order, so running the exact ephemeris over it reproduces
//    best_visible bit-for-bit while propagating one frame per slab
//    instead of one per epoch.
//  * Epoch memo: full AccessSamples keyed by (terminal, epoch, era),
//    where an era is the interval between consecutive boundaries of the
//    time-dependent inputs (PoP overrides, fault-plan gateway outages
//    and handoff storms). Within one era a sample is a pure function of
//    (terminal, epoch), so the memo is value-transparent by
//    construction. Fault events therefore partition the key space
//    instead of flushing it: an injected outage invalidates exactly the
//    epochs it covers (they land in a different era), never the index.
//
// Caches are thread-local, keyed by a process-unique index id: no locks,
// no cross-thread coupling, TSan-clean, and — because every cached value
// equals what the uncached computation would produce — campaign output
// stays byte-identical at any thread count, cache on or off. The golden
// suite pins exactly that equivalence.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "geo/geodesy.hpp"
#include "orbit/constellation.hpp"

namespace satnet::orbit {

struct AccessConfig;
struct AccessSample;
class AccessNetwork;

/// Process-wide ablation switch (--no-access-cache; it affects SGP4
/// networks only, the only ones with an index). Checked per query;
/// flipping it mid-run is safe (the caches simply stop being consulted)
/// but is meant for whole-run A/B comparisons.
bool access_cache_enabled();
void set_access_cache_enabled(bool enabled);

/// Per-AccessNetwork visibility index + epoch-keyed sample memo. Shared
/// by copies of the owning network (the derived data is immutable); all
/// queries are const and thread-safe via thread-local caches.
class AccessIndex {
 public:
  /// Throws std::invalid_argument unless `constellation` runs SGP4.
  AccessIndex(const AccessConfig& config,
              std::shared_ptr<const Constellation> constellation);
  ~AccessIndex();

  AccessIndex(const AccessIndex&) = delete;
  AccessIndex& operator=(const AccessIndex&) = delete;

  /// Serving satellite at an epoch boundary. Byte-identical to
  /// constellation->best_visible(user, epoch_sec, min_elevation_deg).
  std::optional<VisibleSat> serving(const geo::GeoPoint& user, double epoch_sec) const;

  /// Full access path at time t (epoch already resolved by the caller).
  /// Byte-identical to net.build_sample(user, t_sec, serving(user, epoch)).
  AccessSample sample(const AccessNetwork& net, const geo::GeoPoint& user, double t_sec,
                      double epoch_sec) const;

  /// Candidate satellites for the (cell, slab) containing (user, epoch),
  /// in canonical sweep order — exposed for tests asserting the superset
  /// property that underlies the equivalence argument.
  std::vector<SatId> candidates_for_test(const geo::GeoPoint& user,
                                         double epoch_sec) const;

 private:
  struct Impl;
  std::unique_ptr<const Impl> impl_;
};

}  // namespace satnet::orbit
