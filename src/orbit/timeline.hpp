// Campaign-scoped epoch timeline: precompute constellation access state
// once, replay it everywhere as pure lookups.
//
// The window sweep makes each geometry query cheap; the timeline
// removes the query from the campaign hot path entirely. Every
// campaign layer's access schedule is a pure function of its config —
// mlab's test draws and ripe's probe rounds come from fork_stable
// streams, so a pre-pass can replay the exact draws the shards will make
// and hand the full set of (terminal, time) queries to
// EpochTimeline::ensure(). ensure() materializes every serving decision
// and access sample once, in parallel on runtime::ThreadPool with a
// deterministic slot-per-key merge, into sorted SoA arrays; after that
// AccessNetwork::sample() and serving_sat_at_epoch() are binary-search
// replays. Anything not covered falls back to the exact on-demand
// window sweep, so the timeline is value-transparent by construction:
// campaign output is byte-identical with the timeline on or off
// (--no-timeline) — the golden suite pins exactly that equivalence.
//
// Fault-plan coherence partitions time into eras instead of flushing:
// the snapshot stores the era boundaries it was built under
// (PoP override edges plus fault-plan outage/storm edges) and, per era,
// a hash of the fault events active inside it. Installing or removing a
// plan invalidates exactly the eras whose boundary structure or active
// set changed — those lookups fall back and are counted — while the
// serving layer (pure geometry, fault-independent) and every untouched
// era keep replaying. Snapshots live in memory only, for the process
// lifetime.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "geo/geodesy.hpp"
#include "orbit/constellation.hpp"

namespace satnet::orbit {

struct AccessConfig;
struct AccessSample;
class AccessNetwork;

/// Process-wide ablation switch (--no-timeline). Checked per query;
/// flipping it mid-run is safe (installed timelines simply stop being
/// consulted) but is meant for whole-run A/B comparisons.
bool timeline_enabled();
void set_timeline_enabled(bool enabled);

/// Identity of an access network for timeline keying: a hash over every
/// config field that feeds sample values (PoPs, gateways, overrides,
/// elevation mask, scheduling overhead, reconfig cadence) plus the
/// constellation's shell parameters. Networks with equal hashes answer
/// every query identically, so a snapshot built against one is valid
/// for the other (ripe's standalone Starlink network shares the world's
/// snapshot this way). Pass nullptr for GEO fleets.
std::uint64_t access_identity_hash(const AccessConfig& config,
                                   const Constellation* constellation);

/// One planned access query: a terminal asking for the path at t_sec.
struct TimelineQuery {
  geo::GeoPoint terminal;
  double t_sec = 0;
};

/// An immutable, campaign-scoped snapshot of access state for one
/// network identity. Two sorted SoA layers:
///  * serving layer, keyed (lat, lon, epoch): the packed serving
///    satellite at a reconfiguration epoch, kNoSat for outage. Pure
///    geometry — fault-independent, never invalidated.
///  * sample layer, keyed (lat, lon, epoch, era): the full AccessSample
///    value (latency components, PoP, gateway). Valid only while the
///    era's fault environment matches the stored era key.
/// Keys are the raw IEEE-754 bit patterns of the doubles, ordered as
/// unsigned integers — any strict total order works as long as build
/// and lookup agree, and bit patterns avoid -0.0/NaN pitfalls.
class EpochTimeline {
 public:
  /// Packed serving-satellite sentinel: terminal sees no satellite.
  static constexpr std::uint32_t kNoSat = 0xFFFFFFFFu;

  /// The snapshot's SoA storage.
  struct Arrays {
    std::vector<double> static_boundaries;  ///< PoP override edges
    std::vector<double> boundaries;         ///< static + fault edges, sorted
    std::vector<std::uint64_t> era_keys;    ///< boundaries.size() + 1 hashes
    // Serving layer, sorted by (lat, lon, epoch) bit patterns.
    std::vector<std::uint64_t> s_lat, s_lon, s_epoch;
    std::vector<std::uint32_t> s_sat;
    // Sample layer, sorted by (lat, lon, epoch, era).
    std::vector<std::uint64_t> m_lat, m_lon, m_epoch;
    std::vector<std::uint32_t> m_era, m_sat, m_popgw;  ///< popgw = pop<<16 | gw
    std::vector<std::uint64_t> m_up, m_down, m_backhaul, m_sched, m_oneway;

    friend bool operator==(const Arrays&, const Arrays&) = default;
  };

  EpochTimeline(std::uint64_t identity, Arrays arrays);

  EpochTimeline(const EpochTimeline&) = delete;
  EpochTimeline& operator=(const EpochTimeline&) = delete;

  std::uint64_t identity() const { return identity_; }
  /// The stored layers, for tests that check entries one by one.
  const Arrays& arrays() const { return arrays_; }
  std::size_t serving_size() const { return arrays_.s_lat.size(); }
  std::size_t sample_size() const { return arrays_.m_lat.size(); }

  enum class ServingReplay {
    miss,     ///< epoch not covered: caller falls back to the sweep
    outage,   ///< covered, no visible satellite
    serving,  ///< covered, *out holds the serving satellite id
  };
  /// Serving satellite at a reconfiguration epoch. Fault-independent.
  ServingReplay replay_serving(const geo::GeoPoint& user, double epoch_sec,
                               SatId* out) const;

  /// Full access sample at time t (epoch already resolved by the
  /// caller). Returns false — and counts a fallback — when the key is
  /// not covered or when t's era no longer matches the fault
  /// environment the snapshot was built under.
  bool replay_sample(const geo::GeoPoint& user, double t_sec, double epoch_sec,
                     AccessSample* out) const;

  /// SatId <-> packed u32 (shell | plane | index, 10 bits each).
  static std::uint32_t pack_sat(const SatId& id);
  static SatId unpack_sat(std::uint32_t packed);

  /// Materializes every serving decision and sample the queries need
  /// that the installed snapshot (if any) does not already cover, in
  /// parallel on runtime::ThreadPool (`threads` as in campaign configs:
  /// 0 = hardware), then installs the merged snapshot. Byte-identical
  /// result at any thread count: each missing key computes into its own
  /// slot and the merge is by sorted key order. No-ops for GEO networks,
  /// disabled timelines, and fully covered query sets.
  static void ensure(const AccessNetwork& net, std::vector<TimelineQuery> queries,
                     unsigned threads);

  /// The installed snapshot for a network identity, or nullptr. The
  /// pointer stays valid for the process lifetime (snapshots are
  /// retired, never destroyed — the fault::Hook install pattern).
  static const EpochTimeline* find(std::uint64_t identity);
  /// Uninstalls everything (tests and perfbench; retired, not destroyed).
  static void clear_installed();

 private:
  struct Validity;
  Validity& validity_for_thread() const;
  std::uint32_t era_of(double t_sec) const;
  /// Installs (or replaces) the snapshot for timeline->identity().
  static void install(std::shared_ptr<const EpochTimeline> timeline);

  std::uint64_t identity_ = 0;
  std::uint64_t instance_id_ = 0;  ///< process-unique validity-cache key
  Arrays arrays_;
};

}  // namespace satnet::orbit
