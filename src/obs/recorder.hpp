// Flight recorder for the campaign runtime: a per-shard bounded ring
// buffer of fixed-size binary event records, drained into the JSONL
// export and dumped as a postmortem when a run dies.
//
// It is the one timed-record mechanism: a shard attempt's timing is its
// phase_exit wall_us minus its phase_enter wall_us, and --trace-out is
// a view over the drained stream. Events land in buffers owned by the
// recording thread (a ShardScope ring while a shard body runs, a
// registered per-thread ring otherwise), so recording never contends
// with other workers. drain() merges everything in canonical
// (phase, shard, attempt, seq) order.
//
// Determinism contract: a record's *content* — kind, phase, shard,
// attempt, seq, and the a/b payload words — is a pure function of
// (seed, config, plan) for every record with det == 1, because such
// records are only emitted inside a ShardScope whose event stream is
// the shard body's deterministic execution. Ring overflow drops the
// oldest records of that shard's own stream after its pinned
// phase_enter, so even the surviving set is deterministic. Wall-clock
// lives in the separate `wall_us` field (satlint-annotated at the
// single read site) and is excluded from golden comparisons and the
// postmortem stability check. Records emitted outside any shard scope
// (queue-depth samples, watchdog flags) are inherently
// scheduling-dependent and carry det == 0.
//
// Like metrics, recorder state is observation-only: nothing in the
// simulation reads an event back, so enabling the recorder can
// never perturb campaign output — the determinism suite pins this.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace satnet::obs {

/// What happened. Values are part of the export format — append only.
enum class EventKind : std::uint16_t {
  phase_enter = 1,        ///< shard attempt started (a = attempt)
  phase_exit = 2,         ///< shard attempt finished (a = dropped, b = recorded)
  fault_hit = 3,          ///< fault::Hook applied an event (a = fault kind)
  retry = 4,              ///< shard re-attempt after a failure (a = attempt)
  degrade = 5,            ///< shard quarantined at fan-in (a = attempts used)
  timeline_hit = 6,       ///< epoch-timeline replay hit (a = layer)
  timeline_fallback = 7,  ///< replay missed, fell back to the window sweep (a = layer)
  queue_depth = 8,        ///< pool queue depth sample (a = depth; det = 0)
  stall_flag = 9,         ///< watchdog flagged a straggler (a = wall ms; det = 0)
};

std::string_view to_string(EventKind kind);

/// One fixed-size binary event record. Only `wall_us` (and any det == 0
/// record) is non-deterministic; everything else replays bit-for-bit.
struct EventRecord {
  std::uint16_t kind = 0;     ///< EventKind
  std::uint16_t det = 1;      ///< 1 = deterministic content, 0 = telemetry-only
  std::uint32_t shard = kNoShard;
  std::uint32_t attempt = 0;
  std::uint32_t seq = 0;      ///< per (phase, shard, attempt) record index
  std::uint64_t a = 0;        ///< payload word (see EventKind)
  std::uint64_t b = 0;        ///< payload word
  std::uint64_t wall_us = 0;  ///< wall-clock, non-deterministic, golden-excluded
  std::uint32_t phase_id = 0;
  std::uint32_t reserved = 0;

  static constexpr std::uint32_t kNoShard = 0xffffffffu;
};

static_assert(sizeof(EventRecord) == 48, "fixed-size binary record");

/// An EventRecord with its phase id resolved back to the phase string;
/// what drain() and the postmortem hand to exporters.
struct ResolvedEvent {
  std::string phase;
  EventRecord rec;
};

class FlightRecorder {
 public:
  FlightRecorder();
  ~FlightRecorder() = default;
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// The process-wide recorder every instrumented layer uses.
  static FlightRecorder& global();

  /// Off by default: a disabled recorder makes record() one relaxed
  /// atomic load and ShardScope a no-op.
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Ring capacity per shard scope (and per unscoped thread ring).
  /// Applies to scopes opened after the call. Minimum 2: a scope ring
  /// pins its phase_enter and always ends on phase_exit, so even the
  /// smallest ring keeps one complete pair per attempt.
  void set_ring_capacity(std::size_t cap);
  std::size_t ring_capacity() const {
    return ring_capacity_.load(std::memory_order_relaxed);
  }

  /// Where dump_postmortem() writes; "" (default) means stderr.
  void set_postmortem_path(std::string path);
  std::string postmortem_path() const;

  /// Interns a phase name; ids are stable for the recorder's lifetime.
  std::uint32_t intern(std::string_view phase);
  std::string phase_name(std::uint32_t id) const;

  /// Records into the calling thread's active ShardScope ring, or into
  /// the thread's unscoped ring (shard = kNoShard, det forced to 0 —
  /// unscoped seq order is scheduling-dependent). No-op while disabled.
  void record(EventKind kind, std::uint64_t a = 0, std::uint64_t b = 0,
              bool det = true);

  /// Appends one record directly to the collected store, bypassing any
  /// ring, with seq = 0xffffffff so it sorts after the shard's scoped
  /// stream. For fan-in verdicts (degrade) emitted after the shard's
  /// scope closed.
  void record_for_shard(std::string_view phase, std::size_t shard,
                        std::size_t attempt, EventKind kind, std::uint64_t a = 0,
                        std::uint64_t b = 0, bool det = true);

  /// Collects every flushed and thread-buffered record, empties the
  /// buffers, and returns the merged stream sorted by
  /// (phase, shard, attempt, seq, kind, a). Deterministic for the
  /// det == 1 subset at any thread count.
  std::vector<ResolvedEvent> drain();

  /// Non-destructive copy of everything drain() would return; what the
  /// postmortem dumps (so a later export still sees the events).
  std::vector<ResolvedEvent> snapshot() const;

  /// Writes a postmortem — one JSONL reason line followed by the event
  /// snapshot — to postmortem_path() (stderr when empty). No-op while
  /// disabled. Returns the number of events dumped.
  std::size_t dump_postmortem(std::string_view reason);

  /// Microseconds since the recorder's epoch (steady clock). The single
  /// timestamp source for the non-deterministic `wall_us` field.
  std::uint64_t wall_now_us() const;

 private:
  friend class ShardScope;

  /// Drop-oldest ring whose first `pinned` records are never
  /// overwritten: a ShardScope pins its phase_enter (pinned = 1, pushed
  /// when the scope opens), an unscoped thread ring pins nothing. Slots
  /// [pinned, capacity) wrap.
  struct Ring {
    std::vector<EventRecord> slots;  ///< grows to capacity, then wraps
    std::size_t capacity = 2;        ///< fixed at ring creation, > pinned
    std::size_t pinned = 0;          ///< leading records kept on overflow
    std::size_t head = 0;            ///< oldest unpinned slot once full
    std::uint64_t dropped = 0;       ///< overwritten (oldest-first) records
    std::uint32_t next_seq = 0;

    void push(EventRecord rec);
    /// Appends held records to `out` in record order (oldest first).
    void collect(std::vector<EventRecord>* out) const;
  };

  struct LocalRing {
    std::mutex mu;  ///< uncontended except against a concurrent drain
    Ring ring;
  };

  LocalRing& local_ring();
  void flush_ring(std::uint32_t phase_id, const Ring& ring);
  std::vector<ResolvedEvent> resolve_and_sort(
      std::vector<std::pair<std::uint32_t, EventRecord>> raw) const;

  const std::uint64_t recorder_id_;
  std::atomic<bool> enabled_{false};
  std::atomic<std::size_t> ring_capacity_{512};

  mutable std::mutex mu_;  ///< guards phases_, store_, rings_, postmortem_path_
  std::vector<std::string> phases_;
  std::map<std::string, std::uint32_t, std::less<>> phase_ids_;
  std::vector<std::pair<std::uint32_t, EventRecord>> store_;  ///< flushed records
  std::vector<std::shared_ptr<LocalRing>> rings_;
  std::string postmortem_path_;
  std::chrono::steady_clock::time_point epoch_;
};

/// RAII scope marking "this thread is running shard `shard` of phase
/// `phase`, attempt `attempt`". Opens a bounded ring for the shard's
/// event stream, records phase_enter (pinned: overflow never drops it)
/// and phase_exit (pushed last, so it always survives), and flushes the
/// ring into the recorder on exit. Cheap no-op while the recorder is
/// disabled. Scopes nest on one thread: the inner scope takes the
/// thread's records until it is destroyed.
class ShardScope {
 public:
  ShardScope(std::string_view phase, std::size_t shard, std::size_t attempt = 0,
             FlightRecorder* recorder = nullptr);
  ~ShardScope();

  ShardScope(const ShardScope&) = delete;
  ShardScope& operator=(const ShardScope&) = delete;

 private:
  friend class FlightRecorder;

  FlightRecorder* recorder_ = nullptr;  ///< null when disabled at entry
  ShardScope* prev_ = nullptr;          ///< restored on exit (nesting)
  std::uint32_t phase_id_ = 0;
  std::uint32_t shard_ = 0;
  std::uint32_t attempt_ = 0;
  FlightRecorder::Ring ring_;
};

}  // namespace satnet::obs
