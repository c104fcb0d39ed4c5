#include "obs/recorder.hpp"

#include <algorithm>
#include <cstdio>
#include <tuple>

#include "obs/export.hpp"
#include "obs/metrics.hpp"

namespace satnet::obs {

namespace {

/// Each recorder instance gets a unique id so the thread-local ring
/// cache can tell recorders apart even across destruction/reuse of the
/// same address (test recorders come and go; the cache must never hand
/// a dead recorder's ring to a new one).
std::uint64_t next_recorder_id() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

struct TlsSlot {
  std::uint64_t recorder_id = 0;
  std::shared_ptr<void> ring;  ///< type-erased LocalRing keepalive
  void* raw = nullptr;
};

thread_local TlsSlot tls_slot;

/// The innermost live ShardScope on this thread (scoped records route
/// here); restored from ShardScope::prev_ on scope exit.
thread_local ShardScope* tls_scope = nullptr;

Counter& events_counter() {
  // satlint:allow(shared-state): cached registry handle; the counter itself is thread-striped
  static Counter& c = MetricsRegistry::global().counter(
      "recorder.events", "flight-recorder records flushed to the store");
  return c;
}

Counter& dropped_counter() {
  // satlint:allow(shared-state): cached registry handle; the counter itself is thread-striped
  static Counter& c = MetricsRegistry::global().counter(
      "recorder.dropped", "flight-recorder records lost to ring overflow");
  return c;
}

}  // namespace

std::string_view to_string(EventKind kind) {
  switch (kind) {
    case EventKind::phase_enter:
      return "phase_enter";
    case EventKind::phase_exit:
      return "phase_exit";
    case EventKind::fault_hit:
      return "fault_hit";
    case EventKind::retry:
      return "retry";
    case EventKind::degrade:
      return "degrade";
    case EventKind::timeline_hit:
      return "timeline_hit";
    case EventKind::timeline_fallback:
      return "timeline_fallback";
    case EventKind::queue_depth:
      return "queue_depth";
    case EventKind::stall_flag:
      return "stall_flag";
  }
  return "unknown";
}

void FlightRecorder::Ring::push(EventRecord rec) {
  rec.seq = next_seq++;
  if (slots.size() < capacity) {
    slots.push_back(rec);
    return;
  }
  // Full: overwrite the oldest unpinned record (head) with the newest.
  // The drop set is "oldest first after the pinned prefix", so for a
  // deterministic input stream the surviving window is deterministic too.
  slots[head] = rec;
  head = head + 1 == capacity ? pinned : head + 1;
  ++dropped;
}

void FlightRecorder::Ring::collect(std::vector<EventRecord>* out) const {
  // The pinned prefix, then the window oldest first (head == pinned
  // until the ring first wraps).
  const std::size_t window = slots.size() - pinned;
  out->insert(out->end(), slots.begin(),
              slots.begin() + static_cast<std::ptrdiff_t>(pinned));
  for (std::size_t i = 0; i < window; ++i) {
    out->push_back(slots[pinned + (head - pinned + i) % window]);
  }
}

FlightRecorder::FlightRecorder()
    // satlint:allow(nondet-source): the recorder epoch feeds only the wall_us telemetry field, which is excluded from goldens
    // satlint:allow(nondet-taint): callers inherit only the wall_us telemetry field; goldens and stability hashes exclude it
    : recorder_id_(next_recorder_id()), epoch_(std::chrono::steady_clock::now()) {
  // Phase id 0 is reserved for records emitted outside any ShardScope.
  phases_.push_back("unscoped");
  phase_ids_.emplace("unscoped", 0);
}

FlightRecorder& FlightRecorder::global() {
  // satlint:allow(shared-state): the process-wide recorder singleton; records land in scope/thread rings, drain() merges deterministically
  static FlightRecorder r;
  return r;
}

void FlightRecorder::set_ring_capacity(std::size_t cap) {
  ring_capacity_.store(cap < 2 ? 2 : cap, std::memory_order_relaxed);
}

void FlightRecorder::set_postmortem_path(std::string path) {
  std::lock_guard<std::mutex> lock(mu_);
  postmortem_path_ = std::move(path);
}

std::string FlightRecorder::postmortem_path() const {
  std::lock_guard<std::mutex> lock(mu_);
  return postmortem_path_;
}

std::uint32_t FlightRecorder::intern(std::string_view phase) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = phase_ids_.find(phase);
  if (it != phase_ids_.end()) return it->second;
  const auto id = static_cast<std::uint32_t>(phases_.size());
  phases_.emplace_back(phase);
  phase_ids_.emplace(std::string(phase), id);
  return id;
}

std::string FlightRecorder::phase_name(std::uint32_t id) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (id < phases_.size()) return phases_[id];
  return "unknown";
}

std::uint64_t FlightRecorder::wall_now_us() const {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          // satlint:allow(nondet-source): fills only the wall_us telemetry field, excluded from goldens and stability checks
          // satlint:allow(nondet-taint): callers inherit only the wall_us telemetry field, never a simulated quantity
          std::chrono::steady_clock::now() - epoch_)
          .count());
}

FlightRecorder::LocalRing& FlightRecorder::local_ring() {
  if (tls_slot.recorder_id != recorder_id_) {
    auto ring = std::make_shared<LocalRing>();
    ring->ring.capacity = ring_capacity();
    {
      std::lock_guard<std::mutex> lock(mu_);
      rings_.push_back(ring);
    }
    tls_slot.recorder_id = recorder_id_;
    tls_slot.raw = ring.get();
    tls_slot.ring = std::move(ring);
  }
  return *static_cast<LocalRing*>(tls_slot.raw);
}

void FlightRecorder::record(EventKind kind, std::uint64_t a, std::uint64_t b,
                            bool det) {
  if (!enabled()) return;
  EventRecord rec;
  rec.kind = static_cast<std::uint16_t>(kind);
  rec.a = a;
  rec.b = b;
  rec.wall_us = wall_now_us();
  ShardScope* scope = tls_scope;
  if (scope != nullptr && scope->recorder_ == this) {
    rec.det = det ? 1 : 0;
    rec.shard = scope->shard_;
    rec.attempt = scope->attempt_;
    rec.phase_id = scope->phase_id_;
    scope->ring_.push(rec);
    return;
  }
  // Outside any shard scope the arrival order is scheduling-dependent,
  // so the record is telemetry-only regardless of what the caller said.
  rec.det = 0;
  rec.shard = EventRecord::kNoShard;
  rec.phase_id = 0;
  LocalRing& lr = local_ring();
  std::lock_guard<std::mutex> lock(lr.mu);
  lr.ring.push(rec);
}

void FlightRecorder::record_for_shard(std::string_view phase, std::size_t shard,
                                      std::size_t attempt, EventKind kind,
                                      std::uint64_t a, std::uint64_t b,
                                      bool det) {
  if (!enabled()) return;
  EventRecord rec;
  rec.kind = static_cast<std::uint16_t>(kind);
  rec.det = det ? 1 : 0;
  rec.shard = static_cast<std::uint32_t>(shard);
  rec.attempt = static_cast<std::uint32_t>(attempt);
  rec.seq = 0xffffffffu;  // sorts after the shard's scoped stream
  rec.a = a;
  rec.b = b;
  rec.wall_us = wall_now_us();
  const std::uint32_t phase_id = intern(phase);
  rec.phase_id = phase_id;
  {
    std::lock_guard<std::mutex> lock(mu_);
    store_.emplace_back(phase_id, rec);
  }
  events_counter().add(1);
}

void FlightRecorder::flush_ring(std::uint32_t phase_id, const Ring& ring) {
  std::vector<EventRecord> recs;
  recs.reserve(ring.slots.size());
  ring.collect(&recs);
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const EventRecord& rec : recs) store_.emplace_back(phase_id, rec);
  }
  events_counter().add(recs.size());
  if (ring.dropped > 0) dropped_counter().add(ring.dropped);
}

std::vector<ResolvedEvent> FlightRecorder::resolve_and_sort(
    std::vector<std::pair<std::uint32_t, EventRecord>> raw) const {
  std::vector<std::string> phases;
  {
    std::lock_guard<std::mutex> lock(mu_);
    phases = phases_;
  }
  std::vector<ResolvedEvent> out;
  out.reserve(raw.size());
  for (auto& [phase_id, rec] : raw) {
    ResolvedEvent ev;
    ev.phase = phase_id < phases.size() ? phases[phase_id] : "unknown";
    ev.rec = rec;
    out.push_back(std::move(ev));
  }
  std::sort(out.begin(), out.end(),
            [](const ResolvedEvent& x, const ResolvedEvent& y) {
              return std::tie(x.phase, x.rec.shard, x.rec.attempt, x.rec.seq,
                              x.rec.kind, x.rec.a, x.rec.b) <
                     std::tie(y.phase, y.rec.shard, y.rec.attempt, y.rec.seq,
                              y.rec.kind, y.rec.a, y.rec.b);
            });
  return out;
}

std::vector<ResolvedEvent> FlightRecorder::drain() {
  std::vector<std::pair<std::uint32_t, EventRecord>> raw;
  std::vector<std::shared_ptr<LocalRing>> rings;
  {
    std::lock_guard<std::mutex> lock(mu_);
    raw.swap(store_);
    rings = rings_;
  }
  for (const auto& lr : rings) {
    std::lock_guard<std::mutex> lock(lr->mu);
    std::vector<EventRecord> recs;
    lr->ring.collect(&recs);
    for (const EventRecord& rec : recs) raw.emplace_back(rec.phase_id, rec);
    lr->ring.slots.clear();
    lr->ring.head = 0;
  }
  return resolve_and_sort(std::move(raw));
}

std::vector<ResolvedEvent> FlightRecorder::snapshot() const {
  std::vector<std::pair<std::uint32_t, EventRecord>> raw;
  std::vector<std::shared_ptr<LocalRing>> rings;
  {
    std::lock_guard<std::mutex> lock(mu_);
    raw = store_;
    rings = rings_;
  }
  for (const auto& lr : rings) {
    std::lock_guard<std::mutex> lock(lr->mu);
    std::vector<EventRecord> recs;
    lr->ring.collect(&recs);
    for (const EventRecord& rec : recs) raw.emplace_back(rec.phase_id, rec);
  }
  return resolve_and_sort(std::move(raw));
}

std::size_t FlightRecorder::dump_postmortem(std::string_view reason) {
  if (!enabled()) return 0;
  const std::vector<ResolvedEvent> events = snapshot();
  const std::string path = postmortem_path();
  std::FILE* f = stderr;
  if (!path.empty() && path != "-") {
    f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "recorder: cannot open postmortem path %s\n",
                   path.c_str());
      f = stderr;
    }
  }
  std::fprintf(f, "{\"type\":\"postmortem\",\"reason\":\"%s\",\"events\":%zu}\n",
               json_escape(std::string(reason)).c_str(), events.size());
  for (const ResolvedEvent& ev : events)
    std::fprintf(f, "%s\n", event_jsonl_line(ev).c_str());
  if (f != stderr) std::fclose(f);
  return events.size();
}

ShardScope::ShardScope(std::string_view phase, std::size_t shard,
                       std::size_t attempt, FlightRecorder* recorder) {
  FlightRecorder* r = recorder ? recorder : &FlightRecorder::global();
  if (!r->enabled()) return;
  recorder_ = r;
  phase_id_ = r->intern(phase);
  shard_ = static_cast<std::uint32_t>(shard);
  attempt_ = static_cast<std::uint32_t>(attempt);
  ring_.capacity = r->ring_capacity();
  ring_.pinned = 1;  // the phase_enter pushed below
  ring_.head = 1;
  ring_.slots.reserve(ring_.capacity < 64 ? ring_.capacity : 64);
  prev_ = tls_scope;
  tls_scope = this;
  r->record(EventKind::phase_enter, attempt_, 0);
}

ShardScope::~ShardScope() {
  if (recorder_ == nullptr) return;
  // phase_exit is pushed last so it always survives overflow; `a` holds
  // the drop count before this push, `b` the total records attempted.
  recorder_->record(EventKind::phase_exit, ring_.dropped, ring_.next_seq);
  tls_scope = prev_;
  recorder_->flush_ring(phase_id_, ring_);
}

}  // namespace satnet::obs
