// Flight recorder and pool watchdog tests.
//
// The load-bearing property is the determinism contract: a det == 1
// record's content (kind, phase, shard, attempt, seq, a, b) replays
// bit-for-bit, only wall_us varies, and ring overflow drops oldest
// records so even a truncated stream is stable. The postmortem test
// pins the acceptance criterion directly: an abort-mode campaign
// failure dumps a postmortem whose deterministic fields are identical
// across two runs at threads=1 (wall_us stripped via suffix cut —
// event_jsonl_line puts it last for exactly this reason).
#include <gtest/gtest.h>

#include <chrono>
#include <cstddef>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"
#include "runtime/sharded.hpp"
#include "runtime/thread_pool.hpp"

namespace satnet {
namespace {

using obs::EventKind;
using obs::EventRecord;
using obs::FlightRecorder;
using obs::ResolvedEvent;
using obs::ShardScope;

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// Cuts the trailing `,"wall_us":N}` off every event line — the
/// documented golden-exclusion recipe for the one nondeterministic
/// field. Non-event lines (the postmortem reason line) pass through.
std::string strip_wall_us(const std::string& text) {
  std::ostringstream out;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    const std::size_t pos = line.rfind(",\"wall_us\":");
    if (pos != std::string::npos && !line.empty() && line.back() == '}') {
      out << line.substr(0, pos) << "}\n";
    } else {
      out << line << "\n";
    }
  }
  return out.str();
}

TEST(RecorderTest, DisabledRecorderIsANoOp) {
  FlightRecorder rec;
  ASSERT_FALSE(rec.enabled());
  {
    ShardScope scope("off", 0, 0, &rec);
    rec.record(EventKind::fault_hit, 1);
  }
  EXPECT_TRUE(rec.drain().empty());
  EXPECT_EQ(rec.dump_postmortem("never written"), 0u);
}

TEST(RecorderTest, RingDropsOldestAndPhaseExitSurvives) {
  FlightRecorder rec;
  rec.set_enabled(true);
  rec.set_ring_capacity(4);
  {
    ShardScope scope("ring", 7, 0, &rec);
    // 12 pushes total into a capacity-4 ring: enter (seq 0), ten
    // fault_hits (seq 1..10), exit (seq 11). phase_enter is pinned and
    // the other three slots drop oldest first, leaving seq 0, 9, 10, 11.
    for (std::uint64_t i = 0; i < 10; ++i) {
      rec.record(EventKind::fault_hit, /*a=*/100 + i);
    }
  }
  const std::vector<ResolvedEvent> events = rec.drain();
  ASSERT_EQ(events.size(), 4u);
  const std::uint32_t seqs[] = {0, 9, 10, 11};
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].phase, "ring");
    EXPECT_EQ(events[i].rec.shard, 7u);
    EXPECT_EQ(events[i].rec.seq, seqs[i]);
    EXPECT_EQ(events[i].rec.det, 1u);
  }
  EXPECT_EQ(events[0].rec.kind, static_cast<std::uint16_t>(EventKind::phase_enter));
  // Surviving fault_hits carry their original payloads (seq k = a 99+k).
  EXPECT_EQ(events[1].rec.kind, static_cast<std::uint16_t>(EventKind::fault_hit));
  EXPECT_EQ(events[1].rec.a, 108u);
  // phase_exit is pushed last so it always survives overflow: a = drops
  // before its own push (seqs 1..7), b = records attempted before it.
  const ResolvedEvent& exit_ev = events.back();
  EXPECT_EQ(exit_ev.rec.kind, static_cast<std::uint16_t>(EventKind::phase_exit));
  EXPECT_EQ(exit_ev.rec.a, 7u);
  EXPECT_EQ(exit_ev.rec.b, 11u);
}

TEST(RecorderTest, DrainMergesShardsInCanonicalOrder) {
  FlightRecorder rec;
  rec.set_enabled(true);
  rec.set_ring_capacity(16);
  // Record shard 1 first, then shard 0: drain must still hand back
  // shard 0 first — the merge key is (phase, shard, attempt, seq), not
  // arrival order, which is what makes multi-threaded streams stable.
  {
    ShardScope scope("merge", 1, 0, &rec);
    rec.record(EventKind::timeline_hit, 2);
  }
  {
    ShardScope scope("merge", 0, 0, &rec);
    rec.record(EventKind::timeline_fallback, 3);
  }
  const std::vector<ResolvedEvent> events = rec.drain();
  ASSERT_EQ(events.size(), 6u);  // (enter, payload, exit) x 2 shards
  EXPECT_EQ(events[0].rec.shard, 0u);
  EXPECT_EQ(events[1].rec.shard, 0u);
  EXPECT_EQ(events[2].rec.shard, 0u);
  EXPECT_EQ(events[3].rec.shard, 1u);
  EXPECT_EQ(events[1].rec.kind,
            static_cast<std::uint16_t>(EventKind::timeline_fallback));
  EXPECT_EQ(events[4].rec.kind,
            static_cast<std::uint16_t>(EventKind::timeline_hit));
  // drain() is destructive.
  EXPECT_TRUE(rec.drain().empty());
}

TEST(RecorderTest, UnscopedRecordsAreTelemetryOnly) {
  FlightRecorder rec;
  rec.set_enabled(true);
  // No ShardScope on this thread: the record lands in the per-thread
  // unscoped ring with det forced to 0 even though the caller claimed
  // deterministic content — unscoped arrival order is scheduling-bound.
  rec.record(EventKind::queue_depth, 5, 0, /*det=*/true);
  const std::vector<ResolvedEvent> events = rec.drain();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].phase, "unscoped");
  EXPECT_EQ(events[0].rec.det, 0u);
  EXPECT_EQ(events[0].rec.shard, EventRecord::kNoShard);
  EXPECT_EQ(events[0].rec.a, 5u);
}

TEST(RecorderTest, RecordForShardSortsAfterScopedStream) {
  FlightRecorder rec;
  rec.set_enabled(true);
  rec.set_ring_capacity(8);
  {
    ShardScope scope("fanin", 2, 1, &rec);
    rec.record(EventKind::retry, 1);
  }
  // Fan-in verdict emitted after the scope closed (the degrade path in
  // ShardedCampaign::collect): seq = 0xffffffff puts it last.
  rec.record_for_shard("fanin", 2, 1, EventKind::degrade, /*a=*/2);
  const std::vector<ResolvedEvent> events = rec.drain();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events.back().rec.kind,
            static_cast<std::uint16_t>(EventKind::degrade));
  EXPECT_EQ(events.back().rec.seq, 0xffffffffu);
  EXPECT_EQ(events.back().rec.det, 1u);
}

TEST(RecorderTest, EventsRoundTripThroughJsonl) {
  FlightRecorder rec;
  rec.set_enabled(true);
  rec.set_ring_capacity(8);
  {
    ShardScope scope("jsonl", 3, 2, &rec);
    rec.record(EventKind::fault_hit, 42, 7);
  }
  rec.record_for_shard("jsonl", 3, 2, EventKind::degrade, 3);
  const std::vector<ResolvedEvent> events = rec.drain();
  const std::string text = obs::events_jsonl(events);
  const std::vector<ResolvedEvent> parsed = obs::parse_events_jsonl(text);
  ASSERT_EQ(parsed.size(), events.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(parsed[i].phase, events[i].phase);
    EXPECT_EQ(parsed[i].rec.kind, events[i].rec.kind);
    EXPECT_EQ(parsed[i].rec.det, events[i].rec.det);
    EXPECT_EQ(parsed[i].rec.shard, events[i].rec.shard);
    EXPECT_EQ(parsed[i].rec.attempt, events[i].rec.attempt);
    EXPECT_EQ(parsed[i].rec.seq, events[i].rec.seq);
    EXPECT_EQ(parsed[i].rec.a, events[i].rec.a);
    EXPECT_EQ(parsed[i].rec.b, events[i].rec.b);
    EXPECT_EQ(parsed[i].rec.wall_us, events[i].rec.wall_us);
  }
  // The suffix-cut contract: wall_us is the last field of every line.
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    EXPECT_NE(line.rfind(",\"wall_us\":"), std::string::npos) << line;
  }
}

/// Runs an abort-mode campaign whose shard 2 always throws and returns
/// the postmortem text. threads=1 pins the inline path: the det == 1
/// stream is byte-stable there (thread_local replay caches make
/// cache-hit events thread-count-sensitive, so the stability contract
/// is per thread count).
std::string run_failing_campaign_postmortem(const std::string& path) {
  FlightRecorder& rec = FlightRecorder::global();
  rec.drain();  // isolate from events earlier tests left behind
  const bool was_enabled = rec.enabled();
  const std::string old_path = rec.postmortem_path();
  rec.set_enabled(true);
  rec.set_postmortem_path(path);

  runtime::ShardedCampaign<int> campaign(
      4,
      [](std::size_t shard) -> int {
        if (shard == 2) throw std::runtime_error("synthetic shard fault");
        return static_cast<int>(shard) * 10;
      },
      "rec.postmortem.test");
  runtime::RetryPolicy policy;
  policy.max_attempts = 2;
  policy.degrade = false;
  bool threw = false;
  try {
    campaign.run_with_report(1, policy, nullptr);
  } catch (const std::runtime_error&) {
    threw = true;
  }
  EXPECT_TRUE(threw);

  rec.drain();
  rec.set_postmortem_path(old_path);
  rec.set_enabled(was_enabled);
  return read_file(path);
}

TEST(RecorderTest, PostmortemDeterministicFieldsStableAcrossRuns) {
  const std::string path_a = "recorder_test_postmortem_a.jsonl";
  const std::string path_b = "recorder_test_postmortem_b.jsonl";
  const std::string run_a = run_failing_campaign_postmortem(path_a);
  const std::string run_b = run_failing_campaign_postmortem(path_b);
  std::remove(path_a.c_str());
  std::remove(path_b.c_str());

  ASSERT_FALSE(run_a.empty());
  // Reason line first, fully deterministic (no wall-clock in it).
  EXPECT_NE(run_a.find("{\"type\":\"postmortem\",\"reason\":\"abort-mode failure "
                       "in phase rec.postmortem.test: shard 2 failed after 2 "
                       "attempt(s): synthetic shard fault\""),
            std::string::npos)
      << run_a;
  // The retry decision made it into the black box.
  EXPECT_NE(run_a.find("\"kind\":\"retry\""), std::string::npos);
  // Byte-identical once the wall_us suffix is cut from each event line.
  EXPECT_EQ(strip_wall_us(run_a), strip_wall_us(run_b));
  // ... and the wall-clock really is the only varying part: the raw
  // texts themselves have identical line counts and lengths modulo it.
  EXPECT_NE(run_a.find("\"phase\":\"rec.postmortem.test\""), std::string::npos);
}

TEST(WatchdogTest, PoolWatchdogFlagsLongRunningTask) {
  // Configure before construction: the watchdog thread is spawned (or
  // not) at pool construction time. Generous margins — 10ms poll, 50ms
  // threshold, 300ms task — keep this stable under sanitizers.
  const unsigned old_poll = runtime::pool_watchdog_poll_ms();
  const double old_threshold = runtime::pool_watchdog_threshold_ms();
  runtime::set_pool_watchdog(10, 50.0);

  obs::Counter& stall = obs::MetricsRegistry::global().counter(
      "runtime.pool.stall", "watchdog-flagged straggler tasks");
  const std::uint64_t before = stall.value();
  {
    runtime::ThreadPool pool(2);
    pool.submit([] {
      std::this_thread::sleep_for(std::chrono::milliseconds(300));
    });
    pool.wait_idle();
  }
  EXPECT_GE(stall.value(), before + 1);

  runtime::set_pool_watchdog(old_poll, old_threshold);
}

TEST(WatchdogTest, DisabledWatchdogFlagsNothing) {
  runtime::set_pool_watchdog(0, 50.0);
  obs::Counter& stall = obs::MetricsRegistry::global().counter(
      "runtime.pool.stall", "watchdog-flagged straggler tasks");
  const std::uint64_t before = stall.value();
  {
    runtime::ThreadPool pool(2);
    pool.submit([] {
      std::this_thread::sleep_for(std::chrono::milliseconds(120));
    });
    pool.wait_idle();
  }
  EXPECT_EQ(stall.value(), before);
}

}  // namespace
}  // namespace satnet
