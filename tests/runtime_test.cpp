#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>

#include "obs/metrics.hpp"
#include "runtime/sharded.hpp"
#include "runtime/thread_pool.hpp"
#include "stats/rng.hpp"

namespace satnet::runtime {
namespace {

TEST(ThreadPoolTest, RunsEveryTask) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&count] { count.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, WaitIdleBlocksUntilDrained) {
  ThreadPool pool(2);
  std::atomic<int> sum{0};
  for (int i = 1; i <= 50; ++i) {
    pool.submit([&sum, i] { sum.fetch_add(i); });
  }
  pool.wait_idle();
  EXPECT_EQ(sum.load(), 50 * 51 / 2);
  // Idle pool: wait_idle returns immediately.
  pool.wait_idle();
}

TEST(ThreadPoolTest, DestructorDrainsPendingTasks) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(1);
    for (int i = 0; i < 20; ++i) {
      pool.submit([&count] { count.fetch_add(1); });
    }
  }
  EXPECT_EQ(count.load(), 20);
}

TEST(ThreadPoolTest, SubmitAfterShutdownThrows) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  pool.submit([&count] { count.fetch_add(1); });
  pool.shutdown();
  EXPECT_EQ(count.load(), 1);  // shutdown drains pending work first
  // A post-shutdown submit would never run (workers are gone); it must
  // fail loudly instead of deadlocking or dropping the task silently.
  EXPECT_THROW(pool.submit([&count] { count.fetch_add(1); }),
               std::logic_error);
  EXPECT_EQ(count.load(), 1);
  pool.shutdown();  // idempotent
}

TEST(ThreadPoolTest, ResolveThreads) {
  EXPECT_EQ(resolve_threads(3), 3u);
  EXPECT_GE(resolve_threads(0), 1u);
}

TEST(ShardRangesTest, CoversAllItemsWithoutOverlap) {
  const auto ranges = shard_ranges(10, 3);
  ASSERT_EQ(ranges.size(), 4u);
  std::size_t expected_begin = 0;
  for (const auto& [begin, end] : ranges) {
    EXPECT_EQ(begin, expected_begin);
    EXPECT_GT(end, begin);
    EXPECT_LE(end - begin, 3u);
    expected_begin = end;
  }
  EXPECT_EQ(expected_begin, 10u);
}

TEST(ShardRangesTest, EdgeCases) {
  EXPECT_TRUE(shard_ranges(0, 8).empty());
  EXPECT_EQ(shard_ranges(5, 100).size(), 1u);
  EXPECT_EQ(shard_ranges(5, 0).size(), 5u);  // clamped to chunks of 1
}

TEST(ShardedCampaignTest, ResultsInShardOrderForAnyThreadCount) {
  ShardedCampaign<std::size_t> campaign(64, [](std::size_t i) { return i * i; });
  for (const unsigned threads : {1u, 2u, 8u}) {
    const auto out = campaign.run(threads);
    ASSERT_EQ(out.size(), 64u);
    for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i * i);
  }
}

TEST(ShardedCampaignTest, PhaseProfileCountsEveryShard) {
  // The campaign emits its own per-phase profile: one task per shard
  // attempt, plus the wall and queue-wait totals, under its phase name.
  constexpr std::size_t kShards = 12;
  ShardedCampaign<std::size_t> campaign(
      kShards, [](std::size_t i) { return i; }, "runtime.profile.test");
  ASSERT_EQ(campaign.run(4).size(), kShards);
  const obs::Snapshot snap = obs::MetricsRegistry::global().scrape();
  const obs::MetricValue* tasks = snap.find("profile.runtime.profile.test.tasks");
  ASSERT_NE(tasks, nullptr);
  EXPECT_EQ(tasks->value, static_cast<double>(kShards));
  EXPECT_NE(snap.find("profile.runtime.profile.test.wall_us"), nullptr);
  EXPECT_NE(snap.find("profile.runtime.profile.test.queue_wait_us"), nullptr);
}

TEST(ShardedCampaignTest, QueueWaitCountsEachWorkersWaitOnce) {
  // Two workers, eight equal shards queued at once. A worker's next shard
  // starts as its previous one ends, so the dispatch latency summed over
  // the phase stays far below one shard; submit-to-start waits would sum
  // to about 12 shard-times (0+0+1+1+2+2+3+3).
  static constexpr double kShardMs = 250.0;
  ShardedCampaign<int> campaign(
      8,
      [](std::size_t) {
        std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(kShardMs));
        return 0;
      },
      "runtime.queue_wait.test");
  obs::Counter& wait_us =
      obs::MetricsRegistry::global().counter("profile.runtime.queue_wait.test.queue_wait_us");
  const std::uint64_t before = wait_us.value();
  ASSERT_EQ(campaign.run(2).size(), 8u);
  const double wait_ms = static_cast<double>(wait_us.value() - before) / 1000.0;
  EXPECT_LT(wait_ms, 0.1 * kShardMs);
}

TEST(ShardedCampaignTest, ShardExceptionPropagates) {
  ShardedCampaign<int> campaign(8, [](std::size_t i) -> int {
    if (i == 5) throw std::runtime_error("shard 5 failed");
    return static_cast<int>(i);
  });
  EXPECT_THROW(campaign.run(1), std::runtime_error);
  EXPECT_THROW(campaign.run(4), std::runtime_error);
}

TEST(ShardedCampaignTest, LowestIndexExceptionWins) {
  // Two failing shards: the rethrown exception is shard 2's regardless
  // of which worker hit its failure first.
  ShardedCampaign<int> campaign(8, [](std::size_t i) -> int {
    if (i == 2) throw std::runtime_error("two");
    if (i == 6) throw std::runtime_error("six");
    return 0;
  });
  for (const unsigned threads : {1u, 4u}) {
    try {
      campaign.run(threads);
      FAIL() << "expected an exception";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "two");
    }
  }
}

TEST(ShardedCampaignTest, ZeroShards) {
  ShardedCampaign<int> campaign(0, [](std::size_t) { return 1; });
  EXPECT_TRUE(campaign.run(4).empty());
}

// Regression: a worker exception must not discard the other shards'
// completed work. In degrade mode the failing (last) shard is
// quarantined and every earlier result survives.
TEST(ShardedCampaignTest, LastShardFailureKeepsEarlierResults) {
  constexpr std::size_t kShards = 8;
  ShardedCampaign<int> campaign(kShards, [](std::size_t i) -> int {
    if (i == kShards - 1) throw std::runtime_error("last shard down");
    return static_cast<int>(i) + 1;
  });
  RetryPolicy policy;
  policy.degrade = true;
  for (const unsigned threads : {1u, 4u}) {
    CampaignReport report;
    const auto out = campaign.run_with_report(threads, policy, &report);
    ASSERT_EQ(out.size(), kShards);
    for (std::size_t i = 0; i + 1 < kShards; ++i) EXPECT_EQ(out[i], static_cast<int>(i) + 1);
    EXPECT_EQ(out.back(), 0) << "quarantined slot carries the default value";
    EXPECT_EQ(report.degraded, 1u);
    ASSERT_EQ(report.degraded_shards, std::vector<std::size_t>{kShards - 1});
    ASSERT_EQ(report.degraded_errors.size(), 1u);
    EXPECT_EQ(report.degraded_errors.front(), "last shard down");
  }
}

// Regression: abort mode rethrows only after every shard has run, so no
// shard's execution is skipped by an early unwind.
TEST(ShardedCampaignTest, AbortRunsEveryShardBeforeRethrow) {
  constexpr std::size_t kShards = 8;
  std::atomic<std::size_t> executed{0};
  ShardedCampaign<int> campaign(kShards, [&executed](std::size_t i) -> int {
    executed.fetch_add(1);
    if (i == 0) throw std::runtime_error("zero");
    return 0;
  });
  for (const unsigned threads : {1u, 4u}) {
    executed.store(0);
    EXPECT_THROW(campaign.run(threads), std::runtime_error);
    EXPECT_EQ(executed.load(), kShards);
  }
}

TEST(ShardedCampaignTest, RetryRecoversTransientFailures) {
  constexpr std::size_t kShards = 6;
  std::array<std::atomic<int>, kShards> attempts{};
  ShardedCampaign<int> campaign(kShards, [&attempts](std::size_t i) -> int {
    if (attempts[i].fetch_add(1) == 0 && i % 2 == 0) {
      throw std::runtime_error("transient");
    }
    return static_cast<int>(i) * 10;
  });
  RetryPolicy policy;
  policy.max_attempts = 2;
  CampaignReport report;
  const auto out = campaign.run_with_report(4, policy, &report);
  ASSERT_EQ(out.size(), kShards);
  for (std::size_t i = 0; i < kShards; ++i) EXPECT_EQ(out[i], static_cast<int>(i) * 10);
  EXPECT_EQ(report.retries, 3u) << "shards 0, 2, 4 each retried once";
  EXPECT_EQ(report.degraded, 0u);
}

// The RNG forking discipline the runtime depends on: fork_stable is a
// pure function of (parent state, salt).
TEST(ForkStableTest, OrderIndependent) {
  const stats::Rng parent(123);
  stats::Rng a_first = parent.fork_stable(7);
  stats::Rng b_then = parent.fork_stable(9);
  stats::Rng b_first = parent.fork_stable(9);
  stats::Rng a_then = parent.fork_stable(7);
  EXPECT_DOUBLE_EQ(a_first.uniform(), a_then.uniform());
  EXPECT_DOUBLE_EQ(b_first.uniform(), b_then.uniform());
}

TEST(ForkStableTest, DoesNotAdvanceParent) {
  stats::Rng a(42);
  stats::Rng b(42);
  (void)a.fork_stable(1);
  (void)a.fork_stable(2);
  EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
}

TEST(ForkStableTest, DistinctSaltsDecorrelate) {
  const stats::Rng parent(5);
  std::set<std::int64_t> firsts;
  for (std::uint64_t salt = 0; salt < 32; ++salt) {
    stats::Rng child = parent.fork_stable(salt);
    firsts.insert(child.uniform_int(0, 1'000'000'000));
  }
  EXPECT_GE(firsts.size(), 31u);  // collisions astronomically unlikely
}

TEST(ForkStableTest, NameKeyMatchesHash) {
  const stats::Rng parent(77);
  stats::Rng by_name = parent.fork_stable("starlink");
  stats::Rng by_salt = parent.fork_stable(stats::Rng::hash_name("starlink"));
  EXPECT_DOUBLE_EQ(by_name.uniform(), by_salt.uniform());
}

}  // namespace
}  // namespace satnet::runtime
