#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <random>
#include <thread>
#include <vector>

#include "stats/cdf.hpp"
#include "stats/kde.hpp"
#include "stats/rng.hpp"
#include "stats/summary.hpp"
#include "stats/timeseries.hpp"

namespace satnet::stats {
namespace {

// ---------------------------------------------------------------- Rng

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.uniform() == b.uniform()) ++equal;
  }
  EXPECT_LT(equal, 5);
}

TEST(RngTest, ForkIsIndependentOfParentContinuation) {
  Rng parent(7);
  Rng child = parent.fork(1);
  const double child_first = child.uniform();
  // Re-derive: same parent state sequence gives the same child.
  Rng parent2(7);
  Rng child2 = parent2.fork(1);
  EXPECT_DOUBLE_EQ(child_first, child2.uniform());
}

TEST(RngTest, NamedForksAreStable) {
  Rng a(7), b(7);
  EXPECT_DOUBLE_EQ(a.fork("ndt").uniform(), b.fork("ndt").uniform());
}

TEST(RngTest, NamedForksDifferByName) {
  Rng a(7), b(7);
  EXPECT_NE(a.fork("ndt").uniform(), b.fork("dns").uniform());
}

TEST(RngTest, UniformRespectsBounds) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform(2.0, 3.0);
    EXPECT_GE(v, 2.0);
    EXPECT_LT(v, 3.0);
  }
}

TEST(RngTest, UniformIntInclusiveBounds) {
  Rng rng(5);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.uniform_int(1, 6);
    EXPECT_GE(v, 1);
    EXPECT_LE(v, 6);
    saw_lo |= v == 1;
    saw_hi |= v == 6;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, LognormalMedianIsApproximatelyMedian) {
  Rng rng(9);
  std::vector<double> sample;
  for (int i = 0; i < 20000; ++i) sample.push_back(rng.lognormal_median(100.0, 0.5));
  EXPECT_NEAR(median(sample), 100.0, 5.0);
}

TEST(RngTest, ChanceExtremes) {
  Rng rng(1);
  EXPECT_FALSE(rng.chance(0.0));
  EXPECT_TRUE(rng.chance(1.0));
  EXPECT_FALSE(rng.chance(-0.5));
  EXPECT_TRUE(rng.chance(2.0));
}

TEST(RngTest, ParetoLowerBound) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) EXPECT_GE(rng.pareto(5.0, 2.0), 5.0);
}

TEST(RngTest, WeightedIndexZeroWeightNeverPicked) {
  Rng rng(4);
  for (int i = 0; i < 500; ++i) {
    EXPECT_NE(rng.weighted_index({1.0, 0.0, 1.0}), 1u);
  }
}

TEST(RngTest, WeightedIndexRejectsNoPositiveMass) {
  // All-zero weights leave discrete_distribution with no valid mass;
  // must throw rather than return an arbitrary index.
  Rng rng(4);
  EXPECT_THROW(rng.weighted_index({0.0, 0.0, 0.0}), std::invalid_argument);
  EXPECT_THROW(rng.weighted_index({}), std::invalid_argument);
  EXPECT_EQ(rng.weighted_index({0.0, 2.0, 0.0}), 1u);
}

TEST(RngTest, PickEmptyContainerThrows) {
  // Regression: pick on an empty container used to call
  // uniform_int(0, -1), which is undefined behaviour.
  Rng rng(5);
  const std::vector<int> empty;
  EXPECT_THROW(rng.pick(empty), std::out_of_range);
  const std::vector<int> one{42};
  EXPECT_EQ(rng.pick(one), 42);
}

TEST(RngTest, PoissonMeanRoughlyCorrect) {
  Rng rng(8);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.poisson(3.0);
  EXPECT_NEAR(sum / n, 3.0, 0.1);
}

// ------------------------------------------------------ MT19937-64 engine

TEST(Mt19937_64Test, MatchesStdEngineAcrossBlocksWithPeeks) {
  // Peeking before every draw covers every position of the lazy first
  // block and the first word of each later block.
  constexpr std::uint64_t kSeeds[] = {0, 1, 5489, ~std::uint64_t{0}, 0x5a7e11e7};
  for (const std::uint64_t seed : kSeeds) {
    Mt19937_64 engine(seed);
    std::mt19937_64 reference(seed);
    for (int i = 0; i < 4 * 312 + 7; ++i) {
      const std::uint64_t peeked = engine.peek();
      ASSERT_EQ(peeked, engine.peek()) << "seed " << seed << " draw " << i;
      const std::uint64_t drawn = engine();
      ASSERT_EQ(peeked, drawn) << "seed " << seed << " draw " << i;
      ASSERT_EQ(drawn, reference()) << "seed " << seed << " draw " << i;
    }
  }
}

TEST(Mt19937_64Test, StandardTenThousandthOutput) {
  // [rand.predef]: the 10000th consecutive invocation of a
  // default-constructed mt19937_64 produces 9981545732273789042.
  Mt19937_64 engine;
  std::uint64_t value = 0;
  for (int i = 0; i < 10000; ++i) value = engine();
  EXPECT_EQ(value, 9981545732273789042ull);
}

// Rng as it was defined on std::mt19937_64: a child's engine is seeded
// with splitmix(base ^ splitmix(salt)), where fork draws the base from
// the parent and fork_stable draws it from a copy of the parent.
std::uint64_t reference_splitmix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

struct ReferenceRng {
  explicit ReferenceRng(std::uint64_t seed) : engine(reference_splitmix(seed)) {}
  ReferenceRng fork(std::uint64_t salt) {
    const std::uint64_t base = engine();
    return ReferenceRng(base ^ reference_splitmix(salt));
  }
  ReferenceRng fork_stable(std::uint64_t salt) const {
    std::mt19937_64 probe = engine;
    return ReferenceRng(probe() ^ reference_splitmix(salt));
  }
  std::int64_t word() {
    return std::uniform_int_distribution<std::int64_t>(
        std::numeric_limits<std::int64_t>::min(),
        std::numeric_limits<std::int64_t>::max())(engine);
  }
  std::mt19937_64 engine;
};

// uniform_int over the whole int64 range hands back one raw engine word.
std::int64_t word(Rng& rng) {
  return rng.uniform_int(std::numeric_limits<std::int64_t>::min(),
                         std::numeric_limits<std::int64_t>::max());
}

TEST(RngTest, StreamsAndForksMatchStdReference) {
  constexpr std::uint64_t kSeeds[] = {0, 7, ~std::uint64_t{0}};
  for (const std::uint64_t seed : kSeeds) {
    Rng rng(seed);
    ReferenceRng reference(seed);
    for (int i = 0; i < 3 * 312 + 11; ++i) {
      const std::uint64_t salt = static_cast<std::uint64_t>(i) * 0x9e3779b97f4a7c15ull;
      if (i % 5 == 0) {
        Rng child = rng.fork_stable(salt);
        ReferenceRng child_reference = reference.fork_stable(salt);
        for (int k = 0; k < 3; ++k) ASSERT_EQ(word(child), child_reference.word());
      }
      if (i % 13 == 0) {
        Rng child = rng.fork(salt);
        ReferenceRng child_reference = reference.fork(salt);
        ASSERT_EQ(word(child), child_reference.word());
      }
      ASSERT_EQ(word(rng), reference.word()) << "seed " << seed << " draw " << i;
    }
    // The distributions see the same engine words, so they agree too.
    ASSERT_EQ(rng.normal(1.0, 2.0),
              std::normal_distribution<double>(1.0, 2.0)(reference.engine));
  }
}

TEST(RngTest, ForkStableIsAPureReadAcrossThreads) {
  // Shards fork one shared const Rng concurrently; every thread must see
  // the children a serial loop sees (and ThreadSanitizer no race).
  Rng parent(42);
  word(parent);  // leave the parent mid-way through its first block
  const Rng& shared = parent;
  constexpr int kSalts = 256;
  std::vector<std::int64_t> serial(kSalts);
  for (int s = 0; s < kSalts; ++s) {
    Rng child = shared.fork_stable(static_cast<std::uint64_t>(s));
    serial[static_cast<std::size_t>(s)] = word(child);
  }
  constexpr int kThreads = 8;
  std::vector<std::vector<std::int64_t>> seen(kThreads,
                                              std::vector<std::int64_t>(kSalts));
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&shared, &seen, t] {
      for (int s = 0; s < kSalts; ++s) {
        Rng child = shared.fork_stable(static_cast<std::uint64_t>(s));
        seen[static_cast<std::size_t>(t)][static_cast<std::size_t>(s)] = word(child);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (const auto& children : seen) EXPECT_EQ(children, serial);
}

TEST(RngTest, WeightedIndexMatchesDiscreteDistribution) {
  std::mt19937_64 cases(0x3e1);
  Rng rng(99);
  ReferenceRng reference(99);
  for (int c = 0; c < 400; ++c) {
    std::vector<double> weights(1 + cases() % 12);
    for (double& w : weights) {
      w = cases() % 3 == 0 ? 0.0
                           : std::uniform_real_distribution<double>(0.0, 5.0)(cases);
    }
    weights[cases() % weights.size()] = 1.0;  // at least one positive weight
    std::discrete_distribution<std::size_t> dist(weights.begin(), weights.end());
    for (int k = 0; k < 50; ++k) {
      ASSERT_EQ(rng.weighted_index(weights), dist(reference.engine)) << "case " << c;
    }
    // The same number of draws, so the streams stay aligned.
    ASSERT_EQ(word(rng), reference.word()) << "case " << c;
  }
  // A cumulative sum equal to the draw p picks its own index, as
  // std::lower_bound does: weights {p, 1 - p} for the next p (1 - p and
  // the total 1 are exact for p >= 0.5).
  for (int hits = 0; hits < 8;) {
    std::mt19937_64 probe = reference.engine;
    const double p =
        std::generate_canonical<double, std::numeric_limits<double>::digits>(probe);
    if (p < 0.5) {
      ASSERT_EQ(word(rng), reference.word());
      continue;
    }
    const std::vector<double> weights{p, 1.0 - p};
    std::discrete_distribution<std::size_t> dist(weights.begin(), weights.end());
    ASSERT_EQ(rng.weighted_index(weights), 0u);
    ASSERT_EQ(dist(reference.engine), 0u);
    ++hits;
  }
}

// ------------------------------------------------------------- summary

TEST(SummaryTest, PercentileOfEmptyIsNaN) {
  EXPECT_TRUE(std::isnan(percentile({}, 50)));
}

TEST(SummaryTest, PercentileSingleElement) {
  const std::vector<double> v{42.0};
  EXPECT_DOUBLE_EQ(percentile(v, 0), 42.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100), 42.0);
}

TEST(SummaryTest, PercentileInterpolates) {
  const std::vector<double> v{0.0, 10.0};
  EXPECT_DOUBLE_EQ(percentile(v, 50), 5.0);
  EXPECT_DOUBLE_EQ(percentile(v, 25), 2.5);
}

TEST(SummaryTest, PercentileUnsortedInput) {
  const std::vector<double> v{9, 1, 5, 3, 7};
  EXPECT_DOUBLE_EQ(percentile(v, 50), 5.0);
}

TEST(SummaryTest, PercentileClampedOutOfRange) {
  const std::vector<double> v{1, 2, 3};
  EXPECT_DOUBLE_EQ(percentile(v, -10), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 200), 3.0);
}

TEST(SummaryTest, MedianOddAndEven) {
  EXPECT_DOUBLE_EQ(median(std::vector<double>{3, 1, 2}), 2.0);
  EXPECT_DOUBLE_EQ(median(std::vector<double>{4, 1, 2, 3}), 2.5);
}

TEST(SummaryTest, SummarizeOrdering) {
  Rng rng(6);
  std::vector<double> v;
  for (int i = 0; i < 500; ++i) v.push_back(rng.normal(100, 15));
  const Summary s = summarize(v);
  EXPECT_LE(s.min, s.p5);
  EXPECT_LE(s.p5, s.p25);
  EXPECT_LE(s.p25, s.p50);
  EXPECT_LE(s.p50, s.p75);
  EXPECT_LE(s.p75, s.p95);
  EXPECT_LE(s.p95, s.max);
  EXPECT_EQ(s.count, 500u);
}

TEST(SummaryTest, StddevOfConstantIsZero) {
  EXPECT_DOUBLE_EQ(stddev(std::vector<double>{5, 5, 5, 5}), 0.0);
}

TEST(SummaryTest, BoxplotQuartiles) {
  std::vector<double> v(101);
  std::iota(v.begin(), v.end(), 0.0);  // 0..100
  const Boxplot b = boxplot(v);
  EXPECT_DOUBLE_EQ(b.median, 50.0);
  EXPECT_DOUBLE_EQ(b.q1, 25.0);
  EXPECT_DOUBLE_EQ(b.q3, 75.0);
  EXPECT_EQ(b.n_outliers, 0u);
}

TEST(SummaryTest, BoxplotDetectsOutliers) {
  std::vector<double> v{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 500.0};
  const Boxplot b = boxplot(v);
  EXPECT_EQ(b.n_outliers, 1u);
  EXPECT_LT(b.whisker_high, 500.0);
}

TEST(SummaryTest, BoxplotWhiskersClippedToData) {
  const std::vector<double> v{10, 11, 12, 13, 14};
  const Boxplot b = boxplot(v);
  EXPECT_DOUBLE_EQ(b.whisker_low, 10.0);
  EXPECT_DOUBLE_EQ(b.whisker_high, 14.0);
}

// ----------------------------------------------------------------- KDE

TEST(KdeTest, DensityIntegratesToOne) {
  Rng rng(11);
  std::vector<double> sample;
  for (int i = 0; i < 400; ++i) sample.push_back(rng.normal(50, 10));
  const Kde kde(sample);
  const auto curve = kde.curve(512);
  double mass = 0;
  for (std::size_t i = 1; i < curve.x.size(); ++i) {
    mass += curve.y[i] * (curve.x[i] - curve.x[i - 1]);
  }
  EXPECT_NEAR(mass, 1.0, 0.05);
}

TEST(KdeTest, UnimodalGaussianHasOneDominantPeak) {
  Rng rng(12);
  std::vector<double> sample;
  for (int i = 0; i < 1000; ++i) sample.push_back(rng.normal(600, 30));
  const auto peaks = Kde(sample).peaks();
  ASSERT_FALSE(peaks.empty());
  EXPECT_NEAR(peaks.front().location, 600.0, 15.0);
  EXPECT_GT(peaks.front().mass, 0.8);
}

TEST(KdeTest, BimodalMixtureHasTwoPeaks) {
  Rng rng(13);
  std::vector<double> sample;
  for (int i = 0; i < 500; ++i) sample.push_back(rng.normal(50, 8));
  for (int i = 0; i < 500; ++i) sample.push_back(rng.normal(600, 40));
  const auto peaks = Kde(sample).peaks();
  std::size_t significant = 0;
  for (const auto& p : peaks) {
    if (p.mass > 0.2) ++significant;
  }
  EXPECT_EQ(significant, 2u);
}

TEST(KdeTest, PeakMassesSumToApproximatelyOne) {
  Rng rng(14);
  std::vector<double> sample;
  for (int i = 0; i < 300; ++i) sample.push_back(rng.normal(100, 5));
  for (int i = 0; i < 300; ++i) sample.push_back(rng.normal(700, 25));
  double total = 0;
  for (const auto& p : Kde(sample).peaks()) total += p.mass;
  EXPECT_NEAR(total, 1.0, 0.08);
}

TEST(KdeTest, ExplicitBandwidthRespected) {
  const std::vector<double> sample{1, 2, 3};
  EXPECT_DOUBLE_EQ(Kde(sample, 5.0).bandwidth(), 5.0);
}

TEST(KdeTest, IsMultimodalDetectsMixture) {
  Rng rng(15);
  std::vector<double> uni, bi;
  for (int i = 0; i < 400; ++i) uni.push_back(rng.normal(600, 30));
  for (int i = 0; i < 200; ++i) bi.push_back(rng.normal(40, 5));
  for (int i = 0; i < 200; ++i) bi.push_back(rng.normal(600, 30));
  EXPECT_FALSE(is_multimodal(uni));
  EXPECT_TRUE(is_multimodal(bi));
}

TEST(KdeTest, TinySampleNotMultimodal) {
  EXPECT_FALSE(is_multimodal(std::vector<double>{1, 2, 3}));
}

// ----------------------------------------------------------------- CDF

TEST(CdfTest, MonotoneNondecreasing) {
  Rng rng(16);
  std::vector<double> sample;
  for (int i = 0; i < 300; ++i) sample.push_back(rng.uniform(0, 100));
  const Cdf cdf(sample);
  double prev = 0;
  for (double x = -10; x <= 110; x += 1.0) {
    const double f = cdf.at(x);
    EXPECT_GE(f, prev);
    prev = f;
  }
  EXPECT_DOUBLE_EQ(cdf.at(1000), 1.0);
  EXPECT_DOUBLE_EQ(cdf.at(-1000), 0.0);
}

TEST(CdfTest, QuantileInverseRoundTrip) {
  std::vector<double> sample;
  for (int i = 1; i <= 100; ++i) sample.push_back(i);
  const Cdf cdf(sample);
  // Linear interpolation over ranks 0..n-1: the 1..100 sample has
  // quantile(q) = 1 + 99q.
  EXPECT_DOUBLE_EQ(cdf.quantile(0.5), 50.5);
  EXPECT_DOUBLE_EQ(cdf.quantile(1.0), 100.0);
  EXPECT_DOUBLE_EQ(cdf.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(cdf.quantile(0.01), 1.99);
}

TEST(CdfTest, QuantileMatchesPercentileConvention) {
  // The whole stats layer shares one quantile rule: Cdf::quantile(q)
  // must equal percentile(sample, 100q) for any sample and any q. This
  // is the PR 5 convention bugfix — the old ceil-index rule disagreed
  // with percentile_sorted on every q off the 1/n grid.
  Rng rng(23);
  std::vector<double> sample;
  for (int i = 0; i < 137; ++i) sample.push_back(rng.normal(50, 12));
  const Cdf cdf(sample);
  for (const double q : {0.0, 0.05, 0.17, 0.25, 0.5, 0.75, 0.95, 0.999, 1.0}) {
    EXPECT_DOUBLE_EQ(cdf.quantile(q), percentile(sample, q * 100.0)) << "q=" << q;
  }
}

TEST(CdfTest, QuantileAndPercentileEdgeCases) {
  // p = 0 / p = 100 pin the extremes exactly.
  const std::vector<double> v{3.0, 1.0, 7.0, 5.0};
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100.0), 7.0);
  const Cdf cdf(v);
  EXPECT_DOUBLE_EQ(cdf.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(cdf.quantile(1.0), 7.0);
  // Out-of-range q clamps rather than extrapolating.
  EXPECT_DOUBLE_EQ(cdf.quantile(-0.5), 1.0);
  EXPECT_DOUBLE_EQ(cdf.quantile(1.5), 7.0);

  // A single-element sample answers that element for every p.
  const std::vector<double> one{42.0};
  const Cdf cdf_one(one);
  for (const double q : {0.0, 0.3, 1.0}) {
    EXPECT_DOUBLE_EQ(percentile(one, q * 100.0), 42.0);
    EXPECT_DOUBLE_EQ(cdf_one.quantile(q), 42.0);
  }

  // Empty samples answer NaN from both entry points.
  const std::vector<double> empty;
  EXPECT_TRUE(std::isnan(percentile(empty, 50.0)));
  EXPECT_TRUE(std::isnan(percentile_sorted(empty, 50.0)));
  EXPECT_TRUE(std::isnan(Cdf(empty).quantile(0.5)));
}

TEST(CdfTest, GridIsSortedInBothAxes) {
  Rng rng(17);
  std::vector<double> sample;
  for (int i = 0; i < 200; ++i) sample.push_back(rng.normal(0, 1));
  const auto grid = Cdf(sample).grid(10);
  ASSERT_EQ(grid.size(), 10u);
  for (std::size_t i = 1; i < grid.size(); ++i) {
    EXPECT_LE(grid[i - 1].x, grid[i].x);
    EXPECT_LT(grid[i - 1].f, grid[i].f);
  }
}

// ---------------------------------------------------------- timeseries

TEST(TimeseriesTest, BucketizeGroupsByDay) {
  std::vector<Observation> obs;
  for (int day = 0; day < 3; ++day) {
    for (int k = 0; k < 5; ++k) {
      obs.push_back({day * 86400.0 + k * 1000.0, 10.0 * (day + 1)});
    }
  }
  const auto buckets = bucketize(obs, 86400.0);
  ASSERT_EQ(buckets.size(), 3u);
  EXPECT_DOUBLE_EQ(buckets[0].median, 10.0);
  EXPECT_DOUBLE_EQ(buckets[1].median, 20.0);
  EXPECT_DOUBLE_EQ(buckets[2].median, 30.0);
  EXPECT_EQ(buckets[0].count, 5u);
}

TEST(TimeseriesTest, BucketizeSkipsEmptyBuckets) {
  const std::vector<Observation> obs{{0.0, 1.0}, {10 * 86400.0, 2.0}};
  const auto buckets = bucketize(obs, 86400.0);
  EXPECT_EQ(buckets.size(), 2u);
}

TEST(TimeseriesTest, DailyVariationZeroForFlatSeries) {
  std::vector<Observation> obs;
  for (int day = 0; day < 10; ++day) obs.push_back({day * 86400.0, 50.0});
  const auto buckets = bucketize(obs, 86400.0);
  EXPECT_DOUBLE_EQ(daily_variation_p95(buckets), 0.0);
}

TEST(TimeseriesTest, DailyVariationCapturesStep) {
  std::vector<Observation> obs;
  for (int day = 0; day < 10; ++day) {
    obs.push_back({day * 86400.0, day < 5 ? 100.0 : 150.0});
  }
  const auto buckets = bucketize(obs, 86400.0);
  EXPECT_NEAR(daily_variation_p95(buckets), 0.5, 0.3);
}

TEST(TimeseriesTest, MeanShiftDetectedAtStep) {
  std::vector<Observation> obs;
  Rng rng(18);
  for (int i = 0; i < 200; ++i) {
    obs.push_back({i * 3600.0, (i < 100 ? 55.0 : 35.0) + rng.normal(0, 1.5)});
  }
  const auto shifts = detect_mean_shifts(obs, 24, 0.25, 5.0);
  ASSERT_EQ(shifts.size(), 1u);
  EXPECT_NEAR(shifts[0].t_sec, 100 * 3600.0, 24 * 3600.0);
  EXPECT_GT(shifts[0].before_mean, shifts[0].after_mean);
}

TEST(TimeseriesTest, NoShiftInStationarySeries) {
  std::vector<Observation> obs;
  Rng rng(19);
  for (int i = 0; i < 300; ++i) obs.push_back({i * 3600.0, 45.0 + rng.normal(0, 2.0)});
  EXPECT_TRUE(detect_mean_shifts(obs).empty());
}

TEST(TimeseriesTest, ShiftBelowAbsoluteFloorIgnored) {
  std::vector<Observation> obs;
  for (int i = 0; i < 100; ++i) obs.push_back({i * 60.0, i < 50 ? 10.0 : 13.0});
  // 30% relative but only 3 ms absolute: below the 5 ms floor.
  EXPECT_TRUE(detect_mean_shifts(obs, 10, 0.25, 5.0).empty());
}

// ------------------------------------------- property-style parameterized

class PercentileProperty : public ::testing::TestWithParam<int> {};

TEST_P(PercentileProperty, WithinMinMaxAndMonotoneInP) {
  Rng rng(100 + GetParam());
  std::vector<double> v;
  const int n = 1 + GetParam() * 7 % 97;
  for (int i = 0; i < n; ++i) v.push_back(rng.uniform(-50, 50));
  const double lo = *std::min_element(v.begin(), v.end());
  const double hi = *std::max_element(v.begin(), v.end());
  double prev = lo;
  for (double p = 0; p <= 100; p += 10) {
    const double q = percentile(v, p);
    EXPECT_GE(q, lo);
    EXPECT_LE(q, hi);
    EXPECT_GE(q, prev);
    prev = q;
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, PercentileProperty, ::testing::Range(0, 20));

class KdePeakProperty : public ::testing::TestWithParam<int> {};

TEST_P(KdePeakProperty, MainPeakNearTrueMode) {
  const double mode = 50.0 + GetParam() * 70.0;
  Rng rng(GetParam());
  std::vector<double> sample;
  for (int i = 0; i < 600; ++i) sample.push_back(rng.normal(mode, mode * 0.05));
  const auto peaks = Kde(sample).peaks();
  ASSERT_FALSE(peaks.empty());
  EXPECT_NEAR(peaks.front().location, mode, mode * 0.05);
}

INSTANTIATE_TEST_SUITE_P(Modes, KdePeakProperty, ::testing::Range(1, 11));

}  // namespace
}  // namespace satnet::stats
