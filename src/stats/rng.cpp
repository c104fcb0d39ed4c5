#include "stats/rng.hpp"

#include <cmath>
#include <limits>
#include <random>

namespace satnet::stats {

namespace {

constexpr std::uint64_t kUpperMask = ~std::uint64_t{0} << 31;
constexpr std::uint64_t kLowerMask = ~kUpperMask;
constexpr std::uint64_t kMatrixA = 0xb5026f5aa96619e9ull;

// State word i of the seeding recurrence, from word i - 1.
constexpr std::uint64_t seed_word(std::uint64_t prev, std::uint64_t i) {
  return 6364136223846793005ull * (prev ^ (prev >> 62)) + i;
}

// The twisted value of word k from its old value, word k + 1, and word
// k + m (all indices mod n). The mask replaces `(y & 1) ? a : 0`.
constexpr std::uint64_t twist(std::uint64_t cur, std::uint64_t next, std::uint64_t far) {
  const std::uint64_t y = (cur & kUpperMask) | (next & kLowerMask);
  return far ^ (y >> 1) ^ (kMatrixA & (std::uint64_t{0} - (y & 1)));
}

}  // namespace

void Mt19937_64::seed(result_type seed) {
  // The first output needs seeded words 0, 1 and m; the rest of the
  // block is seeded on demand by advance().
  x_[0] = seed;
  for (std::uint32_t i = 1; i <= kM; ++i) x_[i] = seed_word(x_[i - 1], i);
  x_[0] = twist(x_[0], x_[1], x_[kM]);
  next_ = 0;
  ready_ = 1;
}

void Mt19937_64::advance() {
  if (ready_ < kN) {
    // First block: twisting word k reads seeded word k + m, so seed it
    // now (its predecessor is still untwisted). Past k = n - m, word
    // k + m wraps to a word twisted earlier, as in the in-place twist.
    const std::uint32_t k = ready_++;
    if (k + kM < kN) x_[k + kM] = seed_word(x_[k + kM - 1], k + kM);
    x_[k] = twist(x_[k], x_[(k + 1) % kN], x_[(k + kM) % kN]);
    return;
  }
  std::uint32_t k = 0;
  for (; k < kN - kM; ++k) x_[k] = twist(x_[k], x_[k + 1], x_[k + kM]);
  for (; k < kN - 1; ++k) x_[k] = twist(x_[k], x_[k + 1], x_[k + kM - kN]);
  x_[kN - 1] = twist(x_[kN - 1], x_[0], x_[kM - 1]);
  next_ = 0;
}

Mt19937_64::result_type Mt19937_64::peek() const {
  if (next_ < ready_) return temper(x_[next_]);
  // The word advance() would twist next, computed without storing it.
  if (ready_ == kN) return temper(twist(x_[0], x_[1], x_[kM]));
  const std::uint32_t k = ready_;
  const std::uint64_t far =
      k + kM < kN ? seed_word(x_[k + kM - 1], k + kM) : x_[k + kM - kN];
  return temper(twist(x_[k], x_[(k + 1) % kN], far));
}

std::uint64_t Rng::splitmix(std::uint64_t x) {
  // SplitMix64: turns arbitrary (possibly low-entropy) seeds into
  // well-distributed engine seeds.
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// A child's engine seed is splitmix(base ^ splitmix(salt)), which is
// what the Rng(seed) constructor makes of `base ^ splitmix(salt)`.
Rng Rng::fork(std::uint64_t salt) { return Rng(engine_() ^ splitmix(salt)); }

Rng Rng::fork(std::string_view name) { return fork(hash_name(name)); }

Rng Rng::fork_stable(std::uint64_t salt) const {
  // The base is the parent's next output, peeked without drawing it, so
  // any set of salts forked from the same parent state yields the same
  // children in any order.
  return Rng(engine_.peek() ^ splitmix(salt));
}

Rng Rng::fork_stable(std::string_view name) const {
  return fork_stable(hash_name(name));
}

std::uint64_t Rng::hash_name(std::string_view name) {
  // FNV-1a over the name gives a stable salt independent of call order.
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : name) {
    h ^= static_cast<std::uint64_t>(static_cast<unsigned char>(c));
    h *= 0x100000001b3ull;
  }
  return h;
}

double Rng::uniform(double lo, double hi) {
  return std::uniform_real_distribution<double>(lo, hi)(engine_);
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
}

double Rng::normal(double mean, double stddev) {
  return std::normal_distribution<double>(mean, stddev)(engine_);
}

double Rng::lognormal_median(double median, double sigma) {
  return std::lognormal_distribution<double>(std::log(median), sigma)(engine_);
}

double Rng::exponential(double mean) {
  return std::exponential_distribution<double>(1.0 / mean)(engine_);
}

double Rng::pareto(double x_m, double alpha) {
  const double u = uniform(1e-12, 1.0);
  return x_m / std::pow(u, 1.0 / alpha);
}

bool Rng::chance(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return std::bernoulli_distribution(p)(engine_);
}

int Rng::poisson(double mean) {
  if (mean <= 0.0) return 0;
  // Not std::poisson_distribution: libstdc++ initializes its parameters
  // with lgamma(), and glibc's lgamma writes the legacy `signgam` global
  // — a data race when campaign shards draw concurrently. Knuth's
  // product-of-uniforms sampler is exact and touches no shared state;
  // large means split recursively (Poisson(m) = Poisson(a) + Poisson(m-a)
  // for independent draws) to keep exp(-mean) away from underflow.
  if (mean > 12.0) {
    const double half = mean / 2.0;
    return poisson(half) + poisson(mean - half);
  }
  const double limit = std::exp(-mean);
  int k = 0;
  for (double prod = uniform(); prod > limit; prod *= uniform()) ++k;
  return k;
}

std::size_t Rng::weighted_index(const std::vector<double>& weights) {
  // An empty list or an all-zero total has no valid probability mass.
  double total = 0.0;
  for (const double w : weights) total += w;
  if (weights.empty() || total <= 0.0) {
    throw std::invalid_argument("Rng::weighted_index: no positive weight");
  }
  // std::discrete_distribution's algorithm, so the draws and the index
  // are the same: fewer than two weights make no draw; otherwise one
  // generate_canonical value p picks the first index whose cumulative
  // sum of w[j] / total reaches p, with the last sum taken as 1.
  const std::size_t n = weights.size();
  if (n < 2) return 0;
  const double p =
      std::generate_canonical<double, std::numeric_limits<double>::digits>(engine_);
  double cumulative = 0.0;
  for (std::size_t i = 0; i + 1 < n; ++i) {
    cumulative += weights[i] / total;
    if (cumulative >= p) return i;
  }
  return n - 1;
}

}  // namespace satnet::stats
