// Deterministic random number generation for reproducible simulations.
//
// Every stochastic component in the library takes an explicit Rng (or a
// seed) so that a whole campaign is a pure function of its master seed.
#pragma once

#include <array>
#include <cstdint>
#include <stdexcept>
#include <string_view>
#include <vector>

namespace satnet::stats {

/// MT19937-64 whose output equals std::mt19937_64 word for word, for the
/// same seed. It keeps the same 312-word state but fills the first block
/// lazily: seed() computes only the words the first output needs and
/// each later draw of that block seeds and twists one more word, in the
/// in-place order of the full twist. So a stream that draws a handful
/// of values never pays for 312 seeded words and a full twist. Later
/// blocks use one branch-free batch twist. Satisfies
/// UniformRandomBitGenerator, so the <random> distributions accept it.
class Mt19937_64 {
 public:
  using result_type = std::uint64_t;
  static constexpr result_type default_seed = 5489u;
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  explicit Mt19937_64(result_type seed = default_seed) { this->seed(seed); }

  result_type operator()() {
    if (next_ == ready_) advance();
    return temper(x_[next_++]);
  }

  /// The output the next operator() call returns; a pure read, so
  /// threads may peek one shared const engine concurrently.
  result_type peek() const;

 private:
  static constexpr std::uint32_t kN = 312;  // state words
  static constexpr std::uint32_t kM = 156;  // twist offset

  static result_type temper(result_type z) {
    z ^= (z >> 29) & 0x5555555555555555ull;
    z ^= (z << 17) & 0x71d67fffeda60000ull;
    z ^= (z << 37) & 0xfff7eee000000000ull;
    return z ^ (z >> 43);
  }
  void seed(result_type seed);
  /// Twists word next_, which is not yet twisted: in the first block by
  /// seeding one more word and twisting one, after it by twisting the
  /// whole next block.
  void advance();

  std::uint32_t next_ = 0;   // index of the next output word
  std::uint32_t ready_ = 0;  // words [0, ready_) of the block are twisted
  std::array<result_type, kN> x_{};
};

/// Deterministic PRNG (MT19937-64, bit-identical to std::mt19937_64)
/// with the sampling helpers used across the simulators. Its state is
/// 2.5 KB, so pass it by reference; fork() and fork_stable() derive
/// independent child streams so sibling components never share state.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x5a7e11e7ull) : engine_(splitmix(seed)) {}

  /// Derives an independent child stream; `salt` decorrelates children
  /// forked from the same parent state. Advances the parent, so the
  /// child depends on how many draws/forks the parent made before.
  Rng fork(std::uint64_t salt);
  /// Derives a child stream keyed by a name (stable across runs).
  Rng fork(std::string_view name);

  /// Like fork(), but does NOT advance the parent: the child is a pure
  /// function of (parent state, salt), independent of how many other
  /// fork_stable calls the parent served and in what order. This is the
  /// forking discipline of the sharded campaign runtime — every shard
  /// keys its stream off a stable identity (operator name, probe id,
  /// chunk index), never off loop position. It peeks the parent's next
  /// output and copies no state, so shards may fork one shared const
  /// Rng concurrently.
  Rng fork_stable(std::uint64_t salt) const;
  Rng fork_stable(std::string_view name) const;

  /// FNV-1a hash of a name; the salt behind the string fork overloads.
  static std::uint64_t hash_name(std::string_view name);

  /// Uniform double in [lo, hi).
  double uniform(double lo = 0.0, double hi = 1.0);
  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);
  /// Gaussian with the given mean and standard deviation.
  double normal(double mean, double stddev);
  /// Log-normal parameterized by the *median* and sigma of log-space.
  double lognormal_median(double median, double sigma);
  /// Exponential with the given mean.
  double exponential(double mean);
  /// Pareto (heavy tail) with scale x_m and shape alpha (> 0).
  double pareto(double x_m, double alpha);
  /// Bernoulli event with probability p.
  bool chance(double p);
  /// Poisson with the given mean.
  int poisson(double mean);
  /// Index in [0, weights.size()) with probability proportional to the
  /// (non-negative) weight. Same draws and result as
  /// std::discrete_distribution, without its allocations.
  std::size_t weighted_index(const std::vector<double>& weights);

  /// Uniformly chosen element of a non-empty container; throws
  /// std::out_of_range on an empty one (uniform_int(0, -1) is UB).
  template <typename Container>
  const typename Container::value_type& pick(const Container& c) {
    if (c.empty()) throw std::out_of_range("Rng::pick: empty container");
    return c[static_cast<std::size_t>(uniform_int(0, static_cast<std::int64_t>(c.size()) - 1))];
  }

 private:
  static std::uint64_t splitmix(std::uint64_t x);
  Mt19937_64 engine_;
};

}  // namespace satnet::stats
