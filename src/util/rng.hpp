#pragma once

#include <cstdint>
#include <vector>

/// Deterministic random number generation. Every stochastic component in
/// the repository (trace generators, corruption models, property tests)
/// draws from this generator with an explicit seed so that all experiments
/// are exactly reproducible across runs and platforms.
namespace comet::util {

/// xoshiro256** by Blackman & Vigna — fast, high-quality, and with a
/// stable cross-platform output sequence (unlike std::mt19937 distribution
/// adapters, whose output is implementation-defined).
class Rng {
 public:
  /// Seeds the full 256-bit state from a single 64-bit seed via SplitMix64.
  explicit Rng(std::uint64_t seed);

  /// Next raw 64-bit value.
  std::uint64_t next_u64();

  /// Uniform double in [0, 1).
  double next_double();

  /// Uniform integer in [0, bound). bound must be > 0.
  std::uint64_t next_below(std::uint64_t bound);

  /// True with probability p (clamped to [0, 1]).
  bool next_bool(double p);

  /// Exponential deviate with the given mean (> 0).
  double next_exponential(double mean);

  /// Zipf-distributed integer in [0, n) with exponent s >= 0.
  /// Used by trace generators for hot-row/pointer-chase behaviour.
  std::uint64_t next_zipf(std::uint64_t n, double s);

 private:
  std::uint64_t state_[4];

  // next_zipf memoizes the k^-s weight table for the last (n, s) pair;
  // sampling itself is unchanged (and bit-identical), the cache only
  // avoids recomputing ~2n std::pow calls per draw.
  std::uint64_t zipf_n_ = 0;
  double zipf_s_ = 0.0;
  double zipf_h_ = 0.0;
  std::vector<double> zipf_weights_;
};

}  // namespace comet::util
