#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

/// Deterministic random number generation. Every stochastic component in
/// the repository (trace generators, corruption models, property tests)
/// draws from this generator with an explicit seed so that all experiments
/// are exactly reproducible across runs and platforms.
namespace comet::util {

/// Inverse CDF of the Zipf law over ranks [0, n): rank k has weight
/// (k + 1)^-s. The weights and their left-to-right running sums P[k] are
/// computed once per (n, s); P.back() is the total h that
/// Rng::next_zipf scales its uniform draw by.
///
/// scan(u) is the reference sampler: it subtracts the weights from u in
/// rank order and returns the first rank that takes u to <= 0. index(u)
/// returns the same rank in O(1) expected time. A guide table (Chen &
/// Asau's cutpoint method) jumps to the first k whose P[k] lands in u's
/// bucket of width h/n, and a short forward walk finds the first
/// P[k] >= u. Both the scan's running value and P[k] differ from the
/// exact real sums by at most n·eps·h, since every term is positive and
/// rounding is monotone. So when u lies more than margin() = 4·n·eps·h
/// from both P[k - 1] and P[k], the scan stops at k too; inside that
/// band index() runs the scan itself. The result is therefore always
/// bit-identical to scan(u). A uniform u lands in the band with
/// probability about 8·n²·eps (~3e-8 at n = 4096).
class ZipfTable {
 public:
  /// The empty table (n() == 0); draws need a table built for (n, s).
  ZipfTable() = default;
  /// Throws std::invalid_argument unless 1 <= n < 2^32.
  ZipfTable(std::uint64_t n, double s);

  std::uint64_t n() const { return weights_.size(); }
  double s() const { return s_; }
  /// The running sums P[k]; P.back() is the total h.
  const std::vector<double>& prefix() const { return prefix_; }
  double total() const { return prefix_.back(); }
  /// The certification margin: index() defers to scan() for a u within
  /// it of a running sum.
  double margin() const { return margin_; }

  /// Rank for u in [0, total()], bit-identical to scan(u).
  std::uint64_t index(double u) const;
  /// Rank by the left-to-right subtraction scan, O(n).
  std::uint64_t scan(double u) const;

 private:
  std::size_t bucket(double u) const;

  double s_ = 0.0;
  double scale_ = 0.0;  // n / h: u's guide bucket is floor(u * scale_)
  double margin_ = 0.0;
  std::vector<double> weights_;
  std::vector<double> prefix_;
  std::vector<std::uint32_t> guide_;  // first k with bucket(P[k]) >= b
};

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

  /// Zipf-distributed integer in [0, n) with exponent s >= 0, n < 2^32.
  /// Used by trace generators for hot-row/pointer-chase behaviour. One
  /// next_double() per draw, mapped through ZipfTable::index: O(1)
  /// expected time once the (n, s) table is built.
  std::uint64_t next_zipf(std::uint64_t n, double s);

 private:
  std::uint64_t state_[4];

  // next_zipf builds the table for the last (n, s) pair on its first
  // draw, so constructing an Rng costs no std::pow calls.
  ZipfTable zipf_;
};

}  // namespace comet::util
