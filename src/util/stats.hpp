#pragma once

#include <cstdint>
#include <limits>
#include <vector>

/// Streaming statistics used by the memory simulator and the benches.
namespace comet::util {

/// Welford-style running mean/variance plus min/max, and a fixed-size
/// log2-bucketed histogram (HDR-histogram style: 8 sub-buckets per
/// octave over [2^-20, 2^40)) for approximate percentiles — O(1) memory
/// regardless of sample count, and exactly mergeable.
class RunningStats {
 public:
  void add(double x);

  /// Folds another accumulator into this one (Chan's parallel Welford
  /// combination plus an element-wise histogram sum), as if every
  /// sample of `other` had been add()ed here.
  void merge(const RunningStats& other);

  std::uint64_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  double variance() const;  ///< Population variance; 0 for n < 2.
  double stddev() const;
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }
  double sum() const { return sum_; }

  /// Value below which fraction `p` (0..1) of the samples fall, read
  /// from the log-bucketed histogram: accurate to the bucket width
  /// (2^(1/8), i.e. within ~±4.5% of the exact sample) and clamped to
  /// [min(), max()], so constant streams report exact percentiles.
  /// Samples ≤ 0 (or below 2^-20) collapse into one underflow bucket
  /// represented by min(). Returns 0 on an empty accumulator.
  double percentile(double p) const;

  double p50() const { return percentile(0.50); }
  double p95() const { return percentile(0.95); }
  double p99() const { return percentile(0.99); }

  /// Exact equality of the whole state, histogram included.
  bool operator==(const RunningStats&) const = default;

 private:
  std::uint64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
  std::vector<std::uint64_t> histogram_;  ///< Allocated on first add().
};

}  // namespace comet::util
