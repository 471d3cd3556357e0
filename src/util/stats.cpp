#include "util/stats.hpp"

#include <algorithm>
#include <cmath>

namespace comet::util {

namespace {

// Percentile histogram geometry: log2 buckets with kSubBuckets per
// octave spanning [2^kMinExponent, 2^kMaxExponent), plus one underflow
// bucket at index 0 for samples below the range (including <= 0).
// Values above the range clamp into the last bucket; percentile()
// clamps its answer to [min, max] anyway.
constexpr int kSubBuckets = 8;
constexpr int kMinExponent = -20;  // ~1e-6
constexpr int kMaxExponent = 40;   // ~1e12
constexpr std::size_t kHistogramBuckets =
    static_cast<std::size_t>((kMaxExponent - kMinExponent) * kSubBuckets) + 1;

std::size_t histogram_bucket(double x) {
  if (!(x >= std::ldexp(1.0, kMinExponent))) return 0;  // underflow, <=0, NaN
  const double pos = (std::log2(x) - kMinExponent) *
                     static_cast<double>(kSubBuckets);
  const auto index = static_cast<std::size_t>(pos) + 1;
  return index < kHistogramBuckets ? index : kHistogramBuckets - 1;
}

/// Geometric midpoint of a bucket (its representative value).
double histogram_bucket_value(std::size_t index) {
  if (index == 0) return 0.0;  // caller clamps to min()
  const double lo_exponent =
      kMinExponent + static_cast<double>(index - 1) / kSubBuckets;
  return std::exp2(lo_exponent + 0.5 / kSubBuckets);
}

}  // namespace

void RunningStats::add(double x) {
  ++n_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
  if (x < min_) min_ = x;
  if (x > max_) max_ = x;
  if (histogram_.empty()) histogram_.assign(kHistogramBuckets, 0);
  ++histogram_[histogram_bucket(x)];
}

void RunningStats::merge(const RunningStats& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(n_);
  const double nb = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  mean_ += delta * nb / (na + nb);
  m2_ += other.m2_ + delta * delta * na * nb / (na + nb);
  n_ += other.n_;
  sum_ += other.sum_;
  if (other.min_ < min_) min_ = other.min_;
  if (other.max_ > max_) max_ = other.max_;
  for (std::size_t i = 0; i < other.histogram_.size(); ++i) {
    histogram_[i] += other.histogram_[i];
  }
}

double RunningStats::percentile(double p) const {
  if (n_ == 0) return 0.0;
  if (p <= 0.0) return min_;
  if (p >= 1.0) return max_;
  auto target = static_cast<std::uint64_t>(
      std::ceil(p * static_cast<double>(n_)));
  if (target == 0) target = 1;
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i < histogram_.size(); ++i) {
    cum += histogram_[i];
    if (cum >= target) {
      const double value = histogram_bucket_value(i);
      return std::min(std::max(value, min_), max_);
    }
  }
  return max_;
}

double RunningStats::variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

}  // namespace comet::util
