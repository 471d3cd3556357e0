#include "util/rng.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>

namespace comet::util {
namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  for (auto& s : state_) s = splitmix64(seed);
  // Avoid the (astronomically unlikely) all-zero state.
  if ((state_[0] | state_[1] | state_[2] | state_[3]) == 0) state_[0] = 1;
}

std::uint64_t Rng::next_u64() {
  const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = rotl(state_[3], 45);
  return result;
}

double Rng::next_double() {
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

std::uint64_t Rng::next_below(std::uint64_t bound) {
  // Lemire's nearly-divisionless bounded sampling, biased < 2^-64.
#ifdef __SIZEOF_INT128__
  __extension__ typedef unsigned __int128 u128;
  return static_cast<std::uint64_t>((static_cast<u128>(next_u64()) * bound) >>
                                    64);
#else
  // Portable 64x64 -> high-64 multiply; identical result to the u128 path.
  const std::uint64_t x = next_u64();
  const std::uint64_t x_lo = x & 0xffffffffULL, x_hi = x >> 32;
  const std::uint64_t b_lo = bound & 0xffffffffULL, b_hi = bound >> 32;
  const std::uint64_t mid = x_hi * b_lo + ((x_lo * b_lo) >> 32);
  const std::uint64_t mid2 = x_lo * b_hi + (mid & 0xffffffffULL);
  return x_hi * b_hi + (mid >> 32) + (mid2 >> 32);
#endif
}

bool Rng::next_bool(double p) { return next_double() < p; }

double Rng::next_exponential(double mean) {
  double u = next_double();
  if (u <= 0.0) u = 0x1.0p-53;
  return -mean * std::log(u);
}

std::uint64_t Rng::next_zipf(std::uint64_t n, double s) {
  if (n <= 1) return 0;
  if (s <= 0.0) return next_below(n);
  // Trace generators hold (n, s) fixed across millions of draws.
  if (zipf_.n() != n || zipf_.s() != s) zipf_ = ZipfTable(n, s);
  return zipf_.index(next_double() * zipf_.total());
}

ZipfTable::ZipfTable(std::uint64_t n, double s) : s_(s) {
  if (n == 0 || n > std::numeric_limits<std::uint32_t>::max()) {
    throw std::invalid_argument("ZipfTable: rank count must be in [1, 2^32)");
  }
  weights_.resize(n);
  prefix_.resize(n);
  double h = 0.0;
  for (std::uint64_t k = 0; k < n; ++k) {
    weights_[k] = std::pow(double(k + 1), -s);
    h += weights_[k];
    prefix_[k] = h;
  }
  scale_ = double(n) / h;
  margin_ = 4.0 * double(n) * std::numeric_limits<double>::epsilon() * h;
  // bucket() is monotone in u, so the first P[k] >= u is never before
  // guide_[bucket(u)].
  guide_.resize(n);
  std::uint32_t k = 0;
  for (std::size_t b = 0; b < n; ++b) {
    while (bucket(prefix_[k]) < b && k + 1 < n) ++k;
    guide_[b] = k;
  }
}

std::size_t ZipfTable::bucket(double u) const {
  // The comparison also sends u > h and a NaN total to the last bucket.
  const std::size_t last = weights_.size() - 1;
  const double x = u * scale_;
  return x < double(last) ? std::size_t(x) : last;
}

std::uint64_t ZipfTable::index(double u) const {
  const std::size_t last = weights_.size() - 1;
  std::size_t k = guide_[bucket(u)];
  while (prefix_[k] < u && k < last) ++k;
  if (prefix_[k] - u > margin_ && (k == 0 || u - prefix_[k - 1] > margin_)) {
    return k;
  }
  return scan(u);
}

std::uint64_t ZipfTable::scan(double u) const {
  const std::uint64_t n = weights_.size();
  for (std::uint64_t k = 0; k < n; ++k) {
    u -= weights_[k];
    if (u <= 0.0) return k;
  }
  return n - 1;
}

}  // namespace comet::util
