#include "util/rng.hpp"

#include <cmath>

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
  // Rejection-inversion sampling (Hörmann & Derflinger) is overkill for the
  // small ranks trace generators use; inverse-CDF over a harmonic prefix is
  // exact and fast enough since n here is the hot-set size (<= a few 1000).
  if (s <= 0.0) return next_below(n);
  // The k^-s weights (and their left-to-right harmonic sum) depend only
  // on (n, s), which trace generators hold fixed across millions of
  // draws — memoize them. The subtraction scan below performs exactly
  // the same floating-point operations in the same order as computing
  // the powers inline, so cached and uncached sampling are bit-identical;
  // only the ~2n std::pow calls per draw disappear.
  if (zipf_n_ != n || zipf_s_ != s) {
    zipf_weights_.resize(n);
    zipf_h_ = 0.0;
    for (std::uint64_t k = 1; k <= n; ++k) {
      zipf_weights_[k - 1] = std::pow(double(k), -s);
      zipf_h_ += zipf_weights_[k - 1];
    }
    zipf_n_ = n;
    zipf_s_ = s;
  }
  double u = next_double() * zipf_h_;
  for (std::uint64_t k = 1; k <= n; ++k) {
    u -= zipf_weights_[k - 1];
    if (u <= 0.0) return k - 1;
  }
  return n - 1;
}

}  // namespace comet::util
