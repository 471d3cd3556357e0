#include "util/interp.hpp"

#include <stdexcept>

namespace comet::util {

std::vector<double> linspace(double lo, double hi, std::size_t n) {
  if (n < 2) throw std::invalid_argument("linspace: need n >= 2");
  std::vector<double> v(n);
  const double step = (hi - lo) / static_cast<double>(n - 1);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = lo + step * static_cast<double>(i);
  }
  v.back() = hi;
  return v;
}

}  // namespace comet::util
