#pragma once

#include <cstddef>
#include <vector>

/// Evenly spaced sample grids for the benches' wavelength sweeps.
namespace comet::util {

/// Evenly spaced grid of n points covering [lo, hi] inclusive (n >= 2).
std::vector<double> linspace(double lo, double hi, std::size_t n);

}  // namespace comet::util
