#include "vulnds/sample_size.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

namespace vulnds {

double PairMisorderBound(std::size_t t, double eps) {
  return std::exp(-static_cast<double>(t) * eps * eps / 2.0);
}

namespace {

std::size_t SizeFromPairCount(double eps, double delta, double pairs) {
  assert(eps > 0.0 && eps < 1.0);
  assert(delta > 0.0 && delta < 1.0);
  if (pairs <= 0.0) return 0;
  const double t = std::ceil(2.0 / (eps * eps) * std::log(pairs / delta));
  // A size at or past SIZE_MAX (2^64 once rounded to double) saturates
  // instead of reaching an out-of-range, undefined cast.
  constexpr std::size_t kMaxSize = std::numeric_limits<std::size_t>::max();
  if (!(t < static_cast<double>(kMaxSize))) return kMaxSize;
  return std::max<std::size_t>(1, static_cast<std::size_t>(t));
}

}  // namespace

std::size_t BasicSampleSize(double eps, double delta, std::size_t k, std::size_t n) {
  const double pairs =
      static_cast<double>(k) * (static_cast<double>(n) - static_cast<double>(k));
  return SizeFromPairCount(eps, delta, pairs);
}

std::size_t ReducedSampleSize(double eps, double delta, std::size_t k,
                              std::size_t k_verified, std::size_t candidate_count) {
  if (k_verified >= k) return 0;
  const double rem = static_cast<double>(k - k_verified);
  const double others = static_cast<double>(candidate_count) - rem;
  return SizeFromPairCount(eps, delta, rem * others);
}

}  // namespace vulnds
