// Hoeffding-based sample-size formulas (Theorems 3-5 of the paper).

#ifndef VULNDS_VULNDS_SAMPLE_SIZE_H_
#define VULNDS_VULNDS_SAMPLE_SIZE_H_

#include <cstddef>

namespace vulnds {

/// Per-pair misordering bound of Theorem 3: the probability that the
/// estimated order of two nodes whose true probabilities differ by at least
/// `eps` is inverted after `t` samples is at most exp(-t * eps^2 / 2).
double PairMisorderBound(std::size_t t, double eps);

/// Equation 3: t = (2 / eps^2) * ln(k (n - k) / delta), the sample size that
/// makes Algorithm 1 an (eps, delta)-approximation (Theorem 4). Returns at
/// least 1; returns 0 when the pair count k (n - k) is zero (nothing to
/// separate: k == 0 or k == n). A size past SIZE_MAX saturates to it.
std::size_t BasicSampleSize(double eps, double delta, std::size_t k, std::size_t n);

/// Equation 4: the reduced size for the reverse-sampling method (Theorem 5)
/// with k' verified nodes and candidate set B:
///   t = (2 / eps^2) * ln((k - k') (|B| - k + k') / delta).
/// Returns 0 when no pairs remain to order (everything verified, or the
/// candidate set is exactly the remaining slots).
std::size_t ReducedSampleSize(double eps, double delta, std::size_t k,
                              std::size_t k_verified, std::size_t candidate_count);

}  // namespace vulnds

#endif  // VULNDS_VULNDS_SAMPLE_SIZE_H_
