/**
 * @file
 * Descriptive statistics over raw double sequences.
 *
 * These are the estimators Section VI of the paper uses: sample means,
 * unbiased sample variances, and the derived standard errors feeding
 * the two-sample t statistics.
 */

#ifndef WCT_STATS_DESCRIPTIVE_HH
#define WCT_STATS_DESCRIPTIVE_HH

#include <cstddef>
#include <span>
#include <vector>

namespace wct
{

/*
 * NaN and empty-input contract (pinned by the property suite in
 * tests/prop/descriptive_prop_test.cc):
 *
 *  - Empty input is a caller bug for estimators with no meaningful
 *    value (mean, quantile, median): they panic. Variance-style
 *    estimators return 0 for degenerate sizes so single-sample nodes
 *    never divide by zero.
 *  - NaN observations propagate through the moment-based estimators
 *    (mean, variance, covariance) following IEEE semantics, but the
 *    order-statistic estimators (median, quantile) panic: sorting a
 *    range with NaN violates strict weak ordering and would silently
 *    return garbage otherwise.
 */

/** Arithmetic mean; panics on empty input. NaN inputs yield NaN. */
double mean(std::span<const double> xs);

/** Unbiased sample variance (divides by n - 1); zero for n < 2. */
double sampleVariance(std::span<const double> xs);

/** Square root of sampleVariance. */
double sampleStddev(std::span<const double> xs);

/** Median (copies and sorts); panics on empty or NaN input. */
double median(std::span<const double> xs);

/**
 * Quantile with linear interpolation between order statistics,
 * q in [0, 1]. Panics on empty input, q outside [0, 1], or NaN
 * observations (which have no rank).
 */
double quantile(std::span<const double> xs, double q);

/** Sample covariance (divides by n - 1); panics on size mismatch. */
double sampleCovariance(std::span<const double> xs,
                        std::span<const double> ys);

/**
 * Pearson correlation coefficient; returns 0 when either side has
 * zero variance (degenerate, by convention). The result is clamped
 * to [-1, 1]: the cov/(sx*sy) form can exceed the mathematical range
 * by rounding on near-collinear data, which would otherwise leak
 * into threshold comparisons (e.g. the C > 0.85 acceptance rule).
 */
double pearsonCorrelation(std::span<const double> xs,
                          std::span<const double> ys);

} // namespace wct

#endif // WCT_STATS_DESCRIPTIVE_HH
