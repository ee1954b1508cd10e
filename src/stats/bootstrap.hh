/**
 * @file
 * Nonparametric bootstrap confidence intervals.
 *
 * The paper's transferability thresholds (C > 0.85, MAE < 0.15) are
 * applied to point estimates; bootstrap resampling quantifies how
 * much those estimates move under sampling noise, so borderline
 * verdicts can be flagged instead of silently flipping with the seed.
 */

#ifndef WCT_STATS_BOOTSTRAP_HH
#define WCT_STATS_BOOTSTRAP_HH

#include <cstddef>
#include <functional>
#include <span>
#include <vector>

#include "util/rng.hh"

namespace wct
{

/** A two-sided percentile confidence interval. */
struct ConfidenceInterval
{
    double lower = 0.0;
    double upper = 0.0;
    double pointEstimate = 0.0;

    /** Interval width. */
    double width() const { return upper - lower; }

    /** True when x lies inside the interval (verdict is unstable). */
    bool
    contains(double x) const
    {
        return x >= lower && x <= upper;
    }
};

/**
 * Percentile bootstrap for a statistic of paired observations
 * (e.g. predicted/actual): pairs are resampled together.
 */
ConfidenceInterval bootstrapPairedCi(
    std::span<const double> xs, std::span<const double> ys,
    const std::function<double(std::span<const double>,
                               std::span<const double>)> &statistic,
    Rng &rng, std::size_t replicates = 1000, double confidence = 0.95);

} // namespace wct

#endif // WCT_STATS_BOOTSTRAP_HH
