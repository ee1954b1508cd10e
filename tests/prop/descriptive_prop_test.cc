/**
 * @file
 * Differential properties of stats/descriptive against the two-pass
 * textbook oracles, plus the NaN/empty-input contract documented in
 * descriptive.hh.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "stats/descriptive.hh"
#include "tests/support/oracles.hh"
#include "tests/support/prop.hh"

namespace wct
{
namespace
{

using prop::CheckResult;
using prop::Config;

/** Scale-aware tolerance for moment comparisons. */
double
momentTol(const std::vector<double> &xs, double rel)
{
    double scale = 1.0;
    for (double x : xs)
        scale = std::max(scale, std::abs(x));
    return rel * scale * scale;
}

TEST(DescriptiveProp, MeanMatchesTwoPassOracle)
{
    const Config config = Config::fromEnv(0x3ea0, 100);
    const CheckResult result = prop::check<std::vector<double>>(
        config, prop::vectorOf(prop::interestingDouble(1e6), 1, 200),
        [](const std::vector<double> &xs)
            -> std::optional<std::string> {
            const double got = mean(xs);
            const double want = oracle::meanTwoPass(xs);
            if (std::abs(got - want) >
                1e-9 * std::max(1.0, std::abs(want)))
                return "mean " + prop::showDouble(got) +
                    " vs oracle " + prop::showDouble(want);
            return std::nullopt;
        });
    WCT_EXPECT_PROP(result, config);
}

TEST(DescriptiveProp, SampleVarianceMatchesTwoPassOracle)
{
    const Config config = Config::fromEnv(0x3e1f, 100);
    const CheckResult result = prop::check<std::vector<double>>(
        config, prop::vectorOf(prop::interestingDouble(1e6), 1, 200),
        [](const std::vector<double> &xs)
            -> std::optional<std::string> {
            const double got = sampleVariance(xs);
            const double want = oracle::sampleVarianceTwoPass(xs);
            if (std::abs(got - want) > momentTol(xs, 1e-9))
                return "variance " + prop::showDouble(got) +
                    " vs oracle " + prop::showDouble(want);
            return std::nullopt;
        });
    WCT_EXPECT_PROP(result, config);
}

TEST(DescriptiveProp, QuantilesAreMonotoneAndBracketedByExtremes)
{
    const Config config = Config::fromEnv(0x9a41, 100);
    const CheckResult result = prop::check<std::vector<double>>(
        config, prop::vectorOf(prop::uniformDouble(-50.0, 50.0), 1, 100),
        [](const std::vector<double> &xs)
            -> std::optional<std::string> {
            const double lo = *std::min_element(xs.begin(), xs.end());
            const double hi = *std::max_element(xs.begin(), xs.end());
            if (quantile(xs, 0.0) != lo || quantile(xs, 1.0) != hi)
                return "extreme quantiles disagree with min/max";
            if (median(xs) != quantile(xs, 0.5))
                return "median disagrees with quantile(0.5)";
            double prev = lo;
            for (double q : {0.1, 0.25, 0.5, 0.75, 0.9}) {
                const double value = quantile(xs, q);
                if (value < prev)
                    return "quantile not monotone at q=" +
                        prop::showDouble(q);
                prev = value;
            }
            return std::nullopt;
        });
    WCT_EXPECT_PROP(result, config);
}

TEST(DescriptiveProp, PearsonStaysInUnitIntervalOnCollinearData)
{
    // Near-collinear columns drive cov/(sx*sy) toward +-1; rounding
    // must never push the result outside [-1, 1] (it feeds threshold
    // rules like C > 0.85).
    const Config config = Config::fromEnv(0xc033, 100);
    const CheckResult result = prop::check<std::vector<double>>(
        config, prop::vectorOf(prop::uniformDouble(-8.0, 8.0), 2, 100),
        [](const std::vector<double> &xs)
            -> std::optional<std::string> {
            std::vector<double> ys(xs.size());
            for (std::size_t i = 0; i < xs.size(); ++i)
                ys[i] = 3.0 * xs[i] - 1.0;
            const double r = pearsonCorrelation(xs, ys);
            if (std::abs(r) > 1.0)
                return "|r| = " + prop::showDouble(std::abs(r)) +
                    " > 1";
            // Exactly collinear input with spread must give r = 1.
            const double sx = sampleStddev(xs);
            if (sx > 1e-6 && r < 0.999999)
                return "collinear r = " + prop::showDouble(r);
            return std::nullopt;
        });
    WCT_EXPECT_PROP(result, config);
}

// ---- The documented NaN/empty contract. ----

TEST(DescriptiveContractDeathTest, EmptyInputPanics)
{
    const std::vector<double> empty;
    EXPECT_DEATH(mean(empty), "");
    EXPECT_DEATH(median(empty), "");
    EXPECT_DEATH(quantile(empty, 0.5), "");
}

TEST(DescriptiveContractDeathTest, OrderStatisticsRejectNaN)
{
    const std::vector<double> poisoned{
        1.0, std::numeric_limits<double>::quiet_NaN(), 3.0};
    EXPECT_DEATH(quantile(poisoned, 0.5), "NaN");
}

TEST(DescriptiveContract, MomentsPropagateNaN)
{
    const std::vector<double> poisoned{
        1.0, std::numeric_limits<double>::quiet_NaN(), 3.0};
    EXPECT_TRUE(std::isnan(mean(poisoned)));
    EXPECT_TRUE(std::isnan(sampleVariance(poisoned)));
}

TEST(DescriptiveContract, DegenerateSizesGiveZeroVariance)
{
    const std::vector<double> one{5.0};
    EXPECT_EQ(sampleVariance(one), 0.0);
    EXPECT_EQ(sampleVariance(std::vector<double>{}), 0.0);
}

} // namespace
} // namespace wct
