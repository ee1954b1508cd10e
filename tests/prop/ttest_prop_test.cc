/**
 * @file
 * Differential and metamorphic properties of the two-sample t-test
 * Section VI runs, pooledTTest (stats/tests), against an oracle of
 * Equation 10 as the code implements it: the unpooled Welch
 * statistic from two-pass moments, with its p-value at the pooled
 * n1 + n2 - 2 degrees of freedom from direct Simpson integration
 * rather than the incomplete beta.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <utility>
#include <vector>

#include "stats/tests.hh"
#include "tests/support/oracles.hh"
#include "tests/support/prop.hh"

namespace wct
{
namespace
{

using prop::CheckResult;
using prop::Config;
using prop::Gen;

struct TwoSamples
{
    std::vector<double> xs;
    std::vector<double> ys;
};

/** Two samples with a random location shift between them. */
Gen<TwoSamples>
twoSamples()
{
    Gen<TwoSamples> gen;
    gen.generate = [](Rng &rng) {
        TwoSamples samples;
        const std::size_t n1 = 2 + rng.uniformInt(59);
        const std::size_t n2 = 2 + rng.uniformInt(59);
        const double shift = rng.uniform(-2.0, 2.0);
        const double spread1 = rng.uniform(0.1, 3.0);
        const double spread2 = rng.uniform(0.1, 3.0);
        for (std::size_t i = 0; i < n1; ++i)
            samples.xs.push_back(rng.normal(0.0, spread1));
        for (std::size_t i = 0; i < n2; ++i)
            samples.ys.push_back(rng.normal(shift, spread2));
        return samples;
    };
    gen.show = [](const TwoSamples &samples) {
        return "xs=" + prop::showVector(samples.xs) +
            "\n    ys=" + prop::showVector(samples.ys);
    };
    return gen;
}

bool
close(double a, double b, double rel)
{
    return std::abs(a - b) <=
        rel * std::max({1.0, std::abs(a), std::abs(b)});
}

TEST(TTestProp, PooledMatchesEquationTenOracle)
{
    const Config config = Config::fromEnv(0x7357, 100);
    const CheckResult result = prop::check<TwoSamples>(
        config, twoSamples(),
        [](const TwoSamples &samples) -> std::optional<std::string> {
            const TestResult got =
                pooledTTest(samples.xs, samples.ys);
            const double want_t = oracle::welch(samples.xs, samples.ys);
            const double want_df = static_cast<double>(
                samples.xs.size() + samples.ys.size() - 2);
            if (!close(got.statistic, want_t, 1e-9))
                return "statistic " + prop::showDouble(got.statistic) +
                    " vs oracle " + prop::showDouble(want_t);
            if (!close(got.df, want_df, 1e-9))
                return "df " + prop::showDouble(got.df) +
                    " vs oracle " + prop::showDouble(want_df);
            // The oracle integrates the t density numerically; its
            // error is well under this absolute tolerance.
            const double want_p =
                oracle::studentTTwoSidedPBySimpson(want_t, want_df);
            if (std::abs(got.pValue - want_p) > 5e-6)
                return "p " + prop::showDouble(got.pValue) +
                    " vs oracle " + prop::showDouble(want_p);
            return std::nullopt;
        });
    WCT_EXPECT_PROP(result, config);
}

TEST(TTestProp, SwappingSamplesNegatesStatistic)
{
    const Config config = Config::fromEnv(0x5a9b, 100);
    const CheckResult result = prop::check<TwoSamples>(
        config, twoSamples(),
        [](const TwoSamples &samples) -> std::optional<std::string> {
            const TestResult forward =
                pooledTTest(samples.xs, samples.ys);
            const TestResult reverse =
                pooledTTest(samples.ys, samples.xs);
            if (!close(forward.statistic, -reverse.statistic, 1e-12))
                return "statistic not antisymmetric";
            if (!close(forward.pValue, reverse.pValue, 1e-12))
                return "p-value not symmetric";
            if (!close(forward.df, reverse.df, 1e-12))
                return "df not symmetric";
            return std::nullopt;
        });
    WCT_EXPECT_PROP(result, config);
}

TEST(TTestProp, ShiftAndScaleInvariance)
{
    // Applying the same affine map a*x + c (a > 0) to both samples
    // must leave the t statistic and p-value unchanged.
    const Config config = Config::fromEnv(0xaff1, 100);
    const CheckResult result = prop::check<TwoSamples>(
        config, twoSamples(),
        [](const TwoSamples &samples) -> std::optional<std::string> {
            const double a = 2.5;
            const double c = -17.0;
            TwoSamples mapped = samples;
            for (double &x : mapped.xs)
                x = a * x + c;
            for (double &y : mapped.ys)
                y = a * y + c;
            const TestResult base =
                pooledTTest(samples.xs, samples.ys);
            const TestResult moved =
                pooledTTest(mapped.xs, mapped.ys);
            if (!close(base.statistic, moved.statistic, 1e-6))
                return "statistic moved: " +
                    prop::showDouble(base.statistic) + " vs " +
                    prop::showDouble(moved.statistic);
            if (std::abs(base.pValue - moved.pValue) > 1e-6)
                return "p moved: " + prop::showDouble(base.pValue) +
                    " vs " + prop::showDouble(moved.pValue);
            return std::nullopt;
        });
    WCT_EXPECT_PROP(result, config);
}

TEST(TTestProp, PooledMomentsFormMatchesSampleForm)
{
    const Config config = Config::fromEnv(0x900c, 100);
    const CheckResult result = prop::check<TwoSamples>(
        config, twoSamples(),
        [](const TwoSamples &samples) -> std::optional<std::string> {
            const TestResult direct =
                pooledTTest(samples.xs, samples.ys);
            const TestResult moments = pooledTTestFromMoments(
                oracle::meanTwoPass(samples.xs),
                oracle::sampleVarianceTwoPass(samples.xs),
                samples.xs.size(),
                oracle::meanTwoPass(samples.ys),
                oracle::sampleVarianceTwoPass(samples.ys),
                samples.ys.size());
            if (!close(direct.statistic, moments.statistic, 1e-9))
                return "statistic " +
                    prop::showDouble(direct.statistic) +
                    " vs moments form " +
                    prop::showDouble(moments.statistic);
            if (std::abs(direct.pValue - moments.pValue) > 1e-9)
                return "p " + prop::showDouble(direct.pValue) +
                    " vs moments form " +
                    prop::showDouble(moments.pValue);
            return std::nullopt;
        });
    WCT_EXPECT_PROP(result, config);
}

TEST(TTestProp, PValueShrinksAsTheShiftGrows)
{
    // Growing the separation between fixed-noise samples must not
    // increase the p-value (checked on a deterministic ladder).
    Rng rng(0x51a7);
    std::vector<double> base1;
    std::vector<double> base2;
    for (std::size_t i = 0; i < 40; ++i) {
        base1.push_back(rng.normal(0.0, 1.0));
        base2.push_back(rng.normal(0.0, 1.0));
    }
    double previous = 1.1;
    for (double shift : {1.0, 2.0, 4.0}) {
        std::vector<double> moved = base2;
        for (double &y : moved)
            y += shift;
        const double p = pooledTTest(base1, moved).pValue;
        EXPECT_LE(p, previous + 1e-12) << "shift " << shift;
        previous = p;
    }
}

TEST(TTestProp, IdenticalSamplesDoNotReject)
{
    const std::vector<double> xs{1.0, 2.0, 3.0, 4.0, 5.0};
    const TestResult result = pooledTTest(xs, xs);
    EXPECT_NEAR(result.statistic, 0.0, 1e-12);
    EXPECT_NEAR(result.pValue, 1.0, 1e-9);
    EXPECT_FALSE(result.rejectAt(0.05));
}

} // namespace
} // namespace wct
