/**
 * @file
 * Tests for the bootstrap confidence intervals.
 */

#include <gtest/gtest.h>

#include "stats/bootstrap.hh"
#include "stats/descriptive.hh"
#include "stats/metrics.hh"

namespace wct
{
namespace
{

double
maeStat(std::span<const double> predicted,
        std::span<const double> actual)
{
    return meanAbsoluteError(predicted, actual);
}

TEST(BootstrapTest, IntervalPredicates)
{
    ConfidenceInterval ci;
    ci.lower = 0.8;
    ci.upper = 0.9;
    EXPECT_TRUE(ci.contains(0.85));
    EXPECT_FALSE(ci.contains(0.95));
    EXPECT_NEAR(ci.width(), 0.1, 1e-12);
}

TEST(BootstrapPairedTest, CorrelationCiTight)
{
    Rng rng(6);
    std::vector<double> actual;
    std::vector<double> predicted;
    for (int i = 0; i < 2000; ++i) {
        const double a = rng.uniform(0.0, 2.0);
        actual.push_back(a);
        predicted.push_back(a + rng.normal(0.0, 0.1));
    }
    const auto ci = bootstrapPairedCi(
        predicted, actual,
        [](std::span<const double> p, std::span<const double> a) {
            return pearsonCorrelation(p, a);
        },
        rng, 800);
    EXPECT_GT(ci.lower, 0.97);
    EXPECT_LE(ci.upper, 1.0 + 1e-12);
    EXPECT_LT(ci.width(), 0.02);
}

TEST(BootstrapPairedTest, PairingIsPreserved)
{
    // Statistic sensitive to pairing: MAE of a perfect predictor is
    // 0 in every resample only if pairs stay together.
    Rng rng(8);
    std::vector<double> actual;
    for (int i = 0; i < 500; ++i)
        actual.push_back(rng.uniform(0.0, 10.0));
    const auto ci = bootstrapPairedCi(actual, actual, maeStat, rng, 300);
    EXPECT_DOUBLE_EQ(ci.lower, 0.0);
    EXPECT_DOUBLE_EQ(ci.upper, 0.0);
}

TEST(BootstrapPairedTest, DeterministicGivenSeed)
{
    Rng data_rng(5);
    std::vector<double> actual;
    std::vector<double> predicted;
    for (int i = 0; i < 200; ++i) {
        actual.push_back(data_rng.normal(1.0, 0.5));
        predicted.push_back(actual.back() + data_rng.normal(0.0, 0.1));
    }
    Rng a(7);
    Rng b(7);
    const auto ci_a = bootstrapPairedCi(predicted, actual, maeStat, a, 500);
    const auto ci_b = bootstrapPairedCi(predicted, actual, maeStat, b, 500);
    EXPECT_DOUBLE_EQ(ci_a.lower, ci_b.lower);
    EXPECT_DOUBLE_EQ(ci_a.upper, ci_b.upper);
}

TEST(BootstrapDeathTest, InvalidArguments)
{
    Rng rng(9);
    const std::vector<double> xs = {1.0, 2.0};
    EXPECT_DEATH(bootstrapPairedCi({}, {}, maeStat, rng), "empty");
    EXPECT_DEATH(bootstrapPairedCi(xs, xs, maeStat, rng, 5),
                 "replicates");
    EXPECT_DEATH(bootstrapPairedCi(xs, xs, maeStat, rng, 100, 1.5),
                 "confidence");
}

} // namespace
} // namespace wct
