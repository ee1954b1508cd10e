/**
 * @file
 * Unit tests for descriptive statistics.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "stats/descriptive.hh"
#include "util/rng.hh"

namespace wct
{
namespace
{

const std::vector<double> kSample = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0,
                                     9.0};

TEST(MeanTest, KnownValue)
{
    EXPECT_DOUBLE_EQ(mean(kSample), 5.0);
}

TEST(VarianceTest, SampleVsPopulation)
{
    // Sum of squared deviations is 32.
    EXPECT_NEAR(sampleVariance(kSample), 32.0 / 7.0, 1e-12);
    EXPECT_NEAR(sampleStddev(kSample), std::sqrt(32.0 / 7.0), 1e-12);
}

TEST(VarianceTest, DegenerateInputs)
{
    const std::vector<double> one = {3.0};
    EXPECT_DOUBLE_EQ(sampleVariance(one), 0.0);
    const std::vector<double> constant = {2.0, 2.0, 2.0};
    EXPECT_DOUBLE_EQ(sampleVariance(constant), 0.0);
}

TEST(MedianTest, OddAndEven)
{
    const std::vector<double> odd = {3.0, 1.0, 2.0};
    EXPECT_DOUBLE_EQ(median(odd), 2.0);
    const std::vector<double> even = {4.0, 1.0, 3.0, 2.0};
    EXPECT_DOUBLE_EQ(median(even), 2.5);
}

TEST(QuantileTest, EndpointsAndInterpolation)
{
    const std::vector<double> xs = {10.0, 20.0, 30.0, 40.0};
    EXPECT_DOUBLE_EQ(quantile(xs, 0.0), 10.0);
    EXPECT_DOUBLE_EQ(quantile(xs, 1.0), 40.0);
    EXPECT_DOUBLE_EQ(quantile(xs, 0.5), 25.0);
    EXPECT_NEAR(quantile(xs, 0.25), 17.5, 1e-12);
}

TEST(CovarianceTest, LinearRelation)
{
    const std::vector<double> xs = {1.0, 2.0, 3.0, 4.0};
    std::vector<double> ys;
    for (double x : xs)
        ys.push_back(3.0 * x + 1.0);
    EXPECT_NEAR(sampleCovariance(xs, ys), 3.0 * sampleVariance(xs),
                1e-12);
    EXPECT_NEAR(pearsonCorrelation(xs, ys), 1.0, 1e-12);
}

TEST(CorrelationTest, PerfectNegative)
{
    const std::vector<double> xs = {1.0, 2.0, 3.0};
    const std::vector<double> ys = {6.0, 4.0, 2.0};
    EXPECT_NEAR(pearsonCorrelation(xs, ys), -1.0, 1e-12);
}

TEST(CorrelationTest, DegenerateSideGivesZero)
{
    const std::vector<double> xs = {1.0, 1.0, 1.0};
    const std::vector<double> ys = {1.0, 2.0, 3.0};
    EXPECT_DOUBLE_EQ(pearsonCorrelation(xs, ys), 0.0);
}

TEST(CorrelationTest, IndependentNearZero)
{
    Rng rng(101);
    std::vector<double> xs, ys;
    for (int i = 0; i < 20000; ++i) {
        xs.push_back(rng.normal());
        ys.push_back(rng.normal());
    }
    EXPECT_NEAR(pearsonCorrelation(xs, ys), 0.0, 0.03);
}

} // namespace
} // namespace wct
