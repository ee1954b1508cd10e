/**
 * @file
 * Unit and property tests for the two-sample hypothesis tests.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "stats/descriptive.hh"
#include "stats/tests.hh"
#include "util/rng.hh"

namespace wct
{
namespace
{

std::vector<double>
normalSample(Rng &rng, std::size_t n, double mean, double sd)
{
    std::vector<double> xs;
    xs.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        xs.push_back(rng.normal(mean, sd));
    return xs;
}

TEST(PooledTTest, AcceptsIdenticalPopulations)
{
    Rng rng(1);
    const auto xs = normalSample(rng, 5000, 1.0, 0.5);
    const auto ys = normalSample(rng, 5000, 1.0, 0.5);
    const auto r = pooledTTest(xs, ys);
    EXPECT_FALSE(r.rejectAt(0.05));
    EXPECT_LT(std::fabs(r.statistic), 1.96);
}

TEST(PooledTTest, RejectsShiftedPopulations)
{
    Rng rng(2);
    const auto xs = normalSample(rng, 5000, 1.0, 0.5);
    const auto ys = normalSample(rng, 5000, 1.25, 0.6);
    const auto r = pooledTTest(xs, ys);
    EXPECT_TRUE(r.rejectAt(0.05));
    EXPECT_GT(std::fabs(r.statistic), 10.0);
}

TEST(PooledTTest, AntisymmetricUnderSwap)
{
    Rng rng(3);
    const auto xs = normalSample(rng, 200, 0.0, 1.0);
    const auto ys = normalSample(rng, 300, 0.3, 1.2);
    const auto ab = pooledTTest(xs, ys);
    const auto ba = pooledTTest(ys, xs);
    EXPECT_NEAR(ab.statistic, -ba.statistic, 1e-12);
    EXPECT_NEAR(ab.pValue, ba.pValue, 1e-12);
    EXPECT_DOUBLE_EQ(ab.df, ba.df);
}

TEST(PooledTTest, MomentsFormMatchesRawForm)
{
    Rng rng(4);
    const auto xs = normalSample(rng, 150, 2.0, 0.7);
    const auto ys = normalSample(rng, 250, 2.1, 0.8);
    const auto raw = pooledTTest(xs, ys);

    double mx = 0.0, my = 0.0;
    for (double x : xs)
        mx += x;
    mx /= xs.size();
    for (double y : ys)
        my += y;
    my /= ys.size();
    double vx = 0.0, vy = 0.0;
    for (double x : xs)
        vx += (x - mx) * (x - mx);
    vx /= (xs.size() - 1);
    for (double y : ys)
        vy += (y - my) * (y - my);
    vy /= (ys.size() - 1);

    const auto mom = pooledTTestFromMoments(mx, vx, xs.size(), my, vy,
                                            ys.size());
    EXPECT_NEAR(raw.statistic, mom.statistic, 1e-10);
    EXPECT_NEAR(raw.pValue, mom.pValue, 1e-10);
}

TEST(PooledTTest, DegenerateConstantSamples)
{
    const std::vector<double> xs = {2.0, 2.0, 2.0};
    const std::vector<double> same = {2.0, 2.0};
    const std::vector<double> other = {3.0, 3.0};
    EXPECT_NEAR(pooledTTest(xs, same).pValue, 1.0, 1e-12);
    EXPECT_NEAR(pooledTTest(xs, other).pValue, 0.0, 1e-12);
}

TEST(TTestFalsePositiveRate, NearNominalAlpha)
{
    // Property: under H0 the rejection rate should be ~alpha.
    Rng rng(7);
    int rejections = 0;
    constexpr int trials = 400;
    for (int i = 0; i < trials; ++i) {
        const auto xs = normalSample(rng, 60, 5.0, 1.0);
        const auto ys = normalSample(rng, 60, 5.0, 1.0);
        rejections += pooledTTest(xs, ys).rejectAt(0.05);
    }
    const double rate = rejections / double(trials);
    EXPECT_GT(rate, 0.01);
    EXPECT_LT(rate, 0.11);
}

TEST(MannWhitneyTest, AcceptsIdenticalPopulations)
{
    Rng rng(8);
    const auto xs = normalSample(rng, 1000, 0.0, 1.0);
    const auto ys = normalSample(rng, 1000, 0.0, 1.0);
    EXPECT_FALSE(mannWhitneyUTest(xs, ys).rejectAt(0.05));
}

TEST(MannWhitneyTest, RejectsShiftedPopulations)
{
    Rng rng(9);
    const auto xs = normalSample(rng, 1000, 0.0, 1.0);
    const auto ys = normalSample(rng, 1000, 0.8, 1.0);
    EXPECT_TRUE(mannWhitneyUTest(xs, ys).rejectAt(0.001));
}

TEST(MannWhitneyTest, RobustToOutliers)
{
    // A single enormous outlier should not flip the conclusion, unlike
    // for the mean-based t-test with tiny samples.
    std::vector<double> xs = {1.0, 2.0, 3.0, 4.0, 5.0,
                              6.0, 7.0, 8.0, 9.0, 10.0};
    std::vector<double> ys = {1.1, 2.1, 3.1, 4.1, 5.1,
                              6.1, 7.1, 8.1, 9.1, 1e9};
    EXPECT_FALSE(mannWhitneyUTest(xs, ys).rejectAt(0.05));
}

TEST(MannWhitneyTest, AllTiedGivesPValueOne)
{
    const std::vector<double> xs = {5.0, 5.0, 5.0};
    const std::vector<double> ys = {5.0, 5.0};
    EXPECT_DOUBLE_EQ(mannWhitneyUTest(xs, ys).pValue, 1.0);
}

TEST(LeveneTest, AcceptsEqualVariances)
{
    Rng rng(10);
    const auto xs = normalSample(rng, 2000, 0.0, 1.0);
    const auto ys = normalSample(rng, 2000, 5.0, 1.0);
    // Levene tests scale, not location: the mean shift is irrelevant.
    EXPECT_FALSE(leveneTest(xs, ys).rejectAt(0.05));
}

TEST(LeveneTest, RejectsUnequalVariances)
{
    Rng rng(11);
    const auto xs = normalSample(rng, 2000, 0.0, 1.0);
    const auto ys = normalSample(rng, 2000, 0.0, 2.0);
    EXPECT_TRUE(leveneTest(xs, ys).rejectAt(0.001));
}

TEST(LeveneTest, ConstantSamples)
{
    const std::vector<double> xs = {1.0, 1.0, 1.0};
    const std::vector<double> ys = {2.0, 2.0, 2.0};
    EXPECT_NEAR(leveneTest(xs, ys).pValue, 1.0, 1e-12);
}

// Parameterised sweep: detection power grows with the mean shift.
class TTestPowerSweep : public ::testing::TestWithParam<double>
{
};

TEST_P(TTestPowerSweep, LargeShiftAlwaysDetected)
{
    const double shift = GetParam();
    Rng rng(12);
    const auto xs = normalSample(rng, 3000, 1.0, 0.5);
    const auto ys = normalSample(rng, 3000, 1.0 + shift, 0.5);
    const auto r = pooledTTest(xs, ys);
    if (shift >= 0.1) {
        EXPECT_TRUE(r.rejectAt(0.05)) << "shift=" << shift;
    } else if (shift == 0.0) {
        EXPECT_FALSE(r.rejectAt(0.0001)) << "shift=" << shift;
    }
}

INSTANTIATE_TEST_SUITE_P(Shifts, TTestPowerSweep,
                         ::testing::Values(0.0, 0.1, 0.25, 0.5, 1.0));

} // namespace
} // namespace wct
