/**
 * @file
 * Numerical cross-checks of the distribution functions against known
 * reference values (R / standard tables).
 */

#include <gtest/gtest.h>

#include "stats/distributions.hh"

namespace wct
{
namespace
{

TEST(IncompleteBetaTest, Endpoints)
{
    EXPECT_DOUBLE_EQ(incompleteBeta(2.0, 3.0, 0.0), 0.0);
    EXPECT_DOUBLE_EQ(incompleteBeta(2.0, 3.0, 1.0), 1.0);
}

TEST(IncompleteBetaTest, SymmetryIdentity)
{
    // I_x(a, b) = 1 - I_{1-x}(b, a).
    for (double x : {0.1, 0.3, 0.5, 0.7, 0.9}) {
        EXPECT_NEAR(incompleteBeta(2.5, 1.5, x),
                    1.0 - incompleteBeta(1.5, 2.5, 1.0 - x), 1e-12);
    }
}

TEST(IncompleteBetaTest, UniformSpecialCase)
{
    // I_x(1, 1) = x.
    for (double x : {0.2, 0.4, 0.6, 0.8})
        EXPECT_NEAR(incompleteBeta(1.0, 1.0, x), x, 1e-12);
}

TEST(IncompleteBetaTest, KnownValue)
{
    // I_0.5(2, 2) = 0.5 by symmetry; I_0.25(2, 2) = 0.15625
    // (CDF of Beta(2,2) is 3x^2 - 2x^3).
    EXPECT_NEAR(incompleteBeta(2.0, 2.0, 0.5), 0.5, 1e-12);
    EXPECT_NEAR(incompleteBeta(2.0, 2.0, 0.25), 0.15625, 1e-12);
}

TEST(NormalCdfTest, StandardValues)
{
    EXPECT_NEAR(normalCdf(0.0), 0.5, 1e-14);
    EXPECT_NEAR(normalCdf(1.959963985), 0.975, 1e-9);
    EXPECT_NEAR(normalCdf(-1.959963985), 0.025, 1e-9);
    EXPECT_NEAR(normalCdf(1.0), 0.8413447461, 1e-9);
    EXPECT_NEAR(normalCdf(-2.326347874), 0.01, 1e-9);
}

TEST(StudentTTest, TwoSidedPValue)
{
    // P(|T_10| > 2.228...) = 0.05.
    EXPECT_NEAR(studentTTwoSidedP(2.228138852, 10.0), 0.05, 1e-6);
    EXPECT_NEAR(studentTTwoSidedP(0.0, 10.0), 1.0, 1e-12);
    EXPECT_LT(studentTTwoSidedP(125.0, 300000.0), 1e-12);
}

TEST(FisherFTest, KnownValues)
{
    // F(1, 10) upper 5% critical value is 4.9646.
    EXPECT_NEAR(fisherFCdf(4.9646, 1.0, 10.0), 0.95, 1e-4);
    // F(5, 20) upper 5% critical value is 2.7109.
    EXPECT_NEAR(fisherFCdf(2.7109, 5.0, 20.0), 0.95, 1e-4);
    EXPECT_DOUBLE_EQ(fisherFCdf(0.0, 3.0, 7.0), 0.0);
}

TEST(FisherFTest, RelationToStudentT)
{
    // T_df^2 ~ F(1, df): P(F <= t^2) = P(|T| <= t).
    const double t = 1.7;
    const double df = 14.0;
    EXPECT_NEAR(fisherFCdf(t * t, 1.0, df),
                1.0 - studentTTwoSidedP(t, df), 1e-10);
}

TEST(FisherFTest, UpperPComplement)
{
    EXPECT_NEAR(fisherFUpperP(2.0, 4.0, 9.0) + fisherFCdf(2.0, 4.0, 9.0),
                1.0, 1e-12);
}

} // namespace
} // namespace wct
