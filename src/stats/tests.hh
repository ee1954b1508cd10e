/**
 * @file
 * Two-sample hypothesis tests used by the transferability analysis
 * (Section VI-A of the paper): the two-sample t-test of Equations
 * 8-11, and the non-parametric alternatives the paper names
 * (Mann-Whitney U and Levene's variance test).
 */

#ifndef WCT_STATS_TESTS_HH
#define WCT_STATS_TESTS_HH

#include <span>

namespace wct
{

/** Outcome of a two-sample location/scale test. */
struct TestResult
{
    /** The test statistic (t, z, or F depending on the test). */
    double statistic = 0.0;

    /** Degrees of freedom (0 for z-approximated tests). */
    double df = 0.0;

    /** Two-sided p-value. */
    double pValue = 1.0;

    /** Standard error of the tested difference where defined. */
    double stderror = 0.0;

    /** True when the null hypothesis is rejected at level alpha. */
    bool rejectAt(double alpha) const { return pValue < alpha; }
};

/**
 * Two-sample t-test of Section VI-A (Equations 8-11). H0: the two
 * populations share a mean. The statistic divides the difference of
 * the means by the unpooled standard error
 * sqrt(var1/n1 + var2/n2) of Equation 10; the p-value is read at the
 * pooled n1 + n2 - 2 degrees of freedom.
 */
TestResult pooledTTest(std::span<const double> xs,
                       std::span<const double> ys);

/**
 * Summary-statistics form of the pooled t-test, matching the formulae
 * of Section VI-A.1 (Equations 8-11): the caller supplies means,
 * unbiased variances, and counts.
 */
TestResult pooledTTestFromMoments(double mean1, double var1,
                                  std::size_t n1, double mean2,
                                  double var2, std::size_t n2);

/**
 * Mann-Whitney U test with normal approximation and tie correction.
 * H0: equal distributions (sensitive to location shift).
 */
TestResult mannWhitneyUTest(std::span<const double> xs,
                            std::span<const double> ys);

/**
 * Levene's test for equality of variances (two groups, centered on
 * the group means as in Levene's original formulation).
 */
TestResult leveneTest(std::span<const double> xs,
                      std::span<const double> ys);

} // namespace wct

#endif // WCT_STATS_TESTS_HH
