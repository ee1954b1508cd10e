/**
 * @file
 * Probability distributions needed by the hypothesis tests: standard
 * normal, Student's t, and Fisher's F, all built on the regularized
 * incomplete beta function (continued-fraction evaluation).
 */

#ifndef WCT_STATS_DISTRIBUTIONS_HH
#define WCT_STATS_DISTRIBUTIONS_HH

namespace wct
{

/**
 * Regularized incomplete beta function I_x(a, b) for a, b > 0 and
 * x in [0, 1], evaluated with the Lentz continued fraction.
 */
double incompleteBeta(double a, double b, double x);

/** Standard normal cumulative distribution function. */
double normalCdf(double z);

/** Two-sided p-value for a t statistic. */
double studentTTwoSidedP(double t, double df);

/** Fisher F cumulative distribution function with d1, d2 > 0. */
double fisherFCdf(double f, double d1, double d2);

/** Upper-tail p-value for an F statistic. */
double fisherFUpperP(double f, double d1, double d2);

} // namespace wct

#endif // WCT_STATS_DISTRIBUTIONS_HH
