#include "stats/distributions.hh"

#include <cmath>
#include <limits>

#include "util/logging.hh"

namespace wct
{

namespace
{

/**
 * Continued-fraction core of the incomplete beta (Numerical-Recipes
 * style modified Lentz algorithm). Valid for x < (a + 1)/(a + b + 2);
 * the public wrapper applies the symmetry transform otherwise.
 */
double
betaContinuedFraction(double a, double b, double x)
{
    constexpr int max_iterations = 300;
    constexpr double epsilon = 3.0e-14;
    constexpr double tiny = 1.0e-300;

    const double qab = a + b;
    const double qap = a + 1.0;
    const double qam = a - 1.0;

    double c = 1.0;
    double d = 1.0 - qab * x / qap;
    if (std::fabs(d) < tiny)
        d = tiny;
    d = 1.0 / d;
    double h = d;

    for (int m = 1; m <= max_iterations; ++m) {
        const double m2 = 2.0 * m;
        // Even step.
        double aa = m * (b - m) * x / ((qam + m2) * (a + m2));
        d = 1.0 + aa * d;
        if (std::fabs(d) < tiny)
            d = tiny;
        c = 1.0 + aa / c;
        if (std::fabs(c) < tiny)
            c = tiny;
        d = 1.0 / d;
        h *= d * c;
        // Odd step.
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2));
        d = 1.0 + aa * d;
        if (std::fabs(d) < tiny)
            d = tiny;
        c = 1.0 + aa / c;
        if (std::fabs(c) < tiny)
            c = tiny;
        d = 1.0 / d;
        const double del = d * c;
        h *= del;
        if (std::fabs(del - 1.0) < epsilon)
            return h;
    }
    wct_warn("incomplete beta continued fraction did not converge "
             "(a=", a, ", b=", b, ", x=", x, ")");
    return h;
}

} // namespace

double
incompleteBeta(double a, double b, double x)
{
    wct_assert(a > 0.0 && b > 0.0, "incompleteBeta needs a, b > 0");
    if (x <= 0.0)
        return 0.0;
    if (x >= 1.0)
        return 1.0;

    const double ln_front = std::lgamma(a + b) - std::lgamma(a) -
        std::lgamma(b) + a * std::log(x) + b * std::log1p(-x);
    const double front = std::exp(ln_front);

    if (x < (a + 1.0) / (a + b + 2.0))
        return front * betaContinuedFraction(a, b, x) / a;
    return 1.0 - front * betaContinuedFraction(b, a, 1.0 - x) / b;
}

double
normalCdf(double z)
{
    return 0.5 * std::erfc(-z / std::sqrt(2.0));
}

double
studentTTwoSidedP(double t, double df)
{
    const double x = df / (df + t * t);
    return incompleteBeta(df / 2.0, 0.5, x);
}

double
fisherFCdf(double f, double d1, double d2)
{
    wct_assert(d1 > 0.0 && d2 > 0.0, "fisherFCdf needs d1, d2 > 0");
    if (f <= 0.0)
        return 0.0;
    const double x = d1 * f / (d1 * f + d2);
    return incompleteBeta(d1 / 2.0, d2 / 2.0, x);
}

double
fisherFUpperP(double f, double d1, double d2)
{
    return 1.0 - fisherFCdf(f, d1, d2);
}

} // namespace wct
