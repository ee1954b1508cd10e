#include "stats/descriptive.hh"

#include <algorithm>
#include <cmath>

#include "util/logging.hh"

namespace wct
{

double
mean(std::span<const double> xs)
{
    wct_assert(!xs.empty(), "mean of empty sequence");
    double sum = 0.0;
    for (double x : xs)
        sum += x;
    return sum / static_cast<double>(xs.size());
}

double
sampleVariance(std::span<const double> xs)
{
    if (xs.size() < 2)
        return 0.0;
    const double m = mean(xs);
    double ss = 0.0;
    for (double x : xs) {
        const double d = x - m;
        ss += d * d;
    }
    return ss / static_cast<double>(xs.size() - 1);
}

double
sampleStddev(std::span<const double> xs)
{
    return std::sqrt(sampleVariance(xs));
}

double
median(std::span<const double> xs)
{
    return quantile(xs, 0.5);
}

double
quantile(std::span<const double> xs, double q)
{
    wct_assert(!xs.empty(), "quantile of empty sequence");
    wct_assert(q >= 0.0 && q <= 1.0, "quantile out of range: ", q);
    for (double x : xs)
        wct_assert(!std::isnan(x), "quantile of sequence with NaN");
    std::vector<double> sorted(xs.begin(), xs.end());
    std::sort(sorted.begin(), sorted.end());
    const double pos = q * static_cast<double>(sorted.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    if (lo + 1 >= sorted.size())
        return sorted.back();
    const double frac = pos - static_cast<double>(lo);
    return sorted[lo] * (1.0 - frac) + sorted[lo + 1] * frac;
}

double
sampleCovariance(std::span<const double> xs, std::span<const double> ys)
{
    wct_assert(xs.size() == ys.size(), "covariance size mismatch: ",
               xs.size(), " vs ", ys.size());
    if (xs.size() < 2)
        return 0.0;
    const double mx = mean(xs);
    const double my = mean(ys);
    double acc = 0.0;
    for (std::size_t i = 0; i < xs.size(); ++i)
        acc += (xs[i] - mx) * (ys[i] - my);
    return acc / static_cast<double>(xs.size() - 1);
}

double
pearsonCorrelation(std::span<const double> xs, std::span<const double> ys)
{
    const double cov = sampleCovariance(xs, ys);
    const double sx = sampleStddev(xs);
    const double sy = sampleStddev(ys);
    if (sx == 0.0 || sy == 0.0)
        return 0.0;
    // Rounding on near-collinear data can push |r| past 1.
    return std::clamp(cov / (sx * sy), -1.0, 1.0);
}

} // namespace wct
