#include "stats/tests.hh"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "stats/descriptive.hh"
#include "stats/distributions.hh"
#include "util/logging.hh"

namespace wct
{

TestResult
pooledTTest(std::span<const double> xs, std::span<const double> ys)
{
    wct_assert(xs.size() >= 2 && ys.size() >= 2,
               "t-test needs at least two observations per sample");
    return pooledTTestFromMoments(mean(xs), sampleVariance(xs), xs.size(),
                                  mean(ys), sampleVariance(ys), ys.size());
}

TestResult
pooledTTestFromMoments(double mean1, double var1, std::size_t n1,
                       double mean2, double var2, std::size_t n2)
{
    wct_assert(n1 >= 2 && n2 >= 2,
               "t-test needs at least two observations per sample");
    const double fn1 = static_cast<double>(n1);
    const double fn2 = static_cast<double>(n2);

    TestResult r;
    r.df = fn1 + fn2 - 2.0;
    // Section VI uses the unpooled standard error of the difference
    // (Equation 10) with the pooled degrees of freedom; for the large
    // similar-sized samples of the paper the two coincide closely.
    r.stderror = std::sqrt(var1 / fn1 + var2 / fn2);
    if (r.stderror == 0.0) {
        r.statistic = (mean1 == mean2)
            ? 0.0 : std::numeric_limits<double>::infinity();
        r.pValue = (mean1 == mean2) ? 1.0 : 0.0;
        return r;
    }
    r.statistic = (mean1 - mean2) / r.stderror;
    r.pValue = studentTTwoSidedP(r.statistic, r.df);
    return r;
}

TestResult
mannWhitneyUTest(std::span<const double> xs, std::span<const double> ys)
{
    wct_assert(!xs.empty() && !ys.empty(),
               "Mann-Whitney needs non-empty samples");
    const std::size_t n1 = xs.size();
    const std::size_t n2 = ys.size();

    struct Tagged
    {
        double value;
        bool fromFirst;
    };
    std::vector<Tagged> all;
    all.reserve(n1 + n2);
    for (double x : xs)
        all.push_back({x, true});
    for (double y : ys)
        all.push_back({y, false});
    std::sort(all.begin(), all.end(),
              [](const Tagged &a, const Tagged &b) {
                  return a.value < b.value;
              });

    // Midranks with tie bookkeeping for the variance correction.
    double rank_sum_first = 0.0;
    double tie_correction = 0.0;
    std::size_t i = 0;
    while (i < all.size()) {
        std::size_t j = i;
        while (j + 1 < all.size() && all[j + 1].value == all[i].value)
            ++j;
        const double midrank =
            (static_cast<double>(i + 1) + static_cast<double>(j + 1)) / 2.0;
        const double ties = static_cast<double>(j - i + 1);
        if (ties > 1.0)
            tie_correction += ties * (ties * ties - 1.0);
        for (std::size_t k = i; k <= j; ++k)
            if (all[k].fromFirst)
                rank_sum_first += midrank;
        i = j + 1;
    }

    const double fn1 = static_cast<double>(n1);
    const double fn2 = static_cast<double>(n2);
    const double n = fn1 + fn2;
    const double u1 = rank_sum_first - fn1 * (fn1 + 1.0) / 2.0;
    const double mean_u = fn1 * fn2 / 2.0;
    double var_u = fn1 * fn2 / 12.0 *
        ((n + 1.0) - tie_correction / (n * (n - 1.0)));

    TestResult r;
    r.statistic = u1;
    r.df = 0.0;
    if (var_u <= 0.0) {
        // All observations tied: the samples are indistinguishable.
        r.pValue = 1.0;
        return r;
    }
    // Continuity-corrected normal approximation.
    const double z =
        (u1 - mean_u - (u1 > mean_u ? 0.5 : -0.5)) / std::sqrt(var_u);
    r.stderror = std::sqrt(var_u);
    r.pValue = 2.0 * (1.0 - normalCdf(std::fabs(z)));
    r.pValue = std::clamp(r.pValue, 0.0, 1.0);
    return r;
}

TestResult
leveneTest(std::span<const double> xs, std::span<const double> ys)
{
    wct_assert(xs.size() >= 2 && ys.size() >= 2,
               "Levene test needs at least two observations per sample");
    const double mx = mean(xs);
    const double my = mean(ys);

    std::vector<double> zx;
    zx.reserve(xs.size());
    for (double x : xs)
        zx.push_back(std::fabs(x - mx));
    std::vector<double> zy;
    zy.reserve(ys.size());
    for (double y : ys)
        zy.push_back(std::fabs(y - my));

    const double n1 = static_cast<double>(zx.size());
    const double n2 = static_cast<double>(zy.size());
    const double n = n1 + n2;
    const double mzx = mean(zx);
    const double mzy = mean(zy);
    const double mz = (mzx * n1 + mzy * n2) / n;

    const double between =
        n1 * (mzx - mz) * (mzx - mz) + n2 * (mzy - mz) * (mzy - mz);
    double within = 0.0;
    for (double z : zx)
        within += (z - mzx) * (z - mzx);
    for (double z : zy)
        within += (z - mzy) * (z - mzy);

    TestResult r;
    r.df = n - 2.0;
    if (within == 0.0) {
        r.statistic = between == 0.0
            ? 0.0 : std::numeric_limits<double>::infinity();
        r.pValue = between == 0.0 ? 1.0 : 0.0;
        return r;
    }
    // One-way ANOVA F on the absolute deviations, k = 2 groups.
    r.statistic = (between / 1.0) / (within / (n - 2.0));
    r.pValue = fisherFUpperP(r.statistic, 1.0, n - 2.0);
    return r;
}

} // namespace wct
