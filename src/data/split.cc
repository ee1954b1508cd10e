#include "data/split.hh"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "util/logging.hh"

namespace wct
{

std::vector<std::size_t>
sampleIndices(std::size_t population, std::size_t count, Rng &rng)
{
    wct_assert(count <= population,
               "cannot draw ", count, " from ", population);
    std::vector<std::size_t> all(population);
    std::iota(all.begin(), all.end(), std::size_t(0));
    // Partial Fisher-Yates: after i steps the first i slots hold a
    // uniform sample without replacement.
    for (std::size_t i = 0; i < count; ++i) {
        std::size_t j = i + rng.uniformInt(population - i);
        std::swap(all[i], all[j]);
    }
    all.resize(count);
    return all;
}

namespace
{

std::size_t
fractionCount(std::size_t population, double fraction)
{
    wct_assert(fraction > 0.0 && fraction <= 1.0,
               "fraction out of (0, 1]: ", fraction);
    if (population == 0)
        return 0;
    auto count = static_cast<std::size_t>(
        std::llround(fraction * static_cast<double>(population)));
    return std::clamp<std::size_t>(count, 1, population);
}

} // namespace

Dataset
sampleFraction(const Dataset &data, double fraction, Rng &rng)
{
    const std::size_t count = fractionCount(data.numRows(), fraction);
    return data.selectRows(sampleIndices(data.numRows(), count, rng));
}

TrainTestSplit
randomSplit(const Dataset &data, double train_fraction, Rng &rng)
{
    const std::size_t n = data.numRows();
    const std::size_t train_n = fractionCount(n, train_fraction);
    std::vector<std::size_t> all(n);
    std::iota(all.begin(), all.end(), std::size_t(0));
    rng.shuffle(all);

    TrainTestSplit out;
    out.train = data.selectRows(
        {all.begin(), all.begin() + static_cast<std::ptrdiff_t>(train_n)});
    out.test = data.selectRows(
        {all.begin() + static_cast<std::ptrdiff_t>(train_n), all.end()});
    return out;
}

TrainTestSplit
disjointFractions(const Dataset &data, double fraction, Rng &rng)
{
    const std::size_t n = data.numRows();
    const std::size_t count = fractionCount(n, fraction);
    wct_assert(2 * count <= n,
               "two disjoint fractions of ", fraction,
               " do not fit in ", n, " rows");
    std::vector<std::size_t> all(n);
    std::iota(all.begin(), all.end(), std::size_t(0));
    rng.shuffle(all);

    TrainTestSplit out;
    out.train = data.selectRows(
        {all.begin(), all.begin() + static_cast<std::ptrdiff_t>(count)});
    out.test = data.selectRows(
        {all.begin() + static_cast<std::ptrdiff_t>(count),
         all.begin() + static_cast<std::ptrdiff_t>(2 * count)});
    return out;
}

} // namespace wct
