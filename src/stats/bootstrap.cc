#include "stats/bootstrap.hh"

#include <algorithm>
#include <cstdint>

#include "stats/descriptive.hh"
#include "util/logging.hh"
#include "util/thread_pool.hh"

namespace wct
{

namespace
{

/**
 * Replicates evaluated concurrently per block: the index draws stay
 * on the caller's thread in replicate order (the exact rng call
 * sequence of a serial loop, so results are bit-identical at any
 * thread count), while the statistic evaluations — the expensive
 * part — fan out over pre-drawn index sets. Blocking bounds the
 * buffered indices to kBlock * n.
 */
constexpr std::size_t kReplicateBlock = 64;

template <typename Evaluate>
std::vector<double>
replicateBlocks(std::size_t n, std::size_t replicates, Rng &rng,
                Evaluate evaluate)
{
    wct_assert(n <= std::uint32_t(-1),
               "bootstrap indexes samples with 32 bits");
    std::vector<double> replicas(replicates);
    std::vector<std::vector<std::uint32_t>> indices(
        std::min(kReplicateBlock, replicates));
    std::size_t done = 0;
    while (done < replicates) {
        const std::size_t block =
            std::min(kReplicateBlock, replicates - done);
        for (std::size_t b = 0; b < block; ++b) {
            indices[b].resize(n);
            for (std::size_t i = 0; i < n; ++i)
                indices[b][i] = static_cast<std::uint32_t>(
                    rng.uniformInt(n));
        }
        parallelFor(
            block,
            [&](std::size_t b) {
                replicas[done + b] = evaluate(indices[b]);
            },
            ThreadPool::global(), /*min_chunk=*/4);
        done += block;
    }
    return replicas;
}

ConfidenceInterval
percentileInterval(std::vector<double> &replicas, double point,
                   double confidence)
{
    std::sort(replicas.begin(), replicas.end());
    const double alpha = (1.0 - confidence) / 2.0;
    ConfidenceInterval ci;
    ci.pointEstimate = point;
    ci.lower = quantile(replicas, alpha);
    ci.upper = quantile(replicas, 1.0 - alpha);
    return ci;
}

} // namespace

ConfidenceInterval
bootstrapPairedCi(
    std::span<const double> xs, std::span<const double> ys,
    const std::function<double(std::span<const double>,
                               std::span<const double>)> &statistic,
    Rng &rng, std::size_t replicates, double confidence)
{
    wct_assert(xs.size() == ys.size(),
               "paired bootstrap size mismatch: ", xs.size(), " vs ",
               ys.size());
    wct_assert(!xs.empty(), "bootstrap of an empty sample");
    wct_assert(replicates >= 10, "too few bootstrap replicates");
    wct_assert(confidence > 0.0 && confidence < 1.0,
               "confidence out of (0, 1): ", confidence);

    const std::size_t n = xs.size();
    std::vector<double> replicas = replicateBlocks(
        n, replicates, rng,
        [&](const std::vector<std::uint32_t> &idx) {
            std::vector<double> rx(n);
            std::vector<double> ry(n);
            for (std::size_t i = 0; i < n; ++i) {
                rx[i] = xs[idx[i]];
                ry[i] = ys[idx[i]];
            }
            return statistic(rx, ry);
        });
    return percentileInterval(replicas, statistic(xs, ys),
                              confidence);
}

} // namespace wct
