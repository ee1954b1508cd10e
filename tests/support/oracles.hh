/**
 * @file
 * Naive reference oracles for differential testing.
 *
 * Every function here is an intentionally simple, obviously-correct
 * (textbook) implementation of something the library computes with a
 * cleverer algorithm: the prefix-sum SDR split search, the
 * Cholesky/Gram OLS solver, the L1 profile distance, the two-sample
 * t statistic with its incomplete-beta p-value, and the sample
 * variance. The property tests in tests/prop/ drive both
 * implementations over randomized inputs and require agreement
 * within floating-point tolerance; any divergence is a bug in one of
 * the two (and with this much asymmetry in complexity, almost always
 * in the optimized one).
 *
 * These oracles deliberately avoid the production code paths: no
 * prefix sums, no Gram matrices, no incomplete beta — the p-value
 * comes from direct Simpson integration of the t density using only
 * std::lgamma. The one exception is sortedNodeSplit, which is not an
 * oracle but the harness that feeds the production split kernel.
 *
 * The simulator structures have oracles too: the plain cache (one
 * struct per line, a full scan of the set on every access) and the
 * full-ring store-buffer check that the memoized, prefix-scanning
 * CacheModel and the early-stopping StoreBuffer::checkLoad replaced.
 * Those must agree exactly, not within a tolerance.
 */

#ifndef WCT_TESTS_SUPPORT_ORACLES_HH
#define WCT_TESTS_SUPPORT_ORACLES_HH

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "mtree/split_search.hh"
#include "uarch/cache.hh"
#include "uarch/store_buffer.hh"

namespace wct
{
namespace oracle
{

/** One (attribute value, target) observation of a split search. */
struct Observation
{
    double value = 0.0;
    double target = 0.0;
};

/**
 * Exhaustive O(n²) SDR split search: sort, then for every admissible
 * boundary recompute both side deviations from scratch with two-pass
 * mean/variance. Mirrors the tie-breaking contract of
 * findBestSdrSplitPresorted (strict improvement keeps the lowest
 * boundary).
 */
SplitCandidate bestSdrSplitExhaustive(
    std::vector<Observation> observations, double node_sd,
    std::size_t min_leaf);

/**
 * The production kernel, findBestSdrSplitPresorted, over a node
 * sorted here: the observations are stably sorted by value (equal
 * values keep the caller's order, as the presorted builder keeps
 * them in row order) and handed over as the value and target arrays
 * the kernel reads.
 */
SplitCandidate sortedNodeSplit(std::vector<Observation> observations,
                               double node_sd, std::size_t min_leaf);

/** Two-pass arithmetic mean (undefined on empty input). */
double meanTwoPass(std::span<const double> xs);

/** Two-pass unbiased sample variance; 0 for n < 2. */
double sampleVarianceTwoPass(std::span<const double> xs);

/** Closed-form simple regression y = b0 + b1 x (Cramer's rule). */
struct Ols1Fit
{
    double b0 = 0.0;
    double b1 = 0.0;
};

/** Returns nullopt when x is constant (singular system). */
std::optional<Ols1Fit> ols1(std::span<const double> x,
                            std::span<const double> y);

/** Closed-form two-feature regression y = b0 + b1 x1 + b2 x2. */
struct Ols2Fit
{
    double b0 = 0.0;
    double b1 = 0.0;
    double b2 = 0.0;
};

/** Returns nullopt when the 3x3 normal system is near singular. */
std::optional<Ols2Fit> ols2(std::span<const double> x1,
                            std::span<const double> x2,
                            std::span<const double> y);

/** Brute-force L1 profile distance 0.5 * sum |a_i - b_i|. */
double l1ProfileDistance(std::span<const double> a,
                         std::span<const double> b);

/**
 * Welch's t statistic (mean1 - mean2) / sqrt(var1/n1 + var2/n2) with
 * two-pass moments — the unpooled standard error of Equation 10 of
 * the paper; 0 or +inf when both samples are constant.
 */
double welch(std::span<const double> xs, std::span<const double> ys);

/**
 * Two-sided Student-t p-value by Simpson integration of the density
 * (normalization via std::lgamma) — an implementation sharing no
 * code or algorithm with stats/distributions.
 */
double studentTTwoSidedPBySimpson(double t, double df);

/**
 * Reference set-associative cache: every line is a struct with a
 * valid bit, every access scans its whole set, and the victim search
 * looks for an invalid way before applying the policy. Same policies,
 * same xorshift victim stream and same counters as CacheModel.
 */
class PlainCache
{
  public:
    explicit PlainCache(const CacheConfig &config);

    bool access(std::uint64_t addr);
    bool contains(std::uint64_t addr) const;
    void reset();

    std::uint64_t accesses() const { return accesses_; }
    std::uint64_t misses() const { return misses_; }

  private:
    struct Line
    {
        std::uint64_t tag = 0;
        std::uint64_t stamp = 0; ///< LRU: last use; FIFO: fill time
        bool valid = false;
    };

    std::uint32_t victimWay(std::uint64_t set);
    void touch(std::uint64_t set, std::uint32_t way, bool fill);

    CacheConfig config_;
    std::uint64_t numSets_;
    std::uint64_t lineShift_;
    std::vector<Line> lines_; ///< numSets_ x ways, row-major
    std::vector<std::uint32_t> plruBits_;
    std::uint64_t tick_ = 0;
    std::uint64_t rngState_ = 0x9e3779b97f4a7c15ull;
    std::uint64_t accesses_ = 0;
    std::uint64_t misses_ = 0;
};

/**
 * Reference store buffer: checkLoad visits every slot of the ring,
 * youngest first, skipping empty and retired ones instead of stopping
 * at the first.
 */
class PlainStoreBuffer
{
  public:
    explicit PlainStoreBuffer(const StoreBufferConfig &config);

    void recordStore(const Inst &store, std::uint64_t now);
    LoadBlock checkLoad(const Inst &load, std::uint64_t now) const;
    void reset();

  private:
    struct Entry
    {
        std::uint64_t addr = 0;
        std::uint64_t bornAt = 0;
        std::uint8_t size = 0;
        bool slowAddress = false;
        bool slowData = false;
        bool valid = false;
    };

    StoreBufferConfig config_;
    std::vector<Entry> ring_;
    std::size_t head_ = 0; ///< next slot to fill
};

} // namespace oracle
} // namespace wct

#endif // WCT_TESTS_SUPPORT_ORACLES_HH
