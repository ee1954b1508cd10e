/**
 * @file
 * Differential property of tree training: the presorted builder —
 * inline on a thread-less pool and work-stealing on a 4-worker pool —
 * grows exactly the tree of the per-node-sorting reference in
 * tests/support/tree_oracle.hh. With constant leaves and no pruning
 * or smoothing every production leaf must match the reference leaf
 * of the same number in count, mean target and split path, bit for
 * bit. The default-config tree (fit, prune, smooth) must serialize
 * identically at both pool sizes, so "identical" covers every
 * threshold and model coefficient to the last bit. This is the
 * determinism guarantee docs/performance.md promises and the
 * perf-smoke gate assumes.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <optional>
#include <sstream>
#include <string>

#include "mtree/model_tree.hh"
#include "tests/support/prop.hh"
#include "tests/support/tree_oracle.hh"
#include "util/thread_pool.hh"

namespace wct
{
namespace
{

using prop::CheckResult;
using prop::Config;

/** Small-leaf config so modest random datasets still grow trees. */
ModelTreeConfig
smallTreeConfig()
{
    ModelTreeConfig config;
    config.minLeafInstances = 6;
    return config;
}

/** Growth only: every grown leaf survives with its moments. */
ModelTreeConfig
growthOnly(ModelTreeConfig config)
{
    config.constantLeaves = true;
    config.prune = false;
    config.smooth = false;
    return config;
}

prop::DatasetGenConfig
defaultShape()
{
    prop::DatasetGenConfig shape;
    shape.minRows = 30;
    shape.maxRows = 160;
    shape.noise = 0.1;
    return shape;
}

/** Restores the configured global pool when a test ends. */
struct PoolGuard
{
    PoolGuard() = default;
    PoolGuard(const PoolGuard &) = delete;
    PoolGuard &operator=(const PoolGuard &) = delete;

    ~PoolGuard()
    {
        const std::size_t threads = ThreadPool::configuredThreads();
        ThreadPool::resetGlobalForTest(threads <= 1 ? 0 : threads);
    }
};

ModelTree
trainOnPool(const Dataset &data, const ModelTreeConfig &config,
            std::size_t workers)
{
    ThreadPool::resetGlobalForTest(workers);
    return ModelTree::train(data, "y", config);
}

std::string
saved(const ModelTree &tree)
{
    std::ostringstream out;
    tree.save(out);
    return out.str();
}

/** A growth-only tree on `workers` threads against the oracle. */
std::optional<std::string>
checkGrowth(const Dataset &data, const ModelTreeConfig &config,
            std::size_t workers)
{
    const ModelTree tree =
        trainOnPool(data, growthOnly(config), workers);
    if (auto diff = oracle::compareGrowth(
            tree, oracle::growBySorting(data, "y", config)))
        return *diff + " at pool " + std::to_string(workers);
    return std::nullopt;
}

/**
 * Growth against the oracle at pool sizes 0 and 4, then the full
 * default-config tree of pool 0 against that of pool 4.
 */
std::optional<std::string>
checkBuilder(const Dataset &data, const ModelTreeConfig &config)
{
    for (const std::size_t workers : {std::size_t{0}, std::size_t{4}})
        if (auto fail = checkGrowth(data, config, workers))
            return fail;
    if (saved(trainOnPool(data, config, 0)) !=
        saved(trainOnPool(data, config, 4)))
        return "pool-4 tree serializes differently from pool 0";
    return std::nullopt;
}

TEST(BuilderEquivalenceProp, GrowthMatchesOracleDefaults)
{
    const PoolGuard guard;
    const Config config = Config::fromEnv(0xb11d, 100);
    const CheckResult result = prop::check<Dataset>(
        config, prop::datasets(defaultShape()),
        [](const Dataset &data) {
            return checkBuilder(data, smallTreeConfig());
        });
    WCT_EXPECT_PROP(result, config);
}

TEST(BuilderEquivalenceProp, GrowthMatchesOracleOnTies)
{
    // Duplicate-heavy attributes stress the stable tie handling of
    // the root sort and the partitions; the unsmoothed, unsimplified
    // and constant-leaf configs take the other fit paths through the
    // pool-0 vs pool-4 comparison.
    const PoolGuard guard;
    const Config config = Config::fromEnv(0xec01, 60);
    const CheckResult result = prop::check<Dataset>(
        config, prop::datasets(defaultShape()),
        [](const Dataset &raw) -> std::optional<std::string> {
            // Quantize the predictors to a coarse grid so that most
            // attribute values repeat.
            Dataset data = raw;
            for (std::size_t r = 0; r < data.numRows(); ++r)
                for (std::size_t c = 0; c + 1 < data.numColumns();
                     ++c)
                    data.at(r, c) = std::round(data.at(r, c));

            ModelTreeConfig plain = smallTreeConfig();
            plain.smooth = false;
            plain.simplifyModels = false;
            if (auto fail = checkBuilder(data, plain))
                return "unsmoothed: " + *fail;

            ModelTreeConfig constant = smallTreeConfig();
            constant.constantLeaves = true;
            if (auto fail = checkBuilder(data, constant))
                return "constant-leaves: " + *fail;
            return std::nullopt;
        });
    WCT_EXPECT_PROP(result, config);
}

TEST(BuilderEquivalenceProp, GrowthMatchesOracleAcrossStoppingRules)
{
    // Every growth knob the oracle reads, varied with the generated
    // row count: the leaf minimums, the sd stopping threshold and
    // the depth bound each end growth at a different node.
    const PoolGuard guard;
    const Config config = Config::fromEnv(0x1e55, 40);
    const CheckResult result = prop::check<Dataset>(
        config, prop::datasets(defaultShape()),
        [](const Dataset &data) -> std::optional<std::string> {
            const std::size_t n = data.numRows();
            ModelTreeConfig tree = smallTreeConfig();
            tree.minLeafInstances = 2 + n % 5;
            tree.minLeafFraction = (n % 3) * 0.04;
            tree.sdThresholdFraction = 0.05 + (n % 4) * 0.1;
            tree.maxDepth = 1 + n % 6;
            return checkBuilder(data, tree);
        });
    WCT_EXPECT_PROP(result, config);
}

} // namespace
} // namespace wct
