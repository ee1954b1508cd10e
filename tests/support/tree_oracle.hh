/**
 * @file
 * Reference growth of an M5' tree: the per-node-sorting builder the
 * presorted one replaced. At every node each attribute's
 * (value, target) pairs are gathered in ascending row order, stably
 * sorted by value and searched with the production split kernel
 * (oracle::sortedNodeSplit), so none of the presorted builder's
 * machinery is involved: no root radix sort, no stable partitions,
 * no side mask, no thread pool. Node moments use the builder's
 * Welford loop over rows in ascending order.
 *
 * ModelTree::train grows exactly this tree before it fits, prunes
 * and smooths; with constant leaves and no pruning or smoothing its
 * leaves must match these bit for bit
 * (tests/prop/builder_equivalence_prop_test.cc), and perf_mtree
 * times this growth as the denominator of its speedup gate.
 */

#ifndef WCT_TESTS_SUPPORT_TREE_ORACLE_HH
#define WCT_TESTS_SUPPORT_TREE_ORACLE_HH

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "data/dataset.hh"
#include "mtree/model_tree.hh"

namespace wct
{
namespace oracle
{

/** One leaf of a grown tree. */
struct GrownLeaf
{
    std::size_t count = 0;   ///< training rows in the leaf
    double meanTarget = 0.0; ///< their mean target
    std::vector<SplitCondition> path; ///< root-to-leaf conditions
};

/**
 * Grow a tree predicting `target` from every other column, reading
 * the growth knobs of `config` (minLeafInstances, minLeafFraction,
 * sdThresholdFraction, maxDepth). Leaves come back in left-to-right
 * order, which is ModelTree's leaf numbering.
 */
std::vector<GrownLeaf> growBySorting(const Dataset &data,
                                     const std::string &target,
                                     const ModelTreeConfig &config);

/**
 * Nullopt when `tree`, trained with constant leaves and without
 * pruning or smoothing, has exactly the leaves `want`: for every
 * leaf number the same count, the same mean target bit for bit and
 * the same split path (ModelTree::leafPath). Otherwise the first
 * difference.
 */
std::optional<std::string> compareGrowth(
    const ModelTree &tree, const std::vector<GrownLeaf> &want);

} // namespace oracle
} // namespace wct

#endif // WCT_TESTS_SUPPORT_TREE_ORACLE_HH
