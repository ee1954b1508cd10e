#include "tests/support/tree_oracle.hh"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>

#include "tests/support/oracles.hh"
#include "tests/support/prop.hh"

namespace wct
{
namespace oracle
{

namespace
{

class Grower
{
  public:
    Grower(const Dataset &data, std::size_t target,
           const ModelTreeConfig &config)
        : data_(data), target_(target), config_(config)
    {
        for (std::size_t c = 0; c < data.numColumns(); ++c)
            if (c != target)
                predictors_.push_back(c);
        minLeaf_ = std::max<std::size_t>(
            {config.minLeafInstances,
             static_cast<std::size_t>(
                 config.minLeafFraction *
                 static_cast<double>(data.numRows())),
             1});
    }

    std::vector<GrownLeaf>
    grow()
    {
        std::vector<std::size_t> rows(data_.numRows());
        std::iota(rows.begin(), rows.end(), std::size_t(0));
        globalSd_ = moments(rows).sd;
        std::vector<SplitCondition> path;
        growNode(rows, 0, path);
        return std::move(leaves_);
    }

  private:
    struct Moments
    {
        double mean = 0.0;
        double sd = 0.0;
    };

    /** Welford mean and unbiased sd, rows in ascending order. */
    Moments
    moments(const std::vector<std::size_t> &rows) const
    {
        Moments out;
        double m2 = 0.0;
        std::size_t k = 0;
        for (std::size_t r : rows) {
            const double y = data_.at(r, target_);
            ++k;
            const double delta = y - out.mean;
            out.mean += delta / static_cast<double>(k);
            m2 += delta * (y - out.mean);
        }
        if (k > 1)
            out.sd = std::sqrt(m2 / static_cast<double>(k - 1));
        return out;
    }

    void
    growNode(const std::vector<std::size_t> &rows, std::size_t depth,
             std::vector<SplitCondition> &path)
    {
        const Moments node = moments(rows);
        // The M5 stopping rule, then every attribute in ascending
        // order with strict-improvement replacement.
        SplitCondition best;
        double best_sdr = -1.0;
        if (rows.size() >= 2 * minLeaf_ && rows.size() >= 4 &&
            depth < config_.maxDepth &&
            node.sd >= config_.sdThresholdFraction * globalSd_) {
            for (std::size_t attr : predictors_) {
                std::vector<Observation> observations;
                observations.reserve(rows.size());
                for (std::size_t r : rows)
                    observations.push_back(
                        {data_.at(r, attr), data_.at(r, target_)});
                const SplitCandidate cand = sortedNodeSplit(
                    std::move(observations), node.sd, minLeaf_);
                if (cand.valid && cand.sdr > best_sdr) {
                    best_sdr = cand.sdr;
                    best.attribute = attr;
                    best.value = cand.value;
                }
            }
        }
        if (best_sdr <= 0.0) {
            leaves_.push_back({rows.size(), node.mean, path});
            return;
        }

        std::vector<std::size_t> left;
        std::vector<std::size_t> right;
        for (std::size_t r : rows)
            (data_.at(r, best.attribute) <= best.value ? left : right)
                .push_back(r);
        path.push_back(best);
        growNode(left, depth + 1, path);
        path.back().lessOrEqual = false;
        growNode(right, depth + 1, path);
        path.pop_back();
    }

    const Dataset &data_;
    std::size_t target_;
    const ModelTreeConfig &config_;
    std::vector<std::size_t> predictors_;
    std::size_t minLeaf_ = 1;
    double globalSd_ = 0.0;
    std::vector<GrownLeaf> leaves_;
};

} // namespace

std::vector<GrownLeaf>
growBySorting(const Dataset &data, const std::string &target,
              const ModelTreeConfig &config)
{
    return Grower(data, data.columnIndex(target), config).grow();
}

std::optional<std::string>
compareGrowth(const ModelTree &tree, const std::vector<GrownLeaf> &want)
{
    if (tree.numLeaves() != want.size())
        return std::to_string(tree.numLeaves()) + " leaves vs " +
            std::to_string(want.size()) + " in the reference";
    const auto show = [](const SplitCondition &split) {
        return "x" + std::to_string(split.attribute) +
            (split.lessOrEqual ? " <= " : " > ") +
            prop::showDouble(split.value);
    };
    for (std::size_t i = 0; i < want.size(); ++i) {
        const LeafInfo &leaf = tree.leaves()[i];
        const std::string at = "leaf " + std::to_string(i + 1) + ": ";
        if (leaf.count != want[i].count)
            return at + "count " + std::to_string(leaf.count) +
                " vs " + std::to_string(want[i].count);
        if (leaf.meanTarget != want[i].meanTarget)
            return at + "mean " + prop::showDouble(leaf.meanTarget) +
                " vs " + prop::showDouble(want[i].meanTarget);
        const std::vector<SplitCondition> path = tree.leafPath(i);
        if (path.size() != want[i].path.size())
            return at + "depth " + std::to_string(path.size()) +
                " vs " + std::to_string(want[i].path.size());
        for (std::size_t d = 0; d < path.size(); ++d) {
            const SplitCondition &ref = want[i].path[d];
            if (path[d].attribute != ref.attribute ||
                path[d].value != ref.value ||
                path[d].lessOrEqual != ref.lessOrEqual)
                return at + "split " + std::to_string(d) + " is " +
                    show(path[d]) + " vs " + show(ref);
        }
    }
    return std::nullopt;
}

} // namespace oracle
} // namespace wct
