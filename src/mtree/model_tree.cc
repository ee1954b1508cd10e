#include "mtree/model_tree.hh"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>

#include "mtree/compiled_tree.hh"
#include "mtree/split_search.hh"
#include "util/logging.hh"
#include "util/radix_sort.hh"
#include "util/string_utils.hh"
#include "util/thread_pool.hh"

namespace wct
{

namespace
{

/**
 * Minimum node size for spawning the left subtree (and the phase
 * recursions below it) as a stealable task. Scheduling-only knob:
 * results are identical at any value.
 */
constexpr std::size_t kSubtreeTaskRows = 192;

/** Minimum node size for evaluating attributes as parallel tasks. */
constexpr std::size_t kAttrTaskRows = 512;

} // namespace

/**
 * Training-time helper holding the dataset and hyper-parameters so
 * the recursive routines do not thread a dozen arguments.
 *
 * Growth sorts each attribute once at the root and stably partitions
 * the per-attribute row orders down the tree (O(A·n) per node). When
 * the global pool has workers the same kernels run under it —
 * attributes of a big node concurrently, independent subtrees as
 * tasks, and the fit/prune/smooth phases per subtree. The tree is
 * bit-identical at any pool size: every iteration order is pinned
 * (rows ascending; equal attribute values in row order), and
 * parallel results land in pre-sized slots reduced in fixed
 * attribute order. tests/support/tree_oracle.hh grows the same tree
 * by re-sorting every attribute at every node.
 */
class ModelTree::Builder
{
  public:
    Builder(const Dataset &data, std::size_t target,
            const ModelTreeConfig &config)
        : data_(data), target_(target), config_(config)
    {
        for (std::size_t c = 0; c < data.numColumns(); ++c)
            if (c != target)
                predictors_.push_back(c);

        minLeaf_ = std::max<std::size_t>(
            config.minLeafInstances,
            static_cast<std::size_t>(config.minLeafFraction *
                                     static_cast<double>(
                                         data.numRows())));
        minLeaf_ = std::max<std::size_t>(minLeaf_, 1);
        parallel_ = ThreadPool::global().workerCount() > 0;
    }

    std::unique_ptr<Node>
    build()
    {
        wct_assert(data_.numRows() <=
                       std::numeric_limits<std::uint32_t>::max(),
                   "presorted builder indexes rows with 32 bits");
        std::vector<std::size_t> rows(data_.numRows());
        std::iota(rows.begin(), rows.end(), std::size_t(0));
        columns_ = data_.columnMajor();
        globalSd_ = targetMoments(rows).sd;
        buildPresorted();
        std::unique_ptr<Node> root =
            buildNodePresorted(rows, 0, data_.numRows(), 0);
        fitModels(root.get());
        if (config_.prune)
            prune(root.get());
        if (config_.smooth && !config_.constantLeaves)
            smooth(root.get(), nullptr);
        return root;
    }

    double globalSd() const { return globalSd_; }

  private:
    struct TargetMoments
    {
        double mean = 0.0;
        double sd = 0.0; ///< unbiased (n - 1) standard deviation
    };

    /**
     * Mean and unbiased sd of the target over a row subset in one
     * Welford pass, rows in ascending order.
     */
    TargetMoments
    targetMoments(std::span<const std::size_t> rows) const
    {
        const double *targets = columns_.columnData(target_);
        TargetMoments moments;
        double mean = 0.0;
        double m2 = 0.0;
        std::size_t k = 0;
        for (std::size_t r : rows) {
            const double y = targets[r];
            ++k;
            const double delta = y - mean;
            mean += delta / static_cast<double>(k);
            m2 += delta * (y - mean);
        }
        if (k > 0)
            moments.mean = mean;
        if (k > 1)
            moments.sd =
                std::sqrt(m2 / static_cast<double>(k - 1));
        return moments;
    }

    /** The M5 stopping rule. */
    bool
    canSplit(const Node &node, std::size_t depth) const
    {
        return node.count >= 2 * minLeaf_ && node.count >= 4 &&
            depth < config_.maxDepth &&
            node.sd >= config_.sdThresholdFraction * globalSd_;
    }

    struct Split
    {
        std::size_t attr = 0;
        double value = 0.0;
        double sdr = -1.0;
    };

    /**
     * Fold one attribute's candidate into the incumbent. Attributes
     * are considered in ascending index order and replaced only on
     * strict improvement, so cross-attribute SDR ties break toward
     * the lowest attribute index — at any pool size, because the
     * parallel path stores candidates in per-attribute slots and
     * reduces them through this same loop.
     */
    static void
    consider(const SplitCandidate &cand, std::size_t attr,
             Split &best)
    {
        if (cand.valid && cand.sdr > best.sdr) {
            best.sdr = cand.sdr;
            best.attr = attr;
            best.value = cand.value;
        }
    }

    /**
     * Build the root working sets: for each predictor, the row ids
     * stably sorted ascending by that column, with the sorted values
     * and matching targets materialized as contiguous arrays (one
     * gather at the root buys gather-free streaming sweeps at every
     * node). Stability makes equal values appear in ascending row
     * order — the order a stable per-node sort would give.
     */
    void
    buildPresorted()
    {
        const std::size_t n = data_.numRows();
        goesLeft_.assign(n, 0);
        presorted_.resize(predictors_.size());
        const double *targets = columns_.columnData(target_);
        const auto sort_one = [this, n, targets](std::size_t p) {
            // Branchless radix sort on order-preserving key
            // transforms of the column values (util/radix_sort.hh):
            // stable, so equal values keep ascending row order — the
            // exact permutation a stable comparison sort would give —
            // at a fraction of the mispredict-bound cost. The sorted
            // values and matching targets are then gathered once into
            // contiguous arrays.
            const double *values =
                columns_.columnData(predictors_[p]);
            std::vector<KeyRow> entries(n);
            for (std::size_t i = 0; i < n; ++i)
                entries[i] = {orderedKeyFromDouble(values[i]),
                              static_cast<std::uint32_t>(i)};
            std::vector<KeyRow> scratch;
            radixSortKeyRows(entries, scratch);
            PresortedColumn &col = presorted_[p];
            col.values.resize(n);
            col.targets.resize(n);
            col.rows.resize(n);
            for (std::size_t i = 0; i < n; ++i) {
                const std::uint32_t row = entries[i].row;
                col.values[i] = values[row];
                col.targets[i] = targets[row];
                col.rows[i] = row;
            }
        };
        if (parallel_) {
            parallelFor(predictors_.size(), sort_one);
        } else {
            for (std::size_t p = 0; p < predictors_.size(); ++p)
                sort_one(p);
        }
    }

    /**
     * Presorted node build over the working-set range [lo, hi): every
     * attribute's PresortedColumn holds exactly this node's rows in
     * that range (in attribute order). Split evaluation is one linear
     * sweep per attribute; descending partitions each range stably
     * around the chosen split, so children own [lo, mid) and
     * [mid, hi) with the invariant intact. Sibling ranges are
     * disjoint — and sibling row sets too, so concurrent subtree
     * tasks touch disjoint slices of the shared working sets and
     * disjoint bytes of the goesLeft_ mask.
     */
    std::unique_ptr<Node>
    buildNodePresorted(std::vector<std::size_t> &rows, std::size_t lo,
                       std::size_t hi, std::size_t depth)
    {
        wct_assert(hi - lo == rows.size(),
                   "working-set range ", hi - lo, " != node rows ",
                   rows.size());
        auto node = std::make_unique<Node>();
        const TargetMoments moments = targetMoments(rows);
        node->count = rows.size();
        node->meanTarget = moments.mean;
        node->sd = moments.sd;

        Split best;
        if (canSplit(*node, depth)) {
            const std::size_t num_p = predictors_.size();
            const auto eval_one = [&](std::size_t p) {
                const PresortedColumn &col = presorted_[p];
                return findBestSdrSplitPresorted(
                    std::span<const double>(col.values)
                        .subspan(lo, hi - lo),
                    std::span<const double>(col.targets)
                        .subspan(lo, hi - lo),
                    node->sd, minLeaf_);
            };
            if (parallel_ && num_p > 1 &&
                rows.size() >= kAttrTaskRows) {
                std::vector<SplitCandidate> candidates(num_p);
                TaskGroup group;
                for (std::size_t p = 0; p < num_p; ++p)
                    group.run([&candidates, &eval_one, p] {
                        candidates[p] = eval_one(p);
                    });
                group.wait();
                for (std::size_t p = 0; p < num_p; ++p)
                    consider(candidates[p], predictors_[p], best);
            } else {
                for (std::size_t p = 0; p < num_p; ++p)
                    consider(eval_one(p), predictors_[p], best);
            }
        }
        if (best.sdr <= 0.0) {
            node->rows = std::move(rows);
            return node;
        }

        node->isLeaf = false;
        node->splitAttr = best.attr;
        node->splitValue = best.value;

        // Partition the node rows and write the per-row side mask the
        // attribute partitions read (this node's rows only, so
        // concurrent sibling subtrees write disjoint mask bytes).
        const double *split_values = columns_.columnData(best.attr);
        std::vector<std::size_t> left_rows;
        std::vector<std::size_t> right_rows;
        left_rows.reserve(rows.size());
        right_rows.reserve(rows.size());
        for (std::size_t r : rows) {
            const bool left = split_values[r] <= best.value;
            goesLeft_[r] = left ? 1 : 0;
            (left ? left_rows : right_rows).push_back(r);
        }
        node->rows = std::move(rows);

        const std::size_t mid = lo + left_rows.size();
        const auto partition_one =
            [this, lo, hi, expect_left = left_rows.size()](
                std::size_t p, PresortedColumn &scratch) {
                const std::size_t nl = stablePartitionPresorted(
                    presorted_[p], lo, hi, goesLeft_.data(),
                    scratch);
                wct_assert(nl == expect_left,
                           "attribute partition produced ", nl,
                           " left rows, expected ", expect_left);
            };
        if (parallel_ && predictors_.size() > 1 &&
            hi - lo >= kAttrTaskRows) {
            TaskGroup group;
            for (std::size_t p = 0; p < predictors_.size(); ++p)
                group.run([&partition_one, p] {
                    PresortedColumn scratch;
                    partition_one(p, scratch);
                });
            group.wait();
        } else {
            PresortedColumn scratch;
            for (std::size_t p = 0; p < predictors_.size(); ++p)
                partition_one(p, scratch);
        }

        if (parallel_ && node->count >= kSubtreeTaskRows) {
            TaskGroup group;
            group.run([this, &node, &left_rows, lo, mid, depth] {
                node->left =
                    buildNodePresorted(left_rows, lo, mid, depth + 1);
            });
            node->right =
                buildNodePresorted(right_rows, mid, hi, depth + 1);
            group.wait();
        } else {
            node->left =
                buildNodePresorted(left_rows, lo, mid, depth + 1);
            node->right =
                buildNodePresorted(right_rows, mid, hi, depth + 1);
        }
        return node;
    }

    // ---- Model fitting, pruning, smoothing. ----

    /** Fit (and simplify) the model at one node. */
    void
    fitNodeModel(Node *node) const
    {
        if (config_.constantLeaves) {
            // The constant model needs only the moments the build
            // already computed; no normal equations to accumulate.
            node->model.intercept = node->meanTarget;
            const double n = static_cast<double>(node->count);
            node->adjustedError =
                node->sd * std::sqrt(std::max(0.0, (n - 1.0) / n));
            return;
        }
        GramAccumulator gram(predictors_, target_);
        gram.addRows(data_, node->rows);
        if (config_.simplifyModels) {
            node->model = gram.fitSimplified(node->adjustedError);
        } else {
            std::vector<std::size_t> all(predictors_.size());
            std::iota(all.begin(), all.end(), std::size_t(0));
            double rss = 0.0;
            node->model = gram.fitSubset(all, rss);
            node->adjustedError =
                gram.adjustedError(rss, all.size());
        }
    }

    /**
     * Fit models bottom-up. Node fits are mutually independent (each
     * reads only its own row subset), so subtrees fit as tasks.
     */
    void
    fitModels(Node *node)
    {
        if (!node->isLeaf) {
            if (parallel_ && node->count >= kSubtreeTaskRows) {
                TaskGroup group;
                group.run([this, left = node->left.get()] {
                    fitModels(left);
                });
                fitModels(node->right.get());
                group.wait();
            } else {
                fitModels(node->left.get());
                fitModels(node->right.get());
            }
        }
        fitNodeModel(node);
    }

    /**
     * Quinlan-style pruning: replace a subtree by its node model when
     * the model's compensated error is no worse than the subtree's
     * weighted compensated error. Each subtree's verdict depends only
     * on its own nodes, so the two recursions run as tasks.
     */
    double
    prune(Node *node)
    {
        if (node->isLeaf)
            return node->adjustedError;
        double err_left = 0.0;
        double err_right = 0.0;
        if (parallel_ && node->count >= kSubtreeTaskRows) {
            TaskGroup group;
            group.run([this, &err_left, left = node->left.get()] {
                err_left = prune(left);
            });
            err_right = prune(node->right.get());
            group.wait();
        } else {
            err_left = prune(node->left.get());
            err_right = prune(node->right.get());
        }
        const double nl = static_cast<double>(node->left->count);
        const double nr = static_cast<double>(node->right->count);
        const double subtree_err =
            (nl * err_left + nr * err_right) / (nl + nr);
        if (node->adjustedError <= subtree_err) {
            node->isLeaf = true;
            node->left.reset();
            node->right.reset();
            return node->adjustedError;
        }
        return subtree_err;
    }

    /**
     * Fold WEKA-style smoothing into the models top-down:
     * smoothed(child) = (n*model(child) + k*smoothed(parent))/(n+k).
     * Linear blends of linear models stay linear, so the printed leaf
     * equations are the exact prediction functions. A node's blend is
     * finished before its children are visited, so the two child
     * recursions (which read only the parent model) run as tasks.
     */
    void
    smooth(Node *node, const LinearModel *parent)
    {
        if (parent != nullptr) {
            const double n = static_cast<double>(node->count);
            const double k = config_.smoothingK;
            const double wn = n / (n + k);
            const double wk = k / (n + k);

            // Blend into a dense coefficient map over predictors.
            LinearModel blended;
            blended.intercept = wn * node->model.intercept +
                wk * parent->intercept;
            std::vector<double> dense(data_.numColumns(), 0.0);
            for (std::size_t i = 0; i < node->model.attributes.size();
                 ++i) {
                dense[node->model.attributes[i]] +=
                    wn * node->model.coefficients[i];
            }
            for (std::size_t i = 0; i < parent->attributes.size();
                 ++i) {
                dense[parent->attributes[i]] +=
                    wk * parent->coefficients[i];
            }
            for (std::size_t c = 0; c < dense.size(); ++c) {
                if (dense[c] != 0.0) {
                    blended.attributes.push_back(c);
                    blended.coefficients.push_back(dense[c]);
                }
            }
            node->model = std::move(blended);
        }
        if (!node->isLeaf) {
            if (parallel_ && node->count >= kSubtreeTaskRows) {
                TaskGroup group;
                group.run([this, left = node->left.get(),
                           model = &node->model] {
                    smooth(left, model);
                });
                smooth(node->right.get(), &node->model);
                group.wait();
            } else {
                smooth(node->left.get(), &node->model);
                smooth(node->right.get(), &node->model);
            }
        }
    }

    const Dataset &data_;
    std::size_t target_;
    ModelTreeConfig config_;
    std::vector<std::size_t> predictors_;
    std::size_t minLeaf_ = 4;
    double globalSd_ = 0.0;
    bool parallel_ = false;

    // The column-major snapshot, one sorted working set per
    // predictor, and the per-row split-side mask.
    ColumnStore columns_;
    std::vector<PresortedColumn> presorted_;
    std::vector<unsigned char> goesLeft_;
};

ModelTree
ModelTree::train(const Dataset &data, const std::string &target,
                 const ModelTreeConfig &config)
{
    if (data.numRows() == 0)
        wct_fatal("cannot train a model tree on an empty dataset");
    if (data.numColumns() < 2)
        wct_fatal("model tree needs at least one predictor column");

    ModelTree tree;
    tree.target_ = target;
    tree.targetColumn_ = data.columnIndex(target);
    tree.schema_ = data.columnNames();
    tree.config_ = config;

    Builder builder(data, tree.targetColumn_, config);
    tree.root_ = builder.build();
    tree.globalSd_ = builder.globalSd();
    tree.targetMin_ = data.at(0, tree.targetColumn_);
    tree.targetMax_ = tree.targetMin_;
    for (std::size_t r = 1; r < data.numRows(); ++r) {
        const double y = data.at(r, tree.targetColumn_);
        tree.targetMin_ = std::min(tree.targetMin_, y);
        tree.targetMax_ = std::max(tree.targetMax_, y);
    }
    tree.finalize();
    return tree;
}

void
ModelTree::finalize()
{
    collectLeaves(root_.get());
    compiled_ = std::make_shared<const CompiledTree>(
        CompiledTree::compile(*this));
}

const CompiledTree &
ModelTree::compiled() const
{
    wct_assert(compiled_ != nullptr,
               "compiled form requested on an untrained tree");
    return *compiled_;
}

void
ModelTree::collectLeaves(Node *node)
{
    if (node->isLeaf) {
        node->leafIndex = leafNodes_.size();
        node->rows.clear();
        node->rows.shrink_to_fit();
        leafNodes_.push_back(node);
        LeafInfo info;
        info.number = leafNodes_.size();
        info.count = node->count;
        info.fraction = root_->count > 0
            ? static_cast<double>(node->count) /
                static_cast<double>(root_->count)
            : 0.0;
        info.meanTarget = node->meanTarget;
        info.model = node->model;
        leaves_.push_back(std::move(info));
        return;
    }
    node->rows.clear();
    node->rows.shrink_to_fit();
    collectLeaves(node->left.get());
    collectLeaves(node->right.get());
}

const ModelTree::Node *
ModelTree::descend(std::span<const double> row) const
{
    wct_assert(root_ != nullptr, "predict on an untrained tree");
    wct_assert(row.size() == schema_.size(),
               "row arity ", row.size(), " != schema ",
               schema_.size());
    const Node *node = root_.get();
    while (!node->isLeaf) {
        node = row[node->splitAttr] <= node->splitValue
            ? node->left.get() : node->right.get();
    }
    return node;
}

double
ModelTree::predict(std::span<const double> row) const
{
    const double raw = descend(row)->model.predict(row);
    if (!config_.clampPredictions)
        return raw;
    // One global-sd margin around the observed training range.
    const double margin = globalSd_;
    return std::clamp(raw, targetMin_ - margin, targetMax_ + margin);
}

std::size_t
ModelTree::classify(std::span<const double> row) const
{
    return descend(row)->leafIndex;
}

namespace
{

/**
 * Rows per parallel task of the batch evaluators below. A multiple
 * of CompiledTree::kBlockRows so tasks tile evenly; sizing is a
 * scheduling knob only — each task writes its own output slots, so
 * results are byte-identical at any WCT_THREADS.
 */
constexpr std::size_t kEvalChunkRows = 4 * CompiledTree::kBlockRows;

} // namespace

std::vector<double>
ModelTree::predictAll(const Dataset &data) const
{
    checkSchema(data);
    // Compiled batch evaluation in contiguous chunks: bit-identical
    // to the per-row interpreted loop (the compiled_tree property
    // suite pins this), but branch-free and cache-linear.
    const CompiledTree &compiled_form = compiled();
    const std::size_t n = data.numRows();
    const std::size_t cols = data.numColumns();
    std::vector<double> out(n);
    const std::size_t chunks =
        (n + kEvalChunkRows - 1) / kEvalChunkRows;
    parallelFor(
        chunks,
        [&](std::size_t c) {
            const std::size_t lo = c * kEvalChunkRows;
            const std::size_t hi =
                std::min(n, lo + kEvalChunkRows);
            compiled_form.evaluateBlock(data.row(lo).data(), cols,
                                        hi - lo, out.data() + lo,
                                        nullptr);
        },
        ThreadPool::global(), /*min_chunk=*/1);
    return out;
}

std::vector<std::size_t>
ModelTree::classifyAll(const Dataset &data) const
{
    checkSchema(data);
    const CompiledTree &compiled_form = compiled();
    const std::size_t n = data.numRows();
    const std::size_t cols = data.numColumns();
    std::vector<std::size_t> out(n);
    const std::size_t chunks =
        (n + kEvalChunkRows - 1) / kEvalChunkRows;
    parallelFor(
        chunks,
        [&](std::size_t c) {
            const std::size_t lo = c * kEvalChunkRows;
            const std::size_t hi =
                std::min(n, lo + kEvalChunkRows);
            std::uint32_t leaves[kEvalChunkRows];
            compiled_form.evaluateBlock(data.row(lo).data(), cols,
                                        hi - lo, nullptr, leaves);
            for (std::size_t i = lo; i < hi; ++i)
                out[i] = leaves[i - lo];
        },
        ThreadPool::global(), /*min_chunk=*/1);
    return out;
}

std::vector<SplitCondition>
ModelTree::leafPath(std::size_t index) const
{
    wct_assert(index < leafNodes_.size(), "bad leaf index ", index);
    std::vector<SplitCondition> path;
    const Node *target_leaf = leafNodes_[index];
    const Node *node = root_.get();
    while (!node->isLeaf) {
        // Determine which side contains the target leaf by comparing
        // leaf index ranges: leaves are numbered in-order.
        const Node *left = node->left.get();
        // Find the max leaf index in the left subtree.
        const Node *probe = left;
        while (!probe->isLeaf)
            probe = probe->right.get();
        SplitCondition cond;
        cond.attribute = node->splitAttr;
        cond.value = node->splitValue;
        cond.lessOrEqual = target_leaf->leafIndex <= probe->leafIndex;
        path.push_back(cond);
        node = cond.lessOrEqual ? node->left.get() : node->right.get();
    }
    wct_assert(node == target_leaf, "leaf path descent mismatch");
    return path;
}

std::vector<std::size_t>
ModelTree::splitAttributes() const
{
    std::vector<bool> used(schema_.size(), false);
    std::vector<const Node *> stack = {root_.get()};
    while (!stack.empty()) {
        const Node *node = stack.back();
        stack.pop_back();
        if (node->isLeaf)
            continue;
        used[node->splitAttr] = true;
        stack.push_back(node->left.get());
        stack.push_back(node->right.get());
    }
    std::vector<std::size_t> out;
    for (std::size_t c = 0; c < used.size(); ++c)
        if (used[c])
            out.push_back(c);
    return out;
}

void
ModelTree::describeNode(const Node *node, int depth,
                        std::string &out) const
{
    const std::string indent(static_cast<std::size_t>(depth) * 4, ' ');
    if (node->isLeaf) {
        out += indent + "-> LM" +
            std::to_string(node->leafIndex + 1) + "  (" +
            formatDouble(100.0 * static_cast<double>(node->count) /
                             static_cast<double>(root_->count),
                         1) +
            "% of samples, avg " + target_ + " " +
            formatDouble(node->meanTarget, 2) + ")\n";
        return;
    }
    const std::string &name = schema_[node->splitAttr];
    out += indent + name + " <= " + formatCompact(node->splitValue) +
        " :\n";
    describeNode(node->left.get(), depth + 1, out);
    out += indent + name + " >  " + formatCompact(node->splitValue) +
        " :\n";
    describeNode(node->right.get(), depth + 1, out);
}

std::string
ModelTree::describe() const
{
    wct_assert(root_ != nullptr, "describe on an untrained tree");
    std::string out;
    describeNode(root_.get(), 0, out);
    out += "\n";
    for (const LeafInfo &leaf : leaves_) {
        out += "LM" + std::to_string(leaf.number) + " (" +
            formatDouble(100.0 * leaf.fraction, 2) + "%, avg " +
            target_ + " " + formatDouble(leaf.meanTarget, 2) +
            "):\n    " + leaf.model.describe(schema_, target_) + "\n";
    }
    return out;
}

std::string
ModelTree::toDot() const
{
    wct_assert(root_ != nullptr, "toDot on an untrained tree");
    std::string out = "digraph mtree {\n  node [fontsize=10];\n";
    std::size_t next_id = 0;
    // Iterative DFS with explicit ids.
    struct Item
    {
        const Node *node;
        std::size_t id;
    };
    std::vector<Item> stack = {{root_.get(), next_id++}};
    while (!stack.empty()) {
        const Item item = stack.back();
        stack.pop_back();
        const Node *node = item.node;
        const double pct = 100.0 * static_cast<double>(node->count) /
            static_cast<double>(root_->count);
        if (node->isLeaf) {
            out += "  n" + std::to_string(item.id) +
                " [shape=box,label=\"LM" +
                std::to_string(node->leafIndex + 1) + "\\n" +
                formatDouble(pct, 1) + "%  avg " +
                formatDouble(node->meanTarget, 2) + "\"];\n";
            continue;
        }
        out += "  n" + std::to_string(item.id) +
            " [shape=oval,label=\"" + schema_[node->splitAttr] +
            "\\n" + formatDouble(pct, 1) + "%  avg " +
            formatDouble(node->meanTarget, 2) + "\"];\n";
        const std::size_t left_id = next_id++;
        const std::size_t right_id = next_id++;
        out += "  n" + std::to_string(item.id) + " -> n" +
            std::to_string(left_id) + " [label=\"<= " +
            formatCompact(node->splitValue) + "\"];\n";
        out += "  n" + std::to_string(item.id) + " -> n" +
            std::to_string(right_id) + " [label=\"> " +
            formatCompact(node->splitValue) + "\"];\n";
        stack.push_back({node->left.get(), left_id});
        stack.push_back({node->right.get(), right_id});
    }
    out += "}\n";
    return out;
}

} // namespace wct
