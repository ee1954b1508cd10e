/**
 * @file
 * M5' model trees: recursive SDR partitioning with linear models at
 * the leaves, pruning with Quinlan's error-compensation factor, and
 * foldable smoothing — the modeling engine of the paper (Section III).
 */

#ifndef WCT_MTREE_MODEL_TREE_HH
#define WCT_MTREE_MODEL_TREE_HH

#include <cstddef>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "data/dataset.hh"
#include "mtree/linear_model.hh"
#include "mtree/regressor.hh"

namespace wct
{

class CompiledTree;

/** Training hyper-parameters (WEKA M5P-like defaults). */
struct ModelTreeConfig
{
    /** Minimum training instances per leaf (WEKA's -M). */
    std::size_t minLeafInstances = 4;

    /**
     * Additional minimum leaf size as a fraction of the training set;
     * the effective minimum is the larger of the two. Keeps trees
     * tractable on large sample sets, mirroring the paper's tuning
     * for "tractable model size" (Section IV-A).
     */
    double minLeafFraction = 0.0;

    /** Stop splitting when node sd falls below this fraction of the
     * global target sd (M5 uses 5%). */
    double sdThresholdFraction = 0.05;

    /** Maximum tree depth (safety bound). */
    std::size_t maxDepth = 32;

    /** Prune subtrees whose linear model does as well (M5 pruning). */
    bool prune = true;

    /** Fold path smoothing into the leaf models (WEKA smoothing). */
    bool smooth = true;

    /** Smoothing constant k. */
    double smoothingK = 15.0;

    /** Greedy attribute elimination in leaf models. */
    bool simplifyModels = true;

    /**
     * Clamp predictions to the training target range (with a small
     * margin). Leaf linear models can extrapolate badly far outside
     * the region they were fitted on; clamping bounds the damage for
     * out-of-distribution inputs (e.g., cross-suite application).
     */
    bool clampPredictions = true;

    /**
     * Constant-value leaves instead of linear models: turns the
     * learner into a CART-style regression tree (baseline).
     */
    bool constantLeaves = false;
};

/** Read-only description of one leaf (one "LMi" of the paper). */
struct LeafInfo
{
    /** 1-based leaf number in left-to-right order (LM1, LM2, ...). */
    std::size_t number = 0;

    /** Training samples classified into this leaf. */
    std::size_t count = 0;

    /** Share of the training samples (0..1). */
    double fraction = 0.0;

    /** Mean target (avg CPI) of the leaf's training samples. */
    double meanTarget = 0.0;

    /** The (smoothed, simplified) linear model. */
    LinearModel model;
};

/** One split condition on the path to a leaf. */
struct SplitCondition
{
    std::size_t attribute = 0;
    double value = 0.0;
    bool lessOrEqual = true; ///< direction taken
};

/** An M5' model tree. */
class ModelTree : public Regressor
{
  public:
    ModelTree() = default;

    /**
     * Train a tree predicting `target` from every other column.
     * Fatal on an empty dataset or unknown target (user input).
     *
     * Growth sorts each attribute once at the root and partitions
     * the sorted orders stably down the tree (O(A·n) per node); it
     * runs on the global thread pool when that has workers
     * (WCT_THREADS > 1). The tree is byte-identical at any pool
     * size, and its growth matches a per-node-sorting reference
     * (tests/prop/builder_equivalence_prop_test.cc).
     */
    static ModelTree train(const Dataset &data,
                           const std::string &target,
                           const ModelTreeConfig &config = {});

    // Regressor interface. predict() is the interpreted reference
    // walk (the differential oracle the compiled form is pinned
    // against); predictAll() routes whole datasets through the
    // compiled evaluator in parallel blocks.
    double predict(std::span<const double> row) const override;
    std::vector<double> predictAll(const Dataset &data) const override;
    const std::string &targetName() const override { return target_; }
    const std::vector<std::string> &schema() const override
    {
        return schema_;
    }

    /**
     * Index (0-based) of the leaf a row falls into; leaf k has number
     * k + 1 in printed output.
     */
    std::size_t classify(std::span<const double> row) const;

    /** Classify every row of a dataset with the training schema. */
    std::vector<std::size_t> classifyAll(const Dataset &data) const;

    /** Number of leaves (linear models). */
    std::size_t numLeaves() const { return leaves_.size(); }

    /** Leaf metadata in numbering order. */
    const std::vector<LeafInfo> &leaves() const { return leaves_; }

    /** Split conditions on the path to leaf `index`. */
    std::vector<SplitCondition> leafPath(std::size_t index) const;

    /** Columns used as split variables anywhere in the tree. */
    std::vector<std::size_t> splitAttributes() const;

    /** Paper-style indented rendering with the LM equations. */
    std::string describe() const;

    /** Graphviz rendering (ovals for splits, boxes for leaves). */
    std::string toDot() const;

    /** Serialize to the text format of mtree/serialize.hh. */
    void save(std::ostream &out) const;

    /** Rebuild a tree written by save(); fatal on malformed input. */
    static ModelTree load(std::istream &in);

    /**
     * Non-fatal reader of the text save() writes, for callers that
     * must survive bad input (the model-serving registry, the
     * artifact decoders): returns nullopt and fills `err` instead of
     * terminating. Bytes after the `end` line are not read. load()
     * and the stream readers of mtree/serialize.hh read the whole
     * stream and delegate here.
     */
    static std::optional<ModelTree> tryLoad(std::string_view text,
                                            std::string *err);

    /**
     * The flattened branch-free evaluation form, built once when the
     * tree is trained or (re)loaded and cached alongside the
     * interpreted tree — so serving hot-reload rebuilds it on every
     * model swap for free. Bit-identical to predict()/classify() per
     * row (see mtree/compiled_tree.hh).
     */
    const CompiledTree &compiled() const;

  private:
    struct Node
    {
        // Interior.
        bool isLeaf = true;
        std::size_t splitAttr = 0;
        double splitValue = 0.0;
        std::unique_ptr<Node> left;  ///< rows with attr <= value
        std::unique_ptr<Node> right; ///< rows with attr > value

        // Shared.
        std::size_t count = 0;
        double meanTarget = 0.0;
        double sd = 0.0;
        LinearModel model;    ///< node model (leaf: final model)
        double adjustedError = 0.0;
        std::size_t leafIndex = 0; ///< 0-based, leaves only

        /** Training row indices (dropped once training completes). */
        std::vector<std::size_t> rows;
    };

    class Builder;
    friend class CompiledTree; ///< compile() walks root_/leafNodes_

    const Node *descend(std::span<const double> row) const;

    /** Post-build step shared by train() and tryLoad(): number the
     * leaves, then lower the tree into its compiled form. */
    void finalize();
    void collectLeaves(Node *node);
    void describeNode(const Node *node, int depth,
                      std::string &out) const;

    std::unique_ptr<Node> root_;
    double targetMin_ = 0.0;
    double targetMax_ = 0.0;
    std::vector<Node *> leafNodes_; ///< in numbering order
    std::vector<LeafInfo> leaves_;
    std::string target_;
    std::size_t targetColumn_ = 0;
    std::vector<std::string> schema_;
    double globalSd_ = 0.0;
    ModelTreeConfig config_;
    std::shared_ptr<const CompiledTree> compiled_;
};

} // namespace wct

#endif // WCT_MTREE_MODEL_TREE_HH
