/**
 * @file
 * Ablations of the modeling choices (DESIGN.md per-experiment index):
 *  - training fraction sweep (the paper's 10% finding in context),
 *  - smoothing and pruning on/off,
 *  - minimum leaf size (tree size vs accuracy),
 *  - learner comparison: M5' vs constant-leaf tree vs global OLS
 *    (the comparison motivating model trees in related work [15]).
 */

#include <cstdio>

#include "bench/harness.hh"
#include "data/split.hh"
#include "mtree/baselines.hh"
#include "stats/metrics.hh"
#include "util/string_utils.hh"
#include "util/text_table.hh"

namespace
{

using namespace wct;

AccuracyMetrics
evaluate(const Regressor &model, const Dataset &test)
{
    return computeAccuracy(model.predictAll(test),
                           test.column("CPI"));
}

void
trainingFractionSweep(const Dataset &pooled)
{
    bench::banner("Ablation A: training fraction vs accuracy "
                  "(fixed held-out 25% test set)");
    Rng rng(0x7ab1);
    auto split = randomSplit(pooled, 0.75, rng);
    const Dataset &reservoir = split.train;
    const Dataset &test = split.test;

    TextTable table({"train fraction", "train samples", "leaves", "C",
                     "MAE"});
    for (double fraction : {0.01, 0.02, 0.05, 0.10, 0.25, 0.50, 1.0}) {
        Rng draw_rng(0x1234);
        const Dataset train =
            sampleFraction(reservoir, fraction, draw_rng);
        const ModelTree tree = ModelTree::train(
            train, "CPI", pipeline::standardModelConfig().tree);
        const auto metrics = evaluate(tree, test);
        table.addRow({formatDouble(fraction, 2),
                      std::to_string(train.numRows()),
                      std::to_string(tree.numLeaves()),
                      formatDouble(metrics.correlation, 4),
                      formatDouble(metrics.meanAbsoluteError, 4)});
    }
    std::printf("%s", table.render().c_str());
    std::printf("(the paper trains on 10%% and finds it sufficient "
                "for transferability to the remainder)\n");
}

void
smoothingPruningAblation(const Dataset &train, const Dataset &test)
{
    bench::banner("Ablation B: smoothing and pruning");
    TextTable table({"smooth", "prune", "leaves", "C", "MAE"});
    for (bool smooth : {true, false}) {
        for (bool prune : {true, false}) {
            ModelTreeConfig config = pipeline::standardModelConfig().tree;
            config.smooth = smooth;
            config.prune = prune;
            const ModelTree tree =
                ModelTree::train(train, "CPI", config);
            const auto metrics = evaluate(tree, test);
            table.addRow({smooth ? "on" : "off",
                          prune ? "on" : "off",
                          std::to_string(tree.numLeaves()),
                          formatDouble(metrics.correlation, 4),
                          formatDouble(metrics.meanAbsoluteError, 4)});
        }
    }
    std::printf("%s", table.render().c_str());
}

void
leafSizeSweep(const Dataset &train, const Dataset &test)
{
    bench::banner("Ablation C: minimum leaf fraction (tree size vs "
                  "accuracy; the paper tunes for 'tractable model "
                  "size and good prediction accuracy')");
    TextTable table({"min leaf fraction", "leaves", "C", "MAE"});
    for (double fraction : {0.001, 0.005, 0.01, 0.025, 0.05, 0.10,
                            0.25}) {
        ModelTreeConfig config = pipeline::standardModelConfig().tree;
        config.minLeafFraction = fraction;
        const ModelTree tree = ModelTree::train(train, "CPI", config);
        const auto metrics = evaluate(tree, test);
        table.addRow({formatDouble(fraction, 3),
                      std::to_string(tree.numLeaves()),
                      formatDouble(metrics.correlation, 4),
                      formatDouble(metrics.meanAbsoluteError, 4)});
    }
    std::printf("%s", table.render().c_str());
}

void
learnerComparison(const Dataset &train, const Dataset &test)
{
    bench::banner("Ablation D: learner comparison on identical data");
    TextTable table({"learner", "models/leaves", "C", "MAE", "RAE"});

    const ModelTree m5 = ModelTree::train(
        train, "CPI", pipeline::standardModelConfig().tree);
    const auto m5_metrics = evaluate(m5, test);
    table.addRow({"M5' model tree", std::to_string(m5.numLeaves()),
                  formatDouble(m5_metrics.correlation, 4),
                  formatDouble(m5_metrics.meanAbsoluteError, 4),
                  formatDouble(m5_metrics.relativeAbsoluteError, 3)});

    const ModelTree cart = trainRegressionTree(
        train, "CPI", pipeline::standardModelConfig().tree);
    const auto cart_metrics = evaluate(cart, test);
    table.addRow({"regression tree (constant leaves)",
                  std::to_string(cart.numLeaves()),
                  formatDouble(cart_metrics.correlation, 4),
                  formatDouble(cart_metrics.meanAbsoluteError, 4),
                  formatDouble(cart_metrics.relativeAbsoluteError,
                               3)});

    const auto ols = GlobalLinearRegression::train(train, "CPI");
    const auto ols_metrics = evaluate(ols, test);
    table.addRow({"global linear regression", "1",
                  formatDouble(ols_metrics.correlation, 4),
                  formatDouble(ols_metrics.meanAbsoluteError, 4),
                  formatDouble(ols_metrics.relativeAbsoluteError, 3)});

    std::printf("%s", table.render().c_str());
}

} // namespace

int
main()
{
    using namespace wct;
    const SuiteModel &model = bench::suiteModel("cpu2006");
    const Dataset pooled = bench::collectedSuite("cpu2006").pooled();

    trainingFractionSweep(pooled);
    smoothingPruningAblation(model.train, model.test);
    leafSizeSweep(model.train, model.test);
    learnerComparison(model.train, model.test);
    return 0;
}
