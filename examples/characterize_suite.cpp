/**
 * @file
 * Suite characterization: the paper's Section IV workflow on the
 * built-in SPEC CPU2006 stand-in suite — collect every benchmark,
 * train the suite model tree, print the per-benchmark linear-model
 * profiles (Table II) and the similarity matrix (Table III).
 *
 * Uses reduced sampling so it finishes in a few seconds; the bench/
 * binaries regenerate the full-scale tables.
 */

#include <cstdio>

#include "core/profile_table.hh"
#include "core/similarity.hh"
#include "core/suite_model.hh"
#include "pipeline/stages.hh"
#include "workload/suites.hh"

int
main()
{
    using namespace wct;

    CollectionConfig collection;
    collection.intervalInstructions = 4096;
    collection.baseIntervals = 120;
    collection.warmupInstructions = 800'000;

    std::printf("collecting SPEC CPU2006 stand-in suite (29 "
                "benchmarks)...\n");
    const SuiteData data = pipeline::collectSuite(specCpu2006(), collection);
    std::printf("%zu samples total\n\n", data.totalSamples());

    SuiteModelConfig model_config;
    model_config.trainFraction = 0.25;
    model_config.tree.minLeafInstances = 20;
    model_config.tree.minLeafFraction = 0.03;
    const SuiteModel model = buildSuiteModel(data, model_config);

    std::printf("suite model tree (%zu leaves, trained on %zu "
                "samples):\n\n%s\n",
                model.tree.numLeaves(), model.train.numRows(),
                model.tree.describe().c_str());

    const ProfileTable profiles(data, model.tree);
    std::printf("per-benchmark linear-model distribution "
                "(percent):\n\n%s\n",
                profiles.render().c_str());

    const SimilarityMatrix similarity(
        profiles, {"429.mcf", "456.hmmer", "444.namd", "470.lbm",
                   "482.sphinx3", "459.GemsFDTD"});
    std::printf("similarity (L1 profile distance, percent):\n\n%s\n",
                similarity.render().c_str());

    const auto close = similarity.mostSimilarPair();
    const auto far = similarity.mostDissimilarPair();
    std::printf("most similar:    %s vs %s (%.1f%%)\n",
                similarity.names()[close.first].c_str(),
                similarity.names()[close.second].c_str(),
                similarity.at(close.first, close.second));
    std::printf("most dissimilar: %s vs %s (%.1f%%)\n",
                similarity.names()[far.first].c_str(),
                similarity.names()[far.second].c_str(),
                similarity.at(far.first, far.second));
    return 0;
}
