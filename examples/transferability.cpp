/**
 * @file
 * Transferability study (the paper's Section VI workflow): build
 * models for the two built-in suites from 10% training fractions,
 * then assess every model-to-target direction with both
 * methodologies — two-sample t-tests and prediction accuracy.
 *
 * Uses reduced sampling so it finishes in a few seconds; the bench/
 * binaries regenerate the full-scale results.
 */

#include <cstdio>

#include "core/suite_model.hh"
#include "core/transferability.hh"
#include "pipeline/stages.hh"
#include "workload/suites.hh"

int
main()
{
    using namespace wct;

    CollectionConfig collection;
    collection.intervalInstructions = 8192;
    collection.baseIntervals = 350;
    collection.warmupInstructions = 1'000'000;

    std::printf("collecting both suites...\n");
    const SuiteData cpu_data =
        pipeline::collectSuite(specCpu2006(), collection);
    collection.seed = 0x0317; // independent streams for the 2nd suite
    const SuiteData omp_data =
        pipeline::collectSuite(specOmp2001(), collection);

    SuiteModelConfig model_config;
    model_config.trainFraction = 0.10;
    model_config.tree.minLeafInstances = 25;
    model_config.tree.minLeafFraction = 0.025;
    model_config.seed = 0xbee5;
    const SuiteModel cpu = buildSuiteModel(cpu_data, model_config);
    const SuiteModel omp = buildSuiteModel(omp_data, model_config);
    std::printf("CPU2006 model: %zu leaves from %zu samples\n",
                cpu.tree.numLeaves(), cpu.train.numRows());
    std::printf("OMP2001 model: %zu leaves from %zu samples\n\n",
                omp.tree.numLeaves(), omp.train.numRows());

    struct Direction
    {
        const char *title;
        const SuiteModel *model;
        const Dataset *target;
    };
    const Direction directions[] = {
        {"CPU2006 -> its own held-out data", &cpu, &cpu.test},
        {"CPU2006 -> OMP2001", &cpu, &omp.test},
        {"OMP2001 -> its own held-out data", &omp, &omp.test},
        {"OMP2001 -> CPU2006", &omp, &cpu.test},
    };

    for (const Direction &dir : directions) {
        auto report = assessTransferability(
            dir.model->tree, dir.model->train, *dir.target);
        report.modelName = dir.model->suiteName;
        report.targetName = dir.title;
        std::printf("%s\n", report.render().c_str());
    }

    std::printf("expected shape (paper Section VI): models transfer "
                "to held-out data of their own suite but not across "
                "suites, in either direction.\n");
    return 0;
}
