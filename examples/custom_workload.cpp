/**
 * @file
 * Characterizing a new workload against an existing suite model:
 * define a custom benchmark profile, collect its PMU samples, then
 * (a) classify it into the suite tree's behaviour classes, (b) find
 * its nearest neighbours in the suite, and (c) check whether the
 * suite model transfers to it — the workflow a performance engineer
 * would use to decide if an existing model covers a new application.
 */

#include <algorithm>
#include <cstdio>

#include "core/profile_table.hh"
#include "core/suite_model.hh"
#include "core/transferability.hh"
#include "pipeline/stages.hh"
#include "workload/suites.hh"

int
main()
{
    using namespace wct;

    // A made-up "in-memory database" workload: hash probes over a
    // large heap plus a write-heavy logging phase.
    BenchmarkProfile custom;
    custom.name = "900.memdb";
    custom.phaseRunLength = 25000;

    PhaseProfile probe;
    probe.name = "probe";
    probe.weight = 0.7;
    probe.loadFrac = 0.34;
    probe.storeFrac = 0.06;
    probe.branchFrac = 0.16;
    probe.dataFootprint = 192ull << 20;
    probe.hotBytes = 48 << 10;
    probe.hotFrac = 0.97;
    probe.pointerChaseFrac = 0.35;
    probe.branchEntropy = 0.15;

    PhaseProfile log;
    log.name = "log";
    log.weight = 0.3;
    log.loadFrac = 0.20;
    log.storeFrac = 0.22;
    log.streamFrac = 0.8;
    log.dataFootprint = 64ull << 20;
    custom.phases = {probe, log};

    // Collect the CPU2006 stand-in suite and the custom workload
    // under the identical measurement protocol.
    CollectionConfig collection;
    collection.intervalInstructions = 4096;
    collection.baseIntervals = 150;
    collection.warmupInstructions = 800'000;
    std::printf("collecting the reference suite...\n");
    SuiteData data = pipeline::collectSuite(specCpu2006(), collection);

    // A one-benchmark suite: stream seeds derive from benchmark
    // names, so this collects exactly what a suite holding it would.
    std::printf("collecting %s...\n", custom.name.c_str());
    SuiteProfile custom_suite;
    custom_suite.name = custom.name;
    custom_suite.benchmarks = {custom};
    const BenchmarkData custom_data =
        pipeline::collectSuite(custom_suite, collection).benchmarks[0];

    SuiteModelConfig model_config;
    model_config.trainFraction = 0.25;
    model_config.tree.minLeafInstances = 20;
    model_config.tree.minLeafFraction = 0.03;
    const SuiteModel model = buildSuiteModel(data, model_config);

    // (a) Classify the new workload through the suite tree by adding
    // it to a profile table.
    SuiteData combined = data;
    combined.benchmarks.push_back(custom_data);
    const ProfileTable profiles(combined, model.tree);
    const auto &row = profiles.row(custom.name);
    std::printf("\n%s distribution over the suite's behaviour "
                "classes:\n",
                custom.name.c_str());
    for (std::size_t i = 0; i < row.percent.size(); ++i)
        if (row.percent[i] >= 5.0)
            std::printf("  LM%-3zu %5.1f%%\n", i + 1, row.percent[i]);
    std::printf("  mean CPI %.2f (suite mean %.2f)\n", row.meanCpi,
                profiles.suiteRow().meanCpi);

    // (b) Nearest suite benchmarks by profile distance.
    struct Neighbour
    {
        std::string name;
        double distance;
    };
    std::vector<Neighbour> neighbours;
    for (const auto &bench : profiles.rows()) {
        if (bench.name == custom.name)
            continue;
        neighbours.push_back(
            {bench.name, ProfileTable::distance(row, bench)});
    }
    std::sort(neighbours.begin(), neighbours.end(),
              [](const Neighbour &a, const Neighbour &b) {
                  return a.distance < b.distance;
              });
    std::printf("\nnearest suite benchmarks:\n");
    for (std::size_t i = 0; i < 3 && i < neighbours.size(); ++i)
        std::printf("  %-16s %5.1f%%\n", neighbours[i].name.c_str(),
                    neighbours[i].distance);

    // (c) Does the suite model transfer to the new workload?
    TransferabilityConfig transfer_config;
    transfer_config.modelName = model.suiteName;
    transfer_config.targetName = custom.name;
    const auto report = assessTransferability(
        model.tree, model.train, custom_data.samples, transfer_config);
    std::printf("\n%s\n", report.render().c_str());
    return 0;
}
