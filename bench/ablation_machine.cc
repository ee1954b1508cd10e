/**
 * @file
 * Machine-sensitivity study. Section III of the paper cautions that
 * its models are "specific to the architecture, platform, and
 * compiler used"; this ablation quantifies that by re-running the
 * same workloads on perturbed machines (smaller L2, no prefetcher,
 * smaller DTLB, random-replacement caches) and asking the paper's own
 * transferability question across *machines* instead of across
 * workload suites: does the baseline-machine model still predict CPI
 * measured on the changed machine?
 */

#include <cstdio>

#include "bench/harness.hh"
#include "core/suite_model.hh"
#include "core/transferability.hh"
#include "stats/metrics.hh"
#include "util/string_utils.hh"
#include "util/text_table.hh"
#include "workload/suites.hh"

namespace
{

using namespace wct;

CollectionConfig
reducedCollection()
{
    CollectionConfig config;
    config.intervalInstructions = 4096;
    config.baseIntervals = 150;
    config.warmupInstructions = 1'000'000;
    // Exact counting: this ablation studies machine effects, so
    // multiplexing noise is turned off to isolate them.
    config.multiplexed = false;
    return config;
}

struct Variant
{
    const char *name;
    CoreConfig machine;
};

std::vector<Variant>
variants()
{
    std::vector<Variant> out;
    out.push_back({"baseline (Core2-like)", CoreConfig{}});

    CoreConfig half_l2;
    half_l2.l2.sizeBytes = 1 * 1024 * 1024;
    out.push_back({"1 MB L2 (vs 4 MB)", half_l2});

    CoreConfig no_prefetch;
    no_prefetch.prefetchEnabled = false;
    out.push_back({"no L2 stream prefetcher", no_prefetch});

    CoreConfig small_tlb;
    small_tlb.dtlb.entries = 64;
    out.push_back({"64-entry DTLB (vs 256)", small_tlb});

    CoreConfig random_caches;
    random_caches.l1d.policy = ReplacementPolicy::Random;
    random_caches.l2.policy = ReplacementPolicy::Random;
    out.push_back({"random-replacement L1D/L2", random_caches});

    CoreConfig plru;
    plru.l1d.policy = ReplacementPolicy::TreePlru;
    plru.l2.policy = ReplacementPolicy::TreePlru;
    out.push_back({"tree-PLRU L1D/L2", plru});
    return out;
}

} // namespace

int
main()
{
    using namespace wct;
    bench::banner("Ablation H: machine sensitivity — retrain on each "
                  "machine, and transfer the baseline model across "
                  "machines");

    const SuiteProfile &suite = suiteByName("cpu2006");
    SuiteModelConfig mconfig = pipeline::standardModelConfig();

    // Collect + model per machine variant.
    struct Entry
    {
        const Variant *variant;
        SuiteModel model;
    };
    const auto all = variants();
    std::vector<Entry> entries;
    for (const Variant &variant : all) {
        CollectionConfig config = reducedCollection();
        config.machine = variant.machine;
        std::fprintf(stderr, "[ablation_machine] collecting on %s\n",
                     variant.name);
        const SuiteData data = pipeline::collectSuite(suite, config);
        entries.push_back(
            {&variant, buildSuiteModel(data, mconfig)});
    }

    TextTable table({"machine", "mean CPI", "leaves", "self C",
                     "self MAE", "baseline->here C",
                     "baseline->here MAE", "transfers?"});
    const SuiteModel &baseline = entries.front().model;
    for (const Entry &entry : entries) {
        const auto self = computeAccuracy(
            entry.model.tree.predictAll(entry.model.test),
            entry.model.test.column("CPI"));
        const auto report = assessTransferability(
            baseline.tree, baseline.train, entry.model.test);
        table.addRow({
            entry.variant->name,
            formatDouble(entry.model.meanCpi, 3),
            std::to_string(entry.model.tree.numLeaves()),
            formatDouble(self.correlation, 3),
            formatDouble(self.meanAbsoluteError, 3),
            formatDouble(report.accuracy.correlation, 3),
            formatDouble(report.accuracy.meanAbsoluteError, 3),
            report.transferableByAccuracy() ? "yes" : "NO",
        });
    }
    std::printf("%s", table.render().c_str());
    std::printf("\n(the baseline row transfers to itself by "
                "construction; rows where the perturbation shifts "
                "miss costs materially should fail, echoing the "
                "paper's architecture-specificity caveat)\n");
    return 0;
}
