/**
 * @file
 * Ablation of the measurement methodology: round-robin counter
 * multiplexing (what the paper's 5-counter PMU forces) versus exact
 * whole-interval counting — estimate noise per event, and the effect
 * on downstream model accuracy.
 */

#include <cmath>
#include <cstdio>

#include "bench/harness.hh"
#include "core/suite_model.hh"
#include "workload/suites.hh"
#include "stats/metrics.hh"
#include "util/string_utils.hh"
#include "util/text_table.hh"

int
main()
{
    using namespace wct;

    // Collect a reduced CPU2006 twice: exact and multiplexed, from
    // identical instruction streams.
    CollectionConfig exact_config = pipeline::standardCollection();
    exact_config.baseIntervals = 150;
    exact_config.multiplexed = false;
    CollectionConfig mux_config = exact_config;
    mux_config.multiplexed = true;

    const auto &suite = suiteByName("cpu2006");
    std::fprintf(stderr, "[ablation_pmu] collecting exact + "
                         "multiplexed runs ...\n");
    const SuiteData exact = pipeline::collectSuite(suite, exact_config);
    const SuiteData mux = pipeline::collectSuite(suite, mux_config);

    bench::banner("Ablation E: multiplexing noise per event "
                  "(suite-pooled mean and sd of densities)");
    const Dataset exact_pooled = exact.pooled();
    const Dataset mux_pooled = mux.pooled();
    TextTable table({"metric", "exact mean", "mux mean", "exact sd",
                     "mux sd", "sd inflation"});
    for (std::size_t c = 0; c < exact_pooled.numColumns(); ++c) {
        const auto e = exact_pooled.summarize(c);
        const auto m = mux_pooled.summarize(c);
        const double inflation =
            e.stddev > 0.0 ? m.stddev / e.stddev : 0.0;
        table.addRow({exact_pooled.columnNames()[c],
                      formatCompact(e.mean), formatCompact(m.mean),
                      formatCompact(e.stddev),
                      formatCompact(m.stddev),
                      formatDouble(inflation, 2)});
    }
    std::printf("%s", table.render().c_str());

    bench::banner("Ablation F: model accuracy trained on exact vs "
                  "multiplexed samples");
    SuiteModelConfig mconfig = pipeline::standardModelConfig();
    const SuiteModel exact_model = buildSuiteModel(exact, mconfig);
    const SuiteModel mux_model = buildSuiteModel(mux, mconfig);

    TextTable acc({"collection", "leaves", "C", "MAE"});
    for (const auto *entry : {&exact_model, &mux_model}) {
        const auto metrics = computeAccuracy(
            entry->tree.predictAll(entry->test),
            entry->test.column("CPI"));
        acc.addRow({entry == &exact_model ? "exact" : "multiplexed",
                    std::to_string(entry->tree.numLeaves()),
                    formatDouble(metrics.correlation, 4),
                    formatDouble(metrics.meanAbsoluteError, 4)});
    }
    std::printf("%s", acc.render().c_str());
    std::printf("(the paper's hardware multiplexes 19 events over 2 "
                "programmable counters in 2M-instruction windows)\n");
    return 0;
}
