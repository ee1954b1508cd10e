/**
 * @file
 * Perf smoke of the tree builders: a fixed-scale comparison of the
 * three tree-building engines (Serial / Presorted / Parallel) under
 * two configs — the growth phase alone (constant leaves, no
 * prune/smooth: the code the presorted path replaced) and the full
 * default pipeline — that checks all engines serialize
 * byte-identically in both and writes BENCH_mtree.json:
 *
 *   perf_mtree --smoke [--rows=N] [--reps=R] [--out=FILE]
 *                      [--baseline=FILE]
 *
 * The comparison is the binary's only mode; `--smoke` names it and
 * may be omitted.
 *
 * With --baseline, the run fails (exit 1) when the measured
 * growth-phase presorted-over-serial speedup drops below 75% of the
 * baseline's — a machine-independent regression gate (both numbers
 * come from the same host), wired into ctest under the perf-smoke
 * label.
 */

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <limits>
#include <iostream>
#include <sstream>
#include <string>
#include <string_view>

#include "bench/run_meta.hh"
#include "data/dataset.hh"
#include "mtree/model_tree.hh"
#include "util/rng.hh"
#include "util/thread_pool.hh"

namespace
{

using namespace wct;

/** Synthetic piecewise dataset shaped like PMU samples (20 cols). */
Dataset
syntheticSamples(std::size_t n, std::uint64_t seed)
{
    std::vector<std::string> names = {"CPI"};
    for (int i = 1; i < 20; ++i)
        names.push_back("m" + std::to_string(i));
    Dataset d(names);
    Rng rng(seed);
    std::vector<double> row(20);
    for (std::size_t r = 0; r < n; ++r) {
        for (int c = 1; c < 20; ++c)
            row[c] = rng.uniform(0.0, 0.1);
        const double base = row[1] > 0.05 ? 1.2 : 0.4;
        row[0] = base + 8.0 * row[2] + 120.0 * row[3] +
            rng.normal(0.0, 0.05);
        d.addRow(row);
    }
    return d;
}

ModelTreeConfig
trainConfig(TreeBuilderKind builder)
{
    ModelTreeConfig config;
    config.builder = builder;
    config.minLeafFraction = 0.02;
    return config;
}

struct SmokeResult
{
    double ms = 0.0;       ///< best wall time over the reps
    std::string serialized; ///< save() output (identity check)
};

/**
 * The growth-phase config: constant leaves with pruning and
 * smoothing off isolates exactly what the presorted engine rebuilt —
 * node moments, split search, and partitioning — from the
 * engine-independent leaf-model linear algebra (greedy subset
 * selection costs the same per node in every engine and would only
 * dilute the ratio the gate watches).
 */
ModelTreeConfig
growthConfig(TreeBuilderKind builder)
{
    ModelTreeConfig config = trainConfig(builder);
    config.constantLeaves = true;
    config.smooth = false;
    config.prune = false;
    return config;
}

SmokeResult
timeEngine(const Dataset &data, const ModelTreeConfig &config,
           int reps)
{
    SmokeResult result;
    result.ms = std::numeric_limits<double>::infinity();
    for (int rep = 0; rep < reps; ++rep) {
        const auto start = std::chrono::steady_clock::now();
        const ModelTree tree = ModelTree::train(data, "CPI", config);
        const auto stop = std::chrono::steady_clock::now();
        result.ms = std::min(
            result.ms,
            std::chrono::duration<double, std::milli>(stop - start)
                .count());
        if (result.serialized.empty()) {
            std::ostringstream out;
            tree.save(out);
            result.serialized = out.str();
        }
    }
    return result;
}

struct EngineComparison
{
    double serial_ms = 0.0;
    double presorted_ms = 0.0;
    double parallel_ms = 0.0;
    bool identical = false;
};

template <typename MakeConfig>
EngineComparison
compareEngines(const Dataset &data, MakeConfig make_config, int reps)
{
    const SmokeResult serial =
        timeEngine(data, make_config(TreeBuilderKind::Serial), reps);
    const SmokeResult presorted = timeEngine(
        data, make_config(TreeBuilderKind::Presorted), reps);
    const SmokeResult parallel = timeEngine(
        data, make_config(TreeBuilderKind::Parallel), reps);
    EngineComparison cmp;
    cmp.serial_ms = serial.ms;
    cmp.presorted_ms = presorted.ms;
    cmp.parallel_ms = parallel.ms;
    cmp.identical = serial.serialized == presorted.serialized &&
        serial.serialized == parallel.serialized;
    return cmp;
}

int
runSmoke(int argc, char **argv)
{
    std::size_t rows = 8000;
    int reps = 3;
    std::string out_path = "BENCH_mtree.json";
    std::string baseline_path;
    for (int i = 1; i < argc; ++i) {
        const std::string_view arg = argv[i];
        if (arg == "--smoke")
            continue;
        if (arg.rfind("--rows=", 0) == 0)
            rows = static_cast<std::size_t>(
                std::strtoul(arg.data() + 7, nullptr, 10));
        else if (arg.rfind("--reps=", 0) == 0)
            reps = std::max(
                1, static_cast<int>(std::strtol(arg.data() + 7,
                                                nullptr, 10)));
        else if (arg.rfind("--out=", 0) == 0)
            out_path = std::string(arg.substr(6));
        else if (arg.rfind("--baseline=", 0) == 0)
            baseline_path = std::string(arg.substr(11));
        else {
            std::cerr << "perf_mtree: unknown smoke option " << arg
                      << "\n";
            return 1;
        }
    }

    const Dataset data = syntheticSamples(rows, 1);
    const std::size_t threads = ThreadPool::configuredThreads();

    // Two measurements per engine: the growth phase (what the
    // presorted path replaced — the headline gated number) and the
    // full default pipeline (prune + smooth + simplified leaf
    // models), whose engine-independent linear algebra dilutes the
    // end-to-end ratio but is what users actually run.
    const EngineComparison growth =
        compareEngines(data, growthConfig, reps);
    const EngineComparison full =
        compareEngines(data, trainConfig, reps);

    const bool identical = growth.identical && full.identical;
    const double growth_speedup_presorted =
        growth.serial_ms / growth.presorted_ms;
    const double growth_speedup_parallel =
        growth.serial_ms / growth.parallel_ms;
    const double full_speedup_presorted =
        full.serial_ms / full.presorted_ms;
    const double full_speedup_parallel =
        full.serial_ms / full.parallel_ms;

    bench::Report("perf_mtree --smoke")
        .add("rows", rows)
        .add("cols", data.numColumns())
        .add("threads", threads)
        .add("reps", reps)
        .add("growth_serial_ms", growth.serial_ms)
        .add("growth_presorted_ms", growth.presorted_ms)
        .add("growth_parallel_ms", growth.parallel_ms)
        .add("growth_speedup_presorted", growth_speedup_presorted)
        .add("growth_speedup_parallel", growth_speedup_parallel)
        .add("full_serial_ms", full.serial_ms)
        .add("full_presorted_ms", full.presorted_ms)
        .add("full_parallel_ms", full.parallel_ms)
        .add("full_speedup_presorted", full_speedup_presorted)
        .add("full_speedup_parallel", full_speedup_parallel)
        .add("trees_identical", identical)
        .write(out_path);

    if (!identical) {
        std::cerr << "perf_mtree: FAIL: the three engines serialized "
                     "different trees\n";
        return 1;
    }
    if (!baseline_path.empty() &&
        !bench::baselineGate("perf_mtree", "speedup", baseline_path,
                             "growth_speedup_presorted",
                             growth_speedup_presorted))
        return 1;
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return runSmoke(argc, argv);
}
