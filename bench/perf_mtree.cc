/**
 * @file
 * Perf smoke of tree training: times the reference per-node-sorting
 * growth of tests/support/tree_oracle.hh against the presorted
 * builder of ModelTree::train, inline on a thread-less pool and on
 * the configured pool, checks that both grow the reference's leaves
 * and serialize identically, and writes BENCH_mtree.json:
 *
 *   perf_mtree --smoke [--rows=N] [--reps=R] [--out=FILE]
 *                      [--baseline=FILE]
 *
 * The comparison is the binary's only mode; `--smoke` names it and
 * may be omitted.
 *
 * With --baseline, the run fails (exit 1) when the growth-phase
 * speedup of the thread-less builder over the reference drops below
 * 75% of the baseline's — a machine-independent regression gate
 * (both numbers come from the same host), wired into ctest under the
 * perf-smoke label. The speedup is the median over `reps` pairs of
 * one reference rep and one builder rep, run alternately (ABAB...);
 * growth_serial_ms and growth_presorted_ms are the medians of each
 * side's reps.
 */

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "bench/run_meta.hh"
#include "data/dataset.hh"
#include "mtree/model_tree.hh"
#include "tests/support/tree_oracle.hh"
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
trainConfig()
{
    ModelTreeConfig config;
    config.minLeafFraction = 0.02;
    return config;
}

/**
 * The growth-phase config: constant leaves with pruning and
 * smoothing off isolates exactly what the presorted builder rebuilt —
 * node moments, split search, and partitioning — from the leaf-model
 * linear algebra (greedy subset selection costs the same per node
 * however the tree grows and would only dilute the ratio the gate
 * watches).
 */
ModelTreeConfig
growthConfig()
{
    ModelTreeConfig config = trainConfig();
    config.constantLeaves = true;
    config.smooth = false;
    config.prune = false;
    return config;
}

/** Wall time of one call of `run`, in milliseconds; `out` keeps its
 * result (replaced outside the timed region). */
template <typename Result, typename Run>
double
timeMs(Result &out, Run run)
{
    const auto start = std::chrono::steady_clock::now();
    Result result = run();
    const auto stop = std::chrono::steady_clock::now();
    out = std::move(result);
    return std::chrono::duration<double, std::milli>(stop - start)
        .count();
}

/** Best wall time of `reps` calls of `run`, in milliseconds. */
template <typename Result, typename Run>
double
bestMs(int reps, Result &out, Run run)
{
    double best = std::numeric_limits<double>::infinity();
    for (int rep = 0; rep < reps; ++rep)
        best = std::min(best, timeMs(out, run));
    return best;
}

double
median(std::vector<double> values)
{
    std::sort(values.begin(), values.end());
    const std::size_t mid = values.size() / 2;
    return values.size() % 2 == 1
        ? values[mid]
        : 0.5 * (values[mid - 1] + values[mid]);
}

/** The builder on a pool of `workers` threads. */
struct BuilderRun
{
    double growth_ms = 0.0;
    double full_ms = 0.0;
    ModelTree grown;   ///< growth-config tree
    std::string saved; ///< save() of the default-config tree
};

/** Best time of the default-config builder on the current pool, and
 * the text of its tree. */
double
timeFull(const Dataset &data, int reps, std::string &saved)
{
    ModelTree full;
    const double ms = bestMs(reps, full, [&] {
        return ModelTree::train(data, "CPI", trainConfig());
    });
    std::ostringstream out;
    full.save(out);
    saved = out.str();
    return ms;
}

BuilderRun
timeBuilder(const Dataset &data, std::size_t workers, int reps)
{
    ThreadPool::resetGlobalForTest(workers);
    BuilderRun run;
    run.growth_ms = bestMs(reps, run.grown, [&] {
        return ModelTree::train(data, "CPI", growthConfig());
    });
    run.full_ms = timeFull(data, reps, run.saved);
    return run;
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

    // The gated number: the reference growth and the builder inline
    // (pool of no threads) alternate, one rep each per pair, and the
    // gate reads the median of the per-pair ratios. A burst of host
    // load then lands on one or two pairs instead of on every rep of
    // one side. The builder on the configured pool and the full
    // default pipeline (prune + smooth + simplified leaf models, what
    // users actually run) are reported, not gated.
    ThreadPool::resetGlobalForTest(0);
    std::vector<oracle::GrownLeaf> reference;
    BuilderRun presorted;
    std::vector<double> reference_reps;
    std::vector<double> presorted_reps;
    std::vector<double> pair_ratios;
    for (int rep = 0; rep < reps; ++rep) {
        reference_reps.push_back(timeMs(reference, [&] {
            return oracle::growBySorting(data, "CPI", growthConfig());
        }));
        presorted_reps.push_back(timeMs(presorted.grown, [&] {
            return ModelTree::train(data, "CPI", growthConfig());
        }));
        pair_ratios.push_back(reference_reps.back() /
                              presorted_reps.back());
    }
    const double reference_ms = median(reference_reps);
    presorted.growth_ms = median(presorted_reps);
    presorted.full_ms = timeFull(data, reps, presorted.saved);
    const BuilderRun parallel =
        timeBuilder(data, threads <= 1 ? 0 : threads, reps);

    std::optional<std::string> mismatch =
        oracle::compareGrowth(presorted.grown, reference);
    if (!mismatch)
        mismatch = oracle::compareGrowth(parallel.grown, reference);
    if (!mismatch && presorted.saved != parallel.saved)
        mismatch = "the pooled tree serializes differently";
    const double growth_speedup_presorted = median(pair_ratios);

    bench::Report("perf_mtree --smoke")
        .add("rows", rows)
        .add("cols", data.numColumns())
        .add("threads", threads)
        .add("reps", reps)
        .add("growth_serial_ms", reference_ms)
        .add("growth_presorted_ms", presorted.growth_ms)
        .add("growth_parallel_ms", parallel.growth_ms)
        .add("growth_speedup_presorted", growth_speedup_presorted)
        .add("growth_speedup_parallel",
             reference_ms / parallel.growth_ms)
        .add("full_presorted_ms", presorted.full_ms)
        .add("full_parallel_ms", parallel.full_ms)
        .add("trees_identical", !mismatch)
        .write(out_path);

    if (mismatch) {
        std::cerr << "perf_mtree: FAIL: " << *mismatch << "\n";
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
