/**
 * @file
 * Perf smoke of the staged pipeline's artifact cache.
 *
 * Runs a plan twice against a fresh artifact store — a cold run that
 * computes and stores every stage, then warm runs served entirely
 * from the store — and writes BENCH_pipeline.json:
 *
 *   perf_pipeline [--plan=NAME] [--intervals=N] [--reps=R]
 *                 [--cache=DIR] [--out=FILE] [--baseline=FILE]
 *
 * Three correctness gates always apply: the warm run must be 100%
 * cache hits, cold and warm plan outputs must be byte-identical, and
 * the warm-over-cold speedup must clear the 5x floor (a warm run
 * decodes artifacts instead of simulating, so anything near 1x means
 * the cache is not actually being hit). With --baseline, the speedup
 * must additionally stay within 75% of the checked-in baseline ratio
 * — machine-independent, since both numbers come from the same host.
 * Wired into ctest under the perf-smoke label.
 */

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>
#include <string_view>

#include <unistd.h>

#include "bench/run_meta.hh"
#include "pipeline/plans.hh"

namespace
{

using namespace wct;

struct TimedRun
{
    double ms = 0.0;
    std::string output;    ///< rendered plan results
    bool allCached = false;
    std::size_t stages = 0;
    std::size_t hits = 0;
};

TimedRun
timePlan(const std::string &plan,
         const pipeline::PlanProtocol &protocol,
         const std::string &cache_dir)
{
    TimedRun result;
    std::ostringstream out;
    pipeline::Pipeline pipe{ArtifactStore(cache_dir)};
    const auto start = std::chrono::steady_clock::now();
    pipeline::runPlan(pipe, plan, protocol, out);
    const auto stop = std::chrono::steady_clock::now();
    result.ms =
        std::chrono::duration<double, std::milli>(stop - start)
            .count();
    result.output = out.str();
    result.allCached = pipe.allCached();
    result.stages = pipe.runs().size();
    result.hits = pipe.cachedCount();
    return result;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string plan = "cpu2006";
    std::size_t intervals = 40;
    int reps = 2;
    std::string cache_dir;
    std::string out_path = "BENCH_pipeline.json";
    std::string baseline_path;
    for (int i = 1; i < argc; ++i) {
        const std::string_view arg = argv[i];
        if (arg.rfind("--plan=", 0) == 0)
            plan = std::string(arg.substr(7));
        else if (arg.rfind("--intervals=", 0) == 0)
            intervals = static_cast<std::size_t>(
                std::strtoul(arg.data() + 12, nullptr, 10));
        else if (arg.rfind("--reps=", 0) == 0)
            reps = std::max(
                1, static_cast<int>(
                       std::strtol(arg.data() + 7, nullptr, 10)));
        else if (arg.rfind("--cache=", 0) == 0)
            cache_dir = std::string(arg.substr(8));
        else if (arg.rfind("--out=", 0) == 0)
            out_path = std::string(arg.substr(6));
        else if (arg.rfind("--baseline=", 0) == 0)
            baseline_path = std::string(arg.substr(11));
        else {
            std::cerr << "perf_pipeline: unknown option " << arg
                      << "\n";
            return 1;
        }
    }
    if (!pipeline::isPlanName(plan)) {
        std::cerr << "perf_pipeline: unknown plan " << plan << "\n";
        return 1;
    }

    // Reduced-scale protocol (same rationale as perf_collect): short
    // warmup and few intervals keep the smoke inside ctest budgets
    // while running the real stage graph end to end.
    pipeline::PlanProtocol protocol;
    protocol.collection.intervalInstructions = 2048;
    protocol.collection.baseIntervals = intervals;
    protocol.collection.warmupInstructions = 100'000;

    // A fresh store guarantees the first run is genuinely cold.
    namespace fs = std::filesystem;
    if (cache_dir.empty())
        cache_dir = (fs::temp_directory_path() /
                     ("wct_perf_pipeline_" +
                      std::to_string(::getpid())))
                        .string();
    fs::remove_all(cache_dir);

    const TimedRun cold = timePlan(plan, protocol, cache_dir);
    TimedRun warm;
    warm.ms = std::numeric_limits<double>::infinity();
    bool warm_all_cached = true;
    bool identical = true;
    for (int rep = 0; rep < reps; ++rep) {
        const TimedRun run = timePlan(plan, protocol, cache_dir);
        warm_all_cached = warm_all_cached && run.allCached;
        identical = identical && run.output == cold.output;
        if (run.ms < warm.ms)
            warm = run;
    }
    fs::remove_all(cache_dir);

    const double speedup = cold.ms / warm.ms;
    bench::Report("perf_pipeline")
        .add("plan", plan)
        .add("base_intervals", intervals)
        .add("stages", cold.stages)
        .add("reps", reps)
        .add("cold_ms", cold.ms)
        .add("warm_ms", warm.ms)
        .add("speedup", speedup)
        .add("warm_hits", warm.hits)
        .add("warm_all_cached", warm_all_cached)
        .add("byte_identical", identical)
        .write(out_path);

    if (!warm_all_cached) {
        std::cerr << "perf_pipeline: FAIL: a warm run missed the "
                     "cache (" << warm.hits << "/" << warm.stages
                  << " hits)\n";
        return 1;
    }
    if (!identical) {
        std::cerr << "perf_pipeline: FAIL: warm plan output differs "
                     "from the cold run\n";
        return 1;
    }
    if (speedup < 5.0) {
        std::cerr << "perf_pipeline: FAIL: warm run only " << speedup
                  << "x faster than cold; the artifact cache is not "
                     "paying for itself\n";
        return 1;
    }
    if (!baseline_path.empty() &&
        !bench::baselineGate("perf_pipeline", "speedup",
                             baseline_path, "speedup", speedup))
        return 1;
    return 0;
}
