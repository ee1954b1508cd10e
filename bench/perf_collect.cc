/**
 * @file
 * Perf smoke of the parallel suite-collection pipeline.
 *
 * Collects a reduced-scale CPU2006 suite twice — once on an inline
 * (serial) pool and once with worker threads — checks the two
 * SuiteData serialize byte-identically (the determinism contract of
 * collectSuite), and writes BENCH_collect.json:
 *
 *   perf_collect [--intervals=N] [--shards=S] [--threads=T]
 *                [--reps=R] [--out=FILE] [--baseline=FILE]
 *
 * With --baseline, the run fails (exit 1) when the measured
 * parallel-over-serial speedup drops below 75% of the baseline's — a
 * machine-independent regression gate (both numbers come from the
 * same host), wired into ctest under the perf-smoke label. On a
 * multi-core host the speedup approaches the worker count (the
 * (benchmark, shard) tasks are embarrassingly parallel); on a
 * single-core host it hovers near 1x and the gate only watches for
 * the parallel path regressing against the serial one.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>

#include "bench/run_meta.hh"
#include "core/collect.hh"
#include "core/suite_io.hh"
#include "pipeline/stages.hh"
#include "util/thread_pool.hh"
#include "workload/suites.hh"

namespace
{

using namespace wct;

struct TimedCollection
{
    double ms = 0.0;        ///< best wall time over the reps
    std::string serialized; ///< writeSuiteData bytes (identity check)
};

TimedCollection
timeCollection(const SuiteProfile &suite, const CollectionConfig &config,
               std::size_t workers, int reps)
{
    ThreadPool::resetGlobalForTest(workers);
    TimedCollection result;
    result.ms = std::numeric_limits<double>::infinity();
    for (int rep = 0; rep < reps; ++rep) {
        const auto start = std::chrono::steady_clock::now();
        const SuiteData data = pipeline::collectSuite(suite, config);
        const auto stop = std::chrono::steady_clock::now();
        result.ms = std::min(
            result.ms,
            std::chrono::duration<double, std::milli>(stop - start)
                .count());
        if (result.serialized.empty()) {
            std::ostringstream bytes;
            writeSuiteData(bytes, data);
            result.serialized = bytes.str();
        }
    }
    return result;
}

/** Value of the first `"key": <number>` in a (flat) JSON text. */
double
jsonNumber(const std::string &text, const std::string &key)
{
    const std::string quoted = "\"" + key + "\"";
    const std::size_t pos = text.find(quoted);
    if (pos == std::string::npos)
        return std::nan("");
    const std::size_t colon = text.find(':', pos + quoted.size());
    if (colon == std::string::npos)
        return std::nan("");
    return std::strtod(text.c_str() + colon + 1, nullptr);
}

} // namespace

int
main(int argc, char **argv)
{
    std::size_t intervals = 40;
    std::size_t shards = 4;
    std::size_t threads = 4;
    int reps = 2;
    std::string out_path = "BENCH_collect.json";
    std::string baseline_path;
    for (int i = 1; i < argc; ++i) {
        const std::string_view arg = argv[i];
        if (arg.rfind("--intervals=", 0) == 0)
            intervals = static_cast<std::size_t>(
                std::strtoul(arg.data() + 12, nullptr, 10));
        else if (arg.rfind("--shards=", 0) == 0)
            shards = std::max<std::size_t>(
                1, std::strtoul(arg.data() + 9, nullptr, 10));
        else if (arg.rfind("--threads=", 0) == 0)
            threads = std::max<std::size_t>(
                1, std::strtoul(arg.data() + 10, nullptr, 10));
        else if (arg.rfind("--reps=", 0) == 0)
            reps = std::max(
                1, static_cast<int>(
                       std::strtol(arg.data() + 7, nullptr, 10)));
        else if (arg.rfind("--out=", 0) == 0)
            out_path = std::string(arg.substr(6));
        else if (arg.rfind("--baseline=", 0) == 0)
            baseline_path = std::string(arg.substr(11));
        else {
            std::cerr << "perf_collect: unknown option " << arg
                      << "\n";
            return 1;
        }
    }

    // Reduced-scale measurement protocol: short warmup and few
    // intervals keep the smoke test in ctest time budgets while
    // exercising every benchmark of the real suite.
    const SuiteProfile &suite = specCpu2006();
    CollectionConfig config;
    config.intervalInstructions = 2048;
    config.baseIntervals = intervals;
    config.warmupInstructions = 100'000;
    config.shards = shards;

    const TimedCollection serial =
        timeCollection(suite, config, 0, reps);
    const TimedCollection parallel =
        timeCollection(suite, config, threads, reps);
    ThreadPool::resetGlobalForTest(
        ThreadPool::configuredThreads() <= 1
            ? 0
            : ThreadPool::configuredThreads());

    const bool identical = serial.serialized == parallel.serialized;
    const double speedup = serial.ms / parallel.ms;

    std::ostringstream json;
    json << "{\n"
         << "  \"benchmark\": \"perf_collect\",\n"
         << bench::runMetadataJson("  ") << ",\n"
         << "  \"suite\": \"" << suite.name << "\",\n"
         << "  \"benchmarks\": " << suite.benchmarks.size() << ",\n"
         << "  \"base_intervals\": " << intervals << ",\n"
         << "  \"shards\": " << shards << ",\n"
         << "  \"threads\": " << threads << ",\n"
         << "  \"host_cpus\": "
         << std::thread::hardware_concurrency() << ",\n"
         << "  \"reps\": " << reps << ",\n"
         << "  \"serial_ms\": " << serial.ms << ",\n"
         << "  \"parallel_ms\": " << parallel.ms << ",\n"
         << "  \"speedup\": " << speedup << ",\n"
         << "  \"byte_identical\": "
         << (identical ? "true" : "false") << "\n"
         << "}\n";
    std::ofstream out(out_path);
    out << json.str();
    out.close();
    std::cout << json.str();

    if (!identical) {
        std::cerr << "perf_collect: FAIL: serial and parallel "
                     "collection serialized different suites\n";
        return 1;
    }
    if (!baseline_path.empty()) {
        std::ifstream in(baseline_path);
        if (!in) {
            std::cerr << "perf_collect: cannot read baseline "
                      << baseline_path << "\n";
            return 1;
        }
        std::stringstream buf;
        buf << in.rdbuf();
        const double base = jsonNumber(buf.str(), "speedup");
        if (std::isnan(base) || base <= 0.0) {
            std::cerr << "perf_collect: baseline has no usable "
                         "speedup\n";
            return 1;
        }
        // Gate on the speedup *ratio*, not absolute times: both the
        // numerator and denominator were measured on this host, so
        // the check transfers across machines and CI load.
        const double floor = 0.75 * base;
        if (speedup < floor) {
            std::cerr << "perf_collect: FAIL: parallel collection "
                      << "speedup " << speedup
                      << "x fell below 75% of the baseline " << base
                      << "x (floor " << floor << "x)\n";
            return 1;
        }
        std::cout << "perf_collect: speedup gate OK (" << speedup
                  << "x >= " << floor << "x floor)\n";
    }
    return 0;
}
