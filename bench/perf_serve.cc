/**
 * @file
 * Perf smoke of the model-serving subsystem (docs/serving.md).
 *
 * Three measurements over the same trained model:
 *
 *   batched    rows-per-request samples in each predict frame
 *   singleton  one sample per predict frame
 *   raw eval   the inference inner loop alone, single-threaded:
 *              interpreted per-row descent (classify + predict, the
 *              PR 4 hot path) vs the flattened CompiledTree's
 *              branch-free block evaluation (docs/performance.md,
 *              "Compiled evaluation")
 *
 * and writes BENCH_serve.json with the throughputs and two ratios:
 * batch_speedup (what batching buys over per-sample framing) and
 * compiled_speedup (what compiling the tree buys over interpreting
 * it). Both served scenarios go through the one engine, which always
 * evaluates compiled; the interpreted walk runs only in the raw
 * scenario, where its outputs are compared with the compiled ones
 * bit for bit.
 *
 *   perf_serve [--rows=R] [--requests=N] [--clients=C] [--threads=T]
 *              [--reps=K] [--out=FILE] [--baseline=FILE]
 *
 * With --baseline, the run fails (exit 1) when batch_speedup drops
 * below 75% of the checked-in baseline's, or when compiled_speedup
 * drops below max(2.0, 75% of baseline) — compiled evaluation must
 * beat interpreted by at least 2x on the smoke size, on any machine.
 * Both ratios are measured numerator-and-denominator on the same
 * host, so the gates transfer across machines and CI load; they are
 * wired into ctest under the perf-smoke label.
 */

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "bench/run_meta.hh"
#include "data/dataset.hh"
#include "mtree/compiled_tree.hh"
#include "mtree/model_tree.hh"
#include "mtree/serialize.hh"
#include "serve/server.hh"
#include "util/rng.hh"
#include "util/thread_pool.hh"

namespace
{

using namespace wct;
using namespace wct::serve;

constexpr std::size_t kPredictors = 10;

/**
 * Synthetic serving workload with real tree depth: a nested
 * piecewise structure over ten predictors (1024 regions with
 * distinct offsets, not expressible by one linear model), so the
 * trained tree descends many levels per row — the cost the compiled
 * form exists to cut — instead of the single split a trivially
 * separable target would produce. The shape matches the paper's
 * phase-classification use: a deep tree whose per-row cost is the
 * descent, not the leaf model.
 */
Dataset
syntheticData(std::size_t n, std::uint64_t seed)
{
    std::vector<std::string> names;
    for (std::size_t c = 0; c < kPredictors; ++c)
        names.push_back("x" + std::to_string(c));
    names.push_back("y");
    Dataset d(names);
    Rng rng(seed);
    std::vector<double> row(kPredictors + 1);
    for (std::size_t i = 0; i < n; ++i) {
        double y = 0.0;
        for (std::size_t b = 0; b < kPredictors; ++b) {
            row[b] = rng.uniform(0.0, 1.0);
            // Equal steps keep the residual deviation high until
            // every predictor has been split on, so the SD-based
            // stopping rule materializes the full depth.
            if (row[b] <= 0.5)
                y += 3.0;
        }
        row[kPredictors] = y + rng.normal(0.0, 0.01);
        d.addRow(row);
    }
    return d;
}

/**
 * Deep-tree training config for the serving measurement: fine leaves
 * (so the 1024 synthetic regions all materialize) with pruning and
 * smoothing off — the tree is a deep phase classifier, which is the
 * serving shape the compiled/interpreted ratio is gated on.
 */
ModelTreeConfig
servingModelConfig()
{
    ModelTreeConfig config;
    config.minLeafInstances = 8;
    config.prune = false;
    config.smooth = false;
    return config;
}

/** Pre-encoded predict frames, `rows` samples each. */
std::vector<std::string>
buildFrames(const Dataset &probe, std::size_t rows,
            std::size_t count)
{
    std::vector<std::string> frames;
    frames.reserve(count);
    std::size_t cursor = 0;
    for (std::size_t i = 0; i < count; ++i) {
        Request request;
        request.op = Opcode::Predict;
        request.id = i + 1;
        request.schema = probe.columnNames();
        request.rows.reserve(rows * probe.numColumns());
        for (std::size_t r = 0; r < rows; ++r) {
            const auto row = probe.row(cursor);
            cursor = (cursor + 1) % probe.numRows();
            request.rows.insert(request.rows.end(), row.begin(),
                                row.end());
        }
        frames.push_back(encodeRequest(request));
    }
    return frames;
}

struct ScenarioResult
{
    double ms = 0.0; ///< best wall time over the reps
    bool deterministic = true;
    std::vector<std::string> responses; ///< rep-0 response frames
};

/**
 * Fan `frames` over `clients` threads against a fresh Server (each
 * thread replays its share of the frames in order) and time the whole
 * burst. Identical request frames must produce identical response
 * frames on every rep — serving determinism re-checked under load.
 */
ScenarioResult
timeScenario(const std::string &model_path,
             const std::vector<std::string> &frames,
             std::size_t clients, int reps)
{
    ScenarioResult result;
    result.ms = std::numeric_limits<double>::infinity();

    for (int rep = 0; rep < reps; ++rep) {
        ServerConfig config;
        config.queueDepth = 4096;
        config.maxBatch = 64;
        Server server(config);
        std::string err;
        if (!server.loadModel(model_path, "bench", nullptr, &err)) {
            std::cerr << "perf_serve: " << err << "\n";
            std::exit(1);
        }

        std::vector<std::string> responses(frames.size());
        std::vector<std::thread> threads;
        const auto start = std::chrono::steady_clock::now();
        for (std::size_t c = 0; c < clients; ++c) {
            threads.emplace_back([&, c] {
                for (std::size_t i = c; i < frames.size();
                     i += clients)
                    responses[i] = server.handleFrame(frames[i]);
            });
        }
        for (std::thread &t : threads)
            t.join();
        const auto stop = std::chrono::steady_clock::now();
        server.beginShutdown();
        server.drain();

        result.ms = std::min(
            result.ms,
            std::chrono::duration<double, std::milli>(stop - start)
                .count());
        if (rep == 0)
            result.responses = std::move(responses);
        else if (responses != result.responses)
            result.deterministic = false;
    }
    return result;
}

struct RawEvalResult
{
    double interpreted_ms = 0.0;
    double compiled_ms = 0.0;
    bool identical = true; ///< bitwise CPI + leaf equality
};

/**
 * The inference inner loop alone, single-threaded over one flat
 * row-major buffer: the interpreted serving loop (one classify and
 * one predict descent per row, as the PR 4 engine ran it) against
 * CompiledTree::evaluateBlock. Outputs are compared bit for bit.
 */
RawEvalResult
timeRawEval(const ModelTree &tree, const Dataset &probe,
            std::size_t total_rows, int reps)
{
    const std::size_t cols = probe.numColumns();
    std::vector<double> rows;
    rows.reserve(total_rows * cols);
    for (std::size_t r = 0; r < total_rows; ++r) {
        const auto row = probe.row(r % probe.numRows());
        rows.insert(rows.end(), row.begin(), row.end());
    }

    RawEvalResult result;
    result.interpreted_ms = std::numeric_limits<double>::infinity();
    result.compiled_ms = std::numeric_limits<double>::infinity();

    std::vector<double> cpi_interp(total_rows);
    std::vector<std::uint64_t> leaf_interp(total_rows);
    std::vector<double> cpi_compiled(total_rows);
    std::vector<std::uint32_t> leaf_compiled(total_rows);
    const CompiledTree &compiled = tree.compiled();

    for (int rep = 0; rep < reps; ++rep) {
        auto start = std::chrono::steady_clock::now();
        for (std::size_t r = 0; r < total_rows; ++r) {
            const std::span<const double> row(
                rows.data() + r * cols, cols);
            leaf_interp[r] = tree.classify(row) + 1;
            cpi_interp[r] = tree.predict(row);
        }
        auto stop = std::chrono::steady_clock::now();
        result.interpreted_ms = std::min(
            result.interpreted_ms,
            std::chrono::duration<double, std::milli>(stop - start)
                .count());

        start = std::chrono::steady_clock::now();
        for (std::size_t base = 0; base < total_rows;
             base += CompiledTree::kBlockRows) {
            const std::size_t m = std::min(CompiledTree::kBlockRows,
                                           total_rows - base);
            compiled.evaluateBlock(rows.data() + base * cols, cols,
                                   m, cpi_compiled.data() + base,
                                   leaf_compiled.data() + base);
        }
        stop = std::chrono::steady_clock::now();
        result.compiled_ms = std::min(
            result.compiled_ms,
            std::chrono::duration<double, std::milli>(stop - start)
                .count());
    }

    for (std::size_t r = 0; r < total_rows; ++r) {
        if (std::bit_cast<std::uint64_t>(cpi_interp[r]) !=
                std::bit_cast<std::uint64_t>(cpi_compiled[r]) ||
            leaf_interp[r] != leaf_compiled[r] + 1)
            result.identical = false;
    }
    return result;
}

} // namespace

int
main(int argc, char **argv)
{
    std::size_t rows = 256;    // samples per batched request
    std::size_t requests = 96; // batched requests per measurement
    std::size_t clients = 4;
    std::size_t threads = 4;
    int reps = 3;
    std::string out_path = "BENCH_serve.json";
    std::string baseline_path;
    for (int i = 1; i < argc; ++i) {
        const std::string_view arg = argv[i];
        if (arg.rfind("--rows=", 0) == 0)
            rows = std::max<std::size_t>(
                1, std::strtoul(arg.data() + 7, nullptr, 10));
        else if (arg.rfind("--requests=", 0) == 0)
            requests = std::max<std::size_t>(
                1, std::strtoul(arg.data() + 11, nullptr, 10));
        else if (arg.rfind("--clients=", 0) == 0)
            clients = std::max<std::size_t>(
                1, std::strtoul(arg.data() + 10, nullptr, 10));
        else if (arg.rfind("--threads=", 0) == 0)
            threads = std::strtoul(arg.data() + 10, nullptr, 10);
        else if (arg.rfind("--reps=", 0) == 0)
            reps = std::max(
                1, static_cast<int>(
                       std::strtol(arg.data() + 7, nullptr, 10)));
        else if (arg.rfind("--out=", 0) == 0)
            out_path = std::string(arg.substr(6));
        else if (arg.rfind("--baseline=", 0) == 0)
            baseline_path = std::string(arg.substr(11));
        else {
            std::cerr << "perf_serve: unknown option " << arg
                      << "\n";
            return 1;
        }
    }

    ThreadPool::resetGlobalForTest(threads <= 1 ? 0 : threads);

    // One model on disk (served the way production would) and one
    // probe set reused by every scenario.
    const Dataset training = syntheticData(40000, 1);
    const ModelTree tree =
        ModelTree::train(training, "y", servingModelConfig());
    const std::string model_path = out_path + ".mtree";
    writeModelTreeFile(tree, model_path);
    const Dataset probe = syntheticData(1024, 2);

    const std::size_t total_samples = rows * requests;
    const std::vector<std::string> batched_frames =
        buildFrames(probe, rows, requests);
    const std::vector<std::string> singleton_frames =
        buildFrames(probe, 1, total_samples);

    const ScenarioResult batched =
        timeScenario(model_path, batched_frames, clients, reps);
    const ScenarioResult singleton =
        timeScenario(model_path, singleton_frames, clients, reps);
    const RawEvalResult raw =
        timeRawEval(tree, probe, total_samples, reps);
    std::remove(model_path.c_str());

    const double batched_sps =
        1000.0 * static_cast<double>(total_samples) / batched.ms;
    const double singleton_sps =
        1000.0 * static_cast<double>(total_samples) / singleton.ms;
    const double batch_speedup = batched_sps / singleton_sps;
    const double compiled_speedup =
        raw.interpreted_ms / raw.compiled_ms;
    const bool deterministic = batched.deterministic &&
        singleton.deterministic && raw.identical;

    bench::Report("perf_serve")
        .add("rows_per_request", rows)
        .add("requests", requests)
        .add("total_samples", total_samples)
        .add("clients", clients)
        .add("threads", threads)
        .add("reps", reps)
        .add("model_leaves", tree.numLeaves())
        .add("compiled_nodes", tree.compiled().numNodes())
        .add("compiled_depth", tree.compiled().depth())
        .add("batched_ms", batched.ms)
        .add("singleton_ms", singleton.ms)
        .add("raw_interpreted_ms", raw.interpreted_ms)
        .add("raw_compiled_ms", raw.compiled_ms)
        .add("batched_samples_per_s", batched_sps)
        .add("singleton_samples_per_s", singleton_sps)
        .add("batch_speedup", batch_speedup)
        .add("compiled_speedup", compiled_speedup)
        .add("deterministic", deterministic)
        .write(out_path);

    if (!deterministic) {
        std::cerr << "perf_serve: FAIL: responses were not "
                     "deterministic, or compiled and interpreted "
                     "evaluation disagreed\n";
        return 1;
    }
    // Compiled evaluation must clear 2x over interpreted on the smoke
    // size regardless of host, and additionally stay within 75% of
    // the checked-in (derated) baseline ratio.
    if (!baseline_path.empty() &&
        (!bench::baselineGate("perf_serve", "batch-speedup",
                              baseline_path, "batch_speedup",
                              batch_speedup) ||
         !bench::baselineGate("perf_serve", "compiled-speedup",
                              baseline_path, "compiled_speedup",
                              compiled_speedup, 2.0)))
        return 1;
    return 0;
}
