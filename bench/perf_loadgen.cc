/**
 * @file
 * Perf smoke of the event-driven serving core under open-loop load
 * (docs/serving.md, "Event loop and admission").
 *
 * Two scenarios against a live in-process server behind the real
 * epoll transport on a Unix socket:
 *
 *   sustained  `wct loadgen`'s open-loop generator offers a fixed
 *              mixed predict/classify/stats rate; the completion
 *              ratio (completed / offered) is the gated metric.
 *   slo-drift  the server gets an impossibly tight predict p99 SLO
 *              while classify has none; once the sliding window
 *              fills, new predicts must be shed while classify keeps
 *              serving — admission is per op class, not global.
 *
 * Writes BENCH_loadgen.json. With --baseline, the run fails (exit 1)
 * when sustained_ratio drops below 75% of the checked-in (derated)
 * baseline's, when any response was malformed, or when the SLO-drift
 * scenario fails to shed predicts / starves classify. The ratio is
 * offered-vs-completed on the same host, so the gate transfers
 * across machines and CI load.
 *
 *   perf_loadgen [--rate=R] [--duration=S] [--connections=C]
 *                [--reps=K] [--soak] [--out=FILE] [--baseline=FILE]
 *
 * --soak scales the run up (longer, more connections) for the
 * sanitizer jobs under the serve-stress label; gates stay the same.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <string>
#include <string_view>
#include <thread>

#include <unistd.h>

#include "bench/run_meta.hh"
#include "data/dataset.hh"
#include "mtree/model_tree.hh"
#include "mtree/serialize.hh"
#include "serve/loadgen.hh"
#include "serve/server.hh"
#include "serve/socket.hh"
#include "util/rng.hh"

namespace
{

using namespace wct;
using namespace wct::serve;

Dataset
syntheticData(std::size_t n, std::uint64_t seed)
{
    Dataset d({"x0", "x1", "x2", "y"});
    Rng rng(seed);
    for (std::size_t i = 0; i < n; ++i) {
        const double x0 = rng.uniform(0.0, 1.0);
        const double x1 = rng.uniform(0.0, 1.0);
        const double x2 = rng.uniform(0.0, 1.0);
        const double y = (x0 <= 0.5 ? 3.0 : 0.0) +
                         (x1 <= 0.5 ? 2.0 : 0.0) + 0.5 * x2 +
                         rng.normal(0.0, 0.05);
        d.addRow({x0, x1, x2, y});
    }
    return d;
}

/** A served model + epoll transport on a fresh Unix socket. */
struct Fixture
{
    ServerConfig config;
    std::string socketPath;
    std::string modelPath;

    std::unique_ptr<Server> server;
    std::unique_ptr<SocketServer> transport;

    bool
    start()
    {
        server = std::make_unique<Server>(config);
        std::string err;
        if (!server->loadModel(modelPath, "bench", nullptr, &err)) {
            std::cerr << "perf_loadgen: " << err << "\n";
            return false;
        }
        SocketConfig socket_config;
        socket_config.unixPath = socketPath;
        SocketServer *raw = new SocketServer(*server, socket_config);
        transport.reset(raw);
        if (!transport->start(&err)) {
            std::cerr << "perf_loadgen: " << err << "\n";
            return false;
        }
        return true;
    }

    void
    stop()
    {
        if (transport)
            transport->stop();
        if (server) {
            server->beginShutdown();
            server->drain();
        }
        transport.reset();
        server.reset();
    }
};

} // namespace

int
main(int argc, char **argv)
{
    double rate = 400.0;
    double duration = 1.5;
    std::size_t connections = 4;
    int reps = 2;
    bool soak = false;
    std::string out_path = "BENCH_loadgen.json";
    std::string baseline_path;
    for (int i = 1; i < argc; ++i) {
        const std::string_view arg = argv[i];
        if (arg.rfind("--rate=", 0) == 0)
            rate = std::strtod(arg.data() + 7, nullptr);
        else if (arg.rfind("--duration=", 0) == 0)
            duration = std::strtod(arg.data() + 11, nullptr);
        else if (arg.rfind("--connections=", 0) == 0)
            connections = std::max<std::size_t>(
                1, std::strtoul(arg.data() + 14, nullptr, 10));
        else if (arg.rfind("--reps=", 0) == 0)
            reps = std::max(
                1, static_cast<int>(
                       std::strtol(arg.data() + 7, nullptr, 10)));
        else if (arg == "--soak")
            soak = true;
        else if (arg.rfind("--out=", 0) == 0)
            out_path = std::string(arg.substr(6));
        else if (arg.rfind("--baseline=", 0) == 0)
            baseline_path = std::string(arg.substr(11));
        else {
            std::cerr << "perf_loadgen: unknown option " << arg
                      << "\n";
            return 1;
        }
    }
    if (soak) {
        rate *= 2;
        duration = std::max(duration, 6.0);
        connections = std::max<std::size_t>(connections, 8);
    }

    // Shared fixture material: a small trained model on disk and a
    // probe row pool for the generator.
    const Dataset training = syntheticData(4000, 1);
    const ModelTree tree = ModelTree::train(training, "y");
    const std::string model_path = out_path + ".mtree";
    writeModelTreeFile(tree, model_path);
    const Dataset probe = syntheticData(256, 2);

    LoadgenConfig gen;
    gen.ratePerSec = rate;
    gen.durationSec = duration;
    gen.connections = connections;
    gen.rowsPerRequest = 16;
    gen.schema = probe.columnNames();
    gen.pool.reserve(probe.numRows() * probe.numColumns());
    for (std::size_t r = 0; r < probe.numRows(); ++r) {
        const auto row = probe.row(r);
        gen.pool.insert(gen.pool.end(), row.begin(), row.end());
    }

    const std::string sock_base =
        (std::filesystem::temp_directory_path() /
         ("wct_perf_loadgen_" + std::to_string(::getpid())))
            .string();

    // --- Scenario 1: sustained mixed open-loop rate. ---
    double sustained_ratio = 0.0;
    double achieved_rps = 0.0;
    double p50 = 0.0, p95 = 0.0, p99 = 0.0;
    std::uint64_t malformed = 0;
    std::uint64_t transport_errors = 0;
    for (int rep = 0; rep < reps; ++rep) {
        Fixture fx;
        fx.modelPath = model_path;
        fx.socketPath = sock_base + ".sustained.sock";
        if (!fx.start())
            return 1;
        LoadgenConfig cfg = gen;
        cfg.unixPath = fx.socketPath;
        std::string err;
        const auto report = runLoadgen(cfg, &err);
        fx.stop();
        if (!report) {
            std::cerr << "perf_loadgen: " << err << "\n";
            return 1;
        }
        const double ratio =
            static_cast<double>(report->completed) /
            static_cast<double>(report->offered);
        if (ratio > sustained_ratio) {
            sustained_ratio = ratio;
            achieved_rps = report->achievedRps;
            p50 = report->p50Us;
            p95 = report->p95Us;
            p99 = report->p99Us;
        }
        malformed += report->malformed();
        transport_errors += report->transportErrors;
    }

    // --- Scenario 2: SLO drift sheds one class, not the other. ---
    std::uint64_t shed_predict = 0;
    std::uint64_t ok_classify = 0;
    std::uint64_t drift_malformed = 0;
    {
        Fixture fx;
        fx.modelPath = model_path;
        fx.socketPath = sock_base + ".drift.sock";
        // 1us predict p99 is unmeetable: after sloMinSamples
        // predicts land in the window, every further predict must
        // shed while classify (no SLO) keeps serving.
        fx.config.sloPredictP99Us = 1;
        fx.config.sloMinSamples = 8;
        if (!fx.start())
            return 1;
        LoadgenConfig cfg = gen;
        cfg.unixPath = fx.socketPath;
        cfg.predictWeight = 5;
        cfg.classifyWeight = 5;
        cfg.statsWeight = 0;
        cfg.durationSec = std::min(duration, 1.5);
        std::string err;
        const auto report = runLoadgen(cfg, &err);
        fx.stop();
        if (!report) {
            std::cerr << "perf_loadgen: " << err << "\n";
            return 1;
        }
        shed_predict = report->byStatus[static_cast<std::size_t>(
            Status::Shed)];
        ok_classify = report->byStatus[static_cast<std::size_t>(
            Status::Ok)];
        drift_malformed = report->malformed();
    }
    std::remove(model_path.c_str());

    bench::Report("perf_loadgen")
        .add("rate_per_s", rate)
        .add("duration_s", duration)
        .add("connections", connections)
        .add("reps", reps)
        .add("soak", soak)
        .add("achieved_rps", achieved_rps)
        .add("sustained_ratio", sustained_ratio)
        .add("latency_p50_us", p50)
        .add("latency_p95_us", p95)
        .add("latency_p99_us", p99)
        .add("malformed", malformed + drift_malformed)
        .add("transport_errors", transport_errors)
        .add("drift_shed_predict", shed_predict)
        .add("drift_ok_classify", ok_classify)
        .write(out_path);

    if (malformed + drift_malformed > 0) {
        std::cerr << "perf_loadgen: FAIL: " << malformed
                  << " malformed responses under load\n";
        return 1;
    }
    if (shed_predict == 0 || ok_classify == 0) {
        std::cerr << "perf_loadgen: FAIL: SLO drift did not shed "
                     "predicts ("
                  << shed_predict
                  << ") while classify kept serving ("
                  << ok_classify << ")\n";
        return 1;
    }
    std::cout << "perf_loadgen: slo-drift gate OK (" << shed_predict
              << " predicts shed, " << ok_classify
              << " classifies served)\n";

    // Ratio gate: completed/offered at the same offered rate, both
    // measured on this host.
    if (!baseline_path.empty() &&
        !bench::baselineGate("perf_loadgen", "sustained-rate",
                             baseline_path, "sustained_ratio",
                             sustained_ratio))
        return 1;
    return 0;
}
