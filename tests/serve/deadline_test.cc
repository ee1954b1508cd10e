/**
 * @file
 * Deadline and SLO-shedding semantics (docs/serving.md, "Event loop
 * and admission"):
 *
 *  - a request whose budget expires while queued is answered
 *    Status::DeadlineExceeded and never evaluated — no stale result,
 *    and the engine's sample counters do not move for it;
 *  - live jobs in the same batch as an expired one still complete;
 *  - budgetMs survives the wire round trip (the v2 request header);
 *  - SLO shedding is per op class and its counters are exact under
 *    concurrent load.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "serve/engine.hh"
#include "serve/metrics.hh"
#include "serve/queue.hh"
#include "serve/server.hh"
#include "serve/wire.hh"
#include "tests/serve/serve_support.hh"

namespace wct::serve
{
namespace
{

using test::inferenceRequest;
using test::TempDir;
using test::trainedTree;
using test::trainingData;
using test::writeTree;

/** A server with a loaded model and the engine NOT yet running, so
 * pushed requests sit in the queue until startEngine(). */
std::unique_ptr<Server>
parkedServer(const TempDir &dir, ServerConfig config = {})
{
    config.startEngine = false;
    auto server = std::make_unique<Server>(config);
    const std::string model = dir.file("model.mtree");
    writeTree(trainedTree(), model);
    std::string err;
    if (!server->loadModel(model, "", nullptr, &err))
        ADD_FAILURE() << err;
    return server;
}

TEST(DeadlineTest, InQueueExpiryAnswersDeadlineExceeded)
{
    const TempDir dir("wct_deadline_queue");
    auto server = parkedServer(dir);
    const Dataset data = trainingData(32, 7);

    // The engine is parked, so this request's 1 ms budget expires in
    // the queue; the admitting thread blocks on the future until the
    // engine starts and refuses the job.
    Request request =
        inferenceRequest(Opcode::Predict, data, 8, 42);
    request.budgetMs = 1;
    Response response;
    std::thread client([&] {
        response = server->handleRequest(std::move(request));
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    server->startEngine();
    client.join();

    EXPECT_EQ(response.status, Status::DeadlineExceeded);
    EXPECT_EQ(response.id, 42u);
    EXPECT_TRUE(response.cpi.empty()); // never a stale result

    // The expired job must not have reached evaluation: no samples,
    // no batch, no latency observation — and exactly one expiry.
    const MetricsSnapshot stats = server->stats();
    EXPECT_EQ(stats.samplesPredicted, 0u);
    EXPECT_EQ(stats.batches, 0u);
    EXPECT_EQ(stats.requestLatencyUs.total(), 0u);
    EXPECT_EQ(stats.deadlineExpiredByOp[0], 1u);
    server->beginShutdown();
    server->drain();
}

TEST(DeadlineTest, ServerDefaultBudgetAppliesWhenClientSendsNone)
{
    const TempDir dir("wct_deadline_default");
    ServerConfig config;
    config.defaultDeadlineMs = 1; // server-side default
    auto server = parkedServer(dir, config);
    const Dataset data = trainingData(32, 7);

    Request request =
        inferenceRequest(Opcode::Classify, data, 4, 9);
    ASSERT_EQ(request.budgetMs, 0u);
    Response response;
    std::thread client([&] {
        response = server->handleRequest(std::move(request));
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    server->startEngine();
    client.join();

    EXPECT_EQ(response.status, Status::DeadlineExceeded);
    EXPECT_EQ(server->stats().deadlineExpiredByOp[1], 1u);
    server->beginShutdown();
    server->drain();
}

TEST(DeadlineTest, LiveJobsInTheSameBatchStillComplete)
{
    const TempDir dir("wct_deadline_mixed");
    auto server = parkedServer(dir);
    const Dataset data = trainingData(32, 7);

    Request doomed = inferenceRequest(Opcode::Predict, data, 8, 1);
    doomed.budgetMs = 1;
    Request live = inferenceRequest(Opcode::Predict, data, 8, 2);
    // live carries no budget and no server default exists: immortal.

    Response doomed_response, live_response;
    std::thread t1([&] {
        doomed_response = server->handleRequest(std::move(doomed));
    });
    std::thread t2([&] {
        live_response = server->handleRequest(std::move(live));
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    server->startEngine();
    t1.join();
    t2.join();

    EXPECT_EQ(doomed_response.status, Status::DeadlineExceeded);
    EXPECT_EQ(live_response.status, Status::Ok);
    EXPECT_EQ(live_response.cpi.size(), 8u);

    const MetricsSnapshot stats = server->stats();
    EXPECT_EQ(stats.samplesPredicted, 8u); // live rows only
    EXPECT_EQ(stats.requestLatencyUs.total(), 1u);
    EXPECT_EQ(stats.deadlineExpiredByOp[0], 1u);
    server->beginShutdown();
    server->drain();
}

TEST(DeadlineTest, ExpiredJobNeverReachesEngineDirectly)
{
    // Engine-level version of the contract, no server in the way: a
    // job dequeued past its deadline is refused by the engine itself.
    RequestQueue queue(16);
    ServingMetrics metrics;
    const auto tree =
        std::make_shared<const ModelTree>(trainedTree());
    const Dataset data = trainingData(16, 3);

    Job job;
    job.request = inferenceRequest(Opcode::Predict, data, 4, 77);
    job.tree = tree;
    job.admitted = std::chrono::steady_clock::now();
    job.deadline = job.admitted; // already expired
    auto future = job.result.get_future();
    ASSERT_EQ(queue.push(std::move(job)), PushResult::Ok);

    BatchEngine engine(queue, metrics, ServerConfig{}.maxBatch);
    engine.start();
    const Response response = future.get();
    EXPECT_EQ(response.status, Status::DeadlineExceeded);
    EXPECT_EQ(response.id, 77u);
    EXPECT_TRUE(response.cpi.empty());
    engine.stop();
    EXPECT_EQ(metrics.snapshot(0).samplesPredicted, 0u);
}

TEST(DeadlineTest, BudgetSurvivesTheWireRoundTrip)
{
    Request request =
        inferenceRequest(Opcode::Predict, trainingData(8, 1), 2, 5);
    request.budgetMs = 1234;
    const std::string frame = encodeRequest(request);
    // Strip the envelope: header is magic+version+size, trailer the
    // checksum (tested exhaustively in wire_test).
    const std::string payload =
        frame.substr(20, frame.size() - 28);
    const auto decoded = decodeRequest(payload);
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded->budgetMs, 1234u);
}

TEST(DeadlineTest, ShedCountersExactUnderConcurrentLoad)
{
    const TempDir dir("wct_shed_exact");
    ServerConfig config;
    config.sloPredictP99Us = 1; // unmeetable: every bucket bound > 1
    config.sloMinSamples = 8;
    auto server = std::make_unique<Server>(config);
    const std::string model = dir.file("model.mtree");
    writeTree(trainedTree(), model);
    std::string err;
    ASSERT_TRUE(server->loadModel(model, "", nullptr, &err)) << err;
    const Dataset data = trainingData(32, 7);

    // Prime the predict SLO window past sloMinSamples with slow
    // observations; classify's window stays empty.
    for (int i = 0; i < 32; ++i)
        server->metrics().recordClassLatencyUs(
            static_cast<std::uint8_t>(Opcode::Predict), 10'000.0);

    constexpr std::size_t kThreads = 8;
    constexpr std::size_t kPerThread = 25;
    std::vector<std::thread> threads;
    std::atomic<std::uint64_t> shed_seen{0}, classify_ok{0};
    for (std::size_t t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            for (std::size_t i = 0; i < kPerThread; ++i) {
                Request predict = inferenceRequest(
                    Opcode::Predict, data, 2, t * 1000 + i);
                const Response r1 =
                    server->handleRequest(std::move(predict));
                if (r1.status == Status::Shed)
                    shed_seen.fetch_add(1);
                Request classify = inferenceRequest(
                    Opcode::Classify, data, 2, t * 1000 + i);
                const Response r2 =
                    server->handleRequest(std::move(classify));
                if (r2.status == Status::Ok)
                    classify_ok.fetch_add(1);
            }
        });
    }
    for (std::thread &thread : threads)
        thread.join();

    // Every predict was shed (the window p99 cannot come back down:
    // shed requests are never evaluated, so nothing refreshes it);
    // every classify served. The counters must agree exactly.
    EXPECT_EQ(shed_seen.load(), kThreads * kPerThread);
    EXPECT_EQ(classify_ok.load(), kThreads * kPerThread);
    const MetricsSnapshot stats = server->stats();
    EXPECT_EQ(stats.shedByOp[0], kThreads * kPerThread);
    EXPECT_EQ(stats.shedByOp[1], 0u);
    EXPECT_EQ(
        stats.responsesByStatus[static_cast<std::size_t>(
            Status::Shed)],
        kThreads * kPerThread);
    EXPECT_EQ(stats.deadlineExpiredByOp[0], 0u);
    server->beginShutdown();
    server->drain();
}

} // namespace
} // namespace wct::serve
