/**
 * @file
 * Bit-exactness of the batch engine against the interpreted tree
 * where a coalesced batch is hardest to get right: one batch whose
 * jobs are 0, 1, 255, 257 and 300 rows long, so the engine's
 * 256-row blocks split at job boundaries, a job crosses a block, and
 * empty jobs sit inside a block's range. Every CPI bit pattern and
 * every leaf must equal ModelTree::predict / classify + 1, at pool
 * sizes 0 and 4.
 */

#include <gtest/gtest.h>

#include <bit>
#include <chrono>
#include <cstdint>
#include <span>
#include <thread>
#include <vector>

#include "serve/server.hh"
#include "tests/serve/serve_support.hh"
#include "util/thread_pool.hh"

namespace wct::serve
{
namespace
{

using test::inferenceRequest;
using test::TempDir;
using test::trainingData;

TEST(EngineTest, CoalescedBatchIsBitExactAcrossJobAndBlockBoundaries)
{
    const TempDir dir("wct_engine_bit_exact");
    // Unpruned fine leaves: many leaves and smoothed leaf models, so
    // a row evaluated against the wrong job or offset shows.
    ModelTreeConfig tree_config;
    tree_config.minLeafInstances = 8;
    tree_config.prune = false;
    const ModelTree tree =
        ModelTree::train(trainingData(4000, 5), "y", tree_config);
    const std::string model = dir.file("model.mtree");
    test::writeTree(tree, model);

    // Predict and classify jobs of each size; each job draws its own
    // rows, so no two jobs share a row prefix.
    std::vector<Request> requests;
    for (const Opcode op : {Opcode::Predict, Opcode::Classify}) {
        for (const std::size_t rows : {0, 1, 255, 257, 300}) {
            const std::uint64_t id = requests.size() + 1;
            requests.push_back(inferenceRequest(
                op, trainingData(rows, 100 + id), rows, id));
        }
    }

    for (const std::size_t workers : {0, 4}) {
        SCOPED_TRACE("pool workers " + std::to_string(workers));
        ThreadPool::resetGlobalForTest(workers);

        // Park the engine so every job is queued before the first
        // popBatch, which then takes them all.
        ServerConfig config;
        config.startEngine = false;
        Server server(config);
        std::string err;
        ASSERT_TRUE(server.loadModel(model, "", nullptr, &err)) << err;

        std::vector<Response> responses(requests.size());
        std::vector<std::thread> clients;
        for (std::size_t i = 0; i < requests.size(); ++i) {
            clients.emplace_back([&, i] {
                Request request = requests[i];
                responses[i] = server.handleRequest(std::move(request));
            });
        }
        const auto give_up =
            std::chrono::steady_clock::now() + std::chrono::seconds(30);
        while (server.stats().queueDepth < requests.size() &&
               std::chrono::steady_clock::now() < give_up)
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        const std::size_t queued = server.stats().queueDepth;
        server.startEngine();
        for (std::thread &client : clients)
            client.join();
        ASSERT_EQ(queued, requests.size());
        EXPECT_EQ(server.stats().batches, 1u);

        for (std::size_t i = 0; i < requests.size(); ++i) {
            const Request &request = requests[i];
            const Response &response = responses[i];
            const std::size_t rows = request.numRows();
            const std::size_t cols = request.schema.size();
            ASSERT_EQ(response.status, Status::Ok) << response.error;
            EXPECT_EQ(response.id, request.id);
            ASSERT_EQ(response.leaf.size(), rows);
            const bool predict = request.op == Opcode::Predict;
            ASSERT_EQ(response.cpi.size(), predict ? rows : 0);
            for (std::size_t r = 0; r < rows; ++r) {
                const std::span<const double> row(
                    request.rows.data() + r * cols, cols);
                EXPECT_EQ(response.leaf[r], tree.classify(row) + 1)
                    << "job " << request.id << " row " << r;
                if (predict) {
                    EXPECT_EQ(
                        std::bit_cast<std::uint64_t>(response.cpi[r]),
                        std::bit_cast<std::uint64_t>(tree.predict(row)))
                        << "job " << request.id << " row " << r;
                }
            }
        }
        server.beginShutdown();
        server.drain();
    }
    ThreadPool::resetGlobalForTest(0);
}

} // namespace
} // namespace wct::serve
