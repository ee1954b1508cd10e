/**
 * @file
 * Concurrency stress of the serving stack, built to run under TSan:
 * many loopback client threads hammering a deliberately tiny
 * admission queue while another thread hot-reloads the model and a
 * third polls stats — then a socket variant with concurrent TCP
 * clients. Checks the accounting invariants (every request answered
 * exactly once, overloads counted, nothing lost) rather than timing.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "serve/server.hh"
#include "serve/socket.hh"
#include "tests/serve/serve_support.hh"

namespace wct::serve
{
namespace
{

using test::TempDir;

Response
decode(const std::string &frame)
{
    std::istringstream in(frame);
    const auto payload = readFrame(in);
    EXPECT_TRUE(payload.has_value());
    auto response = decodeResponse(payload.value_or(""));
    EXPECT_TRUE(response.has_value());
    return response.value_or(Response{});
}

TEST(ServeStressTest, LoopbackClientsVersusReloadsAndOverload)
{
    constexpr std::size_t kClients = 8;
    constexpr std::size_t kRequestsPerClient = 60;

    TempDir dir("wct_serve_stress");
    const ModelTree v1 = test::trainedTree(1200, 1);
    const ModelTree v2 = test::trainedTree(1200, 99);
    const std::string path = dir.file("m.mtree");
    test::writeTree(v1, path);
    const Dataset probe = test::trainingData(32, 11);

    ServerConfig config;
    config.queueDepth = 4; // tiny on purpose: provoke Overloaded
    config.maxBatch = 8;
    Server server(config);
    std::string err;
    ASSERT_TRUE(server.loadModel(path, "prod", nullptr, &err)) << err;

    std::atomic<std::uint64_t> ok{0};
    std::atomic<std::uint64_t> overloaded{0};
    std::atomic<std::uint64_t> other{0};

    std::vector<std::thread> clients;
    for (std::size_t c = 0; c < kClients; ++c) {
        clients.emplace_back([&, c] {
            for (std::size_t i = 0; i < kRequestsPerClient; ++i) {
                const Opcode op = (c + i) % 2 == 0 ? Opcode::Predict
                                                   : Opcode::Classify;
                const Request request = test::inferenceRequest(
                    op, probe, 1 + (c + i) % probe.numRows(),
                    c * kRequestsPerClient + i, "prod");
                const Response response = decode(
                    server.handleFrame(encodeRequest(request)));
                if (response.status == Status::Ok) {
                    ok.fetch_add(1, std::memory_order_relaxed);
                    // Sanity on the payload of every Ok answer.
                    ASSERT_EQ(response.leaf.size(),
                              request.numRows());
                    if (op == Opcode::Predict) {
                        ASSERT_EQ(response.cpi.size(),
                                  request.numRows());
                    }
                    for (std::uint64_t leaf : response.leaf) {
                        ASSERT_GE(leaf, 1u);
                        ASSERT_LE(leaf, std::max(v1.numLeaves(),
                                                 v2.numLeaves()));
                    }
                } else if (response.status == Status::Overloaded) {
                    overloaded.fetch_add(1,
                                         std::memory_order_relaxed);
                } else {
                    other.fetch_add(1, std::memory_order_relaxed);
                }
            }
        });
    }

    // Hot-reload churn while inference traffic is in flight.
    std::atomic<bool> done{false};
    std::thread reloader([&] {
        bool flip = false;
        while (!done.load(std::memory_order_acquire)) {
            test::writeTree(flip ? v2 : v1, path);
            std::string reload_err;
            ASSERT_TRUE(server.loadModel(path, "prod", nullptr,
                                         &reload_err))
                << reload_err;
            flip = !flip;
            std::this_thread::sleep_for(
                std::chrono::milliseconds(1));
        }
    });
    std::thread poller([&] {
        while (!done.load(std::memory_order_acquire)) {
            Request stats;
            stats.op = Opcode::Stats;
            EXPECT_EQ(
                decode(server.handleFrame(encodeRequest(stats)))
                    .status,
                Status::Ok);
            std::this_thread::sleep_for(
                std::chrono::milliseconds(1));
        }
    });

    for (std::thread &client : clients)
        client.join();
    done.store(true, std::memory_order_release);
    reloader.join();
    poller.join();

    server.beginShutdown();
    server.drain();

    // Every inference request was answered exactly once.
    const std::uint64_t num_ok = ok.load();
    const std::uint64_t num_overloaded = overloaded.load();
    const std::uint64_t num_other = other.load();
    EXPECT_EQ(num_ok + num_overloaded + num_other,
              kClients * kRequestsPerClient);
    EXPECT_EQ(num_other, 0u);
    EXPECT_GT(num_ok, 0u);

    const MetricsSnapshot stats = server.stats();
    EXPECT_EQ(stats.rejectedOverload, num_overloaded);
    EXPECT_EQ(stats.responsesByStatus[static_cast<std::size_t>(
                  Status::Overloaded)],
              num_overloaded);
    EXPECT_EQ(stats.requestsByOp[0] + stats.requestsByOp[1],
              kClients * kRequestsPerClient);
    EXPECT_EQ(stats.requestLatencyUs.total(), num_ok);
    EXPECT_EQ(stats.queueDepth, 0u); // fully drained
    EXPECT_GT(stats.batches, 0u);
}

TEST(ServeStressTest, ConcurrentTcpClients)
{
    constexpr std::size_t kClients = 6;
    constexpr std::size_t kRequestsPerClient = 25;

    TempDir dir("wct_serve_stress_tcp");
    const ModelTree tree = test::trainedTree();
    const std::string path = dir.file("m.mtree");
    test::writeTree(tree, path);
    const Dataset probe = test::trainingData(16, 13);

    Server server;
    std::string err;
    ASSERT_TRUE(server.loadModel(path, "", nullptr, &err)) << err;

    SocketConfig config;
    config.maxConnections = kClients;
    SocketServer transport(server, config);
    ASSERT_TRUE(transport.start(&err)) << err;
    const int port = transport.boundPort();
    ASSERT_GT(port, 0);

    std::atomic<std::uint64_t> ok{0};
    std::vector<std::thread> clients;
    for (std::size_t c = 0; c < kClients; ++c) {
        clients.emplace_back([&, c] {
            std::string client_err;
            auto client = ServeClient::connectTcp(port, &client_err);
            ASSERT_TRUE(client.has_value()) << client_err;
            for (std::size_t i = 0; i < kRequestsPerClient; ++i) {
                const Request request = test::inferenceRequest(
                    Opcode::Predict, probe, probe.numRows(),
                    c * kRequestsPerClient + i);
                const auto response =
                    client->call(request, &client_err);
                ASSERT_TRUE(response.has_value()) << client_err;
                ASSERT_EQ(response->status, Status::Ok);
                // Served predictions match the offline tree exactly,
                // on every thread, every time.
                for (std::size_t r = 0; r < probe.numRows(); ++r)
                    ASSERT_DOUBLE_EQ(response->cpi[r],
                                     tree.predict(probe.row(r)));
                ok.fetch_add(1, std::memory_order_relaxed);
            }
        });
    }
    for (std::thread &client : clients)
        client.join();
    EXPECT_EQ(ok.load(), kClients * kRequestsPerClient);

    transport.stop();
    server.beginShutdown();
    server.drain();
    EXPECT_EQ(server.stats().requestsByOp[0],
              kClients * kRequestsPerClient);
}

} // namespace
} // namespace wct::serve
