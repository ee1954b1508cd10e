/**
 * @file
 * Socket-transport tests: the same request/response session over a
 * Unix-domain socket and over loopback TCP, the connection cap, raw
 * garbage on a connection, frame reassembly from single bytes and
 * from an oversized header alone, and client-initiated shutdown.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <optional>
#include <sstream>
#include <string>
#include <thread>

#include <sys/socket.h>
#include <unistd.h>

#include "serve/server.hh"
#include "serve/socket.hh"
#include "tests/serve/serve_support.hh"
#include "util/socket_io.hh"

namespace wct::serve
{
namespace
{

using test::TempDir;

/** A raw client connection that speaks no protocol on its own. Its
 * reads time out after 10 s, so a server that waits for bytes that
 * never come fails the test instead of hanging it. */
int
rawConnect(const std::string &path)
{
    std::string err;
    const int fd = wct::connectUnix(path, &err);
    EXPECT_GE(fd, 0) << err;
    if (fd >= 0)
        setSocketTimeoutMs(fd, 10000);
    return fd;
}

/** Everything the server sends until it closes the connection;
 * nullopt when a read fails or times out first. */
std::optional<std::string>
readToEof(int fd)
{
    std::string received;
    char buffer[4096];
    for (;;) {
        const ssize_t n = ::read(fd, buffer, sizeof buffer);
        if (n == 0)
            return received;
        if (n < 0)
            return std::nullopt;
        received.append(buffer, static_cast<std::size_t>(n));
    }
}

/** The one response frame in `received`, which must hold nothing
 * else. */
std::optional<Response>
onlyResponse(const std::string &received)
{
    std::istringstream in(received);
    const auto payload = readFrame(in);
    if (!payload || in.peek() != std::char_traits<char>::eof())
        return std::nullopt;
    return decodeResponse(*payload);
}

/** One full client session against an already-started transport. */
void
runClientSession(ServeClient &client, const ModelTree &tree,
                 const Dataset &probe)
{
    std::string err;

    const Request predict = test::inferenceRequest(
        Opcode::Predict, probe, probe.numRows(), 1);
    const auto predicted = client.call(predict, &err);
    ASSERT_TRUE(predicted.has_value()) << err;
    ASSERT_EQ(predicted->status, Status::Ok);
    ASSERT_EQ(predicted->cpi.size(), probe.numRows());
    for (std::size_t r = 0; r < probe.numRows(); ++r) {
        EXPECT_DOUBLE_EQ(predicted->cpi[r],
                         tree.predict(probe.row(r)));
        EXPECT_EQ(predicted->leaf[r], tree.classify(probe.row(r)) + 1);
    }

    const Request classify = test::inferenceRequest(
        Opcode::Classify, probe, probe.numRows(), 2);
    const auto classified = client.call(classify, &err);
    ASSERT_TRUE(classified.has_value()) << err;
    EXPECT_EQ(classified->status, Status::Ok);
    EXPECT_TRUE(classified->cpi.empty());
    EXPECT_EQ(classified->leaf, predicted->leaf);

    Request stats;
    stats.op = Opcode::Stats;
    stats.id = 3;
    const auto counted = client.call(stats, &err);
    ASSERT_TRUE(counted.has_value()) << err;
    EXPECT_EQ(counted->status, Status::Ok);
    EXPECT_GE(counted->stats.requestsByOp[0], 1u);
    EXPECT_EQ(counted->stats.samplesPredicted, 2 * probe.numRows());

    Request shutdown;
    shutdown.op = Opcode::Shutdown;
    shutdown.id = 4;
    const auto ack = client.call(shutdown, &err);
    ASSERT_TRUE(ack.has_value()) << err;
    EXPECT_EQ(ack->status, Status::Ok);
}

TEST(SocketTest, UnixSocketSessionRoundTrips)
{
    TempDir dir("wct_socket_unix");
    const ModelTree tree = test::trainedTree();
    const std::string model_path = dir.file("m.mtree");
    test::writeTree(tree, model_path);
    const Dataset probe = test::trainingData(16, 5);

    Server server;
    std::string err;
    ASSERT_TRUE(server.loadModel(model_path, "", nullptr, &err))
        << err;

    SocketConfig config;
    config.unixPath = dir.file("serve.sock");
    SocketServer transport(server, config);
    ASSERT_TRUE(transport.start(&err)) << err;

    auto client = ServeClient::connectUnix(config.unixPath, &err);
    ASSERT_TRUE(client.has_value()) << err;
    runClientSession(*client, tree, probe);

    // The shutdown frame ends the serving loop: the operator-side
    // wait returns promptly and the drain completes.
    transport.waitForShutdown();
    server.drain();
    EXPECT_TRUE(server.shuttingDown());

    // The socket file was removed on stop.
    EXPECT_FALSE(std::filesystem::exists(config.unixPath));
}

TEST(SocketTest, TcpSocketSessionRoundTrips)
{
    TempDir dir("wct_socket_tcp");
    const ModelTree tree = test::trainedTree();
    const std::string model_path = dir.file("m.mtree");
    test::writeTree(tree, model_path);
    const Dataset probe = test::trainingData(16, 6);

    Server server;
    std::string err;
    ASSERT_TRUE(server.loadModel(model_path, "", nullptr, &err))
        << err;

    SocketConfig config;
    config.tcpPort = 0; // ephemeral
    SocketServer transport(server, config);
    ASSERT_TRUE(transport.start(&err)) << err;
    ASSERT_GT(transport.boundPort(), 0);

    auto client = ServeClient::connectTcp(transport.boundPort(), &err);
    ASSERT_TRUE(client.has_value()) << err;
    runClientSession(*client, tree, probe);
    transport.waitForShutdown();
    server.drain();
}

TEST(SocketTest, RemoteLoadThenPredictOverTcp)
{
    TempDir dir("wct_socket_load");
    const ModelTree tree = test::trainedTree();
    const std::string model_path = dir.file("m.mtree");
    test::writeTree(tree, model_path);
    const Dataset probe = test::trainingData(8, 9);

    Server server; // no model yet: the client uploads one
    SocketConfig config;
    SocketServer transport(server, config);
    std::string err;
    ASSERT_TRUE(transport.start(&err)) << err;

    auto client = ServeClient::connectTcp(transport.boundPort(), &err);
    ASSERT_TRUE(client.has_value()) << err;

    Request load;
    load.op = Opcode::LoadModel;
    load.id = 1;
    load.path = model_path;
    load.alias = "uploaded";
    const auto loaded = client->call(load, &err);
    ASSERT_TRUE(loaded.has_value()) << err;
    ASSERT_EQ(loaded->status, Status::Ok);
    EXPECT_EQ(loaded->numLeaves, tree.numLeaves());

    const Request predict = test::inferenceRequest(
        Opcode::Predict, probe, probe.numRows(), 2, "uploaded");
    const auto predicted = client->call(predict, &err);
    ASSERT_TRUE(predicted.has_value()) << err;
    ASSERT_EQ(predicted->status, Status::Ok);
    for (std::size_t r = 0; r < probe.numRows(); ++r)
        EXPECT_DOUBLE_EQ(predicted->cpi[r],
                         tree.predict(probe.row(r)));

    client.reset(); // disconnect
    transport.stop();
    server.beginShutdown();
    server.drain();
}

TEST(SocketTest, ConnectionCapShowsUpAsEof)
{
    TempDir dir("wct_socket_cap");
    const std::string model_path = dir.file("m.mtree");
    test::writeTree(test::trainedTree(), model_path);

    Server server;
    std::string err;
    ASSERT_TRUE(server.loadModel(model_path, "", nullptr, &err))
        << err;

    SocketConfig config;
    config.unixPath = dir.file("serve.sock");
    config.maxConnections = 1;
    SocketServer transport(server, config);
    ASSERT_TRUE(transport.start(&err)) << err;

    // First connection occupies the only slot (a completed call
    // guarantees its worker thread is registered).
    auto first = ServeClient::connectUnix(config.unixPath, &err);
    ASSERT_TRUE(first.has_value()) << err;
    Request stats;
    stats.op = Opcode::Stats;
    ASSERT_TRUE(first->call(stats, &err).has_value()) << err;

    // The second is accepted then immediately closed: its call fails
    // with EOF instead of hanging.
    auto second = ServeClient::connectUnix(config.unixPath, &err);
    ASSERT_TRUE(second.has_value()) << err;
    EXPECT_FALSE(second->call(stats, &err).has_value());

    second.reset();
    first.reset();
    transport.stop();
    server.beginShutdown();
    server.drain();
}

TEST(SocketTest, RawGarbageGetsOneMalformedResponseThenEof)
{
    TempDir dir("wct_socket_garbage");
    Server server;
    SocketConfig config;
    config.unixPath = dir.file("serve.sock");
    SocketServer transport(server, config);
    std::string err;
    ASSERT_TRUE(transport.start(&err)) << err;

    // A raw client that speaks no protocol at all.
    const int fd = rawConnect(config.unixPath);
    ASSERT_GE(fd, 0);
    const char junk[] = "GET / HTTP/1.1\r\n\r\n";
    ASSERT_GT(::write(fd, junk, sizeof junk - 1), 0);
    ::shutdown(fd, SHUT_WR);

    // The server answers with exactly one MalformedFrame frame and
    // closes; drain the connection to EOF and decode what it sent.
    const auto received = readToEof(fd);
    ::close(fd);
    ASSERT_TRUE(received.has_value());
    const auto response = onlyResponse(*received);
    ASSERT_TRUE(response.has_value());
    EXPECT_EQ(response->status, Status::MalformedFrame);

    // The server survived and serves a well-behaved client.
    auto client = ServeClient::connectUnix(config.unixPath, &err);
    ASSERT_TRUE(client.has_value()) << err;
    Request stats;
    stats.op = Opcode::Stats;
    const auto counted = client->call(stats, &err);
    ASSERT_TRUE(counted.has_value()) << err;
    EXPECT_EQ(counted->stats.malformedFrames, 1u);

    client.reset();
    transport.stop();
    server.beginShutdown();
    server.drain();
}

TEST(SocketTest, OversizedHeaderIsRefusedWithoutWaitingForPayload)
{
    TempDir dir("wct_socket_oversized");
    Server server;
    SocketConfig config;
    config.unixPath = dir.file("serve.sock");
    SocketServer transport(server, config);
    std::string err;
    ASSERT_TRUE(transport.start(&err)) << err;

    // A 20-byte header claiming one byte above the cap, on a
    // connection the client leaves open: the size alone is refused,
    // with no payload byte sent or awaited.
    const std::uint64_t claimed = config.maxFramePayload + 1;
    std::string header(kWireMagic, 8);
    header.append(reinterpret_cast<const char *>(&kWireFormatVersion),
                  sizeof kWireFormatVersion);
    header.append(reinterpret_cast<const char *>(&claimed),
                  sizeof claimed);
    const int fd = rawConnect(config.unixPath);
    ASSERT_GE(fd, 0);
    ASSERT_EQ(::write(fd, header.data(), header.size()),
              static_cast<ssize_t>(header.size()));

    const auto received = readToEof(fd);
    ::close(fd);
    ASSERT_TRUE(received.has_value())
        << "no EOF: the server waited for the claimed payload";
    const auto response = onlyResponse(*received);
    ASSERT_TRUE(response.has_value());
    EXPECT_EQ(response->status, Status::MalformedFrame);

    transport.stop();
    server.beginShutdown();
    server.drain();
}

TEST(SocketTest, RequestWrittenOneByteAtATimeIsServed)
{
    TempDir dir("wct_socket_bytewise");
    Server server;
    SocketConfig config;
    config.unixPath = dir.file("serve.sock");
    SocketServer transport(server, config);
    std::string err;
    ASSERT_TRUE(transport.start(&err)) << err;

    // The reactor sees the frame grow a byte at a time, across every
    // field boundary, and dispatches it only once it is whole.
    Request stats;
    stats.op = Opcode::Stats;
    stats.id = 77;
    const std::string frame = encodeRequest(stats);
    const int fd = rawConnect(config.unixPath);
    ASSERT_GE(fd, 0);
    for (const char byte : frame) {
        ASSERT_EQ(::write(fd, &byte, 1), 1);
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ::shutdown(fd, SHUT_WR);

    const auto received = readToEof(fd);
    ::close(fd);
    ASSERT_TRUE(received.has_value());
    const auto response = onlyResponse(*received);
    ASSERT_TRUE(response.has_value());
    EXPECT_EQ(response->status, Status::Ok);
    EXPECT_EQ(response->op, Opcode::Stats);
    EXPECT_EQ(response->id, 77u);
    EXPECT_EQ(response->stats.malformedFrames, 0u);

    transport.stop();
    server.beginShutdown();
    server.drain();
}

} // namespace
} // namespace wct::serve
