/**
 * @file
 * Loopback end-to-end tests of the serving stack: the full
 * load -> predict -> classify -> stats -> shutdown -> drain sequence
 * through Server::handleFrame, with the inference responses required
 * to be byte-identical whatever WCT_THREADS says — determinism by
 * construction, per-row results never depend on batch composition or
 * pool scheduling.
 *
 * Also the failure policy: corrupt model files, unknown models,
 * schema mismatches and malformed frames must each produce an error
 * *response* and leave the server serving.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "data/binary_io.hh"
#include "serve/server.hh"
#include "tests/serve/serve_support.hh"
#include "util/thread_pool.hh"

namespace wct::serve
{
namespace
{

using test::TempDir;

/** Decode a response frame produced by handleFrame. */
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

/**
 * Run the whole client session against a fresh Server and return the
 * raw inference response frames (whose bytes we compare across pool
 * sizes) plus the decoded stats.
 */
struct SessionResult
{
    std::vector<std::string> inferenceFrames;
    MetricsSnapshot stats;
};

SessionResult
runSession(const std::string &model_path, const Dataset &probe)
{
    Server server;

    Request load;
    load.op = Opcode::LoadModel;
    load.id = 1;
    load.path = model_path;
    load.alias = "prod";
    const Response load_response =
        decode(server.handleFrame(encodeRequest(load)));
    EXPECT_EQ(load_response.status, Status::Ok);
    EXPECT_EQ(load_response.target, "y");
    EXPECT_GT(load_response.numLeaves, 0u);
    EXPECT_EQ(load_response.modelKey.size(), 16u);

    SessionResult result;
    for (std::uint64_t i = 0; i < 4; ++i) {
        const Opcode op =
            i % 2 == 0 ? Opcode::Predict : Opcode::Classify;
        const Request request = test::inferenceRequest(
            op, probe, probe.numRows(), 10 + i, "prod");
        result.inferenceFrames.push_back(
            server.handleFrame(encodeRequest(request)));
        EXPECT_EQ(decode(result.inferenceFrames.back()).status,
                  Status::Ok);
    }

    Request stats;
    stats.op = Opcode::Stats;
    stats.id = 90;
    result.stats =
        decode(server.handleFrame(encodeRequest(stats))).stats;

    Request shutdown;
    shutdown.op = Opcode::Shutdown;
    shutdown.id = 91;
    const Response ack =
        decode(server.handleFrame(encodeRequest(shutdown)));
    EXPECT_EQ(ack.status, Status::Ok);
    EXPECT_TRUE(server.shuttingDown());
    server.drain();

    // Post-shutdown inference is refused, not served.
    const Request late = test::inferenceRequest(
        Opcode::Predict, probe, 1, 92, "prod");
    EXPECT_EQ(decode(server.handleFrame(encodeRequest(late))).status,
              Status::ShuttingDown);
    return result;
}

TEST(LoopbackE2eTest, FullSessionIsByteDeterministicAcrossThreads)
{
    TempDir dir("wct_loopback_e2e");
    const ModelTree tree = test::trainedTree();
    const std::string path = dir.file("m.mtree");
    test::writeTree(tree, path);
    const Dataset probe = test::trainingData(64, 17);

    // Serial pool, then a 4-worker pool: same frames, byte for byte.
    ThreadPool::resetGlobalForTest(0);
    const SessionResult serial = runSession(path, probe);
    ThreadPool::resetGlobalForTest(4);
    const SessionResult parallel = runSession(path, probe);
    ThreadPool::resetGlobalForTest(0);

    ASSERT_EQ(serial.inferenceFrames.size(),
              parallel.inferenceFrames.size());
    for (std::size_t i = 0; i < serial.inferenceFrames.size(); ++i)
        EXPECT_EQ(serial.inferenceFrames[i],
                  parallel.inferenceFrames[i])
            << "inference frame " << i
            << " differs between WCT_THREADS=1 and 4";

    // Responses also match the offline tree exactly.
    const Response predict = decode(serial.inferenceFrames[0]);
    ASSERT_EQ(predict.cpi.size(), probe.numRows());
    ASSERT_EQ(predict.leaf.size(), probe.numRows());
    for (std::size_t r = 0; r < probe.numRows(); ++r) {
        EXPECT_DOUBLE_EQ(predict.cpi[r], tree.predict(probe.row(r)));
        EXPECT_EQ(predict.leaf[r], tree.classify(probe.row(r)) + 1);
    }

    // Counter-style stats are deterministic too (latency buckets are
    // timing-dependent, so only the counters are compared).
    EXPECT_EQ(serial.stats.requestsByOp, parallel.stats.requestsByOp);
    EXPECT_EQ(serial.stats.samplesPredicted,
              parallel.stats.samplesPredicted);
    EXPECT_EQ(serial.stats.samplesPredicted, 4 * probe.numRows());
    EXPECT_EQ(serial.stats.requestsByOp[0], 2u); // predict
    EXPECT_EQ(serial.stats.requestsByOp[1], 2u); // classify
    EXPECT_EQ(serial.stats.modelLoads, 1u);
    EXPECT_EQ(serial.stats.requestLatencyUs.total(), 4u);
}

TEST(LoopbackE2eTest, CorruptModelFileIsAnErrorResponseNotACrash)
{
    TempDir dir("wct_loopback_corrupt");
    const std::string good = dir.file("good.mtree");
    const std::string bad = dir.file("bad.mtree");
    test::writeTree(test::trainedTree(), good);
    test::writeGarbage(bad);

    Server server;
    Request load;
    load.op = Opcode::LoadModel;
    load.id = 1;
    load.path = bad;
    const Response refused =
        decode(server.handleFrame(encodeRequest(load)));
    EXPECT_EQ(refused.status, Status::Error);
    EXPECT_FALSE(refused.error.empty());

    // The server is still alive and loads the good file next.
    load.id = 2;
    load.path = good;
    EXPECT_EQ(decode(server.handleFrame(encodeRequest(load))).status,
              Status::Ok);
    EXPECT_EQ(server.stats().modelLoadFailures, 1u);
    EXPECT_EQ(server.stats().modelLoads, 1u);
}

TEST(LoopbackE2eTest, MalformedFramesGetMalformedFrameResponses)
{
    Server server;
    for (const std::string &junk :
         {std::string("not a frame at all"), std::string(),
          std::string(200, '\xff')}) {
        const Response response = decode(server.handleFrame(junk));
        EXPECT_EQ(response.status, Status::MalformedFrame);
        EXPECT_FALSE(response.error.empty());
    }

    // A valid envelope around an undecodable payload is also refused
    // at the payload layer.
    std::ostringstream sealed;
    writeEnvelope(sealed, std::string_view(kWireMagic, 8),
                  kWireFormatVersion, {"\x63junk"});
    EXPECT_EQ(decode(server.handleFrame(sealed.str())).status,
              Status::MalformedFrame);
    EXPECT_EQ(server.stats().malformedFrames, 4u);

    // The server still answers a well-formed stats request.
    Request stats;
    stats.op = Opcode::Stats;
    EXPECT_EQ(decode(server.handleFrame(encodeRequest(stats))).status,
              Status::Ok);
}

TEST(LoopbackE2eTest, UnknownModelAndSchemaMismatchAreErrors)
{
    TempDir dir("wct_loopback_errors");
    const std::string path = dir.file("m.mtree");
    test::writeTree(test::trainedTree(), path);
    const Dataset probe = test::trainingData(4, 3);

    Server server;

    // Inference before any model is loaded.
    const Request early = test::inferenceRequest(
        Opcode::Predict, probe, probe.numRows(), 1);
    Response response =
        decode(server.handleFrame(encodeRequest(early)));
    EXPECT_EQ(response.status, Status::Error);
    EXPECT_NE(response.error.find("no model"), std::string::npos);

    std::string err;
    ASSERT_TRUE(server.loadModel(path, "prod", nullptr, &err)) << err;

    // Unknown key.
    const Request unknown = test::inferenceRequest(
        Opcode::Predict, probe, probe.numRows(), 2, "nope");
    response = decode(server.handleFrame(encodeRequest(unknown)));
    EXPECT_EQ(response.status, Status::Error);
    EXPECT_NE(response.error.find("nope"), std::string::npos);

    // Wrong schema (column renamed relative to training).
    Request mismatched = test::inferenceRequest(
        Opcode::Predict, probe, probe.numRows(), 3, "prod");
    mismatched.schema[0] = "renamed";
    response = decode(server.handleFrame(encodeRequest(mismatched)));
    EXPECT_EQ(response.status, Status::Error);
    EXPECT_NE(response.error.find("schema"), std::string::npos);

    // And a correct request still succeeds afterwards.
    const Request fine = test::inferenceRequest(
        Opcode::Predict, probe, probe.numRows(), 4, "prod");
    EXPECT_EQ(decode(server.handleFrame(encodeRequest(fine))).status,
              Status::Ok);
}

TEST(LoopbackE2eTest, PolicyKnobsRefuseRemoteLoadAndShutdown)
{
    TempDir dir("wct_loopback_policy");
    const std::string path = dir.file("m.mtree");
    test::writeTree(test::trainedTree(), path);

    ServerConfig config;
    config.allowRemoteLoad = false;
    config.allowRemoteShutdown = false;
    Server server(config);

    Request load;
    load.op = Opcode::LoadModel;
    load.path = path;
    EXPECT_EQ(decode(server.handleFrame(encodeRequest(load))).status,
              Status::Error);
    EXPECT_EQ(server.registry().size(), 0u);

    Request shutdown;
    shutdown.op = Opcode::Shutdown;
    EXPECT_EQ(
        decode(server.handleFrame(encodeRequest(shutdown))).status,
        Status::Error);
    EXPECT_FALSE(server.shuttingDown());

    // Local (operator) loading still works.
    std::string err;
    EXPECT_TRUE(server.loadModel(path, "", nullptr, &err)) << err;
}

TEST(LoopbackE2eTest, HotReloadChangesServedPredictions)
{
    TempDir dir("wct_loopback_reload");
    const ModelTree v1 = test::trainedTree(1200, 1);
    const ModelTree v2 = test::trainedTree(1200, 99);
    const std::string path = dir.file("m.mtree");
    const Dataset probe = test::trainingData(8, 21);

    Server server;
    std::string err;
    test::writeTree(v1, path);
    ASSERT_TRUE(server.loadModel(path, "prod", nullptr, &err)) << err;

    const Request request = test::inferenceRequest(
        Opcode::Predict, probe, probe.numRows(), 1, "prod");
    Response before =
        decode(server.handleFrame(encodeRequest(request)));
    ASSERT_EQ(before.status, Status::Ok);
    for (std::size_t r = 0; r < probe.numRows(); ++r)
        EXPECT_DOUBLE_EQ(before.cpi[r], v1.predict(probe.row(r)));

    test::writeTree(v2, path);
    ASSERT_TRUE(server.loadModel(path, "prod", nullptr, &err)) << err;
    Response after =
        decode(server.handleFrame(encodeRequest(request)));
    ASSERT_EQ(after.status, Status::Ok);
    for (std::size_t r = 0; r < probe.numRows(); ++r)
        EXPECT_DOUBLE_EQ(after.cpi[r], v2.predict(probe.row(r)));
}

} // namespace
} // namespace wct::serve
