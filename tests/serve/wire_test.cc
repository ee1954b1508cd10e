/**
 * @file
 * Wire-protocol codec tests: round-trips for every opcode, plus the
 * rejection paths (truncation, corruption, version mismatch,
 * trailing bytes, hostile counts) that keep a bad client from
 * crashing or ballooning the server.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "data/binary_io.hh"
#include "serve/wire.hh"

namespace wct::serve
{
namespace
{

using namespace std::string_literals;

Request
predictRequest()
{
    Request request;
    request.op = Opcode::Predict;
    request.id = 42;
    request.modelKey = "cpu2006";
    request.schema = {"IPC", "L1D_MISS", "CPI"};
    request.rows = {1.0, 2.0, 3.0, 4.0, 5.0, 6.0};
    return request;
}

/** Envelope payload of a frame (strips the envelope via readFrame). */
std::string
payloadOf(const std::string &frame)
{
    std::istringstream in(frame);
    const auto payload = readFrame(in);
    EXPECT_TRUE(payload.has_value());
    return payload.value_or("");
}

TEST(WireTest, PredictRequestRoundTrip)
{
    const Request request = predictRequest();
    const std::string frame = encodeRequest(request);
    const auto decoded = decodeRequest(payloadOf(frame));
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded->op, Opcode::Predict);
    EXPECT_EQ(decoded->id, 42u);
    EXPECT_EQ(decoded->modelKey, "cpu2006");
    EXPECT_EQ(decoded->schema, request.schema);
    EXPECT_EQ(decoded->rows, request.rows);
    EXPECT_EQ(decoded->numRows(), 2u);
}

TEST(WireTest, LoadModelAndControlRequestsRoundTrip)
{
    Request load;
    load.op = Opcode::LoadModel;
    load.id = 7;
    load.path = "/models/tree.mtree";
    load.alias = "prod";
    const auto decoded_load =
        decodeRequest(payloadOf(encodeRequest(load)));
    ASSERT_TRUE(decoded_load.has_value());
    EXPECT_EQ(decoded_load->path, load.path);
    EXPECT_EQ(decoded_load->alias, "prod");

    for (Opcode op : {Opcode::Stats, Opcode::Shutdown}) {
        Request control;
        control.op = op;
        control.id = 9;
        const auto decoded =
            decodeRequest(payloadOf(encodeRequest(control)));
        ASSERT_TRUE(decoded.has_value());
        EXPECT_EQ(decoded->op, op);
        EXPECT_EQ(decoded->id, 9u);
    }
}

TEST(WireTest, PredictResponseRoundTrip)
{
    Response response;
    response.op = Opcode::Predict;
    response.id = 42;
    response.status = Status::Ok;
    response.cpi = {1.25, 2.5};
    response.leaf = {3, 11};
    const auto decoded =
        decodeResponse(payloadOf(encodeResponse(response)));
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded->cpi, response.cpi);
    EXPECT_EQ(decoded->leaf, response.leaf);
    EXPECT_EQ(decoded->status, Status::Ok);
}

TEST(WireTest, FrameBytesArePinned)
{
    // One request and one response frame field by field: a change
    // that moves a field in encoder and decoder alike still
    // round-trips, but fails here.
    Request request;
    request.op = Opcode::Predict;
    request.id = 7;
    request.budgetMs = 250;
    request.modelKey = "m";
    request.schema = {"a", "b"};
    request.rows = {1.5, -2.0};
    const std::string request_frame =
        "WCTSERV\x00"                        // magic
        "\x02\x00\x00\x00"                   // wire version 2
        "\x48\x00\x00\x00\x00\x00\x00\x00"   // payload: 72
        "\x01"                               // op: predict
        "\x07\x00\x00\x00\x00\x00\x00\x00"   // id
        "\xfa\x00\x00\x00"                   // budgetMs
        "\x01\x00\x00\x00\x00\x00\x00\x00"   // model key length
        "m"                                  // model key
        "\x02\x00\x00\x00\x00\x00\x00\x00"   // columns
        "\x01\x00\x00\x00\x00\x00\x00\x00"   // name length
        "a"                                  // name
        "\x01\x00\x00\x00\x00\x00\x00\x00"   // name length
        "b"                                  // name
        "\x01\x00\x00\x00\x00\x00\x00\x00"   // rows
        "\x00\x00\x00\x00\x00\x00\xf8\x3f"   // 1.5
        "\x00\x00\x00\x00\x00\x00\x00\xc0"   // -2.0
        "\x80\x77\x6e\x67\x82\x5d\xc6\xcd"s; // FNV-1a of the payload
    EXPECT_EQ(encodeRequest(request), request_frame);
    const auto decoded = decodeRequest(payloadOf(request_frame));
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded->budgetMs, 250u);
    EXPECT_EQ(decoded->schema, request.schema);
    EXPECT_EQ(decoded->rows, request.rows);

    Response response;
    response.op = Opcode::Predict;
    response.id = 7;
    response.cpi = {0.75};
    response.leaf = {3};
    const std::string response_frame =
        "WCTSERV\x00"                        // magic
        "\x02\x00\x00\x00"                   // wire version 2
        "\x22\x00\x00\x00\x00\x00\x00\x00"   // payload: 34
        "\x01"                               // op: predict
        "\x07\x00\x00\x00\x00\x00\x00\x00"   // id
        "\x00"                               // status: ok
        "\x01\x00\x00\x00\x00\x00\x00\x00"   // rows
        "\x00\x00\x00\x00\x00\x00\xe8\x3f"   // cpi 0.75
        "\x03\x00\x00\x00\x00\x00\x00\x00"   // leaf 3
        "\xb6\x17\xb5\x22\x9f\xc5\x70\x72"s; // FNV-1a of the payload
    EXPECT_EQ(encodeResponse(response), response_frame);
    const auto reply = decodeResponse(payloadOf(response_frame));
    ASSERT_TRUE(reply.has_value());
    EXPECT_EQ(reply->cpi, response.cpi);
    EXPECT_EQ(reply->leaf, response.leaf);
}

TEST(WireTest, ErrorResponseRoundTrip)
{
    Response response;
    response.op = Opcode::Classify;
    response.id = 5;
    response.status = Status::Overloaded;
    response.error = "admission queue is full; retry";
    const auto decoded =
        decodeResponse(payloadOf(encodeResponse(response)));
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded->status, Status::Overloaded);
    EXPECT_EQ(decoded->error, response.error);
    EXPECT_TRUE(decoded->cpi.empty());
}

TEST(WireTest, StatsResponseRoundTrip)
{
    Response response;
    response.op = Opcode::Stats;
    response.id = 1;
    response.status = Status::Ok;
    response.stats.requestsByOp[0] = 100;
    response.stats.batches = 12;
    response.stats.samplesPredicted = 3000;
    response.stats.queueDepthPeak = 17;
    response.stats.requestLatencyUs.bounds.assign(
        kLatencyBoundsUs.begin(), kLatencyBoundsUs.end());
    response.stats.requestLatencyUs.counts.assign(
        kLatencyBoundsUs.size() + 1, 0);
    response.stats.requestLatencyUs.counts[2] = 100;
    response.stats.batchSize.bounds.assign(
        kBatchSizeBounds.begin(), kBatchSizeBounds.end());
    response.stats.batchSize.counts.assign(
        kBatchSizeBounds.size() + 1, 0);
    response.stats.batchSize.counts[0] = 12;
    response.stats.shedByOp[0] = 7;
    response.stats.deadlineExpiredByOp[1] = 3;
    for (auto &hist : response.stats.classLatencyUs) {
        hist.bounds.assign(kLatencyBoundsUs.begin(),
                           kLatencyBoundsUs.end());
        hist.counts.assign(kLatencyBoundsUs.size() + 1, 0);
    }
    response.stats.classLatencyUs[0].counts[3] = 42;

    const auto decoded =
        decodeResponse(payloadOf(encodeResponse(response)));
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded->stats.requestsByOp[0], 100u);
    EXPECT_EQ(decoded->stats.batches, 12u);
    EXPECT_EQ(decoded->stats.samplesPredicted, 3000u);
    EXPECT_EQ(decoded->stats.queueDepthPeak, 17u);
    EXPECT_EQ(decoded->stats.requestLatencyUs.counts[2], 100u);
    EXPECT_DOUBLE_EQ(decoded->stats.requestLatencyUs.quantile(0.5),
                     200.0);
    EXPECT_EQ(decoded->stats.shedByOp[0], 7u);
    EXPECT_EQ(decoded->stats.deadlineExpiredByOp[1], 3u);
    EXPECT_EQ(decoded->stats.classLatencyUs[0].counts[3], 42u);
}

TEST(WireTest, TruncatedFrameIsRejected)
{
    const std::string frame = encodeRequest(predictRequest());
    for (std::size_t keep :
         {std::size_t(0), std::size_t(4), std::size_t(19),
          frame.size() / 2, frame.size() - 1}) {
        std::istringstream in(frame.substr(0, keep));
        EXPECT_FALSE(readFrame(in).has_value())
            << "keep=" << keep;
    }
}

TEST(WireTest, EveryStrictFramePrefixIsRejected)
{
    // Exhaustive truncation sweep: a valid frame cut at *any* byte
    // boundary short of the full length must be refused — there is
    // no prefix of a sealed frame that is itself a sealed frame.
    const std::string frame = encodeRequest(predictRequest());
    ASSERT_GT(frame.size(), 28u); // header + checksum at minimum
    for (std::size_t keep = 0; keep < frame.size(); ++keep) {
        std::istringstream in(frame.substr(0, keep));
        EXPECT_FALSE(readFrame(in).has_value()) << "keep=" << keep;
    }
}

TEST(WireTest, EveryStrictPayloadPrefixIsRejected)
{
    // Same sweep one layer down: every strict prefix of a decoded
    // request/response payload must fail the body decoder (the
    // parser either runs dry mid-field or trips the atEnd check).
    const std::string request =
        payloadOf(encodeRequest(predictRequest()));
    for (std::size_t keep = 0; keep < request.size(); ++keep)
        EXPECT_FALSE(
            decodeRequest(request.substr(0, keep)).has_value())
            << "request keep=" << keep;

    Response ok;
    ok.op = Opcode::Predict;
    ok.id = 9;
    ok.cpi = {1.5, 0.5};
    ok.leaf = {2, 4};
    const std::string response = payloadOf(encodeResponse(ok));
    for (std::size_t keep = 0; keep < response.size(); ++keep)
        EXPECT_FALSE(
            decodeResponse(response.substr(0, keep)).has_value())
            << "response keep=" << keep;
}

TEST(WireTest, CorruptFrameIsRejected)
{
    const std::string frame = encodeRequest(predictRequest());
    // Flip one byte in every region: magic, version, size, payload,
    // checksum. All must fail the envelope checks.
    for (std::size_t pos : {std::size_t(0), std::size_t(9),
                            std::size_t(13), frame.size() / 2,
                            frame.size() - 1}) {
        std::string corrupt = frame;
        corrupt[pos] = static_cast<char>(corrupt[pos] ^ 0x40);
        std::istringstream in(corrupt);
        EXPECT_FALSE(readFrame(in).has_value()) << "pos=" << pos;
    }
}

TEST(WireTest, VersionMismatchIsRejected)
{
    // Re-seal the same payload under a future wire version: the
    // reader must refuse it even though the checksum is valid.
    const std::string payload =
        payloadOf(encodeRequest(predictRequest()));
    std::ostringstream future;
    writeEnvelope(future, std::string_view(kWireMagic, 8),
                  kWireFormatVersion + 1, {payload});
    std::istringstream in(future.str());
    EXPECT_FALSE(readFrame(in).has_value());
}

TEST(WireTest, TrailingBytesAreRejected)
{
    const std::string payload =
        payloadOf(encodeRequest(predictRequest()));
    EXPECT_FALSE(decodeRequest(payload + "x").has_value());
}

TEST(WireTest, HostileRowCountIsRejected)
{
    // A payload claiming 2^20 rows of 3 columns but carrying none:
    // the decoder must fail fast instead of allocating gigabytes.
    ByteSink sink;
    sink.putU8(static_cast<std::uint8_t>(Opcode::Predict));
    sink.putU64(1);
    sink.putU32(0); // budgetMs (wire v2 header)
    sink.putString("");
    sink.putU64(3);
    for (const char *name : {"a", "b", "c"})
        sink.putString(name);
    sink.putU64(1u << 20);
    std::string err;
    EXPECT_FALSE(decodeRequest(sink.bytes(), &err).has_value());
    EXPECT_NE(err.find("row count"), std::string::npos);
}

TEST(WireTest, OversizedFrameClaimIsRejected)
{
    // A 20-byte header claiming a near-terabyte payload: readFrame
    // must refuse it (before any allocation) instead of zero-filling
    // the claimed size and dying on bad_alloc / the OOM killer.
    for (std::uint64_t claimed :
         {kMaxFramePayload + 1, std::uint64_t(1) << 39}) {
        std::ostringstream hostile;
        hostile.write(kWireMagic, 8);
        hostile.write(
            reinterpret_cast<const char *>(&kWireFormatVersion),
            sizeof kWireFormatVersion);
        hostile.write(reinterpret_cast<const char *>(&claimed),
                      sizeof claimed);
        std::istringstream in(hostile.str());
        EXPECT_FALSE(readFrame(in).has_value())
            << "claimed=" << claimed;
    }
}

TEST(WireTest, BadOpcodeIsRejected)
{
    ByteSink sink;
    sink.putU8(99);
    sink.putU64(1);
    EXPECT_FALSE(decodeRequest(sink.bytes()).has_value());
}

TEST(WireTest, OpcodeAndStatusNames)
{
    EXPECT_STREQ(opcodeName(Opcode::Predict), "predict");
    EXPECT_STREQ(opcodeName(Opcode::Shutdown), "shutdown");
    EXPECT_STREQ(statusName(Status::Ok), "ok");
    EXPECT_STREQ(statusName(Status::MalformedFrame),
                 "malformedFrame");
}

} // namespace
} // namespace wct::serve
