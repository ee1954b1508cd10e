/**
 * @file
 * Tests of the WCTSTOR store wire codec (data/store_wire): request
 * and response round trips for every opcode, malformed-payload
 * rejection at each decode guard, and the frame reader's behavior on
 * truncation, corruption, and hostile claimed sizes.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "data/binary_io.hh"
#include "data/store_wire.hh"

namespace wct
{
namespace
{

using namespace std::string_literals;

/** Unwrap one encoded frame back to its payload via the frame
 * reader, asserting the envelope is intact. */
std::string
framePayload(const std::string &frame)
{
    std::istringstream in(frame);
    const auto payload = readStoreFrame(in);
    EXPECT_TRUE(payload.has_value());
    return payload.value_or("");
}

TEST(StoreWireTest, RequestRoundTripsEveryOpcode)
{
    for (const StoreOp op :
         {StoreOp::Load, StoreOp::Store, StoreOp::Stat, StoreOp::List,
          StoreOp::Gc, StoreOp::Ping, StoreOp::Shutdown,
          StoreOp::Remove}) {
        StoreRequest request;
        request.op = op;
        request.id = 0x0123456789abcdefull;
        request.artifact = {"collect-shard", 42};
        request.payload = std::string("artifact bytes \x00\x01", 17);
        request.live = {{"train", 1}, {"mtree", 2}};
        request.graceSeconds = 3600;

        const auto decoded =
            decodeStoreRequest(framePayload(encodeStoreRequest(request)));
        ASSERT_TRUE(decoded.has_value()) << storeOpName(op);
        EXPECT_EQ(decoded->op, op);
        EXPECT_EQ(decoded->id, request.id);
        switch (op) {
          case StoreOp::Load:
          case StoreOp::Stat:
          case StoreOp::Remove:
            EXPECT_EQ(decoded->artifact.kind, "collect-shard");
            EXPECT_EQ(decoded->artifact.key, 42u);
            break;
          case StoreOp::Store:
            EXPECT_EQ(decoded->artifact.kind, "collect-shard");
            EXPECT_EQ(decoded->payload, request.payload);
            break;
          case StoreOp::Gc:
            ASSERT_EQ(decoded->live.size(), 2u);
            EXPECT_EQ(decoded->live[0].kind, "train");
            EXPECT_EQ(decoded->live[1].key, 2u);
            EXPECT_EQ(decoded->graceSeconds, 3600u);
            break;
          default: // Ping / Shutdown / List carry no body.
            break;
        }
    }
}

TEST(StoreWireTest, ResponseRoundTripsBodiesAndErrors)
{
    {
        StoreResponse response;
        response.op = StoreOp::Load;
        response.id = 7;
        response.payload = "the artifact";
        const auto decoded = decodeStoreResponse(
            framePayload(encodeStoreResponse(response)));
        ASSERT_TRUE(decoded.has_value());
        EXPECT_EQ(decoded->status, StoreStatus::Ok);
        EXPECT_EQ(decoded->payload, "the artifact");
    }
    {
        StoreResponse response;
        response.op = StoreOp::Stat;
        response.fileBytes = 123456;
        const auto decoded = decodeStoreResponse(
            framePayload(encodeStoreResponse(response)));
        ASSERT_TRUE(decoded.has_value());
        EXPECT_EQ(decoded->fileBytes, 123456u);
    }
    {
        StoreResponse response;
        response.op = StoreOp::List;
        ArtifactInfo info;
        info.id = {"train", 9};
        info.fileBytes = 77;
        response.artifacts.push_back(info);
        const auto decoded = decodeStoreResponse(
            framePayload(encodeStoreResponse(response)));
        ASSERT_TRUE(decoded.has_value());
        ASSERT_EQ(decoded->artifacts.size(), 1u);
        EXPECT_EQ(decoded->artifacts[0].id.kind, "train");
        EXPECT_EQ(decoded->artifacts[0].fileBytes, 77u);
    }
    {
        StoreResponse response;
        response.op = StoreOp::Gc;
        response.removed = {{"profile", 3}};
        const auto decoded = decodeStoreResponse(
            framePayload(encodeStoreResponse(response)));
        ASSERT_TRUE(decoded.has_value());
        ASSERT_EQ(decoded->removed.size(), 1u);
        EXPECT_EQ(decoded->removed[0].kind, "profile");
    }
    {
        StoreResponse response;
        response.op = StoreOp::Load;
        response.status = StoreStatus::NotFound;
        response.error = "no such artifact";
        const auto decoded = decodeStoreResponse(
            framePayload(encodeStoreResponse(response)));
        ASSERT_TRUE(decoded.has_value());
        EXPECT_EQ(decoded->status, StoreStatus::NotFound);
        EXPECT_EQ(decoded->error, "no such artifact");
        EXPECT_TRUE(decoded->payload.empty());
    }
}

TEST(StoreWireTest, FrameBytesArePinned)
{
    // One request and one response frame field by field: a change
    // that moves a field in encoder and decoder alike still
    // round-trips, but fails here.
    StoreRequest request;
    request.op = StoreOp::Store;
    request.id = 9;
    request.artifact = {"mtree", 0x0123456789abcdefull};
    request.payload = "tree";
    const std::string request_frame =
        "WCTSTOR\x00"                        // magic
        "\x01\x00\x00\x00"                   // wire version 1
        "\x2a\x00\x00\x00\x00\x00\x00\x00"   // payload: 42
        "\x02"                               // op: store
        "\x09\x00\x00\x00\x00\x00\x00\x00"   // id
        "\x05\x00\x00\x00\x00\x00\x00\x00"   // kind length
        "mtree"                              // kind
        "\xef\xcd\xab\x89\x67\x45\x23\x01"   // key
        "\x04\x00\x00\x00\x00\x00\x00\x00"   // artifact length
        "tree"                               // artifact
        "\x20\x7c\x1f\x62\xa6\xa8\x13\xea"s; // FNV-1a of the payload
    EXPECT_EQ(encodeStoreRequest(request), request_frame);
    const auto decoded = decodeStoreRequest(framePayload(request_frame));
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded->artifact.kind, "mtree");
    EXPECT_EQ(decoded->artifact.key, 0x0123456789abcdefull);
    EXPECT_EQ(decoded->payload, "tree");

    StoreResponse response;
    response.op = StoreOp::Load;
    response.id = 9;
    response.payload = "tree";
    const std::string response_frame =
        "WCTSTOR\x00"                        // magic
        "\x01\x00\x00\x00"                   // wire version 1
        "\x16\x00\x00\x00\x00\x00\x00\x00"   // payload: 22
        "\x01"                               // op: load
        "\x09\x00\x00\x00\x00\x00\x00\x00"   // id
        "\x00"                               // status: ok
        "\x04\x00\x00\x00\x00\x00\x00\x00"   // artifact length
        "tree"                               // artifact
        "\x97\x72\xe1\xa7\x48\x3b\x76\xc6"s; // FNV-1a of the payload
    EXPECT_EQ(encodeStoreResponse(response), response_frame);
    const auto reply = decodeStoreResponse(framePayload(response_frame));
    ASSERT_TRUE(reply.has_value());
    EXPECT_EQ(reply->payload, "tree");
}

TEST(StoreWireTest, MalformedPayloadsAreRejectedNotFatal)
{
    std::string err;

    // Empty payload / unknown opcode byte.
    EXPECT_FALSE(decodeStoreRequest("", &err).has_value());
    EXPECT_FALSE(decodeStoreRequest(std::string(1, '\x00'), &err)
                     .has_value());
    EXPECT_FALSE(decodeStoreRequest(std::string(1, '\x63'), &err)
                     .has_value());

    // A valid frame truncated at every strict prefix must never
    // decode (no partial request can be mistaken for a full one).
    StoreRequest request;
    request.op = StoreOp::Store;
    request.id = 5;
    request.artifact = {"mtree", 11};
    request.payload = "payload";
    const std::string good =
        framePayload(encodeStoreRequest(request));
    ASSERT_TRUE(decodeStoreRequest(good).has_value());
    for (std::size_t cut = 0; cut < good.size(); ++cut)
        EXPECT_FALSE(decodeStoreRequest(good.substr(0, cut))
                         .has_value())
            << "prefix length " << cut;

    // Trailing garbage after a complete request is hostile too.
    EXPECT_FALSE(decodeStoreRequest(good + "x").has_value());
}

TEST(StoreWireTest, HostileArtifactKindsRejectedAtDecode)
{
    // Kinds become file-name components on the daemon: anything that
    // could escape the store directory dies at the trust boundary.
    for (const std::string &kind : std::vector<std::string>{
             "../../etc/passwd", "a/b", "", std::string(65, 'k'),
             std::string("evil\x01", 5)}) {
        StoreRequest request;
        request.op = StoreOp::Load;
        request.id = 1;
        request.artifact = {kind, 1};
        const std::string payload =
            framePayload(encodeStoreRequest(request));
        EXPECT_FALSE(decodeStoreRequest(payload).has_value())
            << "kind '" << kind << "'";
    }

    // The same guard covers gc live lists.
    StoreRequest gc;
    gc.op = StoreOp::Gc;
    gc.id = 2;
    gc.live = {{"../escape", 1}};
    EXPECT_FALSE(
        decodeStoreRequest(framePayload(encodeStoreRequest(gc)))
            .has_value());
}

TEST(StoreWireTest, HugeClaimedCountsRejectedBeforeAllocation)
{
    // Hand-build a gc request whose claimed live count dwarfs the
    // bytes actually present; the decoder must bound-check the count
    // against remaining() before sizing any vector.
    ByteSink sink;
    sink.putU8(static_cast<std::uint8_t>(StoreOp::Gc));
    sink.putU64(1);              // id
    sink.putU64(0);              // grace
    sink.putU64(1ull << 60);     // claimed live count
    EXPECT_FALSE(decodeStoreRequest(sink.bytes()).has_value());

    ByteSink list;
    list.putU8(static_cast<std::uint8_t>(StoreOp::List));
    list.putU64(1);
    list.putU8(static_cast<std::uint8_t>(StoreStatus::Ok));
    list.putU64(1ull << 60); // claimed artifact count
    EXPECT_FALSE(decodeStoreResponse(list.bytes()).has_value());
}

TEST(StoreWireTest, FrameReaderRejectsTruncationAndCorruption)
{
    StoreRequest request;
    request.op = StoreOp::Ping;
    request.id = 3;
    const std::string frame = encodeStoreRequest(request);

    // Every strict byte prefix of the frame fails to read.
    for (std::size_t cut = 0; cut < frame.size(); ++cut) {
        std::istringstream in(frame.substr(0, cut));
        EXPECT_FALSE(readStoreFrame(in).has_value())
            << "prefix length " << cut;
    }

    // A flipped payload bit breaks the checksum.
    std::string corrupt = frame;
    corrupt.back() = static_cast<char>(corrupt.back() ^ 0x01);
    std::istringstream in(corrupt);
    EXPECT_FALSE(readStoreFrame(in).has_value());

    // Wrong magic: a serving frame is not a store frame.
    std::string wrong_magic = frame;
    wrong_magic[3] = 'X';
    std::istringstream in2(wrong_magic);
    EXPECT_FALSE(readStoreFrame(in2).has_value());
}

TEST(StoreWireTest, OversizedClaimedPayloadRefusedBeforeAllocation)
{
    // Envelope layout: magic8 + version4 + payloadSize8. Claim a
    // payload just past the cap; the reader must refuse before
    // attempting a quarter-GiB allocation.
    StoreRequest request;
    request.op = StoreOp::Ping;
    request.id = 4;
    std::string frame = encodeStoreRequest(request);
    const std::uint64_t claimed = kMaxStoreFramePayload + 1;
    for (int i = 0; i < 8; ++i)
        frame[12 + i] =
            static_cast<char>((claimed >> (8 * i)) & 0xff);
    std::istringstream in(frame);
    EXPECT_FALSE(readStoreFrame(in).has_value());
}

TEST(StoreWireTest, NamesAreStableForLogs)
{
    EXPECT_STREQ(storeOpName(StoreOp::Load), "load");
    EXPECT_STREQ(storeOpName(StoreOp::Gc), "gc");
    EXPECT_STREQ(storeStatusName(StoreStatus::Ok), "ok");
    EXPECT_STREQ(storeStatusName(StoreStatus::MalformedFrame),
                 "malformed-frame");
}

} // namespace
} // namespace wct
