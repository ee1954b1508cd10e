/**
 * @file
 * Tests for the binary serialization primitives: sink/parser round
 * trips, envelope integrity checking, the incremental envelope
 * scanner, and the Dataset payload layout sealed in an envelope.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "data/binary_io.hh"

namespace wct
{
namespace
{

TEST(ByteSinkParserTest, ScalarsRoundTrip)
{
    ByteSink sink;
    sink.putU8(0xab);
    sink.putU32(0xdeadbeef);
    sink.putU64(0x0123456789abcdefull);
    sink.putDouble(-1.5);
    sink.putDouble(std::numeric_limits<double>::denorm_min());
    sink.putString(std::string("hi\0there", 8)); // embedded NUL kept
    sink.putString("");

    ByteParser parser(sink.bytes());
    std::uint8_t u8 = 0;
    std::uint32_t u32 = 0;
    std::uint64_t u64 = 0;
    double d1 = 0.0, d2 = 0.0;
    std::string s1, s2;
    EXPECT_TRUE(parser.getU8(u8));
    EXPECT_TRUE(parser.getU32(u32));
    EXPECT_TRUE(parser.getU64(u64));
    EXPECT_TRUE(parser.getDouble(d1));
    EXPECT_TRUE(parser.getDouble(d2));
    EXPECT_TRUE(parser.getString(s1));
    EXPECT_TRUE(parser.getString(s2));
    EXPECT_TRUE(parser.atEnd());

    EXPECT_EQ(u8, 0xab);
    EXPECT_EQ(u32, 0xdeadbeefu);
    EXPECT_EQ(u64, 0x0123456789abcdefull);
    EXPECT_EQ(d1, -1.5);
    EXPECT_EQ(d2, std::numeric_limits<double>::denorm_min());
    EXPECT_EQ(s1, std::string("hi\0there", 8));
    EXPECT_EQ(s2, "");
}

TEST(ByteSinkParserTest, NanBitPatternSurvives)
{
    ByteSink sink;
    sink.putDouble(std::nan(""));
    ByteParser parser(sink.bytes());
    double v = 0.0;
    EXPECT_TRUE(parser.getDouble(v));
    EXPECT_TRUE(std::isnan(v));
}

TEST(ByteSinkParserTest, TruncatedReadLatchesFailure)
{
    ByteSink sink;
    sink.putU32(7);
    ByteParser parser(sink.bytes());
    std::uint64_t v = 99;
    EXPECT_FALSE(parser.getU64(v)); // only 4 bytes available
    EXPECT_EQ(v, 0u);
    EXPECT_FALSE(parser.ok());
    // Failure is sticky even for reads that would otherwise fit.
    std::uint8_t b = 0;
    EXPECT_FALSE(parser.getU8(b));
    EXPECT_FALSE(parser.atEnd());
}

TEST(ByteSinkParserTest, HugeStringLengthRejected)
{
    ByteSink sink;
    sink.putU64(~std::uint64_t(0)); // absurd length, no bytes
    ByteParser parser(sink.bytes());
    std::string s;
    EXPECT_FALSE(parser.getString(s));
    EXPECT_FALSE(parser.ok());
}

Dataset
sampleDataset()
{
    Dataset d({"CPI", "Load", "L2"});
    d.addRow({1.25, 0.25, 0.001953125});
    d.addRow({7.5, 0.3, 0.125});
    d.addRow({0.0, 0.0, 0.0});
    return d;
}

/** The envelope magic of these tests: any 8 bytes a caller picks. */
constexpr std::string_view kTestMagic("WCTTEST\0", 8);

/** A dataset as appendDataset lays it out, sealed by writeEnvelope. */
std::string
sealDataset(const Dataset &data)
{
    ByteSink sink;
    appendDataset(sink, data);
    std::ostringstream out;
    writeEnvelope(out, kTestMagic, kDatasetFormatVersion, {sink.bytes()});
    return out.str();
}

/** readEnvelope, then parseDataset over the whole payload. */
std::optional<Dataset>
unsealDataset(const std::string &bytes)
{
    std::istringstream in(bytes);
    const auto payload =
        readEnvelope(in, kTestMagic, kDatasetFormatVersion,
                     kMaxFilePayload);
    if (!payload)
        return std::nullopt;
    ByteParser parser(*payload);
    auto data = parseDataset(parser);
    if (!data || !parser.atEnd())
        return std::nullopt;
    return data;
}

TEST(DatasetBinaryTest, RoundTripIsExact)
{
    const Dataset original = sampleDataset();
    const auto loaded = unsealDataset(sealDataset(original));
    ASSERT_TRUE(loaded.has_value());
    EXPECT_EQ(loaded->columnNames(), original.columnNames());
    ASSERT_EQ(loaded->numRows(), original.numRows());
    for (std::size_t r = 0; r < original.numRows(); ++r) {
        const auto expect = original.row(r);
        const auto got = loaded->row(r);
        for (std::size_t c = 0; c < original.numColumns(); ++c)
            EXPECT_EQ(got[c], expect[c]) << r << "," << c;
    }
}

TEST(DatasetBinaryTest, EmptyDatasetRoundTrips)
{
    Dataset empty({"CPI"});
    const auto loaded = unsealDataset(sealDataset(empty));
    ASSERT_TRUE(loaded.has_value());
    EXPECT_EQ(loaded->numRows(), 0u);
    EXPECT_EQ(loaded->columnNames(), empty.columnNames());
}

TEST(DatasetBinaryTest, BadMagicRejected)
{
    std::string bytes = sealDataset(sampleDataset());
    bytes[0] ^= 0xff;
    EXPECT_FALSE(unsealDataset(bytes).has_value());
}

TEST(DatasetBinaryTest, VersionMismatchRejected)
{
    std::string bytes = sealDataset(sampleDataset());
    bytes[8] ^= 0x01; // first byte of the little-endian version
    EXPECT_FALSE(unsealDataset(bytes).has_value());
}

TEST(DatasetBinaryTest, PayloadBitFlipFailsChecksum)
{
    std::string bytes = sealDataset(sampleDataset());
    // Flip one payload bit (past the 20-byte header, before the
    // 8-byte trailing checksum).
    bytes[bytes.size() / 2] ^= 0x10;
    EXPECT_FALSE(unsealDataset(bytes).has_value());
}

TEST(DatasetBinaryTest, TruncationRejected)
{
    const std::string bytes = sealDataset(sampleDataset());
    for (const std::size_t keep :
         {std::size_t(4), std::size_t(19), bytes.size() - 1})
        EXPECT_FALSE(unsealDataset(bytes.substr(0, keep)).has_value())
            << "kept " << keep << " bytes";
}

TEST(DatasetBinaryTest, EveryStrictPrefixRejected)
{
    // Exhaustive truncation sweep across the whole envelope: magic,
    // version, size, payload, and trailing checksum. No strict
    // prefix of a sealed stream may parse.
    const std::string bytes = sealDataset(sampleDataset());
    for (std::size_t keep = 0; keep < bytes.size(); ++keep)
        EXPECT_FALSE(unsealDataset(bytes.substr(0, keep)).has_value())
            << "kept " << keep << " bytes";
}

TEST(DatasetBinaryTest, OversizedClaimRejected)
{
    // A 20-byte header claiming a payload past kMaxFilePayload must
    // be refused before any buffer is sized to the claim.
    for (const std::uint64_t claimed :
         {kMaxFilePayload + 1, std::uint64_t(1) << 40,
          ~std::uint64_t(0)}) {
        std::ostringstream hostile;
        hostile.write(kTestMagic.data(), 8);
        hostile.write(
            reinterpret_cast<const char *>(&kDatasetFormatVersion),
            sizeof kDatasetFormatVersion);
        hostile.write(reinterpret_cast<const char *>(&claimed),
                      sizeof claimed);
        EXPECT_FALSE(unsealDataset(hostile.str()).has_value())
            << "claimed=" << claimed;
    }
}

TEST(EnvelopeTest, PayloadCapBoundaryIsExact)
{
    // readEnvelope accepts a payload exactly at the caller's cap and
    // refuses one a single byte past it — the budget is a bound on
    // accepted sizes, not a fuzzy threshold.
    const std::string payload(64, 'p');
    std::ostringstream sealed;
    writeEnvelope(sealed, kTestMagic, kDatasetFormatVersion, {payload});
    const std::string bytes = sealed.str();
    {
        std::istringstream in(bytes);
        const auto atCap = readEnvelope(in, kTestMagic,
                                        kDatasetFormatVersion,
                                        payload.size());
        ASSERT_TRUE(atCap.has_value());
        EXPECT_EQ(*atCap, payload);
    }
    {
        std::istringstream in(bytes);
        EXPECT_FALSE(readEnvelope(in, kTestMagic, kDatasetFormatVersion,
                                  payload.size() - 1)
                         .has_value());
    }
}

/** One writeEnvelope frame of kTestMagic around `payload`. */
std::string
sealFrame(std::string_view payload)
{
    std::ostringstream out;
    writeEnvelope(out, kTestMagic, kDatasetFormatVersion, {payload});
    return out.str();
}

TEST(EnvelopeTest, SealedFrameIsTheStreamWritersBytesInOneBuffer)
{
    // sealEnvelope (wire frames) and writeEnvelope (files) write one
    // layout, however the payload is cut into parts, and the frame is
    // allocated once at its final size.
    const std::string payload = "kind\x02payload bytes";
    for (const std::size_t cut : {std::size_t(0), std::size_t(4),
                                  payload.size()}) {
        SCOPED_TRACE("cut at " + std::to_string(cut));
        const std::string_view head =
            std::string_view(payload).substr(0, cut);
        const std::string_view tail =
            std::string_view(payload).substr(cut);
        const std::string frame =
            sealEnvelope(kTestMagic, kDatasetFormatVersion, {head, tail});
        EXPECT_EQ(frame, sealFrame(payload));
        // Not grown by doubling; a library may round up an allocation.
        EXPECT_LT(frame.capacity(), frame.size() + 16);
    }
    EXPECT_EQ(sealEnvelope(kTestMagic, kDatasetFormatVersion, {}),
              sealFrame(""));
}

TEST(EnvelopeScanTest, EachFieldIsCheckedAsSoonAsItsBytesAreIn)
{
    // Each row is fed to scanEnvelope one prefix at a time, as a
    // socket delivers it: every prefix shorter than `decidedAt` is
    // incomplete, and from `decidedAt` bytes on the verdict is
    // `state`.
    const std::string payload = "payload";
    const std::string frame = sealFrame(payload);
    ASSERT_EQ(frame.size(), 28 + payload.size());
    struct Row
    {
        std::string label;
        std::string bytes;
        std::uint64_t cap;
        std::size_t decidedAt;
        EnvelopeScan::State state;
    };
    std::vector<Row> rows = {
        {"valid frame", frame, 64, frame.size(), EnvelopeScan::Complete},
        {"payload exactly at the cap", frame, payload.size(),
         frame.size(), EnvelopeScan::Complete},
        {"frame, then the next one's first bytes",
         frame + frame.substr(0, 13), 64, frame.size(),
         EnvelopeScan::Complete},
    };
    for (std::size_t at = 0; at < 8; ++at) {
        std::string bytes = frame;
        bytes[at] ^= 0x20;
        rows.push_back({"magic byte " + std::to_string(at), bytes, 64,
                        at + 1, EnvelopeScan::Malformed});
    }
    {
        std::ostringstream out;
        writeEnvelope(out, kTestMagic, kDatasetFormatVersion + 1, {payload});
        rows.push_back({"foreign version", out.str(), 64, 12,
                        EnvelopeScan::Malformed});
    }
    {
        // The header alone: no payload byte is ever sent.
        const std::string header =
            sealFrame(std::string(65, 'p')).substr(0, 20);
        rows.push_back({"size one above the cap", header, 64, 20,
                        EnvelopeScan::Malformed});
    }
    for (const std::size_t at : {std::size_t(20), frame.size() - 8,
                                 frame.size() - 1}) {
        std::string bytes = frame;
        bytes[at] ^= 0x01;
        rows.push_back({"flipped byte " + std::to_string(at), bytes, 64,
                        frame.size(), EnvelopeScan::Malformed});
    }

    for (const Row &row : rows) {
        SCOPED_TRACE(row.label);
        for (std::size_t n = 0; n <= row.bytes.size(); ++n) {
            const EnvelopeScan scan = scanEnvelope(
                std::string_view(row.bytes).substr(0, n), kTestMagic,
                kDatasetFormatVersion, row.cap);
            ASSERT_EQ(scan.state, n < row.decidedAt
                                      ? EnvelopeScan::Incomplete
                                      : row.state)
                << "after " << n << " bytes";
            if (scan.state == EnvelopeScan::Complete) {
                EXPECT_EQ(scan.payload, payload);
                EXPECT_EQ(scan.frameBytes, frame.size());
            }
        }
    }

    // The header alone tells how long the whole frame is.
    EXPECT_EQ(scanEnvelope(std::string_view(frame).substr(0, 20),
                           kTestMagic, kDatasetFormatVersion, 64)
                  .frameBytes,
              frame.size());
}

TEST(DatasetBinaryTest, HostileRowCountRejected)
{
    // A checksummed envelope whose payload claims 2^59 rows it does
    // not carry: the row-count bound must fire before reserveRows
    // turns the claim into a giant allocation.
    ByteSink sink;
    sink.putU64(2); // columns
    sink.putString("CPI");
    sink.putString("IPC");
    sink.putU64(std::uint64_t(1) << 59); // rows (none present)
    std::ostringstream sealed;
    writeEnvelope(sealed, kTestMagic, kDatasetFormatVersion,
                  {sink.bytes()});
    EXPECT_FALSE(unsealDataset(sealed.str()).has_value());
}

/** An appendDataset payload: columns CPI and IPC, a claimed row
 * count and the row-major cells that follow it. */
std::string
datasetPayload(std::uint64_t rows, const std::vector<double> &cells)
{
    ByteSink sink;
    sink.putU64(2);
    sink.putString("CPI");
    sink.putString("IPC");
    sink.putU64(rows);
    for (double v : cells)
        sink.putDouble(v);
    return sink.bytes();
}

TEST(DatasetBinaryTest, ParserRejectsShortCellBlocks)
{
    const std::vector<double> cells = {1.0, 2.0, 3.0, 4.0};
    const std::string whole = datasetPayload(2, cells);
    {
        ByteParser parser(whole);
        const auto data = parseDataset(parser);
        ASSERT_TRUE(data.has_value());
        EXPECT_EQ(data->numRows(), 2u);
        EXPECT_EQ(data->at(1, 0), 3.0);
        EXPECT_TRUE(parser.atEnd());
    }
    {
        // One byte short of the two rows claimed.
        ByteParser parser(
            std::string_view(whole).substr(0, whole.size() - 1));
        EXPECT_FALSE(parseDataset(parser).has_value());
    }
    {
        // Three rows claimed, two present.
        const std::string overlong = datasetPayload(3, cells);
        ByteParser parser(overlong);
        EXPECT_FALSE(parseDataset(parser).has_value());
    }
}

TEST(DatasetBinaryTest, ParserRejectsRepeatedColumnNames)
{
    ByteSink sink;
    sink.putU64(2);
    sink.putString("CPI");
    sink.putString("CPI");
    sink.putU64(0);
    ByteParser parser(sink.bytes());
    EXPECT_FALSE(parseDataset(parser).has_value());
}

TEST(DatasetBinaryTest, CellsRoundTripBitForBit)
{
    const std::vector<std::uint64_t> patterns = {
        0x7ff8000000000001ull, // NaN with a payload
        0xfff80000deadbeefull, // negative NaN with a payload
        0x8000000000000000ull, // -0.0
        0x0000000000000001ull, // smallest denormal
        0x7ff0000000000000ull, // +inf
        0xfff0000000000000ull, // -inf
    };
    std::vector<double> cells;
    for (std::uint64_t bits : patterns)
        cells.push_back(std::bit_cast<double>(bits));
    const std::string payload = datasetPayload(3, cells);

    ByteParser parser(payload);
    const auto data = parseDataset(parser);
    ASSERT_TRUE(data.has_value());
    ASSERT_EQ(data->numRows(), 3u);
    for (std::size_t i = 0; i < patterns.size(); ++i)
        EXPECT_EQ(std::bit_cast<std::uint64_t>(data->at(i / 2, i % 2)),
                  patterns[i])
            << i;
    ByteSink again;
    appendDataset(again, *data);
    EXPECT_EQ(again.bytes(), payload);
}

TEST(FnvHashTest, KnownVectorsAndChaining)
{
    // Standard FNV-1a 64-bit test vectors.
    EXPECT_EQ(fnv1a64(""), 0xcbf29ce484222325ull);
    EXPECT_EQ(fnv1a64("a"), 0xaf63dc4c8601ec8cull);
    // Chaining is equivalent to hashing the concatenation.
    EXPECT_EQ(fnv1a64("bc", fnv1a64("a")), fnv1a64("abc"));
}

} // namespace
} // namespace wct
