/**
 * @file
 * Tests for the SuiteData binary serialization (core/suite_io):
 * byte-identical round trips and graceful rejection of corrupt,
 * version-bumped, or truncated streams.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "core/suite_io.hh"
#include "pipeline/stages.hh"

namespace wct
{
namespace
{

SuiteProfile
miniSuite()
{
    SuiteProfile suite;
    suite.name = "cacheable";
    for (int i = 0; i < 2; ++i) {
        BenchmarkProfile b;
        b.name = "cache." + std::to_string(i);
        PhaseProfile p;
        p.loadFrac = 0.22 + 0.04 * i;
        b.phases.push_back(p);
        suite.benchmarks.push_back(b);
    }
    return suite;
}

CollectionConfig
miniConfig()
{
    CollectionConfig config;
    config.intervalInstructions = 2048;
    config.baseIntervals = 20;
    config.warmupInstructions = 20'000;
    return config;
}

std::string
serialize(const SuiteData &data)
{
    std::ostringstream bytes;
    writeSuiteData(bytes, data);
    return bytes.str();
}

std::optional<SuiteData>
deserialize(const std::string &bytes)
{
    std::istringstream in(bytes);
    return readSuiteData(in);
}

TEST(SuiteIoTest, RoundTripIsByteIdentical)
{
    const SuiteData data = pipeline::collectSuite(miniSuite(), miniConfig());
    const std::string bytes = serialize(data);
    const auto loaded = deserialize(bytes);
    ASSERT_TRUE(loaded.has_value());
    EXPECT_EQ(serialize(*loaded), bytes);
    EXPECT_EQ(loaded->suiteName, data.suiteName);
    ASSERT_EQ(loaded->benchmarks.size(), data.benchmarks.size());
    EXPECT_EQ(loaded->benchmarks[0].instructionWeight,
              data.benchmarks[0].instructionWeight);
}

TEST(SuiteIoTest, CorruptPayloadRejected)
{
    const SuiteData data = pipeline::collectSuite(miniSuite(), miniConfig());
    std::string bytes = serialize(data);
    bytes[bytes.size() / 2] ^= 0x04;
    EXPECT_FALSE(deserialize(bytes).has_value());
}

TEST(SuiteIoTest, VersionMismatchRejected)
{
    const SuiteData data = pipeline::collectSuite(miniSuite(), miniConfig());
    std::string bytes = serialize(data);
    bytes[8] ^= 0x01; // LSB of the little-endian format version
    EXPECT_FALSE(deserialize(bytes).has_value());
}

TEST(SuiteIoTest, TruncationRejected)
{
    const SuiteData data = pipeline::collectSuite(miniSuite(), miniConfig());
    const std::string bytes = serialize(data);
    for (const std::size_t keep :
         {std::size_t{0}, std::size_t{4}, bytes.size() / 2,
          bytes.size() - 1})
        EXPECT_FALSE(deserialize(bytes.substr(0, keep)).has_value())
            << keep << " bytes kept";
}

TEST(SuiteIoTest, EmptyStreamRejected)
{
    EXPECT_FALSE(deserialize("").has_value());
}

TEST(SuiteIoTest, OversizedClaimRejected)
{
    // A bare header claiming a multi-terabyte payload: readSuiteData
    // runs under the kMaxFilePayload budget and must refuse the
    // claim before sizing any buffer to it.
    for (const std::uint64_t claimed :
         {std::uint64_t(1) << 30 | 1, std::uint64_t(1) << 42}) {
        std::ostringstream hostile;
        hostile.write("WCTSUIT\0", 8);
        const std::uint32_t version = kSuiteDataFormatVersion;
        hostile.write(reinterpret_cast<const char *>(&version),
                      sizeof version);
        hostile.write(reinterpret_cast<const char *>(&claimed),
                      sizeof claimed);
        EXPECT_FALSE(deserialize(hostile.str()).has_value())
            << "claimed=" << claimed;
    }
}

TEST(SuiteIoTest, EveryStrictPrefixRejected)
{
    const SuiteData data = pipeline::collectSuite(miniSuite(), miniConfig());
    const std::string bytes = serialize(data);
    for (std::size_t keep = 0; keep < bytes.size(); ++keep)
        EXPECT_FALSE(deserialize(bytes.substr(0, keep)).has_value())
            << keep << " bytes kept";
}

} // namespace
} // namespace wct
