/**
 * @file
 * Tests of the content-addressed artifact store (data/artifact_store):
 * the key builder, hex round trips, store/load semantics under
 * corruption and mismatch, concurrent writers, and gc liveness.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "data/artifact_store.hh"

namespace wct
{
namespace
{

namespace fs = std::filesystem;
using namespace std::string_literals;

/** Fresh scratch directory, removed on scope exit. */
struct TempDir
{
    fs::path path;

    explicit TempDir(const std::string &tag)
        : path(fs::temp_directory_path() /
               ("wct_store_test_" + tag + "_" +
                std::to_string(::getpid())))
    {
        fs::remove_all(path);
        fs::create_directories(path);
    }

    ~TempDir() { fs::remove_all(path); }
};

std::string
readFileBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::stringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

void
writeFileBytes(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << bytes;
}

TEST(KeyBuilderTest, EachAppendedFieldChangesTheKey)
{
    const auto base = [] {
        KeyBuilder key;
        key.str("collect").u32(7).u64(42).f64(1.5).u8(1).bytes("xy");
        return key.key();
    }();

    {
        KeyBuilder key;
        key.str("train").u32(7).u64(42).f64(1.5).u8(1).bytes("xy");
        EXPECT_NE(key.key(), base);
    }
    {
        KeyBuilder key;
        key.str("collect").u32(8).u64(42).f64(1.5).u8(1).bytes("xy");
        EXPECT_NE(key.key(), base);
    }
    {
        KeyBuilder key;
        key.str("collect").u32(7).u64(43).f64(1.5).u8(1).bytes("xy");
        EXPECT_NE(key.key(), base);
    }
    {
        KeyBuilder key;
        key.str("collect").u32(7).u64(42).f64(1.5 + 1e-12).u8(1)
            .bytes("xy");
        EXPECT_NE(key.key(), base);
    }
    {
        KeyBuilder key;
        key.str("collect").u32(7).u64(42).f64(1.5).u8(0).bytes("xy");
        EXPECT_NE(key.key(), base);
    }
    {
        KeyBuilder key;
        key.str("collect").u32(7).u64(42).f64(1.5).u8(1).bytes("xz");
        EXPECT_NE(key.key(), base);
    }
    // Same inputs -> same key (a pure function).
    {
        KeyBuilder key;
        key.str("collect").u32(7).u64(42).f64(1.5).u8(1).bytes("xy");
        EXPECT_EQ(key.key(), base);
    }
}

TEST(KeyBuilderTest, NegativeZeroHashesLikePositiveZero)
{
    // f64 canonicalizes -0.0 so equal configs can't key apart.
    KeyBuilder plus, minus;
    plus.f64(0.0);
    minus.f64(-0.0);
    EXPECT_EQ(plus.key(), minus.key());
}

TEST(KeyHexTest, RoundTripsAndRejectsMalformedInput)
{
    for (const std::uint64_t key :
         {0ull, 1ull, 0xdeadbeefcafef00dull, ~0ull}) {
        const std::string hex = keyHex(key);
        EXPECT_EQ(hex.size(), 16u);
        const auto parsed = parseKeyHex(hex);
        ASSERT_TRUE(parsed.has_value()) << hex;
        EXPECT_EQ(*parsed, key);
    }
    EXPECT_FALSE(parseKeyHex("").has_value());
    EXPECT_FALSE(parseKeyHex("abc").has_value());
    EXPECT_FALSE(parseKeyHex("00000000000000000").has_value());
    EXPECT_FALSE(parseKeyHex("000000000000000g").has_value());
    EXPECT_FALSE(parseKeyHex("0X00000000000000").has_value());
}

TEST(ArtifactStoreTest, StoreLoadRoundTrip)
{
    const TempDir dir("roundtrip");
    const ArtifactStore store(dir.path.string());
    const ArtifactId id{"collect", 0x1234abcd5678ef90ull};
    const std::string payload = "suite bytes \x00\x01\x02 end";

    EXPECT_FALSE(store.contains(id));
    EXPECT_FALSE(store.load(id).has_value());
    ASSERT_TRUE(store.store(id, payload));
    EXPECT_TRUE(store.contains(id));
    const auto loaded = store.load(id);
    ASSERT_TRUE(loaded.has_value());
    EXPECT_EQ(*loaded, payload);
    EXPECT_EQ(fs::path(store.path(id)).filename().string(),
              "collect-1234abcd5678ef90.wctart");
}

TEST(ArtifactStoreTest, StoredBytesArePinned)
{
    // The .wctart bytes field by field: a change that moves a field
    // in writer and reader alike still round-trips, but fails here.
    const std::string pinned =
        "WCTARTF\x00"                        // magic
        "\x01\x00\x00\x00"                   // format version 1
        "\x29\x00\x00\x00\x00\x00\x00\x00"   // envelope payload: 41
        "\x03\x00\x00\x00\x00\x00\x00\x00"   // kind length
        "pin"                                // kind
        "\xef\xcd\xab\x89\x67\x45\x23\x01"   // key
        "\x0e\x00\x00\x00\x00\x00\x00\x00"   // payload length
        "pinned payload"                     // payload
        "\xa7\x0f\xd7\x4e\x5f\x2e\x09\xd2"s; // FNV-1a of the 41 bytes
    const ArtifactId id{"pin", 0x0123456789abcdefull};

    const TempDir written("pinned_store");
    const ArtifactStore store(written.path.string());
    ASSERT_TRUE(store.store(id, "pinned payload"));
    EXPECT_EQ(readFileBytes(store.path(id)), pinned);

    const TempDir read("pinned_load");
    const ArtifactStore reader(read.path.string());
    writeFileBytes(reader.path(id), pinned);
    EXPECT_EQ(reader.load(id), "pinned payload");
}

TEST(ArtifactStoreTest, DisabledStoreDropsEverything)
{
    const ArtifactStore store;
    const ArtifactId id{"collect", 7};
    EXPECT_FALSE(store.enabled());
    EXPECT_FALSE(store.store(id, "payload"));
    EXPECT_FALSE(store.load(id).has_value());
    EXPECT_FALSE(store.contains(id));
    EXPECT_TRUE(store.list().empty());
    EXPECT_TRUE(store.gc({}).empty());
}

TEST(ArtifactStoreTest, CorruptArtifactLoadsAsNullopt)
{
    const TempDir dir("corrupt");
    const ArtifactStore store(dir.path.string());
    const ArtifactId id{"train", 99};
    ASSERT_TRUE(store.store(id, "some payload bytes"));

    std::string bytes = readFileBytes(store.path(id));
    bytes[bytes.size() / 2] ^= 0x10;
    writeFileBytes(store.path(id), bytes);

    EXPECT_TRUE(store.contains(id));
    EXPECT_FALSE(store.load(id).has_value());

    // The caller's recompute path overwrites the bad entry.
    ASSERT_TRUE(store.store(id, "some payload bytes"));
    EXPECT_TRUE(store.load(id).has_value());
}

TEST(ArtifactStoreTest, TruncatedArtifactLoadsAsNullopt)
{
    const TempDir dir("truncated");
    const ArtifactStore store(dir.path.string());
    const ArtifactId id{"train", 100};
    ASSERT_TRUE(store.store(id, "a payload long enough to truncate"));
    const std::string bytes = readFileBytes(store.path(id));
    writeFileBytes(store.path(id), bytes.substr(0, bytes.size() / 2));
    EXPECT_FALSE(store.load(id).has_value());
}

TEST(ArtifactStoreTest, RenamedArtifactIsAMismatch)
{
    // The payload embeds its own (kind, key): copying a valid file
    // under another id must not serve the wrong content.
    const TempDir dir("renamed");
    const ArtifactStore store(dir.path.string());
    const ArtifactId id{"profile", 1};
    const ArtifactId other{"profile", 2};
    ASSERT_TRUE(store.store(id, "profile one"));
    fs::copy_file(store.path(id), store.path(other));
    EXPECT_TRUE(store.contains(other));
    EXPECT_FALSE(store.load(other).has_value());

    const ArtifactId cross{"train", 1}; // same key, other kind
    fs::copy_file(store.path(id), store.path(cross));
    EXPECT_FALSE(store.load(cross).has_value());
}

TEST(ArtifactStoreTest, OversizedClaimedPayloadRejected)
{
    // A hostile length prefix must be rejected before any allocation
    // of kMaxFilePayload-scale buffers.
    const TempDir dir("oversize");
    const ArtifactStore store(dir.path.string());
    const ArtifactId id{"collect", 5};
    ASSERT_TRUE(store.store(id, "tiny"));

    std::string bytes = readFileBytes(store.path(id));
    // Envelope layout: magic8 + version4 + payloadSize8 (LE).
    ASSERT_GT(bytes.size(), 20u);
    for (int i = 0; i < 8; ++i)
        bytes[12 + i] = static_cast<char>(0xff);
    writeFileBytes(store.path(id), bytes);
    EXPECT_FALSE(store.load(id).has_value());
}

TEST(ArtifactStoreTest, ConcurrentWritersOfTheSameKeyAreSafe)
{
    const TempDir dir("concurrent");
    const ArtifactStore store(dir.path.string());
    const ArtifactId id{"collect", 0xc0ffee};
    const std::string payload(4096, 'x');

    std::vector<std::thread> writers;
    for (int t = 0; t < 8; ++t)
        writers.emplace_back([&] {
            for (int rep = 0; rep < 20; ++rep)
                EXPECT_TRUE(store.store(id, payload));
        });
    for (std::thread &w : writers)
        w.join();

    const auto loaded = store.load(id);
    ASSERT_TRUE(loaded.has_value());
    EXPECT_EQ(*loaded, payload);
    // No stray temp files survive the rename dance.
    EXPECT_EQ(store.list().size(), 1u);
    std::size_t entries = 0;
    for (const auto &entry : fs::directory_iterator(dir.path)) {
        (void)entry;
        ++entries;
    }
    EXPECT_EQ(entries, 1u);
}

TEST(ArtifactStoreTest, ListReportsEveryArtifactSorted)
{
    const TempDir dir("list");
    const ArtifactStore store(dir.path.string());
    ASSERT_TRUE(store.store({"train", 2}, "bb"));
    ASSERT_TRUE(store.store({"collect", 1}, "a"));
    ASSERT_TRUE(store.store({"collect", 3}, "ccc"));

    const auto artifacts = store.list();
    ASSERT_EQ(artifacts.size(), 3u);
    EXPECT_EQ(artifacts[0].id.kind, "collect");
    EXPECT_EQ(artifacts[0].id.key, 1u);
    EXPECT_EQ(artifacts[1].id.kind, "collect");
    EXPECT_EQ(artifacts[1].id.key, 3u);
    EXPECT_EQ(artifacts[2].id.kind, "train");
    EXPECT_EQ(artifacts[2].id.key, 2u);
    for (const ArtifactInfo &info : artifacts)
        EXPECT_GT(info.fileBytes, 0u);
}

TEST(ArtifactStoreTest, RemoveDeletesExactlyOneArtifact)
{
    const TempDir dir("remove");
    const ArtifactStore store(dir.path.string());
    ASSERT_TRUE(store.store({"collect", 1}, "a"));
    ASSERT_TRUE(store.store({"collect", 2}, "b"));
    EXPECT_TRUE(store.remove({"collect", 1}));
    EXPECT_FALSE(store.remove({"collect", 1}));
    EXPECT_FALSE(store.contains({"collect", 1}));
    EXPECT_TRUE(store.contains({"collect", 2}));
}

TEST(ArtifactStoreTest, GcNeverDeletesLiveArtifacts)
{
    const TempDir dir("gc");
    const ArtifactStore store(dir.path.string());
    ASSERT_TRUE(store.store({"collect", 1}, "live collect"));
    ASSERT_TRUE(store.store({"train", 2}, "live train"));
    ASSERT_TRUE(store.store({"train", 3}, "dead train"));
    ASSERT_TRUE(store.store({"mtree", 4}, "dead tree"));
    // A stale temp file from a crashed writer is garbage too.
    writeFileBytes((dir.path / "collect-0000000000000001.wctart.1.2"
                               ".tmp")
                       .string(),
                   "half-written");
    // A non-store file is never touched.
    writeFileBytes((dir.path / "README.txt").string(), "keep me");

    const std::vector<ArtifactId> live = {{"collect", 1},
                                          {"train", 2}};
    const auto removed = store.gc(live);
    EXPECT_EQ(removed.size(), 2u);
    EXPECT_TRUE(store.contains({"collect", 1}));
    EXPECT_TRUE(store.contains({"train", 2}));
    EXPECT_FALSE(store.contains({"train", 3}));
    EXPECT_FALSE(store.contains({"mtree", 4}));
    EXPECT_TRUE(fs::exists(dir.path / "README.txt"));
    bool tmp_left = false;
    for (const auto &entry : fs::directory_iterator(dir.path))
        if (entry.path().extension() == ".tmp")
            tmp_left = true;
    EXPECT_FALSE(tmp_left);

    // gc of an already-clean store removes nothing.
    EXPECT_TRUE(store.gc(live).empty());
}

TEST(ArtifactStoreTest, GcGraceProtectsFreshlyPublishedArtifacts)
{
    // Regression for the fleet race: liveness is computed before the
    // sweep, so an artifact published in between (another worker
    // mid-run) looks dead. With a grace window, anything younger
    // than the window survives even when it is not in the live set.
    const TempDir dir("grace");
    const ArtifactStore store(dir.path.string());
    ASSERT_TRUE(store.store({"collect-shard", 1}, "just published"));
    ASSERT_TRUE(store.store({"train", 2}, "also fresh"));
    // A fresh temp file from an in-flight writer is protected too.
    writeFileBytes(
        (dir.path / "train-0000000000000002.wctart.9.9.tmp").string(),
        "half-written");

    // Everything is seconds old: a one-hour grace removes nothing,
    // even with an empty live set.
    EXPECT_TRUE(store.gc({}, 3600).empty());
    EXPECT_TRUE(store.contains({"collect-shard", 1}));
    EXPECT_TRUE(store.contains({"train", 2}));
    bool tmp_left = false;
    for (const auto &entry : fs::directory_iterator(dir.path))
        if (entry.path().extension() == ".tmp")
            tmp_left = true;
    EXPECT_TRUE(tmp_left);

    // Grace zero still sweeps files written before the call began.
    const auto removed = store.gc({}, 0);
    EXPECT_EQ(removed.size(), 2u);
    EXPECT_FALSE(store.contains({"collect-shard", 1}));
    tmp_left = false;
    for (const auto &entry : fs::directory_iterator(dir.path))
        if (entry.path().extension() == ".tmp")
            tmp_left = true;
    EXPECT_FALSE(tmp_left);
}

TEST(ArtifactStoreTest, HostileKindsNeverBecomeFileNames)
{
    // Kinds become path components: the store refuses anything that
    // could escape its directory, on write and on the helpers alike.
    const TempDir dir("kinds");
    const ArtifactStore store(dir.path.string());
    EXPECT_TRUE(validArtifactKind("collect-shard"));
    EXPECT_TRUE(validArtifactKind("mtree_v2"));
    EXPECT_FALSE(validArtifactKind(""));
    EXPECT_FALSE(validArtifactKind("../../etc/passwd"));
    EXPECT_FALSE(validArtifactKind("a/b"));
    EXPECT_FALSE(validArtifactKind(std::string(65, 'k')));
    EXPECT_FALSE(validArtifactKind(std::string("nul\0byte", 8)));

    EXPECT_FALSE(store.store({"../escape", 1}, "payload"));
    EXPECT_TRUE(fs::is_empty(dir.path));
}

} // namespace
} // namespace wct
