/**
 * @file
 * Tests of the remote artifact store (data/remote_store) against a
 * live `wct store serve` daemon: URL parsing, fleet sharing through
 * one daemon, read-through caching, content re-hash rejection of a
 * tampered payload, LRU eviction under --store-cache-bytes with
 * concurrent readers, daemon-down degradation, cold-cluster vs
 * warm-cluster byte-identity of a collection and of a plan at any
 * WCT_THREADS, and shard-granular invalidation of a single-benchmark
 * config change.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "data/binary_io.hh"
#include "data/remote_store.hh"
#include "data/store_wire.hh"
#include "pipeline/plans.hh"
#include "pipeline/stages.hh"
#include "serve/socket.hh"
#include "serve/store_service.hh"
#include "util/logging.hh"
#include "util/thread_pool.hh"

namespace wct
{
namespace
{

namespace fs = std::filesystem;

/** Fresh scratch directory, removed on scope exit. */
struct TempDir
{
    fs::path path;

    explicit TempDir(const std::string &tag)
        : path(fs::temp_directory_path() /
               ("wct_remote_test_" + tag + "_" +
                std::to_string(::getpid())))
    {
        fs::remove_all(path);
        fs::create_directories(path);
    }

    ~TempDir() { fs::remove_all(path); }

    std::string file(const std::string &name) const
    {
        return (path / name).string();
    }
};

/** One live store daemon on a Unix socket for a test's duration. */
struct LiveDaemon
{
    serve::StoreService service;
    serve::SocketServer transport;
    std::string url;

    explicit LiveDaemon(const std::string &dir,
                        const std::string &sock,
                        serve::StoreServiceConfig config = {})
        : service(ArtifactStore(dir), config),
          transport(service, socketConfig(sock)), url("unix:" + sock)
    {
        std::string err;
        if (!transport.start(&err))
            ADD_FAILURE() << err;
    }

    ~LiveDaemon() { transport.stop(); }

    static serve::SocketConfig socketConfig(const std::string &sock)
    {
        serve::SocketConfig config;
        config.unixPath = sock;
        config.frameMagic = std::string(kStoreWireMagic, 8);
        config.frameVersion = kStoreWireFormatVersion;
        config.maxFramePayload = kMaxStoreFramePayload;
        return config;
    }
};

/** Remote handle with its own read-through cache directory. */
ArtifactStore
workerStore(const LiveDaemon &daemon, const std::string &cache_dir,
            std::uint64_t cache_bytes = 0)
{
    RemoteStoreConfig config;
    config.url = daemon.url;
    config.cacheDir = cache_dir;
    config.cacheBytes = cache_bytes;
    return makeRemoteStore(config);
}

/** Total .wctart bytes under a cache directory. */
std::uintmax_t
cacheBytesUsed(const fs::path &dir)
{
    std::uintmax_t total = 0;
    for (const auto &entry : fs::directory_iterator(dir))
        if (entry.path().extension() == ".wctart")
            total += fs::file_size(entry.path());
    return total;
}

SuiteProfile
miniSuite()
{
    SuiteProfile suite;
    suite.name = "mini";
    for (int i = 0; i < 3; ++i) {
        BenchmarkProfile b;
        b.name = "mini." + std::to_string(i);
        b.instructionWeight = 0.5 + 0.5 * i;
        PhaseProfile p;
        p.loadFrac = 0.2 + 0.04 * i;
        p.dataFootprint = 1u << (18 + i);
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
    config.baseIntervals = 40;
    config.warmupInstructions = 20'000;
    return config;
}

TEST(StoreUrlTest, ParsesUnixAndTcpAndRejectsJunk)
{
    std::string err;
    const auto unix_ep = parseStoreUrl("unix:/tmp/wct.sock", &err);
    ASSERT_TRUE(unix_ep.has_value()) << err;
    EXPECT_EQ(unix_ep->unixPath, "/tmp/wct.sock");
    EXPECT_EQ(unix_ep->tcpPort, 0);

    const auto tcp_ep = parseStoreUrl("tcp:5117", &err);
    ASSERT_TRUE(tcp_ep.has_value()) << err;
    EXPECT_TRUE(tcp_ep->unixPath.empty());
    EXPECT_EQ(tcp_ep->tcpPort, 5117);

    for (const char *bad :
         {"", "unix:", "tcp:", "tcp:0", "tcp:65536", "tcp:12ab",
          "http://host", "tcp:-1", "/just/a/path"})
        EXPECT_FALSE(parseStoreUrl(bad, &err).has_value()) << bad;
}

TEST(RemoteStoreTest, TwoWorkersShareOneDaemon)
{
    const TempDir dir("share");
    fs::create_directories(dir.path / "daemon");
    fs::create_directories(dir.path / "a");
    fs::create_directories(dir.path / "b");
    LiveDaemon daemon(dir.file("daemon"), dir.file("store.sock"));

    const ArtifactId id{"collect-shard", 0xabcdef12u};
    const std::string payload = "shard bytes from worker A";

    // Worker A publishes; the daemon's directory holds the artifact.
    const ArtifactStore a = workerStore(daemon, dir.file("a"));
    ASSERT_TRUE(a.store(id, payload));
    EXPECT_TRUE(
        daemon.service.store().contains(id)); // uploaded, not local

    // Worker B — empty cache — reads it through the daemon.
    const ArtifactStore b = workerStore(daemon, dir.file("b"));
    const auto fetched = b.load(id);
    ASSERT_TRUE(fetched.has_value());
    EXPECT_EQ(*fetched, payload);

    // The fetch landed in B's read-through cache: a second load is
    // served locally even with the daemon gone.
    EXPECT_TRUE(fs::exists(fs::path(b.path(id))));
    const bool quiet = setLogQuiet(true);
    daemon.service.beginShutdown();
    const auto cached = b.load(id);
    setLogQuiet(quiet);
    ASSERT_TRUE(cached.has_value());
    EXPECT_EQ(*cached, payload);
}

TEST(RemoteStoreTest, MissIsNotFoundNotAnError)
{
    const TempDir dir("miss");
    fs::create_directories(dir.path / "daemon");
    fs::create_directories(dir.path / "cache");
    const LiveDaemon daemon(dir.file("daemon"), dir.file("store.sock"));
    const ArtifactStore store = workerStore(daemon, dir.file("cache"));
    EXPECT_FALSE(store.load({"train", 0x404}).has_value());
    EXPECT_FALSE(store.contains({"train", 0x404}));
}

TEST(RemoteStoreTest, TamperedContentPayloadIsRejectedOnFetch)
{
    // A lying daemon serves bytes whose FNV-1a hash does not match
    // the content key of an "mtree" artifact: the fetch must warn and
    // miss (the pipeline recomputes), never return wrong bytes.
    const TempDir dir("tamper");
    fs::create_directories(dir.path / "daemon");
    fs::create_directories(dir.path / "cache");
    const LiveDaemon daemon(dir.file("daemon"), dir.file("store.sock"));

    const std::string genuine = "M5 tree text";
    const ArtifactId id{"mtree", fnv1a64(genuine)};
    // Plant a *different* payload under the genuine content key,
    // directly into the daemon's backing store.
    ASSERT_TRUE(
        daemon.service.store().store(id, "tampered tree text"));

    const ArtifactStore store = workerStore(daemon, dir.file("cache"));
    const bool quiet = setLogQuiet(true);
    const auto fetched = store.load(id);
    setLogQuiet(quiet);
    EXPECT_FALSE(fetched.has_value());
    // The poisoned payload must not have been cached locally.
    EXPECT_FALSE(fs::exists(fs::path(store.path(id))));

    // A non-content kind round-trips untouched: stage-keyed payloads
    // hash inputs, not outputs, so no re-hash applies.
    const ArtifactId stage_id{"collect-shard", 7};
    ASSERT_TRUE(
        daemon.service.store().store(stage_id, "stage payload"));
    EXPECT_TRUE(store.load(stage_id).has_value());

    // And an honest content artifact passes verification.
    const ArtifactId honest{"mtree", fnv1a64(genuine)};
    ASSERT_TRUE(daemon.service.store().remove(honest));
    ASSERT_TRUE(daemon.service.store().store(honest, genuine));
    const auto ok = store.load(honest);
    ASSERT_TRUE(ok.has_value());
    EXPECT_EQ(*ok, genuine);
}

TEST(RemoteStoreTest, LruCacheStaysUnderBoundWithConcurrentReaders)
{
    const TempDir dir("lru");
    fs::create_directories(dir.path / "daemon");
    fs::create_directories(dir.path / "cache");
    const LiveDaemon daemon(dir.file("daemon"), dir.file("store.sock"));

    // Each artifact is ~4 KiB of payload plus envelope overhead; the
    // bound holds roughly four of them.
    constexpr std::uint64_t kBound = 20'000;
    const ArtifactStore store =
        workerStore(daemon, dir.file("cache"), kBound);

    const std::string payload(4096, 'p');
    constexpr int kArtifacts = 16;
    for (int i = 0; i < kArtifacts; ++i)
        ASSERT_TRUE(store.store(
            {"collect-shard", static_cast<std::uint64_t>(i)},
            payload));
    EXPECT_LE(cacheBytesUsed(dir.path / "cache"), kBound);

    // Every artifact survived on the daemon even though the local
    // cache evicted most of them.
    EXPECT_EQ(daemon.service.store().list().size(),
              static_cast<std::size_t>(kArtifacts));

    // Concurrent readers refetch evicted artifacts (each refetch
    // re-caches and may evict others); the bound holds throughout
    // and every read returns the right bytes.
    std::vector<std::thread> readers;
    for (int t = 0; t < 4; ++t)
        readers.emplace_back([&, t] {
            for (int rep = 0; rep < 3; ++rep)
                for (int i = t; i < kArtifacts; i += 4) {
                    const auto loaded = store.load(
                        {"collect-shard",
                         static_cast<std::uint64_t>(i)});
                    ASSERT_TRUE(loaded.has_value()) << i;
                    EXPECT_EQ(*loaded, payload);
                }
        });
    for (std::thread &reader : readers)
        reader.join();
    EXPECT_LE(cacheBytesUsed(dir.path / "cache"), kBound);
}

TEST(RemoteStoreTest, DaemonDownDegradesToLocalCache)
{
    const TempDir dir("down");
    fs::create_directories(dir.path / "cache");
    RemoteStoreConfig config;
    config.url = "unix:" + dir.file("nobody-home.sock");
    config.cacheDir = dir.file("cache");
    const ArtifactStore store = makeRemoteStore(config);

    const ArtifactId id{"train", 321};
    const bool quiet = setLogQuiet(true);
    // Store succeeds locally (the upload is best-effort)...
    EXPECT_TRUE(store.store(id, "local only"));
    // ...and load serves it from the cache.
    const auto loaded = store.load(id);
    // A genuinely missing artifact is a plain miss, not a crash.
    const auto missing = store.load({"train", 99});
    setLogQuiet(quiet);
    ASSERT_TRUE(loaded.has_value());
    EXPECT_EQ(*loaded, "local only");
    EXPECT_FALSE(missing.has_value());
}

TEST(RemoteStoreTest, RemoveListAndGcReachTheDaemon)
{
    const TempDir dir("ops");
    fs::create_directories(dir.path / "daemon");
    fs::create_directories(dir.path / "cache");
    const LiveDaemon daemon(dir.file("daemon"), dir.file("store.sock"));
    const ArtifactStore store = workerStore(daemon, dir.file("cache"));

    ASSERT_TRUE(store.store({"collect-shard", 1}, "one"));
    ASSERT_TRUE(store.store({"collect-shard", 2}, "two"));
    ASSERT_TRUE(store.store({"train", 3}, "three"));

    // list merges the daemon's view (all three artifacts).
    EXPECT_EQ(store.list().size(), 3u);

    // remove deletes on both sides.
    EXPECT_TRUE(store.remove({"collect-shard", 2}));
    EXPECT_FALSE(daemon.service.store().contains({"collect-shard", 2}));
    EXPECT_FALSE(store.load({"collect-shard", 2}).has_value());

    // gc against a live set sweeps the daemon too.
    const std::vector<ArtifactId> live = {{"collect-shard", 1}};
    const auto removed = store.gc(live);
    ASSERT_EQ(removed.size(), 1u);
    EXPECT_EQ(removed[0].kind, "train");
    EXPECT_FALSE(daemon.service.store().contains({"train", 3}));
    EXPECT_TRUE(daemon.service.store().contains({"collect-shard", 1}));
}

/** Run `plan` at tests/pipeline's tiny protocol through `pipe`. */
std::string
planText(pipeline::Pipeline &pipe, const std::string &plan)
{
    pipeline::PlanProtocol tiny;
    tiny.collection.intervalInstructions = 2048;
    tiny.collection.baseIntervals = 12;
    tiny.collection.warmupInstructions = 20'000;
    std::ostringstream out;
    pipeline::runPlan(pipe, plan, tiny, out);
    return out.str();
}

TEST(RemoteStoreTest, ColdAndWarmClusterRunsAreByteIdentical)
{
    // Worker A collects a suite and runs plan cpu2006 cold through
    // the daemon; later workers start with empty caches (a "warm
    // cluster" from their point of view) at different thread counts.
    // Everything must be a store hit and byte-identical to the cold
    // run, and a warm plan fetches no collection shard.
    const TempDir dir("cluster");
    fs::create_directories(dir.path / "daemon");
    const LiveDaemon daemon(dir.file("daemon"), dir.file("store.sock"));
    const SuiteProfile suite = miniSuite();
    CollectionConfig config = miniConfig();
    config.shards = 2;

    std::string cold_bytes;
    std::string cold_plan;
    {
        fs::create_directories(dir.path / "a");
        pipeline::Pipeline pipe{workerStore(daemon, dir.file("a"))};
        const SuiteData data =
            pipeline::collectStage(pipe, suite, config);
        cold_bytes = pipeline::encodeSuiteData(data);
        cold_plan = planText(pipe, "cpu2006");
        EXPECT_EQ(pipe.cachedCount(), 0u);
    }

    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        ThreadPool::resetGlobalForTest(threads);
        const std::string cache =
            dir.file("w" + std::to_string(threads));
        const std::string plan_cache =
            dir.file("p" + std::to_string(threads));
        fs::create_directories(cache);
        fs::create_directories(plan_cache);

        pipeline::Pipeline pipe{workerStore(daemon, cache)};
        const SuiteData data =
            pipeline::collectStage(pipe, suite, config);
        EXPECT_TRUE(pipe.allCached());
        EXPECT_EQ(pipeline::encodeSuiteData(data), cold_bytes);

        pipeline::Pipeline plan_pipe{workerStore(daemon, plan_cache)};
        EXPECT_EQ(planText(plan_pipe, "cpu2006"), cold_plan);
        EXPECT_TRUE(plan_pipe.allCached());
        for (const ArtifactInfo &info : ArtifactStore(plan_cache).list())
            EXPECT_NE(info.id.kind, "collect-shard") << info.path;
    }
    ThreadPool::resetGlobalForTest(0);
}

TEST(RemoteStoreTest, SingleBenchmarkChangeInvalidatesOnlyItsShards)
{
    // The acceptance criterion of shard-granular keys: perturbing one
    // benchmark's profile recomputes exactly that benchmark's shard
    // artifacts; every other shard stays a store hit.
    const TempDir dir("invalidate");
    fs::create_directories(dir.path / "daemon");
    fs::create_directories(dir.path / "warm");
    const LiveDaemon daemon(dir.file("daemon"), dir.file("store.sock"));
    SuiteProfile suite = miniSuite();
    CollectionConfig config = miniConfig();
    config.shards = 2;

    {
        pipeline::Pipeline pipe{workerStore(daemon, dir.file("warm"))};
        pipeline::collectStage(pipe, suite, config);
    }

    // Perturb one benchmark; a fresh worker re-runs the plan.
    suite.benchmarks[1].instructionWeight += 0.25;
    fs::create_directories(dir.path / "fresh");
    pipeline::Pipeline pipe{workerStore(daemon, dir.file("fresh"))};
    pipeline::collectStage(pipe, suite, config);

    const std::size_t total = pipe.runs().size();
    EXPECT_EQ(total, 6u); // 3 benchmarks x 2 shards
    std::size_t misses = 0;
    for (const pipeline::StageRun &run : pipe.runs())
        if (!run.cached) {
            ++misses;
            EXPECT_NE(run.label.find("mini.1"), std::string::npos)
                << run.label;
        }
    EXPECT_EQ(misses, 2u); // both shards of mini.1, nothing else
}

} // namespace
} // namespace wct
