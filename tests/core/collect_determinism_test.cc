/**
 * @file
 * Determinism contract of the parallel collection pipeline: results
 * are a pure function of (suite, config) — independent of thread
 * count and suite filtering, and equal to the sequential reference.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "core/collect.hh"
#include "core/suite_io.hh"
#include "data/binary_io.hh"
#include "pipeline/stages.hh"
#include "pmu/collector.hh"
#include "uarch/core.hh"
#include "util/rng.hh"
#include "util/thread_pool.hh"
#include "workload/source.hh"

namespace wct
{
namespace
{

/** Restore the global pool to its configured size on scope exit. */
struct PoolGuard
{
    ~PoolGuard()
    {
        ThreadPool::resetGlobalForTest(
            ThreadPool::configuredThreads() <= 1
                ? 0
                : ThreadPool::configuredThreads());
    }
};

SuiteProfile
miniSuite()
{
    SuiteProfile suite;
    suite.name = "mini";
    const char *names[] = {"mini.alpha", "mini.beta", "mini.gamma"};
    for (int i = 0; i < 3; ++i) {
        BenchmarkProfile b;
        b.name = names[i];
        b.instructionWeight = 0.5 + 0.5 * i;
        PhaseProfile p;
        p.loadFrac = 0.2 + 0.05 * i;
        p.dataFootprint = 1u << (18 + i);
        p.splitFrac = 0.01 * i;
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
    config.baseIntervals = 30;
    config.warmupInstructions = 50'000;
    return config;
}

std::string
serialize(const SuiteData &data)
{
    std::ostringstream bytes;
    writeSuiteData(bytes, data);
    return bytes.str();
}

TEST(CollectDeterminismTest, ByteIdenticalAcrossThreadCounts)
{
    PoolGuard guard;
    const SuiteProfile suite = miniSuite();
    CollectionConfig config = miniConfig();
    config.shards = 4;

    ThreadPool::resetGlobalForTest(0); // inline, no workers
    const std::string inline_bytes =
        serialize(pipeline::collectSuite(suite, config));
    for (const std::size_t workers : {1u, 4u, 8u}) {
        ThreadPool::resetGlobalForTest(workers);
        EXPECT_EQ(serialize(pipeline::collectSuite(suite, config)),
                  inline_bytes)
            << workers << " workers";
    }
}

TEST(CollectDeterminismTest, FilteredSuiteReproducesFullSuite)
{
    // Stream seeds derive from benchmark names, so collecting a
    // one-benchmark filtered suite must reproduce that benchmark's
    // slice of the full-suite run exactly, sharded or not. (With
    // positional salts — the old bug — mini.beta would get salt 0
    // instead of salt 1 when collected alone.)
    const SuiteProfile full = miniSuite();
    for (const std::size_t shards : {1u, 3u}) {
        CollectionConfig config = miniConfig();
        config.shards = shards;
        const SuiteData all = pipeline::collectSuite(full, config);
        for (const BenchmarkProfile &bench : full.benchmarks) {
            SCOPED_TRACE(bench.name + ", " + std::to_string(shards) +
                         " shards");
            SuiteProfile filtered;
            filtered.name = full.name;
            filtered.benchmarks = {bench};
            SuiteData expect;
            expect.suiteName = full.name;
            expect.benchmarks = {all.benchmark(bench.name)};
            EXPECT_EQ(serialize(pipeline::collectSuite(filtered, config)),
                      serialize(expect));
        }
    }
}

TEST(CollectDeterminismTest, SingleShardMatchesSequentialReference)
{
    // shards = 1 must reproduce the historical sequential protocol
    // exactly: one machine, one warmup, one uninterrupted stream.
    const SuiteProfile suite = miniSuite();
    const CollectionConfig config = miniConfig();
    const SuiteData collected = pipeline::collectSuite(suite, config);

    for (const BenchmarkProfile &bench : suite.benchmarks) {
        CoreModel core(config.machine);
        CollectorConfig pmu_config;
        pmu_config.intervalInstructions = config.intervalInstructions;
        pmu_config.multiplexed = config.multiplexed;
        IntervalCollector collector(core, pmu_config);
        WorkloadSource source(
            bench,
            Rng(config.seed).fork(benchmarkStreamSalt(bench.name))());
        core.run(source, config.warmupInstructions);

        const std::size_t intervals =
            collected.benchmark(bench.name).samples.numRows();
        const Dataset reference = collector.collect(source, intervals);
        const Dataset &got = collected.benchmark(bench.name).samples;
        for (std::size_t r = 0; r < reference.numRows(); ++r) {
            const auto e = reference.row(r);
            const auto g = got.row(r);
            for (std::size_t c = 0; c < reference.numColumns(); ++c)
                EXPECT_EQ(g[c], e[c])
                    << bench.name << " " << r << "," << c;
        }
    }
}

TEST(CollectDeterminismTest, ShardCountPreservesSampleBudget)
{
    // Sharding changes which samples are drawn, never how many.
    const SuiteProfile suite = miniSuite();
    CollectionConfig config = miniConfig();
    const std::size_t expected =
        pipeline::collectSuite(suite, config).totalSamples();
    for (const std::size_t shards : {2u, 4u, 64u}) {
        config.shards = shards;
        EXPECT_EQ(pipeline::collectSuite(suite, config).totalSamples(),
                  expected)
            << shards << " shards";
    }
}

TEST(CollectDeterminismTest, StreamSaltIsStable)
{
    // Pin the salt derivation: FNV-1a of the name, independent of
    // any suite context. A change here invalidates every cached
    // dataset, so it must be deliberate.
    EXPECT_EQ(benchmarkStreamSalt("429.mcf"),
              fnv1a64("429.mcf"));
    EXPECT_NE(benchmarkStreamSalt("429.mcf"),
              benchmarkStreamSalt("470.lbm"));
}

} // namespace
} // namespace wct
