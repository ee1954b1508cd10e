/**
 * @file
 * Tests for suite collection: shapes, weighting, determinism, and
 * pooling.
 */

#include <gtest/gtest.h>

#include "core/collect.hh"
#include "pipeline/stages.hh"
#include "workload/suites.hh"

namespace wct
{
namespace
{

SuiteProfile
miniSuite()
{
    SuiteProfile suite;
    suite.name = "mini";
    BenchmarkProfile light;
    light.name = "light";
    light.instructionWeight = 1.0;
    light.phases.push_back(PhaseProfile{});
    BenchmarkProfile heavy = light;
    heavy.name = "heavy";
    heavy.instructionWeight = 2.0;
    heavy.phases[0].dataFootprint = 64 << 20;
    heavy.phases[0].hotFrac = 0.9;
    suite.benchmarks = {light, heavy};
    return suite;
}

CollectionConfig
fastConfig()
{
    CollectionConfig config;
    config.intervalInstructions = 512;
    config.baseIntervals = 20;
    config.warmupInstructions = 5000;
    return config;
}

TEST(CollectTest, SampleCountsProportionalToWeight)
{
    const SuiteData data = pipeline::collectSuite(miniSuite(), fastConfig());
    EXPECT_EQ(data.suiteName, "mini");
    ASSERT_EQ(data.benchmarks.size(), 2u);
    EXPECT_EQ(data.benchmark("light").samples.numRows(), 20u);
    EXPECT_EQ(data.benchmark("heavy").samples.numRows(), 40u);
    EXPECT_EQ(data.totalSamples(), 60u);
}

TEST(CollectTest, PooledConcatenatesEverything)
{
    const SuiteData data = pipeline::collectSuite(miniSuite(), fastConfig());
    const Dataset pooled = data.pooled();
    EXPECT_EQ(pooled.numRows(), 60u);
    EXPECT_EQ(pooled.columnNames(), metricColumnNames());
}

TEST(CollectTest, DeterministicUnderSeed)
{
    const SuiteData a = pipeline::collectSuite(miniSuite(), fastConfig());
    const SuiteData b = pipeline::collectSuite(miniSuite(), fastConfig());
    const Dataset pa = a.pooled();
    const Dataset pb = b.pooled();
    ASSERT_EQ(pa.numRows(), pb.numRows());
    for (std::size_t r = 0; r < pa.numRows(); ++r)
        for (std::size_t c = 0; c < pa.numColumns(); ++c)
            ASSERT_DOUBLE_EQ(pa.at(r, c), pb.at(r, c));
}

TEST(CollectTest, SeedChangesData)
{
    CollectionConfig config = fastConfig();
    const SuiteData a = pipeline::collectSuite(miniSuite(), config);
    config.seed = 999;
    const SuiteData b = pipeline::collectSuite(miniSuite(), config);
    const Dataset pa = a.pooled();
    const Dataset pb = b.pooled();
    bool any_diff = false;
    for (std::size_t r = 0; r < pa.numRows() && !any_diff; ++r)
        any_diff = pa.at(r, 0) != pb.at(r, 0);
    EXPECT_TRUE(any_diff);
}

TEST(CollectTest, HeavierFootprintCostsMoreCpi)
{
    const SuiteData data = pipeline::collectSuite(miniSuite(), fastConfig());
    const auto light = data.benchmark("light").samples.summarize(0);
    const auto heavy = data.benchmark("heavy").samples.summarize(0);
    EXPECT_GT(heavy.mean, light.mean);
}

TEST(CollectTest, CpiColumnPositiveEverywhere)
{
    const SuiteData data = pipeline::collectSuite(miniSuite(), fastConfig());
    const Dataset pooled = data.pooled();
    const std::size_t cpi = pooled.columnIndex("CPI");
    for (std::size_t r = 0; r < pooled.numRows(); ++r)
        EXPECT_GT(pooled.at(r, cpi), 0.0);
}

TEST(CollectTest, MissingBenchmarkLookupIsFatal)
{
    const SuiteData data = pipeline::collectSuite(miniSuite(), fastConfig());
    EXPECT_EXIT(data.benchmark("nope"), ::testing::ExitedWithCode(1),
                "no collected data");
}

TEST(CollectTest, AtLeastOneIntervalPerBenchmark)
{
    SuiteProfile suite = miniSuite();
    suite.benchmarks[0].instructionWeight = 0.001;
    CollectionConfig config = fastConfig();
    const SuiteData data = pipeline::collectSuite(suite, config);
    EXPECT_GE(data.benchmark("light").samples.numRows(), 1u);
}

} // namespace
} // namespace wct
