/**
 * @file
 * Tests for the transferability methodology (Section VI), including
 * the end-to-end finding: a model trained on 10% of a suite
 * transfers to the rest, and dissimilar suites do not transfer.
 */

#include <gtest/gtest.h>

#include "core/suite_model.hh"
#include "core/transferability.hh"
#include "pipeline/stages.hh"
#include "workload/suites.hh"

namespace wct
{
namespace
{

/** Two deliberately dissimilar mini-suites. */
SuiteProfile
computeSuite()
{
    SuiteProfile suite;
    suite.name = "computeish";
    for (int i = 0; i < 3; ++i) {
        BenchmarkProfile b;
        b.name = "compute." + std::to_string(i);
        PhaseProfile p;
        p.mulFrac = 0.02 + 0.02 * i;
        p.branchEntropy = 0.02 + 0.03 * i;
        b.phases.push_back(p);
        suite.benchmarks.push_back(b);
    }
    return suite;
}

SuiteProfile
memorySuite()
{
    SuiteProfile suite;
    suite.name = "memoryish";
    for (int i = 0; i < 3; ++i) {
        BenchmarkProfile b;
        b.name = "memory." + std::to_string(i);
        PhaseProfile p;
        p.dataFootprint = (64ull + 32 * i) << 20;
        p.hotFrac = 0.9 - 0.02 * i;
        p.pointerChaseFrac = 0.4;
        p.loadFrac = 0.35;
        p.overlapFrac = 0.03;
        b.phases.push_back(p);
        suite.benchmarks.push_back(b);
    }
    return suite;
}

struct Fixture
{
    SuiteModel compute;
    SuiteModel memory;

    Fixture()
    {
        CollectionConfig config;
        // Intervals must be wide enough that the multiplexed
        // sub-window estimates carry signal.
        config.intervalInstructions = 16384;
        config.baseIntervals = 250;
        config.warmupInstructions = 100000;

        SuiteModelConfig mconfig;
        mconfig.trainFraction = 0.10;

        compute = buildSuiteModel(
            pipeline::collectSuite(computeSuite(), config), mconfig);
        config.seed = 0xabcd;
        memory = buildSuiteModel(
            pipeline::collectSuite(memorySuite(), config), mconfig);
    }
};

const Fixture &
fixture()
{
    static const Fixture f;
    return f;
}

TEST(SuiteModelTest, TrainTestDisjointAndSized)
{
    const auto &m = fixture().compute;
    EXPECT_EQ(m.train.numRows(), m.test.numRows());
    EXPECT_EQ(m.train.numRows(), 75u); // 10% of 3 * 250
    EXPECT_GT(m.tree.numLeaves(), 0u);
    EXPECT_GT(m.meanCpi, 0.0);
}

TEST(TransferabilityTest, SameSuiteTransfers)
{
    const auto &m = fixture().compute;
    const auto report =
        assessTransferability(m.tree, m.train, m.test);
    EXPECT_TRUE(report.transferableByAccuracy())
        << "C=" << report.accuracy.correlation
        << " MAE=" << report.accuracy.meanAbsoluteError;
    EXPECT_FALSE(report.cpiTest.rejectAt(0.01));
}

TEST(TransferabilityTest, CrossSuiteFailsAccuracy)
{
    const auto &compute = fixture().compute;
    const auto &memory = fixture().memory;
    const auto report = assessTransferability(
        compute.tree, compute.train, memory.test);
    EXPECT_FALSE(report.transferableByAccuracy());
    EXPECT_TRUE(report.cpiTest.rejectAt(0.05));
    EXPECT_FALSE(report.transferableByTests());
}

TEST(TransferabilityTest, CrossSuiteFailsBothDirections)
{
    const auto &compute = fixture().compute;
    const auto &memory = fixture().memory;
    const auto reverse = assessTransferability(
        memory.tree, memory.train, compute.test);
    EXPECT_FALSE(reverse.transferableByAccuracy());
}

TEST(TransferabilityTest, DescriptiveStatspopulated)
{
    const auto &m = fixture().compute;
    const auto report =
        assessTransferability(m.tree, m.train, m.test);
    EXPECT_EQ(report.trainCount, m.train.numRows());
    EXPECT_EQ(report.targetCount, m.test.numRows());
    EXPECT_GT(report.trainMeanCpi, 0.0);
    EXPECT_GT(report.targetMeanCpi, 0.0);
    EXPECT_GT(report.predictedMeanCpi, 0.0);
    EXPECT_GE(report.trainSdCpi, 0.0);
}

TEST(TransferabilityTest, RenderMentionsVerdicts)
{
    const auto &m = fixture().compute;
    auto report = assessTransferability(m.tree, m.train, m.test);
    report.modelName = "computeish";
    report.targetName = "computeish test";
    const std::string text = report.render();
    EXPECT_NE(text.find("t-test"), std::string::npos);
    EXPECT_NE(text.find("accuracy"), std::string::npos);
    EXPECT_NE(text.find("verdicts"), std::string::npos);
    EXPECT_NE(text.find("transferable"), std::string::npos);
}

TEST(TransferabilityTest, ConfiguredNamesReachTheRenderedReport)
{
    // The names flow through the config into the report header; the
    // old code dropped modelName entirely and pinned targetName to
    // the literal "target" regardless of the caller.
    const auto &m = fixture().compute;
    TransferabilityConfig config;
    config.modelName = "computeish tree";
    config.targetName = "held-out computeish";
    const auto report =
        assessTransferability(m.tree, m.train, m.test, config);
    EXPECT_EQ(report.modelName, "computeish tree");
    EXPECT_EQ(report.targetName, "held-out computeish");
    const std::string text = report.render();
    EXPECT_NE(text.find("transferability of computeish tree -> "
                        "held-out computeish"),
              std::string::npos);
}

TEST(TransferabilityTest, DefaultNamesAreGenericPlaceholders)
{
    const auto &m = fixture().compute;
    const auto report =
        assessTransferability(m.tree, m.train, m.test);
    EXPECT_EQ(report.modelName, "model");
    EXPECT_EQ(report.targetName, "target");
}

TEST(TransferabilityTest, NonParametricTestsAgreeOnCrossSuite)
{
    const auto &compute = fixture().compute;
    const auto &memory = fixture().memory;
    const auto report = assessTransferability(
        compute.tree, compute.train, memory.test);
    // The Mann-Whitney location test must also see the difference.
    EXPECT_TRUE(report.mannWhitney.rejectAt(0.05));
}

TEST(TransferabilityTest, ThresholdConfigRespected)
{
    const auto &m = fixture().compute;
    TransferabilityConfig strict;
    strict.minCorrelation = 0.999999;
    const auto report =
        assessTransferability(m.tree, m.train, m.test, strict);
    EXPECT_FALSE(report.transferableByAccuracy());
}

TEST(SuiteModelDeathTest, BadTrainFraction)
{
    const SuiteData data; // empty is fine, fraction checked first
    SuiteModelConfig config;
    config.trainFraction = 0.9;
    EXPECT_DEATH(buildSuiteModel(data, config), "train fraction");
}

} // namespace
} // namespace wct
