/**
 * @file
 * Tests for the temporal phase analysis.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "core/collect.hh"
#include "core/phase_report.hh"
#include "core/suite_model.hh"
#include "pipeline/stages.hh"
#include "workload/suites.hh"

namespace wct
{
namespace
{

/** Benchmark with two alternating, strongly distinct phases. */
BenchmarkProfile
twoPhaseBench()
{
    BenchmarkProfile b;
    b.name = "phases.ab";
    b.phaseRunLength = 200000; // long runs -> many intervals each
    PhaseProfile lean;
    lean.name = "lean";
    PhaseProfile fat;
    fat.name = "fat";
    fat.dataFootprint = 96ull << 20;
    fat.hotFrac = 0.9;
    fat.pointerChaseFrac = 0.5;
    fat.loadFrac = 0.35;
    b.phases = {lean, fat};
    return b;
}

BenchmarkProfile
onePhaseBench()
{
    BenchmarkProfile b;
    b.name = "phases.mono";
    // A genuinely steady phase: the whole working set lives in the
    // L1, so every interval looks alike and lands in few leaves
    // regardless of the stream seed.
    PhaseProfile steady;
    steady.name = "steady";
    steady.dataFootprint = 24 * 1024;
    steady.hotBytes = 16 * 1024;
    steady.hotFrac = 1.0;
    b.phases = {steady};
    return b;
}

struct Fixture
{
    SuiteData data;
    SuiteModel model;

    Fixture()
    {
        SuiteProfile suite;
        suite.name = "phasey";
        suite.benchmarks = {twoPhaseBench(), onePhaseBench()};
        CollectionConfig config;
        config.intervalInstructions = 4096;
        config.baseIntervals = 400;
        config.warmupInstructions = 100000;
        config.multiplexed = false;
        data = pipeline::collectSuite(suite, config);
        SuiteModelConfig mconfig;
        mconfig.trainFraction = 0.5;
        mconfig.tree.minLeafInstances = 30;
        model = buildSuiteModel(data, mconfig);
    }
};

const Fixture &
fixture()
{
    static const Fixture f;
    return f;
}

TEST(PhaseReportTest, SequenceCoversEveryInterval)
{
    const auto &f = fixture();
    const auto &samples = f.data.benchmark("phases.ab").samples;
    const PhaseReport report(f.model.tree, samples);
    EXPECT_EQ(report.sequence().size(), samples.numRows());
    for (std::size_t leaf : report.sequence())
        EXPECT_LT(leaf, f.model.tree.numLeaves());
}

TEST(PhaseReportTest, RunsPartitionTheSequence)
{
    const auto &f = fixture();
    const PhaseReport report(
        f.model.tree, f.data.benchmark("phases.ab").samples);
    std::size_t covered = 0;
    std::size_t expected_start = 0;
    for (const PhaseRun &run : report.runs()) {
        EXPECT_EQ(run.start, expected_start);
        EXPECT_GT(run.length, 0u);
        // Within a run every interval shares the leaf.
        for (std::size_t i = run.start; i < run.start + run.length;
             ++i)
            EXPECT_EQ(report.sequence()[i], run.leaf);
        covered += run.length;
        expected_start += run.length;
    }
    EXPECT_EQ(covered, report.sequence().size());
    // Adjacent runs use different leaves (maximality).
    for (std::size_t r = 1; r < report.runs().size(); ++r)
        EXPECT_NE(report.runs()[r].leaf, report.runs()[r - 1].leaf);
}

TEST(PhaseReportTest, TwoPhaseWorkloadShowsAlternation)
{
    const auto &f = fixture();
    const PhaseReport report(
        f.model.tree, f.data.benchmark("phases.ab").samples);
    // Both behaviours visible, with long runs (phase run length 200k
    // instructions = ~49 intervals of 4096).
    EXPECT_GE(report.distinctLeaves(), 2u);
    EXPECT_GT(report.meanRunLength(), 5.0);
    EXPECT_GT(report.numTransitions(), 2u);
    EXPECT_GT(report.leafEntropy(), 0.5);
}

TEST(PhaseReportTest, MonophaseWorkloadHasLowEntropy)
{
    const auto &f = fixture();
    const PhaseReport mono(
        f.model.tree, f.data.benchmark("phases.mono").samples);
    const PhaseReport duo(
        f.model.tree, f.data.benchmark("phases.ab").samples);
    EXPECT_LT(mono.leafEntropy(), duo.leafEntropy());
    EXPECT_GT(mono.meanRunLength(), duo.meanRunLength() / 2.0);
}

TEST(PhaseReportTest, TransitionMatrixIsRowStochastic)
{
    const auto &f = fixture();
    const PhaseReport report(
        f.model.tree, f.data.benchmark("phases.ab").samples);
    const auto &matrix = report.transitionMatrix();
    ASSERT_EQ(matrix.size(), report.visitedLeaves().size());
    for (std::size_t i = 0; i < matrix.size(); ++i) {
        double total = 0.0;
        for (double p : matrix[i]) {
            EXPECT_GE(p, 0.0);
            total += p;
        }
        // Rows for leaves with outgoing transitions sum to 1; a
        // terminal leaf row may be all zero.
        EXPECT_TRUE(std::fabs(total - 1.0) < 1e-9 || total == 0.0);
    }
    // Diagonal is zero: runs are maximal, transitions change leaf.
    for (std::size_t i = 0; i < matrix.size(); ++i)
        EXPECT_DOUBLE_EQ(matrix[i][i], 0.0);
}

TEST(PhaseReportTest, RenderMentionsRunsAndTimeline)
{
    const auto &f = fixture();
    const PhaseReport report(
        f.model.tree, f.data.benchmark("phases.ab").samples);
    const std::string text = report.render();
    EXPECT_NE(text.find("timeline:"), std::string::npos);
    EXPECT_NE(text.find("longest run"), std::string::npos);
    EXPECT_NE(text.find("entropy:"), std::string::npos);
}

TEST(PhaseReportDeathTest, EmptySamplesPanic)
{
    const auto &f = fixture();
    Dataset empty(f.model.train.columnNames());
    EXPECT_DEATH(PhaseReport(f.model.tree, empty), "empty");
}

} // namespace
} // namespace wct
