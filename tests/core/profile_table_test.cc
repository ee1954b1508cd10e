/**
 * @file
 * Tests for the linear-model distribution profiles (Table II/IV
 * machinery) and the similarity matrix (Table III).
 */

#include <gtest/gtest.h>

#include <cmath>

#include "core/profile_table.hh"
#include "core/similarity.hh"
#include "core/suite_model.hh"
#include "pipeline/stages.hh"
#include "workload/suites.hh"

namespace wct
{
namespace
{

/** A three-benchmark suite with two clearly distinct behaviours. */
SuiteProfile
threeBench()
{
    SuiteProfile suite;
    suite.name = "tri";

    BenchmarkProfile lean;
    lean.name = "lean.a";
    lean.phases.push_back(PhaseProfile{});

    BenchmarkProfile lean2 = lean;
    lean2.name = "lean.b";

    BenchmarkProfile fat;
    fat.name = "fat";
    PhaseProfile p;
    p.dataFootprint = 128 << 20;
    p.hotFrac = 0.85;
    p.pointerChaseFrac = 0.5;
    p.loadFrac = 0.35;
    fat.phases.push_back(p);

    suite.benchmarks = {lean, lean2, fat};
    return suite;
}

struct Fixture
{
    SuiteData data;
    SuiteModel model;

    Fixture()
    {
        CollectionConfig config;
        config.intervalInstructions = 512;
        config.baseIntervals = 150;
        config.warmupInstructions = 20000;
        data = pipeline::collectSuite(threeBench(), config);

        SuiteModelConfig mconfig;
        mconfig.trainFraction = 0.5;
        model = buildSuiteModel(data, mconfig);
    }
};

const Fixture &
fixture()
{
    static const Fixture f;
    return f;
}

TEST(ProfileTableTest, RowsSumToHundred)
{
    const ProfileTable table(fixture().data, fixture().model.tree);
    for (const auto &row : table.rows()) {
        double total = 0.0;
        for (double p : row.percent)
            total += p;
        EXPECT_NEAR(total, 100.0, 1e-9) << row.name;
    }
    double suite_total = 0.0;
    for (double p : table.suiteRow().percent)
        suite_total += p;
    EXPECT_NEAR(suite_total, 100.0, 1e-9);
}

TEST(ProfileTableTest, AverageIsUnweightedMean)
{
    const ProfileTable table(fixture().data, fixture().model.tree);
    for (std::size_t i = 0; i < table.numModels(); ++i) {
        double manual = 0.0;
        for (const auto &row : table.rows())
            manual += row.percent[i];
        manual /= static_cast<double>(table.rows().size());
        EXPECT_NEAR(table.averageRow().percent[i], manual, 1e-9);
    }
}

TEST(ProfileTableTest, SuiteRowIsSampleWeightedMean)
{
    const ProfileTable table(fixture().data, fixture().model.tree);
    const auto &data = fixture().data;
    const double total =
        static_cast<double>(data.totalSamples());
    for (std::size_t i = 0; i < table.numModels(); ++i) {
        double manual = 0.0;
        for (const auto &row : table.rows()) {
            const double count = static_cast<double>(
                data.benchmark(row.name).samples.numRows());
            manual += row.percent[i] * count;
        }
        manual /= total;
        EXPECT_NEAR(table.suiteRow().percent[i], manual, 1e-9);
    }
}

TEST(ProfileTableTest, SimilarBenchmarksHaveSmallDistance)
{
    const ProfileTable table(fixture().data, fixture().model.tree);
    const double twin_distance = ProfileTable::distance(
        table.row("lean.a"), table.row("lean.b"));
    const double cross_distance = ProfileTable::distance(
        table.row("lean.a"), table.row("fat"));
    EXPECT_LT(twin_distance, 25.0);
    EXPECT_GT(cross_distance, 50.0);
    EXPECT_LT(twin_distance, cross_distance);
}

TEST(ProfileTableTest, DistanceIsAMetric)
{
    const ProfileTable table(fixture().data, fixture().model.tree);
    const auto &a = table.row("lean.a");
    const auto &b = table.row("lean.b");
    const auto &c = table.row("fat");
    // Identity, symmetry, triangle inequality, bounded by 100.
    EXPECT_DOUBLE_EQ(ProfileTable::distance(a, a), 0.0);
    EXPECT_DOUBLE_EQ(ProfileTable::distance(a, b),
                     ProfileTable::distance(b, a));
    EXPECT_LE(ProfileTable::distance(a, c),
              ProfileTable::distance(a, b) +
                  ProfileTable::distance(b, c) + 1e-9);
    EXPECT_LE(ProfileTable::distance(a, c), 100.0 + 1e-9);
}

TEST(ProfileTableTest, RenderContainsAllRows)
{
    const ProfileTable table(fixture().data, fixture().model.tree);
    const std::string text = table.render();
    EXPECT_NE(text.find("lean.a"), std::string::npos);
    EXPECT_NE(text.find("fat"), std::string::npos);
    EXPECT_NE(text.find("Suite"), std::string::npos);
    EXPECT_NE(text.find("Average"), std::string::npos);
    EXPECT_NE(text.find("LM1"), std::string::npos);
    // Dominant contributions are starred (the paper's bold).
    EXPECT_NE(text.find("*"), std::string::npos);
}

TEST(ProfileTableTest, UnknownRowIsFatal)
{
    const ProfileTable table(fixture().data, fixture().model.tree);
    EXPECT_EXIT(table.row("missing"), ::testing::ExitedWithCode(1),
                "no row");
}

TEST(SimilarityTest, MatrixSymmetricWithZeroDiagonal)
{
    const ProfileTable table(fixture().data, fixture().model.tree);
    const SimilarityMatrix sim(table);
    ASSERT_EQ(sim.names().size(), 3u);
    for (std::size_t i = 0; i < 3; ++i) {
        EXPECT_DOUBLE_EQ(sim.at(i, i), 0.0);
        for (std::size_t j = 0; j < 3; ++j)
            EXPECT_DOUBLE_EQ(sim.at(i, j), sim.at(j, i));
    }
}

TEST(SimilarityTest, ExtremePairsIdentified)
{
    const ProfileTable table(fixture().data, fixture().model.tree);
    const SimilarityMatrix sim(table);
    const auto similar = sim.mostSimilarPair();
    EXPECT_EQ(sim.names()[similar.first].substr(0, 4), "lean");
    EXPECT_EQ(sim.names()[similar.second].substr(0, 4), "lean");
    const auto dissimilar = sim.mostDissimilarPair();
    EXPECT_TRUE(sim.names()[dissimilar.first] == "fat" ||
                sim.names()[dissimilar.second] == "fat");
}

TEST(SimilarityTest, SubsetSelection)
{
    const ProfileTable table(fixture().data, fixture().model.tree);
    const SimilarityMatrix sim(table, {"lean.a", "fat"});
    ASSERT_EQ(sim.names().size(), 2u);
    EXPECT_GT(sim.at(0, 1), 0.0);
}

TEST(SimilarityTest, SuiteDistanceMatchesProfileTable)
{
    const ProfileTable table(fixture().data, fixture().model.tree);
    const SimilarityMatrix sim(table);
    for (std::size_t i = 0; i < sim.names().size(); ++i) {
        const double direct = ProfileTable::distance(
            table.row(sim.names()[i]), table.suiteRow());
        EXPECT_DOUBLE_EQ(sim.distanceToSuite(i), direct);
    }
}

TEST(SimilarityTest, RenderHasSuiteRow)
{
    const ProfileTable table(fixture().data, fixture().model.tree);
    const SimilarityMatrix sim(table);
    const std::string text = sim.render();
    EXPECT_NE(text.find("Suite"), std::string::npos);
    EXPECT_NE(text.find("-"), std::string::npos);
}

} // namespace
} // namespace wct
