/**
 * @file
 * Tests for benchmark suite subsetting.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "core/subset.hh"
#include "core/suite_model.hh"
#include "pipeline/stages.hh"
#include "workload/suites.hh"

namespace wct
{
namespace
{

/** Suite with two copies of behaviour A and one of behaviour B. */
SuiteProfile
redundantSuite()
{
    SuiteProfile suite;
    suite.name = "redundant";

    BenchmarkProfile a1;
    a1.name = "alpha.1";
    a1.phases.push_back(PhaseProfile{});
    BenchmarkProfile a2 = a1;
    a2.name = "alpha.2";

    BenchmarkProfile b;
    b.name = "beta";
    PhaseProfile heavy;
    heavy.dataFootprint = 96ull << 20;
    heavy.hotFrac = 0.92;
    heavy.pointerChaseFrac = 0.45;
    heavy.loadFrac = 0.35;
    b.phases.push_back(heavy);

    BenchmarkProfile c;
    c.name = "gamma";
    PhaseProfile simd;
    simd.simdFrac = 0.5;
    simd.accessSize = 16;
    simd.loadFrac = 0.2;
    simd.streamFrac = 0.8;
    simd.dataFootprint = 64ull << 20;
    c.phases.push_back(simd);

    suite.benchmarks = {a1, a2, b, c};
    return suite;
}

struct Fixture
{
    SuiteData data;
    SuiteModel model;
    ProfileTable table;

    Fixture()
        : data(collect()), model(buildModel(data)),
          table(data, model.tree)
    {
    }

    static SuiteData
    collect()
    {
        CollectionConfig config;
        config.intervalInstructions = 2048;
        config.baseIntervals = 150;
        config.warmupInstructions = 60000;
        return pipeline::collectSuite(redundantSuite(), config);
    }

    static SuiteModel
    buildModel(const SuiteData &data)
    {
        SuiteModelConfig config;
        config.trainFraction = 0.5;
        config.tree.minLeafInstances = 15;
        return buildSuiteModel(data, config);
    }
};

const Fixture &
fixture()
{
    static const Fixture f;
    return f;
}

TEST(SubsetTest, CombineOfAllEqualsSuiteRow)
{
    const auto &f = fixture();
    std::vector<std::string> all;
    for (const auto &row : f.table.rows())
        all.push_back(row.name);
    const auto combined = combineProfiles(f.table, f.data, all);
    // Weighted combination of every benchmark is the Suite row
    // (weights equal sample shares here: equal instructionWeight).
    for (std::size_t i = 0; i < combined.percent.size(); ++i)
        EXPECT_NEAR(combined.percent[i],
                    f.table.suiteRow().percent[i], 1e-9);
}

TEST(SubsetTest, FullSubsetHasZeroDistance)
{
    const auto &f = fixture();
    std::vector<std::string> all;
    for (const auto &row : f.table.rows())
        all.push_back(row.name);
    const auto result = evaluateSubset(f.table, f.data, all);
    EXPECT_NEAR(result.profileDistance, 0.0, 1e-9);
    EXPECT_NEAR(result.cpiError, 0.0, 1e-9);
}

TEST(SubsetTest, GreedyDistanceMonotoneInK)
{
    const auto &f = fixture();
    double prev = 1e9;
    for (std::size_t k = 1; k <= 4; ++k) {
        const auto result = selectGreedyProfile(f.table, f.data, k);
        EXPECT_EQ(result.selected.size(), k);
        EXPECT_LE(result.profileDistance, prev + 1e-9);
        prev = result.profileDistance;
    }
    EXPECT_NEAR(prev, 0.0, 1e-9); // k = n reproduces the suite
}

TEST(SubsetTest, GreedySkipsRedundantTwin)
{
    // With k = 3, picking both alpha twins wastes a slot; the greedy
    // selector should cover alpha, beta, and gamma instead.
    const auto &f = fixture();
    const auto result = selectGreedyProfile(f.table, f.data, 3);
    int alphas = 0;
    bool has_beta = false;
    bool has_gamma = false;
    for (const auto &name : result.selected) {
        alphas += name.rfind("alpha", 0) == 0;
        has_beta |= name == "beta";
        has_gamma |= name == "gamma";
    }
    EXPECT_EQ(alphas, 1);
    EXPECT_TRUE(has_beta);
    EXPECT_TRUE(has_gamma);
}

TEST(SubsetTest, MedoidsCoverDistinctBehaviours)
{
    const auto &f = fixture();
    const auto result = selectByMedoids(f.table, f.data, 3);
    EXPECT_EQ(result.selected.size(), 3u);
    int alphas = 0;
    for (const auto &name : result.selected)
        alphas += name.rfind("alpha", 0) == 0;
    EXPECT_EQ(alphas, 1);
}

TEST(SubsetTest, PcaClusteringSelectsKDistinct)
{
    const auto &f = fixture();
    Rng rng(11);
    const auto result =
        selectByPcaClustering(f.table, f.data, 3, rng);
    EXPECT_EQ(result.selected.size(), 3u);
    std::vector<std::string> unique = result.selected;
    std::sort(unique.begin(), unique.end());
    unique.erase(std::unique(unique.begin(), unique.end()),
                 unique.end());
    EXPECT_EQ(unique.size(), 3u);
}

TEST(SubsetTest, SingletonSubsetPicksMostRepresentative)
{
    const auto &f = fixture();
    const auto greedy = selectGreedyProfile(f.table, f.data, 1);
    // Brute force: the chosen one must actually minimise distance.
    double best = 1e18;
    for (const auto &row : f.table.rows()) {
        const auto eval =
            evaluateSubset(f.table, f.data, {row.name});
        best = std::min(best, eval.profileDistance);
    }
    EXPECT_NEAR(greedy.profileDistance, best, 1e-9);
}

TEST(SubsetDeathTest, BadK)
{
    const auto &f = fixture();
    EXPECT_DEATH(selectGreedyProfile(f.table, f.data, 0),
                 "out of range");
    EXPECT_DEATH(selectByMedoids(f.table, f.data, 99),
                 "out of range");
}

} // namespace
} // namespace wct
