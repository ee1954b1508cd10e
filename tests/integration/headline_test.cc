/**
 * @file
 * End-to-end headline reproduction test: runs the real built-in
 * suites at reduced scale through the full pipeline and pins the
 * qualitative findings of the paper (see EXPERIMENTS.md). If a
 * refactor breaks the shape of the reproduction — not just a unit —
 * this is the test that catches it.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "core/profile_table.hh"
#include "core/suite_model.hh"
#include "core/transferability.hh"
#include "pipeline/stages.hh"
#include "stats/metrics.hh"
#include "workload/suites.hh"

namespace wct
{
namespace
{

struct Fixture
{
    SuiteData cpu_data;
    SuiteData omp_data;
    SuiteModel cpu;
    SuiteModel omp;

    Fixture()
    {
        CollectionConfig config;
        config.intervalInstructions = 8192;
        config.baseIntervals = 250;
        config.warmupInstructions = 1'000'000;
        // Multiplexed, like the paper's five-counter PMU: the noise
        // structure of the measurement is part of the reproduced
        // shape (e.g., which variable wins the OMP tree root).
        config.multiplexed = true;

        cpu_data = pipeline::collectSuite(specCpu2006(), config);
        config.seed = 0x0317;
        omp_data = pipeline::collectSuite(specOmp2001(), config);

        SuiteModelConfig mconfig;
        mconfig.trainFraction = 0.25;
        mconfig.tree.minLeafInstances = 25;
        mconfig.tree.minLeafFraction = 0.025;
        cpu = buildSuiteModel(cpu_data, mconfig);
        omp = buildSuiteModel(omp_data, mconfig);
    }
};

const Fixture &
fixture()
{
    static const Fixture f;
    return f;
}

TEST(HeadlineTest, SuiteCpiScales)
{
    // Paper: CPU2006 mean CPI 0.96; OMP2001 1.27 (ours ~15% higher).
    EXPECT_GT(fixture().cpu.meanCpi, 0.75);
    EXPECT_LT(fixture().cpu.meanCpi, 1.35);
    EXPECT_GT(fixture().omp.meanCpi, 1.15);
    EXPECT_LT(fixture().omp.meanCpi, 1.95);
    // OMP runs hotter than CPU2006, as in the paper.
    EXPECT_GT(fixture().omp.meanCpi, fixture().cpu.meanCpi);
}

TEST(HeadlineTest, TreesAreTractable)
{
    // Paper: 24 LMs for CPU2006, 18 for OMP2001.
    EXPECT_GE(fixture().cpu.tree.numLeaves(), 8u);
    EXPECT_LE(fixture().cpu.tree.numLeaves(), 40u);
    EXPECT_GE(fixture().omp.tree.numLeaves(), 6u);
    EXPECT_LE(fixture().omp.tree.numLeaves(), 30u);
}

TEST(HeadlineTest, OmpTreeLeadsWithLoadBlockOverlap)
{
    // Figure 2's root: load blocked by overlapping store. At reduced
    // scale the exact root can shuffle within the top of the tree, so
    // assert LdBlkOlp appears within the first two split levels of
    // some leaf path.
    const auto &tree = fixture().omp.tree;
    bool found = false;
    for (std::size_t leaf = 0; leaf < tree.numLeaves(); ++leaf) {
        const auto path = tree.leafPath(leaf);
        for (std::size_t d = 0; d < std::min<std::size_t>(2,
                                                          path.size());
             ++d) {
            found |= tree.schema()[path[d].attribute] == "LdBlkOlp";
        }
    }
    EXPECT_TRUE(found);
}

TEST(HeadlineTest, CpuTreeDominatedByMemoryHierarchy)
{
    // Figure 1: memory-hierarchy events dominate the split set.
    const auto &tree = fixture().cpu.tree;
    const auto attrs = tree.splitAttributes();
    int memory_events = 0;
    for (std::size_t a : attrs) {
        const std::string &name = tree.schema()[a];
        memory_events += name == "L2Miss" || name == "L1DMiss" ||
            name == "DtlbMiss" || name == "PageWalk" ||
            name == "L1IMiss" || name == "LdBlkOlp" ||
            name == "LdBlkStA" || name == "LdBlkStD";
    }
    EXPECT_GE(memory_events, 2);
    // The root itself is a cache/TLB-pressure event.
    const auto root = tree.leafPath(0)[0];
    const std::string &root_name = tree.schema()[root.attribute];
    EXPECT_TRUE(root_name == "L2Miss" || root_name == "DtlbMiss" ||
                root_name == "L1DMiss")
        << "root split on " << root_name;
}

TEST(HeadlineTest, ComputeClusterIsMutuallySimilar)
{
    // Table III: hmmer/namd/gromacs/calculix/dealII nearly identical.
    const ProfileTable table(fixture().cpu_data, fixture().cpu.tree);
    const std::vector<std::string> cluster = {
        "456.hmmer", "444.namd", "435.gromacs", "454.calculix",
        "447.dealII"};
    // At reduced scale a member can straddle a leaf boundary, so the
    // robust invariant is relative: the cluster is far tighter
    // internally than any member is to the DTLB/L2 extreme.
    double intra_total = 0.0;
    std::size_t pairs = 0;
    for (std::size_t i = 0; i < cluster.size(); ++i) {
        for (std::size_t j = i + 1; j < cluster.size(); ++j) {
            const double d = ProfileTable::distance(
                table.row(cluster[i]), table.row(cluster[j]));
            EXPECT_LT(d, 80.0)
                << cluster[i] << " vs " << cluster[j];
            intra_total += d;
            ++pairs;
        }
    }
    const double intra_mean =
        intra_total / static_cast<double>(pairs);
    double to_mcf_min = 1e9;
    for (const auto &name : cluster)
        to_mcf_min = std::min(
            to_mcf_min, ProfileTable::distance(
                            table.row(name), table.row("429.mcf")));
    EXPECT_LT(intra_mean, 45.0);
    EXPECT_LT(intra_mean, 0.6 * to_mcf_min);
}

TEST(HeadlineTest, ExtremesAreMutuallyDissimilar)
{
    // Table III: mcf / namd / GemsFDTD mutually ~95-100% apart.
    const ProfileTable table(fixture().cpu_data, fixture().cpu.tree);
    EXPECT_GT(ProfileTable::distance(table.row("429.mcf"),
                                     table.row("444.namd")),
              80.0);
    EXPECT_GT(ProfileTable::distance(table.row("429.mcf"),
                                     table.row("459.GemsFDTD")),
              80.0);
    EXPECT_GT(ProfileTable::distance(table.row("444.namd"),
                                     table.row("459.GemsFDTD")),
              80.0);
}

TEST(HeadlineTest, OmpExtremesMatchTableIV)
{
    const ProfileTable table(fixture().omp_data, fixture().omp.tree);
    // art_m is the low-CPI outlier; fma3d_m the overlap+store extreme.
    EXPECT_LT(table.row("330.art_m").meanCpi,
              table.suiteRow().meanCpi * 0.6);
    EXPECT_GT(table.row("328.fma3d_m").meanCpi,
              table.suiteRow().meanCpi * 1.2);
    // fma3d and galgel share the high-CPI leaf family.
    EXPECT_LT(ProfileTable::distance(table.row("328.fma3d_m"),
                                     table.row("318.galgel_m")),
              75.0);
    EXPECT_GT(ProfileTable::distance(table.row("328.fma3d_m"),
                                     table.row("330.art_m")),
              90.0);
}

TEST(HeadlineTest, SameSuiteTransfers)
{
    for (const SuiteModel *model : {&fixture().cpu, &fixture().omp}) {
        const auto report = assessTransferability(
            model->tree, model->train, model->test);
        EXPECT_GT(report.accuracy.correlation, 0.85)
            << model->suiteName;
        EXPECT_FALSE(report.predictionTest.rejectAt(0.01))
            << model->suiteName;
    }
}

TEST(HeadlineTest, CrossSuiteDoesNotTransfer)
{
    const auto cpu_to_omp = assessTransferability(
        fixture().cpu.tree, fixture().cpu.train, fixture().omp.test);
    EXPECT_FALSE(cpu_to_omp.transferableByAccuracy());
    EXPECT_TRUE(cpu_to_omp.cpiTest.rejectAt(0.05));

    const auto omp_to_cpu = assessTransferability(
        fixture().omp.tree, fixture().omp.train, fixture().cpu.test);
    EXPECT_FALSE(omp_to_cpu.transferableByAccuracy());
    EXPECT_TRUE(omp_to_cpu.cpiTest.rejectAt(0.05));
}

TEST(HeadlineTest, LmOneClubConcentration)
{
    // Table II: the five compute benchmarks concentrate (> 60% at
    // this reduced scale) in a shared largest leaf.
    const ProfileTable table(fixture().cpu_data, fixture().cpu.tree);
    for (const char *name :
         {"456.hmmer", "444.namd", "435.gromacs"}) {
        const auto &row = table.row(name);
        const double peak =
            *std::max_element(row.percent.begin(), row.percent.end());
        EXPECT_GT(peak, 60.0) << name;
    }
}

} // namespace
} // namespace wct
