/**
 * @file
 * Golden-file regression tests: a reduced-scale, fully pinned-seed
 * run of the Table II / III / VI pipeline whose rendered output (and
 * the serialized suite tree) is diffed against checked-in text files.
 *
 * Any intentional change to collection, tree induction, or the
 * renderers shows up as a readable text diff. Regenerate with
 *
 *     WCT_UPDATE_GOLDEN=1 ctest --test-dir build -R golden
 *
 * or tests/golden/update_goldens.sh. The comparison assumes the
 * same-toolchain floating-point determinism documented in
 * docs/testing.md.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "core/profile_table.hh"
#include "core/similarity.hh"
#include "core/suite_model.hh"
#include "core/transferability.hh"
#include "pipeline/stages.hh"
#include "workload/suites.hh"

namespace wct
{
namespace
{

/** Source-tree directory holding the golden files (from CMake). */
std::string
goldenDir()
{
    return std::string(WCT_GOLDEN_DIR);
}

/**
 * Compare `actual` against the named golden file; in update mode
 * (WCT_UPDATE_GOLDEN set and non-empty) rewrite the file instead.
 */
void
expectMatchesGolden(const std::string &name, const std::string &actual)
{
    const std::string path = goldenDir() + "/" + name;
    const char *update = std::getenv("WCT_UPDATE_GOLDEN");
    if (update != nullptr && *update != '\0') {
        std::ofstream out(path);
        ASSERT_TRUE(out) << "cannot write " << path;
        out << actual;
        SUCCEED() << "updated " << path;
        return;
    }
    std::ifstream in(path);
    ASSERT_TRUE(in) << "missing golden file " << path
                    << " (regenerate with WCT_UPDATE_GOLDEN=1)";
    std::stringstream want;
    want << in.rdbuf();
    EXPECT_EQ(actual, want.str())
        << "output diverges from " << path
        << "; if intentional, regenerate with WCT_UPDATE_GOLDEN=1 "
           "and review the diff";
}

/** A pinned subset of a built-in suite. */
SuiteProfile
subsetSuite(const SuiteProfile &full, const std::string &name,
            const std::vector<std::string> &members)
{
    SuiteProfile suite;
    suite.name = name;
    for (const std::string &member : members)
        suite.benchmarks.push_back(full.benchmark(member));
    return suite;
}

struct Fixture
{
    SuiteData cpu_data;
    SuiteData omp_data;
    SuiteModel cpu;
    SuiteModel omp;

    Fixture()
    {
        // Every seed and knob below is pinned; nothing may depend on
        // time, environment, or host.
        CollectionConfig config;
        config.intervalInstructions = 4096;
        config.baseIntervals = 80;
        config.warmupInstructions = 200'000;
        config.multiplexed = true;
        config.seed = 0x5eed;

        // Extremes plus the compute cluster: the subset keeps every
        // qualitative contrast of Tables II/III at toy scale.
        cpu_data = pipeline::collectSuite(
            subsetSuite(specCpu2006(), "cpu2006-mini",
                        {"429.mcf", "444.namd", "456.hmmer",
                         "459.GemsFDTD", "470.lbm"}),
            config);
        config.seed = 0x0317;
        omp_data = pipeline::collectSuite(
            subsetSuite(specOmp2001(), "omp2001-mini",
                        {"330.art_m", "328.fma3d_m", "318.galgel_m"}),
            config);

        SuiteModelConfig mconfig;
        mconfig.trainFraction = 0.25;
        mconfig.tree.minLeafInstances = 25;
        mconfig.tree.minLeafFraction = 0.025;
        mconfig.seed = 0xcafe;
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

TEST(GoldenTest, SerializedCpuTree)
{
    std::ostringstream out;
    fixture().cpu.tree.save(out);
    expectMatchesGolden("tree_cpu_mini.txt", out.str());
}

TEST(GoldenTest, TableIIProfileDistribution)
{
    const ProfileTable table(fixture().cpu_data, fixture().cpu.tree);
    expectMatchesGolden("table2_profiles_cpu_mini.txt",
                        table.render());
}

TEST(GoldenTest, TableIIISimilarityMatrix)
{
    const ProfileTable table(fixture().cpu_data, fixture().cpu.tree);
    const SimilarityMatrix matrix(table);
    expectMatchesGolden("table3_similarity_cpu_mini.txt",
                        matrix.render());
}

TEST(GoldenTest, TableVITransferability)
{
    // Same-suite (transfers) and cross-suite (does not) directions,
    // mirroring the Table VI methodology at mini scale.
    const auto same = assessTransferability(
        fixture().cpu.tree, fixture().cpu.train, fixture().cpu.test);
    const auto cross = assessTransferability(
        fixture().cpu.tree, fixture().cpu.train, fixture().omp.test);
    std::ostringstream out;
    out << "== cpu2006-mini -> cpu2006-mini ==\n"
        << same.render() << "\n== cpu2006-mini -> omp2001-mini ==\n"
        << cross.render();
    expectMatchesGolden("transferability_mini.txt", out.str());
}

} // namespace
} // namespace wct
