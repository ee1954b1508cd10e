/**
 * @file
 * Golden pins of the simulator's output. The fast paths in src/uarch
 * and src/workload must be exact: the same events, the same cycle
 * bits and the same serialized SuiteData, not merely close ones. The
 * constants below were recorded before the simulator hot path was
 * rewritten and must never move; a mismatch means the simulation
 * changed, not just its speed.
 */

#include <gtest/gtest.h>

#include <bit>
#include <sstream>

#include "core/collect.hh"
#include "core/suite_io.hh"
#include "data/binary_io.hh"
#include "pipeline/stages.hh"
#include "uarch/core.hh"
#include "workload/source.hh"
#include "workload/suites.hh"

namespace wct
{
namespace
{

/** A reduced protocol: short intervals, few of them, short warmup. */
CollectionConfig
reducedProtocol(const CoreConfig &machine)
{
    CollectionConfig config;
    config.intervalInstructions = 2048;
    config.baseIntervals = 4;
    config.warmupInstructions = 50'000;
    config.machine = machine;
    return config;
}

/** FNV-1a 64 of the serialized suite. */
std::uint64_t
suiteDigest(const SuiteProfile &suite, const CoreConfig &machine)
{
    std::ostringstream bytes;
    writeSuiteData(bytes,
                   pipeline::collectSuite(suite, reducedProtocol(machine)));
    return fnv1a64(bytes.str());
}

std::string
hex(std::uint64_t value)
{
    std::ostringstream out;
    out << "0x" << std::hex << value << "ull";
    return out.str();
}

TEST(SimGoldenTest, BuiltInSuitesSerializeUnchanged)
{
    const std::uint64_t cpu = suiteDigest(specCpu2006(), CoreConfig{});
    const std::uint64_t omp = suiteDigest(specOmp2001(), CoreConfig{});
    EXPECT_EQ(cpu, 0x67fc2bfb226768dcull) << "cpu2006 digest " << hex(cpu);
    EXPECT_EQ(omp, 0xa3ad036b7bd68d00ull) << "omp2001 digest " << hex(omp);
}

TEST(SimGoldenTest, AblationMachinesSerializeUnchanged)
{
    // The perturbed machines of bench/ablation_machine.cc that reach
    // code the default machine does not: the Random and tree-PLRU
    // victim searches, and a DTLB small enough to thrash. CPU2006, the
    // suite that ablation runs.
    CoreConfig random_caches;
    random_caches.l1d.policy = ReplacementPolicy::Random;
    random_caches.l2.policy = ReplacementPolicy::Random;
    CoreConfig plru;
    plru.l1d.policy = ReplacementPolicy::TreePlru;
    plru.l2.policy = ReplacementPolicy::TreePlru;
    CoreConfig small_tlb;
    small_tlb.dtlb.entries = 64;

    const struct
    {
        const char *name;
        CoreConfig machine;
        std::uint64_t digest;
    } machines[] = {
        {"random L1D/L2", random_caches, 0x33b11b94848ee2efull},
        {"tree-PLRU L1D/L2", plru, 0x79a6af5826430201ull},
        {"64-entry DTLB", small_tlb, 0xf6b26b85fe6cf29bull},
    };
    for (const auto &m : machines) {
        const std::uint64_t got = suiteDigest(specCpu2006(), m.machine);
        EXPECT_EQ(got, m.digest) << m.name << " digest " << hex(got);
    }
}

TEST(SimGoldenTest, CoreRunCountsAndCycleBitsUnchanged)
{
    constexpr std::uint64_t kInstructions = 200'000;
    const struct
    {
        const char *suite;
        const char *benchmark;
        EventCounts counts;
        std::uint64_t cycleBits;
    } runs[] = {
        {"cpu2006", "429.mcf",
         {777368, 200000, 777368, 70770, 19144, 4833, 36067, 5283, 418,
          3439, 2936, 0, 0, 164, 0, 0, 0, 0, 2944, 4075, 0, 0},
         0x4127b9313fffffd9ull},
        {"cpu2006", "456.hmmer",
         {116048, 200000, 116048, 59964, 24036, 328, 15958, 2674, 171,
          380, 85, 0, 0, 160, 0, 0, 0, 0, 88, 9833, 0, 18197},
         0x40fc55019999a63full},
        {"omp2001", "328.fma3d_m",
         {498783, 200000, 498783, 59818, 32147, 618, 16005, 17101, 144,
          2681, 1240, 155, 2, 7879, 0, 0, 0, 0, 1243, 3956, 0, 0},
         0x411e717ce666696dull},
    };
    for (const auto &run : runs) {
        const BenchmarkProfile &profile =
            suiteByName(run.suite).benchmark(run.benchmark);
        WorkloadSource source(profile, 0x5eed);
        CoreModel core{CoreConfig{}};
        core.run(source, kInstructions);

        std::ostringstream actual;
        for (std::uint64_t count : core.counts())
            actual << count << ", ";
        EXPECT_EQ(core.counts(), run.counts)
            << run.benchmark << " counts {" << actual.str() << "}";
        const auto bits = std::bit_cast<std::uint64_t>(core.cycles());
        EXPECT_EQ(bits, run.cycleBits)
            << run.benchmark << " cycles " << core.cycles() << " bits "
            << hex(bits);
    }
}

} // namespace
} // namespace wct
