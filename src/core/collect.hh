/**
 * @file
 * Sample collection: the protocol, each benchmark's shard plan, and
 * one shard's run through the simulated machine and PMU, producing
 * the per-interval metric datasets everything downstream consumes.
 * A suite is collected by pipeline/stages.hh collectStage, which runs
 * every shard task and stitches the results in fixed order
 * (collectSuite is the same over no store).
 */

#ifndef WCT_CORE_COLLECT_HH
#define WCT_CORE_COLLECT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "data/dataset.hh"
#include "pmu/collector.hh"
#include "uarch/core.hh"
#include "workload/profile.hh"

namespace wct
{

/** Knobs for one suite collection run. */
struct CollectionConfig
{
    /** Instructions per sample interval (Section III's 2 M, scaled). */
    std::uint64_t intervalInstructions = 4096;

    /**
     * Base number of intervals; each benchmark contributes
     * round(base * instructionWeight) samples, reproducing the
     * paper's sampling proportional to dynamic instruction count.
     */
    std::size_t baseIntervals = 400;

    /** Instructions executed before sampling starts (cache warmup). */
    std::uint64_t warmupInstructions = 1'500'000;

    /** Round-robin counter multiplexing (Section III) or exact. */
    bool multiplexed = true;

    /** Machine configuration. */
    CoreConfig machine{};

    /** Root seed; benchmark streams fork deterministically from it. */
    std::uint64_t seed = 0x5eed;

    /**
     * Independently seeded stream shards per benchmark. Each shard
     * runs its own machine, workload stream, and collector, so a
     * benchmark's intervals can be collected in parallel; shard
     * seeds derive from the stable benchmark name (never from suite
     * order or thread schedule), making the result a pure function
     * of this config. `shards = 1` reproduces the single sequential
     * stream exactly. More shards change the sampled data (each
     * shard is a fresh warmup and stream) — pick one value per
     * experiment and keep it in the cache key.
     */
    std::size_t shards = 1;
};

/** Collected samples of one benchmark. */
struct BenchmarkData
{
    std::string name;
    double instructionWeight = 1.0;
    Dataset samples;
};

/** Collected samples of a whole suite. */
struct SuiteData
{
    std::string suiteName;
    std::vector<BenchmarkData> benchmarks;

    /** All samples of all benchmarks concatenated. */
    Dataset pooled() const;

    /** Samples of one benchmark; fatal when absent. */
    const BenchmarkData &benchmark(const std::string &name) const;

    /** Total sample count. */
    std::size_t totalSamples() const;
};

/**
 * Stable per-benchmark stream salt: an FNV-1a hash of the benchmark
 * name. Deriving the salt from the name (not the suite position)
 * means filtering or reordering a suite never changes any
 * benchmark's samples.
 */
std::uint64_t benchmarkStreamSalt(const std::string &name);

/** Contiguous run of intervals one shard collects. */
struct ShardSpec
{
    std::size_t firstInterval = 0;
    std::size_t intervals = 0;
};

/**
 * Split a benchmark's intervals (round(base * weight), >= 1) into
 * balanced contiguous shards. Shard count is clamped so every shard
 * collects at least one interval; the plan depends only on the
 * benchmark profile and the config, never on threads. Exposed so the
 * staged pipeline can address every (benchmark, shard) task as its
 * own store artifact (pipeline/stages.hh collectShardKey) and
 * `wct cache gc` can enumerate the same ids without collecting.
 */
std::vector<ShardSpec> shardPlan(const BenchmarkProfile &bench,
                                 const CollectionConfig &config);

/**
 * Collect one shard: a fresh machine and an independently seeded
 * stream. Shard 0 uses the benchmark's base stream seed, so a
 * one-shard plan reproduces the historical sequential stream bit for
 * bit; later shards fork from that seed by shard index. A shard is a
 * pure function of (benchmark profile, config, shard, spec) — the
 * unit of cross-worker deduplication in the shared artifact store.
 */
Dataset collectShard(const BenchmarkProfile &bench,
                     const CollectionConfig &config,
                     std::size_t shard, const ShardSpec &spec);

} // namespace wct

#endif // WCT_CORE_COLLECT_HH
