#include "core/collect.hh"

#include <algorithm>
#include <cmath>

#include "data/binary_io.hh"
#include "util/logging.hh"
#include "util/rng.hh"
#include "workload/source.hh"

namespace wct
{

Dataset
SuiteData::pooled() const
{
    // Derive the schema from the collected samples rather than
    // assuming the PMU metric layout: suites assembled from other
    // sources (e.g. synthetic test data) pool the same way, and
    // append() still asserts every benchmark agrees.
    Dataset all(benchmarks.empty()
                    ? metricColumnNames()
                    : benchmarks.front().samples.columnNames());
    for (const BenchmarkData &bench : benchmarks)
        all.append(bench.samples);
    return all;
}

const BenchmarkData &
SuiteData::benchmark(const std::string &name) const
{
    for (const BenchmarkData &bench : benchmarks)
        if (bench.name == name)
            return bench;
    wct_fatal("no collected data for benchmark '", name, "'");
}

std::size_t
SuiteData::totalSamples() const
{
    std::size_t total = 0;
    for (const BenchmarkData &bench : benchmarks)
        total += bench.samples.numRows();
    return total;
}

std::uint64_t
benchmarkStreamSalt(const std::string &name)
{
    return fnv1a64(name);
}

namespace
{

/** Intervals a benchmark contributes (weight-proportional, >= 1). */
std::size_t
benchmarkIntervals(const BenchmarkProfile &bench,
                   const CollectionConfig &config)
{
    const auto intervals = static_cast<std::size_t>(std::llround(
        static_cast<double>(config.baseIntervals) *
        bench.instructionWeight));
    return std::max<std::size_t>(intervals, 1);
}

} // namespace

std::vector<ShardSpec>
shardPlan(const BenchmarkProfile &bench, const CollectionConfig &config)
{
    const std::size_t total = benchmarkIntervals(bench, config);
    const std::size_t shards =
        std::min(std::max<std::size_t>(config.shards, 1), total);
    std::vector<ShardSpec> plan(shards);
    const std::size_t base = total / shards;
    const std::size_t remainder = total % shards;
    std::size_t first = 0;
    for (std::size_t s = 0; s < shards; ++s) {
        plan[s].firstInterval = first;
        plan[s].intervals = base + (s < remainder ? 1 : 0);
        first += plan[s].intervals;
    }
    return plan;
}

// The multiplexing rotation starts at the shard's first global
// interval so the schedule advances exactly as it would
// sequentially.
Dataset
collectShard(const BenchmarkProfile &bench,
             const CollectionConfig &config, std::size_t shard,
             const ShardSpec &spec)
{
    CoreModel core(config.machine);
    CollectorConfig pmu_config;
    pmu_config.intervalInstructions = config.intervalInstructions;
    pmu_config.multiplexed = config.multiplexed;
    pmu_config.initialRotation = spec.firstInterval;
    IntervalCollector collector(core, pmu_config);

    // Deterministic per-(benchmark, shard) stream seed, derived from
    // the stable benchmark name — never from suite position or
    // submission order.
    const std::uint64_t stream_seed =
        Rng(config.seed).fork(benchmarkStreamSalt(bench.name))();
    const std::uint64_t shard_seed =
        shard == 0 ? stream_seed : Rng(stream_seed).fork(shard)();
    WorkloadSource source(bench, shard_seed);

    // Warm caches, TLBs, and the predictor before sampling, as
    // hardware collection effectively does (the first intervals of a
    // long run are a vanishing fraction of the total).
    core.run(source, config.warmupInstructions);

    return collector.collect(source, spec.intervals);
}

} // namespace wct
