#include "pipeline/stages.hh"

#include <algorithm>
#include <chrono>
#include <memory>
#include <sstream>

#include "core/suite_io.hh"
#include "mtree/serialize.hh"
#include "pmu/events.hh"
#include "util/thread_pool.hh"

namespace wct::pipeline
{

namespace
{

// ---- Caps on decoded counts: a corrupt artifact must fail the
// decode, never drive a giant allocation. ----
constexpr std::uint64_t kMaxReasonableRows = 1u << 16;
constexpr std::uint64_t kMaxReasonableLeaves = 1u << 16;

void
appendCacheConfig(KeyBuilder &key, const CacheConfig &config)
{
    key.u64(config.sizeBytes)
        .u32(config.lineBytes)
        .u32(config.ways)
        .u32(static_cast<std::uint32_t>(config.policy));
}

void
appendTlbConfig(KeyBuilder &key, const TlbConfig &config)
{
    key.u32(config.pageBytes)
        .u32(config.entries)
        .u32(config.ways)
        .f64(config.walkCycles)
        .f64(config.shortWalkCycles)
        .u32(config.pdeEntries);
}

void
appendMachineConfig(KeyBuilder &key, const CoreConfig &machine)
{
    appendCacheConfig(key, machine.l1d);
    appendCacheConfig(key, machine.l1i);
    appendCacheConfig(key, machine.l2);
    appendTlbConfig(key, machine.dtlb);
    appendTlbConfig(key, machine.itlb);
    key.u32(machine.branch.tableBits)
        .u32(machine.branch.historyBits)
        .u32(machine.storeBuffer.entries)
        .u32(machine.storeBuffer.lifetime)
        .u32(machine.storeBuffer.staResolveAge)
        .u32(machine.storeBuffer.stdResolveAge)
        .f64(machine.issueWidth)
        .f64(machine.mulExtraCycles)
        .f64(machine.divExtraCycles)
        .f64(machine.simdExtraCycles)
        .f64(machine.l1dMissCycles)
        .f64(machine.l1dMissExposed)
        .f64(machine.l2MissCycles)
        .f64(machine.l1iMissCycles)
        .f64(machine.l2iMissCycles)
        .f64(machine.mispredictCycles)
        .f64(machine.ldBlkStaCycles)
        .f64(machine.ldBlkStdCycles)
        .f64(machine.ldBlkOlpCycles)
        .f64(machine.splitCycles)
        .f64(machine.misalignCycles)
        .f64(machine.fpAssistCycles)
        .f64(machine.robWindowCycles)
        .f64(machine.mlpFactor)
        .u8(machine.prefetchEnabled ? 1 : 0)
        .u32(machine.prefetchStreak)
        .u32(machine.prefetchStreams)
        .u32(machine.prefetchDepth)
        .f64(machine.prefetchBandwidthDivisor);
}

void
appendPhaseProfile(KeyBuilder &key, const PhaseProfile &phase)
{
    key.str(phase.name)
        .f64(phase.weight)
        .f64(phase.loadFrac)
        .f64(phase.storeFrac)
        .f64(phase.branchFrac)
        .f64(phase.mulFrac)
        .f64(phase.divFrac)
        .f64(phase.simdFrac)
        .u64(phase.dataFootprint)
        .u64(phase.hotBytes)
        .f64(phase.hotFrac)
        .f64(phase.streamFrac)
        .f64(phase.pointerChaseFrac)
        .u8(phase.accessSize)
        .f64(phase.misalignFrac)
        .f64(phase.splitFrac)
        .f64(phase.aliasFrac)
        .f64(phase.overlapFrac)
        .f64(phase.slowStoreAddrFrac)
        .f64(phase.slowStoreDataFrac)
        .f64(phase.branchEntropy)
        .f64(phase.takenBias)
        .u64(phase.codeFootprint)
        .u64(phase.hotCodeBytes)
        .f64(phase.hotCodeFrac)
        .f64(phase.fpAssistFrac);
}

void
appendTestResult(ByteSink &sink, const TestResult &test)
{
    sink.putDouble(test.statistic);
    sink.putDouble(test.df);
    sink.putDouble(test.pValue);
    sink.putDouble(test.stderror);
}

bool
parseTestResult(ByteParser &parser, TestResult &test)
{
    return parser.getDouble(test.statistic) &&
        parser.getDouble(test.df) && parser.getDouble(test.pValue) &&
        parser.getDouble(test.stderror);
}

void
appendInterval(ByteSink &sink, const ConfidenceInterval &ci)
{
    sink.putDouble(ci.lower);
    sink.putDouble(ci.upper);
    sink.putDouble(ci.pointEstimate);
}

bool
parseInterval(ByteParser &parser, ConfidenceInterval &ci)
{
    return parser.getDouble(ci.lower) && parser.getDouble(ci.upper) &&
        parser.getDouble(ci.pointEstimate);
}

void
appendProfileRow(ByteSink &sink, const BenchmarkProfileRow &row)
{
    sink.putString(row.name);
    sink.putU64(row.percent.size());
    for (double p : row.percent)
        sink.putDouble(p);
    sink.putDouble(row.meanCpi);
}

/** Parse a row, which must hold one share per leaf model. */
bool
parseProfileRow(ByteParser &parser, std::uint64_t models,
                BenchmarkProfileRow &row)
{
    std::uint64_t leaves = 0;
    if (!parser.getString(row.name) || !parser.getU64(leaves) ||
        leaves != models)
        return false;
    row.percent.resize(leaves);
    for (double &p : row.percent)
        if (!parser.getDouble(p))
            return false;
    return parser.getDouble(row.meanCpi);
}

/** The text writeModelTree prints for a tree. */
std::string
printTree(const ModelTree &tree)
{
    std::ostringstream text;
    writeModelTree(tree, text);
    return std::move(text).str();
}

/** The train payload of a model whose tree text is already printed. */
std::string
encodeTrainPayload(const SuiteModel &model, std::string_view treeText)
{
    ByteSink sink;
    sink.putString(model.suiteName);
    sink.putString(treeText);
    appendDataset(sink, model.train);
    appendDataset(sink, model.test);
    sink.putDouble(model.meanCpi);
    return sink.bytes();
}

/** One (benchmark, shard) collection task and its artifact id. */
struct ShardTask
{
    std::size_t bench = 0; ///< index into SuiteProfile::benchmarks
    std::size_t shard = 0;
    ShardSpec spec;
    ArtifactId id;
};

/**
 * A suite's shard tasks in task order: benchmarks in suite order, each
 * benchmark's shards in plan order. collectStage runs exactly this
 * list and collectShardArtifacts returns its ids, so gc keeps exactly
 * the shards collection reads and writes.
 */
std::vector<ShardTask>
shardTasks(const SuiteProfile &suite, const CollectionConfig &config)
{
    std::vector<ShardTask> tasks;
    for (std::size_t i = 0; i < suite.benchmarks.size(); ++i) {
        const BenchmarkProfile &bench = suite.benchmarks[i];
        const std::vector<ShardSpec> plan = shardPlan(bench, config);
        for (std::size_t s = 0; s < plan.size(); ++s)
            tasks.push_back(
                {i, s, plan[s],
                 {"collect-shard",
                  collectShardKey(bench, config, s, plan[s])}});
    }
    return tasks;
}

} // namespace

void
appendSuiteProfile(KeyBuilder &key, const SuiteProfile &suite)
{
    key.str(suite.name).u64(suite.benchmarks.size());
    for (const BenchmarkProfile &bench : suite.benchmarks)
        appendBenchmarkProfile(key, bench);
}

void
appendBenchmarkProfile(KeyBuilder &key, const BenchmarkProfile &bench)
{
    key.str(bench.name)
        .str(bench.language)
        .u8(bench.integer ? 1 : 0)
        .f64(bench.instructionWeight)
        .u64(bench.phaseRunLength)
        .u64(bench.phases.size());
    for (const PhaseProfile &phase : bench.phases)
        appendPhaseProfile(key, phase);
}

void
appendCollectionConfig(KeyBuilder &key, const CollectionConfig &config)
{
    key.u64(config.intervalInstructions)
        .u64(config.baseIntervals)
        .u64(config.warmupInstructions)
        .u8(config.multiplexed ? 1 : 0);
    appendMachineConfig(key, config.machine);
    key.u64(config.seed).u64(config.shards);
}

void
appendSuiteModelConfig(KeyBuilder &key, const SuiteModelConfig &config)
{
    key.f64(config.trainFraction)
        .str(config.target)
        .u64(config.tree.minLeafInstances)
        .f64(config.tree.minLeafFraction)
        .f64(config.tree.sdThresholdFraction)
        .u64(config.tree.maxDepth)
        .u8(config.tree.prune ? 1 : 0)
        .u8(config.tree.smooth ? 1 : 0)
        .f64(config.tree.smoothingK)
        .u8(config.tree.simplifyModels ? 1 : 0)
        .u8(config.tree.clampPredictions ? 1 : 0)
        .u8(config.tree.constantLeaves ? 1 : 0)
        .u64(config.seed);
}

void
appendTransferabilityConfig(KeyBuilder &key,
                            const TransferabilityConfig &config)
{
    key.f64(config.alpha)
        .f64(config.minCorrelation)
        .f64(config.maxMae)
        .u8(config.nonParametric ? 1 : 0)
        .u64(config.bootstrapReplicates)
        .f64(config.bootstrapConfidence)
        .u64(config.bootstrapSeed)
        .str(config.modelName)
        .str(config.targetName);
}

std::uint64_t
collectStageKey(const SuiteProfile &suite,
                const CollectionConfig &config)
{
    KeyBuilder key;
    key.str("collect").u32(kSuiteDataFormatVersion);
    appendSuiteProfile(key, suite);
    appendCollectionConfig(key, config);
    return key.key();
}

std::uint64_t
collectShardKey(const BenchmarkProfile &bench,
                const CollectionConfig &config, std::size_t shard,
                const ShardSpec &spec)
{
    KeyBuilder key;
    key.str("collect-shard")
        .u32(kCollectShardPayloadVersion)
        .u32(kDatasetFormatVersion);
    appendBenchmarkProfile(key, bench);
    appendCollectionConfig(key, config);
    key.u64(shard).u64(spec.firstInterval).u64(spec.intervals);
    return key.key();
}

std::vector<ArtifactId>
collectShardArtifacts(const SuiteProfile &suite,
                      const CollectionConfig &config)
{
    std::vector<ArtifactId> ids;
    for (ShardTask &task : shardTasks(suite, config))
        ids.push_back(std::move(task.id));
    return ids;
}

std::uint64_t
trainStageKey(std::uint64_t collectKey, const SuiteModelConfig &config)
{
    KeyBuilder key;
    key.str("train").u32(kTrainPayloadVersion).u64(collectKey);
    appendSuiteModelConfig(key, config);
    return key.key();
}

std::uint64_t
profileStageKey(std::uint64_t trainKey)
{
    KeyBuilder key;
    key.str("profile").u32(kProfilePayloadVersion).u64(trainKey);
    return key.key();
}

std::uint64_t
transferStageKey(std::uint64_t modelTrainKey,
                 std::uint64_t targetTrainKey,
                 std::string_view targetSelector,
                 const TransferabilityConfig &config)
{
    KeyBuilder key;
    key.str("transfer")
        .u32(kTransferPayloadVersion)
        .u64(modelTrainKey)
        .u64(targetTrainKey)
        .bytes(targetSelector);
    appendTransferabilityConfig(key, config);
    return key.key();
}

// ---- Codecs. ----

std::string
encodeSuiteData(const SuiteData &data)
{
    std::ostringstream out;
    writeSuiteData(out, data);
    return std::move(out).str();
}

std::string
encodeShardSamples(const Dataset &samples)
{
    ByteSink sink;
    appendDataset(sink, samples);
    return sink.bytes();
}

std::optional<Dataset>
decodeShardSamples(std::string_view payload)
{
    ByteParser parser(payload);
    auto samples = parseDataset(parser);
    if (!samples || !parser.atEnd())
        return std::nullopt;
    return samples;
}

std::string
encodeSuiteModel(const SuiteModel &model)
{
    return encodeTrainPayload(model, printTree(model.tree));
}

std::optional<SuiteModel>
decodeSuiteModel(std::string_view payload, std::string *treeText)
{
    ByteParser parser(payload);
    SuiteModel model;
    std::string tree_text;
    if (!parser.getString(model.suiteName) ||
        !parser.getString(tree_text))
        return std::nullopt;

    auto tree = ModelTree::tryLoad(tree_text, nullptr);
    if (!tree)
        return std::nullopt;
    model.tree = std::move(*tree);

    // Both sets are what the tree was trained and tested on: columns
    // of another schema would fail the tree's schema check later.
    auto train = parseDataset(parser);
    if (!train || train->columnNames() != model.tree.schema())
        return std::nullopt;
    model.train = std::move(*train);
    auto test = parseDataset(parser);
    if (!test || test->columnNames() != model.tree.schema())
        return std::nullopt;
    model.test = std::move(*test);

    if (!parser.getDouble(model.meanCpi) || !parser.atEnd())
        return std::nullopt;
    if (treeText != nullptr)
        *treeText = std::move(tree_text);
    return model;
}

ArtifactId
modelTreeArtifact(std::string_view treeText)
{
    return {"mtree", modelTreeContentKey(treeText)};
}

std::string
encodeProfileTable(const ProfileTable &table)
{
    ByteSink sink;
    sink.putU64(table.numModels());
    sink.putU64(table.rows().size());
    for (const BenchmarkProfileRow &row : table.rows())
        appendProfileRow(sink, row);
    appendProfileRow(sink, table.suiteRow());
    appendProfileRow(sink, table.averageRow());
    return sink.bytes();
}

std::optional<ProfileTable>
decodeProfileTable(std::string_view payload)
{
    ByteParser parser(payload);
    std::uint64_t models = 0;
    std::uint64_t count = 0;
    if (!parser.getU64(models) || models == 0 ||
        models > kMaxReasonableLeaves || !parser.getU64(count) ||
        count < 2 || count > kMaxReasonableRows)
        return std::nullopt;

    std::vector<BenchmarkProfileRow> rows(count);
    for (BenchmarkProfileRow &row : rows)
        if (!parseProfileRow(parser, models, row))
            return std::nullopt;
    BenchmarkProfileRow suite;
    BenchmarkProfileRow average;
    if (!parseProfileRow(parser, models, suite) ||
        !parseProfileRow(parser, models, average) || !parser.atEnd())
        return std::nullopt;
    return ProfileTable(models, std::move(rows), std::move(suite),
                        std::move(average));
}

std::string
encodeTransferReport(const TransferabilityReport &report)
{
    ByteSink sink;
    sink.putString(report.modelName);
    sink.putString(report.targetName);
    appendTestResult(sink, report.cpiTest);
    appendTestResult(sink, report.predictionTest);
    appendTestResult(sink, report.mannWhitney);
    appendTestResult(sink, report.levene);
    sink.putDouble(report.accuracy.correlation);
    sink.putDouble(report.accuracy.meanAbsoluteError);
    sink.putDouble(report.accuracy.rootMeanSquaredError);
    sink.putDouble(report.accuracy.relativeAbsoluteError);
    sink.putDouble(report.accuracy.rootRelativeSquaredError);
    appendInterval(sink, report.correlationCi);
    appendInterval(sink, report.maeCi);
    sink.putU8(report.hasBootstrap ? 1 : 0);
    sink.putU64(report.trainCount);
    sink.putU64(report.targetCount);
    sink.putDouble(report.trainMeanCpi);
    sink.putDouble(report.targetMeanCpi);
    sink.putDouble(report.predictedMeanCpi);
    sink.putDouble(report.trainSdCpi);
    sink.putDouble(report.targetSdCpi);
    sink.putDouble(report.predictedSdCpi);
    sink.putDouble(report.config.alpha);
    sink.putDouble(report.config.minCorrelation);
    sink.putDouble(report.config.maxMae);
    sink.putU8(report.config.nonParametric ? 1 : 0);
    sink.putU64(report.config.bootstrapReplicates);
    sink.putDouble(report.config.bootstrapConfidence);
    sink.putU64(report.config.bootstrapSeed);
    sink.putString(report.config.modelName);
    sink.putString(report.config.targetName);
    return sink.bytes();
}

std::optional<TransferabilityReport>
decodeTransferReport(std::string_view payload)
{
    ByteParser parser(payload);
    TransferabilityReport report;
    std::uint8_t has_bootstrap = 0;
    std::uint8_t non_parametric = 0;
    std::uint64_t train_count = 0;
    std::uint64_t target_count = 0;
    std::uint64_t replicates = 0;
    const bool ok = parser.getString(report.modelName) &&
        parser.getString(report.targetName) &&
        parseTestResult(parser, report.cpiTest) &&
        parseTestResult(parser, report.predictionTest) &&
        parseTestResult(parser, report.mannWhitney) &&
        parseTestResult(parser, report.levene) &&
        parser.getDouble(report.accuracy.correlation) &&
        parser.getDouble(report.accuracy.meanAbsoluteError) &&
        parser.getDouble(report.accuracy.rootMeanSquaredError) &&
        parser.getDouble(report.accuracy.relativeAbsoluteError) &&
        parser.getDouble(report.accuracy.rootRelativeSquaredError) &&
        parseInterval(parser, report.correlationCi) &&
        parseInterval(parser, report.maeCi) &&
        parser.getU8(has_bootstrap) && parser.getU64(train_count) &&
        parser.getU64(target_count) &&
        parser.getDouble(report.trainMeanCpi) &&
        parser.getDouble(report.targetMeanCpi) &&
        parser.getDouble(report.predictedMeanCpi) &&
        parser.getDouble(report.trainSdCpi) &&
        parser.getDouble(report.targetSdCpi) &&
        parser.getDouble(report.predictedSdCpi) &&
        parser.getDouble(report.config.alpha) &&
        parser.getDouble(report.config.minCorrelation) &&
        parser.getDouble(report.config.maxMae) &&
        parser.getU8(non_parametric) &&
        parser.getU64(replicates) &&
        parser.getDouble(report.config.bootstrapConfidence) &&
        parser.getU64(report.config.bootstrapSeed) &&
        parser.getString(report.config.modelName) &&
        parser.getString(report.config.targetName);
    if (!ok || !parser.atEnd())
        return std::nullopt;
    report.hasBootstrap = has_bootstrap != 0;
    report.trainCount = train_count;
    report.targetCount = target_count;
    report.config.nonParametric = non_parametric != 0;
    report.config.bootstrapReplicates = replicates;
    return report;
}

// ---- Stages. ----

SuiteData
collectStage(Pipeline &pipe, const SuiteProfile &suite,
             const CollectionConfig &config)
{
    const auto msSince =
        [](std::chrono::steady_clock::time_point start) {
            return std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - start)
                .count();
        };

    // Everything this call takes is nested time for a stage that
    // collects on demand (a train or profile miss).
    const Pipeline::StageClock clock(pipe);

    const std::vector<ShardTask> tasks = shardTasks(suite, config);
    std::vector<StageRun> runs(tasks.size());
    std::vector<Dataset> parts(tasks.size());

    // Serial store pass first: hits decode in deterministic order
    // (no concurrent remote fetches racing on one connection), and
    // only the true misses fan out below. A shard of the wrong shape
    // is refused, so every stitched suite has exactly the planned
    // sample count.
    const std::vector<std::string> columns = metricColumnNames();
    std::vector<std::size_t> misses;
    for (std::size_t t = 0; t < tasks.size(); ++t) {
        const ShardTask &task = tasks[t];
        StageRun &run = runs[t];
        run.label = "collect-shard:" + suite.benchmarks[task.bench].name +
                    "/" + std::to_string(task.shard);
        run.id = task.id;
        const auto start = std::chrono::steady_clock::now();
        if (auto payload = pipe.store().load(task.id)) {
            auto samples = decodeShardSamples(*payload);
            if (samples && samples->columnNames() == columns &&
                samples->numRows() == task.spec.intervals) {
                run.cached = true;
                run.payloadBytes = payload->size();
                parts[t] = std::move(*samples);
            } else {
                wct_warn("artifact '", task.id.fileName(),
                         "' failed to decode or does not match its "
                         "shard; recomputing shard");
            }
        }
        run.ms = msSince(start);
        if (!run.cached)
            misses.push_back(t);
    }

    // Misses compute and publish over the pool into pre-assigned
    // slots. Both store backends are thread-safe writers (atomic
    // rename locally, a mutex-serialized connection remotely); a
    // disabled store drops the payload.
    parallelFor(misses.size(), [&](std::size_t m) {
        const std::size_t t = misses[m];
        const ShardTask &task = tasks[t];
        const auto start = std::chrono::steady_clock::now();
        parts[t] = collectShard(suite.benchmarks[task.bench], config,
                                task.shard, task.spec);
        const std::string payload = encodeShardSamples(parts[t]);
        runs[t].payloadBytes = payload.size();
        pipe.store().store(task.id, payload);
        runs[t].ms += msSince(start);
    });

    for (StageRun &run : runs)
        pipe.record(std::move(run));

    // Fixed-order stitch, each benchmark's shards appended to its
    // first: byte-identical for any thread count and any warm/cold
    // mix.
    SuiteData out;
    out.suiteName = suite.name;
    out.benchmarks.reserve(suite.benchmarks.size());
    for (std::size_t t = 0; t < tasks.size(); ++t) {
        if (tasks[t].shard > 0) {
            out.benchmarks.back().samples.append(parts[t]);
            continue;
        }
        const BenchmarkProfile &bench = suite.benchmarks[tasks[t].bench];
        out.benchmarks.push_back(
            {bench.name, bench.instructionWeight, std::move(parts[t])});
    }
    return out;
}

SuiteData
collectSuite(const SuiteProfile &suite, const CollectionConfig &config)
{
    Pipeline pipe;
    return collectStage(pipe, suite, config);
}

SuiteSource
collectOnDemand(Pipeline &pipe, const SuiteProfile &suite,
                const CollectionConfig &config)
{
    auto data = std::make_shared<std::optional<SuiteData>>();
    return [&pipe, &suite, &config, data]() -> const SuiteData & {
        if (!*data)
            *data = collectStage(pipe, suite, config);
        return **data;
    };
}

SuiteModel
trainStage(Pipeline &pipe, const std::string &suiteName,
           const SuiteSource &data, std::uint64_t collectKey,
           const SuiteModelConfig &config)
{
    const ArtifactId id{"train", trainStageKey(collectKey, config)};
    // The tree text the train artifact holds: read back on a hit,
    // printed once on a miss.
    std::string tree_text;
    SuiteModel model = pipe.run<SuiteModel>(
        "train:" + suiteName, id,
        [&](const SuiteModel &built) {
            return encodeTrainPayload(built, tree_text);
        },
        [&](std::string_view payload) {
            return decodeSuiteModel(payload, &tree_text);
        },
        [&] {
            SuiteModel built = buildSuiteModel(data(), config);
            tree_text = printTree(built.tree);
            return built;
        });

    // Publish the tree text under its content hash so the serving
    // registry can resolve the model without the training inputs.
    const ArtifactId tree_id = modelTreeArtifact(tree_text);
    if (!pipe.store().contains(tree_id))
        pipe.store().store(tree_id, tree_text);
    return model;
}

ProfileTable
profileStage(Pipeline &pipe, const SuiteProfile &suite,
             const SuiteSource &data, const ModelTree &tree,
             std::uint64_t trainKey)
{
    const ArtifactId id{"profile", profileStageKey(trainKey)};
    // A table that decodes is still refused unless it can be this
    // suite's under this tree: one row per benchmark, in suite order,
    // and one share per leaf model.
    const auto decode = [&](std::string_view payload) {
        auto table = decodeProfileTable(payload);
        if (table && (table->numModels() != tree.numLeaves() ||
                      !std::ranges::equal(table->rows(), suite.benchmarks,
                                          {}, &BenchmarkProfileRow::name,
                                          &BenchmarkProfile::name)))
            table.reset();
        return table;
    };
    return pipe.run<ProfileTable>(
        "profile:" + suite.name, id, encodeProfileTable, decode,
        [&] { return ProfileTable(data(), tree); });
}

TransferabilityReport
transferStage(Pipeline &pipe, const SuiteModel &model,
              std::uint64_t modelTrainKey, const Dataset &target,
              std::uint64_t targetTrainKey,
              std::string_view targetSelector,
              const TransferabilityConfig &config)
{
    const ArtifactId id{
        "transfer", transferStageKey(modelTrainKey, targetTrainKey,
                                     targetSelector, config)};
    return pipe.run<TransferabilityReport>(
        "transfer:" + config.modelName + "->" + config.targetName, id,
        encodeTransferReport, decodeTransferReport, [&] {
            return assessTransferability(model.tree, model.train,
                                         target, config);
        });
}

} // namespace wct::pipeline
