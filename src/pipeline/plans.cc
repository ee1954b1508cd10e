#include "pipeline/plans.hh"

#include <ostream>
#include <sstream>
#include <utility>

#include "mtree/serialize.hh"
#include "util/logging.hh"
#include "workload/suites.hh"

namespace wct::pipeline
{

namespace
{

/** The chained stage keys of one suite under a protocol. */
struct SuiteKeys
{
    std::uint64_t collect = 0;
    std::uint64_t train = 0;
    std::uint64_t profile = 0;
    std::uint64_t similarity = 0;
};

SuiteKeys
suiteKeys(const SuiteProfile &suite, const PlanProtocol &protocol)
{
    SuiteKeys keys;
    keys.collect = collectStageKey(suite, protocol.collection);
    keys.train = trainStageKey(keys.collect, protocol.model);
    keys.profile = profileStageKey(keys.train);
    keys.similarity = similarityStageKey(keys.profile, {});
    return keys;
}

/** One suite's chained keys and trained model. */
struct SuiteBuild
{
    SuiteKeys keys;
    SuiteModel model;
};

/** Train one suite; `data` is collected only if training misses. */
SuiteBuild
buildSuite(Pipeline &pipe, const SuiteProfile &suite,
           const PlanProtocol &protocol, const SuiteSource &data)
{
    SuiteBuild build;
    build.keys = suiteKeys(suite, protocol);
    build.model = trainStage(pipe, suite.name, data, build.keys.collect,
                             protocol.model);
    return build;
}

/**
 * Samples a collection of `suite` holds: the sum of its shard plans
 * (collectStage refuses a shard of any other size), known without
 * collecting or loading anything.
 */
std::size_t
plannedSamples(const SuiteProfile &suite, const CollectionConfig &config)
{
    std::size_t samples = 0;
    for (const BenchmarkProfile &bench : suite.benchmarks)
        for (const ShardSpec &spec : shardPlan(bench, config))
            samples += spec.intervals;
    return samples;
}

/** The full single-suite plan: train, profile, similarity, and the
 * collection either of the first two needs. */
SuiteBuild
runSuitePlan(Pipeline &pipe, const SuiteProfile &suite,
             const PlanProtocol &protocol, std::ostream &out)
{
    const SuiteSource data =
        collectOnDemand(pipe, suite, protocol.collection);
    SuiteBuild build = buildSuite(pipe, suite, protocol, data);
    const ProfileTable table = profileStage(
        pipe, suite.name, data, build.model.tree, build.keys.train);
    const SimilarityMatrix sim =
        similarityStage(pipe, table, build.keys.profile, {});

    out << "== " << suite.name << " ==\n";
    out << "benchmarks: " << suite.benchmarks.size()
        << ", samples: " << plannedSamples(suite, protocol.collection)
        << ", leaf models: " << build.model.tree.numLeaves()
        << ", mean CPI: " << build.model.meanCpi << "\n\n";
    out << table.render() << "\n";
    out << sim.render() << "\n";
    return build;
}

TransferabilityConfig
transferConfig(const std::string &model_name,
               const std::string &target_name)
{
    TransferabilityConfig config;
    config.modelName = model_name;
    config.targetName = target_name;
    return config;
}

/** The four cross/self assessments of Section VI over both suites. */
void
runTransfers(Pipeline &pipe, const SuiteBuild &cpu,
             const SuiteBuild &omp, std::ostream &out)
{
    const std::pair<const SuiteBuild *, const SuiteBuild *>
        directions[] = {{&cpu, &cpu}, {&cpu, &omp}, {&omp, &omp},
                        {&omp, &cpu}};
    for (const auto &[model, target] : directions) {
        const auto report = transferStage(
            pipe, model->model, model->keys.train, target->model.test,
            target->keys.train, "test",
            transferConfig(model->model.suiteName,
                           target->model.suiteName + ".test"));
        out << report.render() << "\n";
    }
}

/** Transfer keys without execution (for planArtifacts). */
std::vector<ArtifactId>
transferIds(const SuiteKeys &cpu, const SuiteKeys &omp)
{
    const SuiteProfile &cpu_suite = specCpu2006();
    const SuiteProfile &omp_suite = specOmp2001();
    const auto id = [](std::uint64_t model_key,
                       std::uint64_t target_key,
                       const std::string &model_name,
                       const std::string &target_name) {
        return ArtifactId{
            "transfer",
            transferStageKey(model_key, target_key, "test",
                             transferConfig(model_name,
                                            target_name + ".test"))};
    };
    return {
        id(cpu.train, cpu.train, cpu_suite.name, cpu_suite.name),
        id(cpu.train, omp.train, cpu_suite.name, omp_suite.name),
        id(omp.train, omp.train, omp_suite.name, omp_suite.name),
        id(omp.train, cpu.train, omp_suite.name, cpu_suite.name),
    };
}

void
appendSuiteIds(std::vector<ArtifactId> &ids, const SuiteProfile &suite,
               const PlanProtocol &protocol, const SuiteKeys &keys,
               bool full)
{
    // Collection artifacts are per-shard: the shard plan is a pure
    // function of the protocol, so the expansion enumerates without
    // collecting and `wct cache gc` liveness stays exact.
    for (ArtifactId &id :
         collectShardArtifacts(suite, protocol.collection))
        ids.push_back(std::move(id));
    ids.push_back({"train", keys.train});
    if (full) {
        ids.push_back({"profile", keys.profile});
        ids.push_back({"similarity", keys.similarity});
    }
}

/**
 * The ("mtree", content key) ids of the trees whose train artifacts
 * exist in the store: the content key is a hash of the serialized
 * tree, so it is only discoverable by decoding the train artifact.
 */
void
appendModelIds(std::vector<ArtifactId> &ids, const ArtifactStore &store,
               const std::vector<std::uint64_t> &train_keys)
{
    for (std::uint64_t train_key : train_keys) {
        const auto payload = store.load({"train", train_key});
        if (!payload)
            continue;
        const auto model = decodeSuiteModel(*payload);
        if (!model)
            continue;
        std::ostringstream text;
        writeModelTree(model->tree, text);
        ids.push_back(
            {"mtree", modelTreeContentKey(std::move(text).str())});
    }
}

} // namespace

CollectionConfig
standardCollection()
{
    CollectionConfig config;
    config.intervalInstructions = 8192;
    config.baseIntervals = 700;
    config.warmupInstructions = 1'500'000;
    config.multiplexed = true;
    config.seed = 0x5eed;
    return config;
}

SuiteModelConfig
standardModelConfig()
{
    SuiteModelConfig config;
    config.trainFraction = 0.10;
    config.tree.minLeafInstances = 25;
    config.tree.minLeafFraction = 0.025;
    config.tree.sdThresholdFraction = 0.05;
    config.seed = 0xcafe;
    return config;
}

std::vector<std::string>
planNames()
{
    return {"cpu2006", "omp2001", "transfer", "full"};
}

bool
isPlanName(const std::string &name)
{
    for (const std::string &known : planNames())
        if (known == name)
            return true;
    return false;
}

void
runPlan(Pipeline &pipe, const std::string &name,
        const PlanProtocol &protocol, std::ostream &out)
{
    if (name == "cpu2006" || name == "omp2001") {
        runSuitePlan(pipe, suiteByName(name), protocol, out);
        return;
    }
    if (name == "transfer") {
        const auto build = [&](const SuiteProfile &suite) {
            return buildSuite(
                pipe, suite, protocol,
                collectOnDemand(pipe, suite, protocol.collection));
        };
        const SuiteBuild cpu = build(specCpu2006());
        const SuiteBuild omp = build(specOmp2001());
        runTransfers(pipe, cpu, omp, out);
        return;
    }
    if (name == "full") {
        // Each suite is built once: its plan's model and keys feed
        // the transfers too.
        const SuiteBuild cpu =
            runSuitePlan(pipe, specCpu2006(), protocol, out);
        const SuiteBuild omp =
            runSuitePlan(pipe, specOmp2001(), protocol, out);
        runTransfers(pipe, cpu, omp, out);
        return;
    }
    wct_fatal("unknown plan '", name, "'");
}

std::vector<ArtifactId>
planArtifacts(const std::string &name, const PlanProtocol &protocol,
              const ArtifactStore &store)
{
    const SuiteKeys cpu = suiteKeys(specCpu2006(), protocol);
    const SuiteKeys omp = suiteKeys(specOmp2001(), protocol);

    std::vector<ArtifactId> ids;
    std::vector<std::uint64_t> train_keys;
    if (name == "cpu2006" || name == "omp2001") {
        const SuiteKeys &keys = name == "cpu2006" ? cpu : omp;
        appendSuiteIds(ids, suiteByName(name), protocol, keys, true);
        train_keys = {keys.train};
    } else if (name == "transfer") {
        appendSuiteIds(ids, specCpu2006(), protocol, cpu, false);
        appendSuiteIds(ids, specOmp2001(), protocol, omp, false);
        for (ArtifactId &id : transferIds(cpu, omp))
            ids.push_back(std::move(id));
        train_keys = {cpu.train, omp.train};
    } else if (name == "full") {
        appendSuiteIds(ids, specCpu2006(), protocol, cpu, true);
        appendSuiteIds(ids, specOmp2001(), protocol, omp, true);
        for (ArtifactId &id : transferIds(cpu, omp))
            ids.push_back(std::move(id));
        train_keys = {cpu.train, omp.train};
    } else {
        wct_fatal("unknown plan '", name, "'");
    }
    appendModelIds(ids, store, train_keys);
    return ids;
}

} // namespace wct::pipeline
