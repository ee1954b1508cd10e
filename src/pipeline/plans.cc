#include "pipeline/plans.hh"

#include <optional>
#include <ostream>
#include <sstream>
#include <string_view>
#include <utility>

#include "mtree/serialize.hh"
#include "util/logging.hh"
#include "workload/suites.hh"

namespace wct::pipeline
{

namespace
{

/**
 * One named plan: the suites it builds, in order, whether it renders
 * each suite's profile and similarity tables, and whether it runs the
 * four Section VI transfers over them. This table is the only place
 * plan names are interpreted.
 */
struct PlanEntry
{
    const char *name;
    std::vector<const SuiteProfile &(*)()> suites;
    bool tables;
    bool transfers;
};

const PlanEntry kPlans[] = {
    {"cpu2006", {specCpu2006}, true, false},
    {"omp2001", {specOmp2001}, true, false},
    {"transfer", {specCpu2006, specOmp2001}, false, true},
    {"full", {specCpu2006, specOmp2001}, true, true},
};

const PlanEntry *
findPlan(const std::string &name)
{
    for (const PlanEntry &plan : kPlans)
        if (plan.name == name)
            return &plan;
    return nullptr;
}

/** One suite of an expanded plan and the keys it collects and trains
 * under. */
struct SuiteStep
{
    const SuiteProfile *suite = nullptr;
    std::uint64_t collectKey = 0;
    std::uint64_t trainKey = 0;
};

/** One Section VI assessment: the model of suite `model` applied to
 * the test set of suite `target` (indices into PlanSteps::suites). */
struct TransferStep
{
    std::size_t model = 0;
    std::size_t target = 0;
    TransferabilityConfig config;
};

/** What a plan runs at a protocol, in run order. */
struct PlanSteps
{
    bool tables = false;
    std::vector<SuiteStep> suites;
    std::vector<TransferStep> transfers;
};

/** The dataset selector every plan transfer targets. */
constexpr std::string_view kTransferTarget = "test";

/**
 * Expand a plan's table entry at a protocol, deriving each key it uses
 * once. runPlan executes this expansion and planArtifacts lists it;
 * fatal on an unknown plan name.
 */
PlanSteps
expandPlan(const std::string &name, const PlanProtocol &protocol)
{
    const PlanEntry *entry = findPlan(name);
    if (entry == nullptr)
        wct_fatal("unknown plan '", name, "'");

    PlanSteps steps;
    steps.tables = entry->tables;
    for (const auto suite : entry->suites) {
        SuiteStep step;
        step.suite = &suite();
        step.collectKey =
            collectStageKey(*step.suite, protocol.collection);
        step.trainKey = trainStageKey(step.collectKey, protocol.model);
        steps.suites.push_back(step);
    }
    if (!entry->transfers)
        return steps;

    // Each suite's model on its own test set first, then on the
    // others': cpu->cpu, cpu->omp, omp->omp, omp->cpu.
    const std::size_t n = steps.suites.size();
    for (std::size_t m = 0; m < n; ++m)
        for (std::size_t k = 0; k < n; ++k) {
            TransferStep transfer;
            transfer.model = m;
            transfer.target = (m + k) % n;
            transfer.config.modelName = steps.suites[m].suite->name;
            transfer.config.targetName =
                steps.suites[transfer.target].suite->name + ".";
            transfer.config.targetName += kTransferTarget;
            steps.transfers.push_back(std::move(transfer));
        }
    return steps;
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
    std::vector<std::string> names;
    for (const PlanEntry &plan : kPlans)
        names.push_back(plan.name);
    return names;
}

bool
isPlanName(const std::string &name)
{
    return findPlan(name) != nullptr;
}

void
runPlan(Pipeline &pipe, const std::string &name,
        const PlanProtocol &protocol, std::ostream &out)
{
    const PlanSteps plan = expandPlan(name, protocol);

    // Each suite is built once: its model feeds the transfers too.
    // Its samples live only through its own iteration, so one suite's
    // SuiteData is freed before the next suite collects.
    std::vector<SuiteModel> models;
    for (const SuiteStep &step : plan.suites) {
        const SuiteProfile &suite = *step.suite;
        const SuiteSource data =
            collectOnDemand(pipe, suite, protocol.collection);
        const SuiteModel &model = models.emplace_back(trainStage(
            pipe, suite.name, data, step.collectKey, protocol.model));
        if (!plan.tables)
            continue;
        const ProfileTable table = profileStage(
            pipe, suite.name, data, model.tree, step.trainKey);
        const SimilarityMatrix sim = similarityStage(
            pipe, table, profileStageKey(step.trainKey), {});

        out << "== " << suite.name << " ==\n";
        out << "benchmarks: " << suite.benchmarks.size()
            << ", samples: " << plannedSamples(suite, protocol.collection)
            << ", leaf models: " << model.tree.numLeaves()
            << ", mean CPI: " << model.meanCpi << "\n\n";
        out << table.render() << "\n";
        out << sim.render() << "\n";
    }

    for (const TransferStep &transfer : plan.transfers) {
        const SuiteModel &model = models[transfer.model];
        const auto report = transferStage(
            pipe, model, plan.suites[transfer.model].trainKey,
            models[transfer.target].test,
            plan.suites[transfer.target].trainKey, kTransferTarget,
            transfer.config);
        out << report.render() << "\n";
    }
}

std::vector<ArtifactId>
planArtifacts(const std::string &name, const PlanProtocol &protocol,
              const ArtifactStore &store)
{
    const PlanSteps plan = expandPlan(name, protocol);

    std::vector<ArtifactId> ids;
    for (const SuiteStep &step : plan.suites) {
        for (ArtifactId &id :
             collectShardArtifacts(*step.suite, protocol.collection))
            ids.push_back(std::move(id));
        ids.push_back({"train", step.trainKey});
        if (plan.tables) {
            const std::uint64_t profile = profileStageKey(step.trainKey);
            ids.push_back({"profile", profile});
            ids.push_back({"similarity", similarityStageKey(profile, {})});
        }
    }
    for (const TransferStep &transfer : plan.transfers)
        ids.push_back(
            {"transfer",
             transferStageKey(plan.suites[transfer.model].trainKey,
                              plan.suites[transfer.target].trainKey,
                              kTransferTarget, transfer.config)});

    // The ("mtree", content key) ids of the trees whose train
    // artifacts exist: the content key hashes the serialized tree, so
    // only decoding the train artifact discovers it.
    for (const SuiteStep &step : plan.suites) {
        const auto payload = store.load({"train", step.trainKey});
        const auto model =
            payload ? decodeSuiteModel(*payload) : std::nullopt;
        if (!model)
            continue;
        std::ostringstream text;
        writeModelTree(model->tree, text);
        ids.push_back(
            {"mtree", modelTreeContentKey(std::move(text).str())});
    }
    return ids;
}

} // namespace wct::pipeline
