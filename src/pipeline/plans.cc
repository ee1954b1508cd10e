#include "pipeline/plans.hh"

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <limits>
#include <optional>
#include <ostream>
#include <string_view>
#include <utility>

#include "core/similarity.hh"
#include "pmu/events.hh"
#include "util/logging.hh"
#include "util/string_utils.hh"
#include "util/text_table.hh"
#include "workload/suites.hh"

namespace wct::pipeline
{

namespace
{

/**
 * One named plan: the suites it builds, in order, whether it renders
 * each suite's profile and similarity tables, whether it runs the
 * four Section VI transfers over them, and whether it then renders
 * the paper's sections from what it holds (renderPaper; it needs
 * both suites, their tables and the transfers). This table is the
 * only place plan names are interpreted.
 */
struct PlanEntry
{
    const char *name;
    std::vector<const SuiteProfile &(*)()> suites;
    bool tables;
    bool transfers;
    bool paper;
};

const PlanEntry kPlans[] = {
    {"cpu2006", {specCpu2006}, true, false, false},
    {"omp2001", {specOmp2001}, true, false, false},
    {"transfer", {specCpu2006, specOmp2001}, false, true, false},
    {"full", {specCpu2006, specOmp2001}, true, true, false},
    {"paper", {specCpu2006, specOmp2001}, true, true, true},
};

/** A paper value its text does not state (only a verdict). */
constexpr double kNotReported = std::numeric_limits<double>::quiet_NaN();

/** One Section VI-B row of the paper, by model and target suite. */
struct PaperTransfer
{
    const char *model;
    const char *target;
    const char *direction; ///< the row's label
    double correlation;
    double mae;
    bool transferable;
};

/** Table III pairs the paper's text groups, with the range of their
 * distances in the paper (percent). */
struct PaperPairs
{
    const char *kind;
    double low;
    double high;
    std::vector<std::pair<const char *, const char *>> pairs;
};

/**
 * The paper's own selections and values, which only the `paper`
 * plan prints: the benchmarks and pairs its text singles out and the
 * Section VI numbers it reports. The paper sections read every paper
 * value from here.
 */
const struct
{
    /** Table II: benchmarks Section IV-B cites for concentrated
     * profiles. */
    std::vector<const char *> concentrated;
    /** Table III: the benchmarks it prints, then its similar and
     * dissimilar pairs. */
    std::vector<std::string> subset;
    std::vector<PaperPairs> pairs;
    /** Table IV: the two store+overlap extremes and a low-CPI
     * contrast. */
    const char *overlap[2];
    const char *lowCpi;
    /** Section VI-A: the |t| bound at 95%, and the cross-suite t on
     * CPI means and on predicted vs actual. */
    double tBound;
    double tCpiMeans;
    double tPredicted;
    std::vector<PaperTransfer> transfers;
} kPaper = {
    {"482.sphinx3", "471.omnetpp", "470.lbm", "436.cactusADM",
     "429.mcf"},
    {"429.mcf", "435.gromacs", "436.cactusADM", "444.namd",
     "447.dealII", "454.calculix", "456.hmmer", "459.GemsFDTD",
     "464.h264ref", "470.lbm", "473.astar"},
    {{"similar", 1.6, 8.1,
      {{"456.hmmer", "444.namd"},
       {"435.gromacs", "444.namd"},
       {"435.gromacs", "456.hmmer"},
       {"454.calculix", "447.dealII"}}},
     {"dissimilar", 93.6, 97.7,
      {{"429.mcf", "444.namd"},
       {"429.mcf", "459.GemsFDTD"},
       {"444.namd", "459.GemsFDTD"}}}},
    {"328.fma3d_m", "318.galgel_m"},
    "330.art_m",
    1.960,
    125.4,
    32.6,
    {{"SPEC CPU2006", "SPEC CPU2006", "CPU2006 -> CPU2006 test", 0.9214,
      0.0988, true},
     {"SPEC CPU2006", "SPEC OMP2001", "CPU2006 -> OMP2001", 0.4337,
      0.3721, false},
     {"SPEC OMP2001", "SPEC OMP2001", "OMP2001 -> OMP2001 test",
      kNotReported, kNotReported, true},
     {"SPEC OMP2001", "SPEC CPU2006", "OMP2001 -> CPU2006",
      kNotReported, kNotReported, false}},
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
    bool paper = false;
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
    steps.paper = entry->paper;
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

/** printf to `out`, for the paper sections' fixed-width lines. */
[[gnu::format(printf, 2, 3)]] void
writef(std::ostream &out, const char *format, ...)
{
    std::va_list args;
    va_start(args, format);
    std::va_list again;
    va_copy(again, args);
    std::string text(
        static_cast<std::size_t>(std::vsnprintf(nullptr, 0, format, args)),
        '\0');
    std::vsnprintf(text.data(), text.size() + 1, format, again);
    va_end(again);
    va_end(args);
    out << text;
}

/** Open a paper section. */
void
section(std::ostream &out, const std::string &title)
{
    out << "== " << title << " ==\n";
}

/** Index of the largest share of a profile row: its peak leaf. */
std::size_t
peakLeaf(const BenchmarkProfileRow &row)
{
    return static_cast<std::size_t>(
        std::max_element(row.percent.begin(), row.percent.end()) -
        row.percent.begin());
}

/** Table I: every PMU event and the modeling columns. */
void
renderTableI(std::ostream &out)
{
    section(out, "Table I: CPU performance metrics used in this study");
    TextTable table({"Metric", "PMU event", "Counter", "Description"});
    for (const EventInfo &info : eventTable())
        table.addRow({info.shortName, info.pmuName,
                      info.dedicated ? "dedicated" : "multiplexed",
                      info.description});
    const std::vector<std::string> names = metricColumnNames();
    out << table.render()
        << "\nModeling columns (per-instruction densities): "
        << join(names, ", ") << "\nCPI is the predicted target; the "
        << names.size() - 1
        << " remaining events are the predictors.\n\n";
}

/**
 * Figures 1 and 2: a suite's tree with its leaf models, split
 * variables and Graphviz text. The held-out fit is the self-transfer
 * report's, which scores the model on its own test set.
 */
void
renderFigure(std::ostream &out, int number, const SuiteModel &model,
             const TransferabilityReport &self, double trainFraction)
{
    const std::string share = formatDouble(100.0 * trainFraction, 0);
    section(out, "Figure " + std::to_string(number) + ": " +
                     model.suiteName +
                     " model tree (M5', trained on a random " + share +
                     "% of samples)");
    writef(out,
           "training samples: %zu   leaves (linear models): %zu   "
           "suite mean CPI: %.3f\n\n",
           model.train.numRows(), model.tree.numLeaves(),
           model.meanCpi);
    out << model.tree.describe() << "\nsplit variables in the tree:";
    for (std::size_t attr : model.tree.splitAttributes())
        out << ' ' << model.tree.schema()[attr];
    writef(out,
           "\n\nfit on the held-out %s%% test set: C = %.4f, "
           "MAE = %.4f CPI\n",
           share.c_str(), self.accuracy.correlation,
           self.accuracy.meanAbsoluteError);
    out << "\nGraphviz rendering (pipe into `dot -Tpng`):\n"
        << model.tree.toDot() << "\n";
}

/** Section IV-B's observations on Table II (CPU2006). */
void
renderTableIIObservations(std::ostream &out, const ProfileTable &table)
{
    section(out, "Observations (Section IV-B analogues)");
    const BenchmarkProfileRow &suite = table.suiteRow();
    const std::size_t lm1 = peakLeaf(suite);
    std::size_t over50 = 0;
    std::size_t over90 = 0;
    for (const BenchmarkProfileRow &row : table.rows()) {
        over50 += row.percent[lm1] > 50.0;
        over90 += row.percent[lm1] > 90.0;
    }
    writef(out,
           "largest suite leaf: LM%zu holding %.1f%% of all samples "
           "(avg CPI %.2f across the suite)\n"
           "benchmarks with > 50%% of samples in LM%zu: %zu; "
           "with > 90%%: %zu\n",
           lm1 + 1, suite.percent[lm1], suite.meanCpi, lm1 + 1, over50,
           over90);
    for (const char *name : kPaper.concentrated) {
        const BenchmarkProfileRow &row = table.row(name);
        const std::size_t peak = peakLeaf(row);
        writef(out,
               "%-15s peak leaf LM%-3zu with %5.1f%%  (mean CPI %.2f)\n",
               name, peak + 1, row.percent[peak], row.meanCpi);
    }
    out << "\n";
}

/**
 * Table III: the paper's subset of the CPU2006 distance matrix, the
 * pairs its text highlights and the subset's extremes, all from the
 * profile table.
 */
void
renderTableIII(std::ostream &out, const ProfileTable &table)
{
    section(out, "Table III: pairwise L1 profile distances between "
                 "SPEC CPU2006 benchmarks (percent; 0 = identical)");
    const SimilarityMatrix sim(table, kPaper.subset);
    out << sim.render() << "\n";

    section(out, "Highlighted pairs (Section IV-B analogues)");
    for (const PaperPairs &group : kPaper.pairs) {
        writef(out, "%s pairs (paper: %.1f%% - %.1f%%):\n", group.kind,
               group.low, group.high);
        for (const auto &[a, b] : group.pairs)
            writef(out, "  %-12s vs %-14s: %5.1f%%\n", a, b,
                   ProfileTable::distance(table.row(a), table.row(b)));
    }
    const auto [si, sj] = sim.mostSimilarPair();
    const auto [di, dj] = sim.mostDissimilarPair();
    writef(out,
           "\nmost similar in subset:    %s vs %s (%.1f%%)\n"
           "most dissimilar in subset: %s vs %s (%.1f%%)\n\n",
           sim.names()[si].c_str(), sim.names()[sj].c_str(),
           sim.at(si, sj), sim.names()[di].c_str(),
           sim.names()[dj].c_str(), sim.at(di, dj));
}

/** Sections V-B/V-C's observations on Table IV (OMP2001). */
void
renderTableIVObservations(std::ostream &out, const ProfileTable &table)
{
    section(out, "Observations (Section V-B/V-C analogues)");
    for (const BenchmarkProfileRow &row : table.rows()) {
        const std::size_t peak = peakLeaf(row);
        writef(out, "%-15s peak LM%-3zu %5.1f%%   mean CPI %.2f\n",
               row.name.c_str(), peak + 1, row.percent[peak],
               row.meanCpi);
    }
    const BenchmarkProfileRow &a = table.row(kPaper.overlap[0]);
    const BenchmarkProfileRow &b = table.row(kPaper.overlap[1]);
    // Both rows sum to 100%, so their shared share is 100 - distance.
    const double distance = ProfileTable::distance(a, b);
    // "328.fma3d_m" -> "fma3d_m"
    const auto bare = [](const std::string &name) {
        return name.substr(name.find('.') + 1);
    };
    writef(out,
           "\nprofile overlap of %s and %s (the two store+overlap "
           "extremes): %.1f%%\n"
           "L1 distance %s vs %s: %.1f%%   %s vs %s: %.1f%%\n\n",
           a.name.c_str(), b.name.c_str(), 100.0 - distance,
           bare(a.name).c_str(), bare(b.name).c_str(), distance,
           bare(a.name).c_str(), kPaper.lowCpi,
           ProfileTable::distance(a, table.row(kPaper.lowCpi)));
}

/** What the paper's Table VI row says, e.g. "C=0.4337 MAE=0.3721
 * (not transferable)". */
std::string
paperVerdict(const PaperTransfer &paper)
{
    const std::string verdict =
        paper.transferable ? "transferable" : "not transferable";
    if (std::isnan(paper.correlation))
        return verdict + " (paper reports symmetric finding)";
    return "C=" + formatDouble(paper.correlation, 4) +
        " MAE=" + formatDouble(paper.mae, 4) + " (" + verdict + ")";
}

/**
 * Every paper section the plan's own outputs do not already print:
 * Table I, Figures 1-2, the Table II and IV observations, Table III's
 * subset, the Section VI-A reference and the Table VI summary. Reads
 * only what runPlan holds: the models, the profile tables and the
 * transfer reports, each indexed like the plan's steps.
 */
void
renderPaper(std::ostream &out, const PlanSteps &plan,
            const PlanProtocol &protocol,
            const std::vector<SuiteModel> &models,
            const std::vector<ProfileTable> &tables,
            const std::vector<TransferabilityReport> &reports)
{
    const auto suiteIndex = [&](const SuiteProfile &suite) {
        std::size_t i = 0;
        while (plan.suites.at(i).suite != &suite)
            ++i;
        return i;
    };
    const auto selfReport = [&](std::size_t suite)
        -> const TransferabilityReport & {
        std::size_t t = 0;
        while (plan.transfers.at(t).model != suite ||
               plan.transfers[t].target != suite)
            ++t;
        return reports[t];
    };
    const std::size_t cpu = suiteIndex(specCpu2006());
    const std::size_t omp = suiteIndex(specOmp2001());
    const double fraction = protocol.model.trainFraction;

    renderTableI(out);
    renderFigure(out, 1, models[cpu], selfReport(cpu), fraction);
    renderTableIIObservations(out, tables[cpu]);
    renderTableIII(out, tables[cpu]);
    renderFigure(out, 2, models[omp], selfReport(omp), fraction);
    renderTableIVObservations(out, tables[omp]);

    section(out, "Section VI-A: two-sample hypothesis tests of model "
                 "transferability");
    writef(out,
           "the tests are the four transferability reports above\n"
           "paper reference: same-suite tests accept H0 (|t| < %.3f "
           "at 95%%); cross-suite tests reject (t = %.1f for CPU2006 "
           "vs OMP2001 CPI means, t = %.1f for predicted vs "
           "actual).\n\n",
           kPaper.tBound, kPaper.tCpiMeans, kPaper.tPredicted);

    const TransferabilityConfig &config = plan.transfers.at(0).config;
    section(out, "Section VI-B: prediction accuracy metrics for "
                 "transferability (thresholds: C > " +
                     formatDouble(config.minCorrelation, 2) +
                     ", MAE < " + formatDouble(config.maxMae, 2) + ")");
    TextTable table(
        {"Direction", "C", "MAE", "RMSE", "RAE", "Verdict", "Paper"});
    for (std::size_t t = 0; t < reports.size(); ++t) {
        const std::string &model =
            plan.suites[plan.transfers[t].model].suite->name;
        const std::string &target =
            plan.suites[plan.transfers[t].target].suite->name;
        const auto paper = std::find_if(
            kPaper.transfers.begin(), kPaper.transfers.end(),
            [&](const PaperTransfer &row) {
                return row.model == model && row.target == target;
            });
        wct_assert(paper != kPaper.transfers.end(), "no paper row for ",
                   model, " -> ", target);
        const AccuracyMetrics &accuracy = reports[t].accuracy;
        table.addRow({paper->direction,
                      formatDouble(accuracy.correlation, 4),
                      formatDouble(accuracy.meanAbsoluteError, 4),
                      formatDouble(accuracy.rootMeanSquaredError, 4),
                      formatDouble(accuracy.relativeAbsoluteError, 3),
                      reports[t].transferableByAccuracy()
                          ? "transferable"
                          : "NOT transferable",
                      paperVerdict(*paper)});
    }
    out << table.render();
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
    std::vector<ProfileTable> tables;
    for (const SuiteStep &step : plan.suites) {
        const SuiteProfile &suite = *step.suite;
        const SuiteSource data =
            collectOnDemand(pipe, suite, protocol.collection);
        const SuiteModel &model = models.emplace_back(trainStage(
            pipe, suite.name, data, step.collectKey, protocol.model));
        if (!plan.tables)
            continue;
        const ProfileTable &table = tables.emplace_back(profileStage(
            pipe, suite, data, model.tree, step.trainKey));

        out << "== " << suite.name << " ==\n";
        out << "benchmarks: " << suite.benchmarks.size()
            << ", samples: " << plannedSamples(suite, protocol.collection)
            << ", leaf models: " << model.tree.numLeaves()
            << ", mean CPI: " << model.meanCpi << "\n\n";
        out << table.render() << "\n";
        out << SimilarityMatrix(table).render() << "\n";
    }

    std::vector<TransferabilityReport> reports;
    for (const TransferStep &transfer : plan.transfers) {
        const SuiteModel &model = models[transfer.model];
        const auto &report = reports.emplace_back(transferStage(
            pipe, model, plan.suites[transfer.model].trainKey,
            models[transfer.target].test,
            plan.suites[transfer.target].trainKey, kTransferTarget,
            transfer.config));
        out << report.render() << "\n";
    }

    if (plan.paper)
        renderPaper(out, plan, protocol, models, tables, reports);
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
        if (plan.tables)
            ids.push_back({"profile", profileStageKey(step.trainKey)});
    }
    for (const TransferStep &transfer : plan.transfers)
        ids.push_back(
            {"transfer",
             transferStageKey(plan.suites[transfer.model].trainKey,
                              plan.suites[transfer.target].trainKey,
                              kTransferTarget, transfer.config)});

    // The ("mtree", content key) ids of the trees whose train
    // artifacts exist: the content key hashes the tree text, so only
    // decoding the train artifact discovers it.
    for (const SuiteStep &step : plan.suites) {
        const auto payload = store.load({"train", step.trainKey});
        std::string text;
        if (payload && decodeSuiteModel(*payload, &text))
            ids.push_back(modelTreeArtifact(text));
    }
    return ids;
}

} // namespace wct::pipeline
