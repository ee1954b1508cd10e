#include "cli/cli.hh"

#include <algorithm>
#include <filesystem>
#include <ostream>
#include <sstream>

#include "cli/options.hh"
#include "core/collect.hh"
#include "core/phase_report.hh"
#include "core/profile_table.hh"
#include "core/similarity.hh"
#include "core/subset.hh"
#include "core/transferability.hh"
#include "data/artifact_store.hh"
#include "data/binary_io.hh"
#include "data/csv.hh"
#include "data/remote_store.hh"
#include "data/store_wire.hh"
#include "mtree/compiled_tree.hh"
#include "mtree/serialize.hh"
#include "pipeline/plans.hh"
#include "serve/loadgen.hh"
#include "serve/server.hh"
#include "serve/socket.hh"
#include "serve/store_service.hh"
#include "util/logging.hh"
#include "util/string_utils.hh"
#include "util/version.hh"
#include "workload/suites.hh"

namespace wct
{

namespace
{

using cli::CommandSpec;
using cli::FlagType;
using cli::ParsedOptions;

// ---- Command declarations (the parser and `wct help` share these;
// see cli/options.hh). ----

const CommandSpec kSuitesSpec{"suites", {}, {}, 0, 0};

const CommandSpec kCollectSpec{
    "collect",
    {
        {"suite", FlagType::String, true, "S"},
        {"out", FlagType::String, true, "DIR"},
        {"benchmark", FlagType::String, false, "B"},
        {"intervals", FlagType::Uint, false, "N"},
        {"interval-length", FlagType::Uint, false, "L"},
        {"warmup", FlagType::Uint, false, "W"},
        {"exact", FlagType::Bool, false, ""},
        {"seed", FlagType::Uint, false, "S"},
        {"shards", FlagType::Uint, false, "N"},
        {"cache-dir", FlagType::String, false, "DIR"},
        {"no-cache", FlagType::Bool, false, ""},
        {"store-url", FlagType::String, false, "URL"},
        {"store-cache-dir", FlagType::String, false, "DIR"},
        {"store-cache-bytes", FlagType::Uint, false, "N"},
    },
    {},
    0,
    0};

const CommandSpec kTrainSpec{
    "train",
    {
        {"data", FlagType::String, true, "CSV|DIR"},
        {"out", FlagType::String, true, "MODEL"},
        {"target", FlagType::String, false, "COL"},
        {"min-leaf", FlagType::Uint, false, "N"},
        {"min-leaf-frac", FlagType::Double, false, "F"},
        {"no-smooth", FlagType::Bool, false, ""},
        {"no-prune", FlagType::Bool, false, ""},
        {"constant-leaves", FlagType::Bool, false, ""},
    },
    {},
    0,
    0};

const CommandSpec kShowSpec{"show",
                            {
                                {"model", FlagType::String, true,
                                 "MODEL"},
                                {"dot", FlagType::Bool, false, ""},
                            },
                            {},
                            0,
                            0};

const CommandSpec kPredictSpec{
    "predict",
    {
        {"model", FlagType::String, true, "MODEL"},
        {"data", FlagType::String, true, "CSV|DIR"},
        {"out", FlagType::String, false, "CSV"},
    },
    {},
    0,
    0};

const CommandSpec kTransferSpec{
    "transfer",
    {
        {"model", FlagType::String, true, "MODEL"},
        {"train", FlagType::String, true, "CSV|DIR"},
        {"target", FlagType::String, true, "CSV|DIR"},
        {"alpha", FlagType::Double, false, "A"},
        {"min-c", FlagType::Double, false, "C"},
        {"max-mae", FlagType::Double, false, "M"},
        {"bootstrap", FlagType::Uint, false, "N"},
    },
    {},
    0,
    0};

const CommandSpec kProfileSpec{
    "profile",
    {
        {"model", FlagType::String, true, "MODEL"},
        {"data", FlagType::String, true, "DIR"},
        {"similarity", FlagType::Bool, false, ""},
    },
    {},
    0,
    0};

const CommandSpec kSubsetSpec{
    "subset",
    {
        {"model", FlagType::String, true, "MODEL"},
        {"data", FlagType::String, true, "DIR"},
        {"k", FlagType::Uint, false, "K"},
        {"method", FlagType::String, false, "greedy|medoids|pca"},
        {"seed", FlagType::Uint, false, "S"},
    },
    {},
    0,
    0};

const CommandSpec kPhasesSpec{
    "phases",
    {
        {"model", FlagType::String, true, "MODEL"},
        {"data", FlagType::String, true, "CSV|DIR"},
    },
    {},
    0,
    0};

const CommandSpec kRunSpec{
    "run",
    {
        {"cache-dir", FlagType::String, false, "DIR"},
        {"store-url", FlagType::String, false, "URL"},
        {"store-cache-dir", FlagType::String, false, "DIR"},
        {"store-cache-bytes", FlagType::Uint, false, "N"},
        {"intervals", FlagType::Uint, false, "N"},
        {"interval-length", FlagType::Uint, false, "L"},
        {"warmup", FlagType::Uint, false, "W"},
    },
    {"PLAN"},
    1,
    1};

const CommandSpec kCacheSpec{
    "cache",
    {
        {"cache-dir", FlagType::String, true, "DIR"},
        {"store-url", FlagType::String, false, "URL"},
        {"store-cache-dir", FlagType::String, false, "DIR"},
        {"store-cache-bytes", FlagType::Uint, false, "N"},
        {"plan", FlagType::String, false, "PLAN"},
        {"grace", FlagType::Uint, false, "SECONDS"},
        {"intervals", FlagType::Uint, false, "N"},
        {"interval-length", FlagType::Uint, false, "L"},
        {"warmup", FlagType::Uint, false, "W"},
    },
    {"ls|rm|gc", "[ID]"},
    1,
    2};

const CommandSpec kStoreSpec{
    "store",
    {
        {"dir", FlagType::String, false, "DIR"},
        {"unix", FlagType::String, false, "SOCK"},
        {"port", FlagType::Uint, false, "N"},
        {"max-connections", FlagType::Uint, false, "N"},
        {"no-remote-shutdown", FlagType::Bool, false, ""},
        {"store-url", FlagType::String, false, "URL"},
        {"grace", FlagType::Uint, false, "SECONDS"},
        {"gc-interval", FlagType::Uint, false, "SECONDS"},
        {"plan", FlagType::String, false, "PLAN"},
        {"intervals", FlagType::Uint, false, "N"},
        {"interval-length", FlagType::Uint, false, "L"},
        {"warmup", FlagType::Uint, false, "W"},
    },
    {"serve|ping|ls|gc|shutdown"},
    1,
    1};

const CommandSpec kServeSpec{
    "serve",
    {
        {"model", FlagType::String, false, "MODEL"},
        {"model-key", FlagType::String, false, "KEY"},
        {"cache-dir", FlagType::String, false, "DIR"},
        {"alias", FlagType::String, false, "NAME"},
        {"unix", FlagType::String, false, "SOCK"},
        {"port", FlagType::Uint, false, "N"},
        {"queue-depth", FlagType::Uint, false, "N"},
        {"max-batch", FlagType::Uint, false, "N"},
        {"max-connections", FlagType::Uint, false, "N"},
        {"dispatch-threads", FlagType::Uint, false, "N"},
        {"default-deadline", FlagType::Uint, false, "MS"},
        {"max-deadline", FlagType::Uint, false, "MS"},
        {"slo-predict-p99", FlagType::Uint, false, "US"},
        {"slo-classify-p99", FlagType::Uint, false, "US"},
        {"slo-min-samples", FlagType::Uint, false, "N"},
        {"no-remote-load", FlagType::Bool, false, ""},
        {"no-remote-shutdown", FlagType::Bool, false, ""},
        {"stats-text", FlagType::Bool, false, ""},
    },
    {},
    0,
    0};

const CommandSpec kQuerySpec{
    "query",
    {
        {"unix", FlagType::String, false, "SOCK"},
        {"port", FlagType::Uint, false, "N"},
        {"op", FlagType::String, false,
         "predict|classify|load|stats|shutdown"},
        {"model-key", FlagType::String, false, "K"},
        {"data", FlagType::String, false, "CSV|DIR"},
        {"out", FlagType::String, false, "CSV"},
        {"path", FlagType::String, false, "MODEL"},
        {"alias", FlagType::String, false, "NAME"},
        {"id", FlagType::Uint, false, "N"},
        {"timeout", FlagType::Uint, false, "MS"},
    },
    {},
    0,
    0};

const CommandSpec kLoadgenSpec{
    "loadgen",
    {
        {"unix", FlagType::String, false, "SOCK"},
        {"port", FlagType::Uint, false, "N"},
        {"data", FlagType::String, false, "CSV|DIR"},
        {"model-key", FlagType::String, false, "K"},
        {"rate", FlagType::Double, false, "REQ/S"},
        {"duration", FlagType::Double, false, "SECONDS"},
        {"connections", FlagType::Uint, false, "N"},
        {"rows", FlagType::Uint, false, "N"},
        {"mix", FlagType::String, false, "P:C:L:S"},
        {"budget", FlagType::Uint, false, "MS"},
        {"timeout", FlagType::Uint, false, "MS"},
        {"load-path", FlagType::String, false, "MODEL"},
        {"load-alias", FlagType::String, false, "NAME"},
        {"seed", FlagType::Uint, false, "S"},
    },
    {},
    0,
    0};

const CommandSpec kVersionSpec{"version", {}, {}, 0, 0};

const CommandSpec *const kCommands[] = {
    &kSuitesSpec, &kCollectSpec, &kTrainSpec,   &kShowSpec,
    &kPredictSpec, &kTransferSpec, &kProfileSpec, &kSubsetSpec,
    &kPhasesSpec, &kRunSpec,     &kCacheSpec,   &kStoreSpec,
    &kServeSpec,  &kQuerySpec,   &kLoadgenSpec, &kVersionSpec,
};

/**
 * Load a "suite directory" (one CSV per benchmark, as written by
 * `wct collect`) into SuiteData. Weights are taken proportional to
 * each file's sample count. Every file must have the first file's
 * header; a mismatch is fatal and names both files.
 */
SuiteData
loadSuiteDirectory(const std::string &path)
{
    namespace fs = std::filesystem;
    if (!fs::is_directory(path))
        wct_fatal("'", path, "' is not a directory");

    SuiteData data;
    data.suiteName = fs::path(path).filename().string();
    std::vector<fs::path> files;
    for (const auto &entry : fs::directory_iterator(path))
        if (entry.is_regular_file() &&
            entry.path().extension() == ".csv")
            files.push_back(entry.path());
    std::sort(files.begin(), files.end());
    if (files.empty())
        wct_fatal("no .csv files under '", path, "'");

    for (const fs::path &file : files) {
        BenchmarkData bench;
        bench.name = file.stem().string();
        bench.samples = readCsvFile(file.string());
        if (!data.benchmarks.empty() &&
            bench.samples.columnNames() !=
                data.benchmarks.front().samples.columnNames())
            wct_fatal("'", file.string(), "' has a different header "
                      "than '", files.front().string(), "'");
        bench.instructionWeight =
            static_cast<double>(bench.samples.numRows());
        data.benchmarks.push_back(std::move(bench));
    }
    return data;
}

/** Load modeling data: a CSV file or a suite directory (pooled). */
Dataset
loadModelingData(const std::string &path)
{
    if (std::filesystem::is_directory(path))
        return loadSuiteDirectory(path).pooled();
    return readCsvFile(path);
}

/**
 * The standard collection protocol with the scale overrides every
 * collecting command accepts; `wct collect` adds --exact, --seed and
 * --shards, which the plan commands do not declare.
 */
CollectionConfig
collectionFromOptions(const ParsedOptions &options)
{
    CollectionConfig config = pipeline::standardCollection();
    config.intervalInstructions =
        options.getUint("interval-length", config.intervalInstructions);
    config.baseIntervals =
        options.getUint("intervals", config.baseIntervals);
    config.warmupInstructions =
        options.getUint("warmup", config.warmupInstructions);
    config.multiplexed = config.multiplexed && !options.has("exact");
    config.seed = options.getUint("seed", config.seed);
    config.shards = options.getUint("shards", config.shards);
    if (config.shards == 0)
        wct_fatal("--shards must be at least 1");
    return config;
}

/** The standard plan protocol with the run/cache scale overrides. */
pipeline::PlanProtocol
protocolFromOptions(const ParsedOptions &options)
{
    pipeline::PlanProtocol protocol;
    protocol.collection = collectionFromOptions(options);
    return protocol;
}

/**
 * The artifact store a pipeline command operates on: the plain local
 * store at --cache-dir, or — when --store-url is given — the remote
 * daemon fronted by a read-through cache at --store-cache-dir
 * (default: --cache-dir, else a per-user temp directory), size-bounded
 * by --store-cache-bytes.
 */
ArtifactStore
storeFromOptions(const ParsedOptions &options)
{
    const std::string url = options.get("store-url");
    if (url.empty())
        return ArtifactStore(options.get("cache-dir"));
    RemoteStoreConfig config;
    config.url = url;
    config.cacheDir =
        options.get("store-cache-dir", options.get("cache-dir"));
    if (config.cacheDir.empty())
        config.cacheDir = (std::filesystem::temp_directory_path() /
                           "wct-store-cache")
                              .string();
    config.cacheBytes = options.getUint("store-cache-bytes", 0);
    return makeRemoteStore(config);
}

/**
 * Live set for a gc sweep: everything the selected plan (default:
 * every standard plan) would touch under the given protocol. The
 * store is only read (mtree content keys hide inside train
 * artifacts); nothing is executed.
 */
std::vector<ArtifactId>
livePlanArtifacts(const ParsedOptions &options,
                  const ArtifactStore &store)
{
    const pipeline::PlanProtocol protocol =
        protocolFromOptions(options);
    std::vector<std::string> plans;
    if (options.has("plan"))
        plans.push_back(options.get("plan"));
    else
        plans = pipeline::planNames();

    std::vector<ArtifactId> live;
    for (const std::string &plan : plans)
        for (ArtifactId &id :
             pipeline::planArtifacts(plan, protocol, store))
            live.push_back(std::move(id));
    return live;
}

/** Human-readable name of a data path: the last meaningful stem. */
std::string
nameFromPath(const std::string &path)
{
    const std::filesystem::path p(path);
    std::string stem = p.stem().string();
    if (stem.empty())
        stem = p.parent_path().stem().string();
    return stem.empty() ? path : stem;
}

int
cmdSuites(std::ostream &out)
{
    for (const char *name : {"cpu2006", "omp2001"}) {
        const SuiteProfile &suite = suiteByName(name);
        out << name << "  (" << suite.name << ", "
            << suite.benchmarks.size() << " benchmarks)\n";
        for (const auto &bench : suite.benchmarks) {
            out << "  " << bench.name << "  [" << bench.language
                << ", weight " << formatDouble(
                       bench.instructionWeight, 2)
                << "]\n";
        }
    }
    return 0;
}

int
cmdCollect(const ParsedOptions &options, std::ostream &err)
{
    const SuiteProfile &full = suiteByName(options.get("suite"));
    const std::string out_dir = options.get("out");
    const CollectionConfig config = collectionFromOptions(options);

    // Filter before collecting: stream seeds derive from benchmark
    // names, so a filtered run produces exactly the same samples the
    // full-suite run would for those benchmarks.
    const std::string only = options.get("benchmark");
    SuiteProfile suite;
    suite.name = full.name;
    for (const BenchmarkProfile &bench : full.benchmarks)
        if (only.empty() || bench.name == only)
            suite.benchmarks.push_back(bench);
    if (suite.benchmarks.empty())
        wct_fatal("no benchmark '", only, "' in suite '", full.name,
                  "'");

    // The collect stage over the store the flags name, or over a
    // disabled store (every shard computes) under --no-cache or
    // without store flags. A hit is a byte-identical reload of a
    // previous collection; a corrupt artifact warns and recomputes.
    pipeline::Pipeline pipe{options.has("no-cache")
                                ? ArtifactStore()
                                : storeFromOptions(options)};
    const bool caching = pipe.store().enabled();
    if (!caching)
        err << "collecting " << suite.benchmarks.size()
            << " benchmarks ...\n";
    const SuiteData data = pipeline::collectStage(pipe, suite, config);
    if (caching && pipe.allCached())
        err << "loaded " << data.benchmarks.size()
            << " benchmarks from cache\n";
    else if (caching)
        err << "collected " << data.benchmarks.size()
            << " benchmarks (cache updated)\n";

    std::filesystem::create_directories(out_dir);
    for (const BenchmarkData &bench : data.benchmarks)
        writeCsvFile(bench.samples,
                     (std::filesystem::path(out_dir) /
                      (bench.name + ".csv"))
                         .string());
    return 0;
}

int
cmdTrain(const ParsedOptions &options, std::ostream &out)
{
    const Dataset data = loadModelingData(options.get("data"));
    const std::string target = options.get("target", "CPI");

    ModelTreeConfig config = pipeline::standardModelConfig().tree;
    config.minLeafInstances =
        options.getUint("min-leaf", config.minLeafInstances);
    config.minLeafFraction =
        options.getDouble("min-leaf-frac", config.minLeafFraction);
    config.smooth = !options.has("no-smooth");
    config.prune = !options.has("no-prune");
    config.constantLeaves = options.has("constant-leaves");

    const ModelTree tree = ModelTree::train(data, target, config);
    writeModelTreeFile(tree, options.get("out"));
    out << "trained on " << data.numRows() << " samples: "
        << tree.numLeaves() << " leaves, saved to "
        << options.get("out") << "\n";
    return 0;
}

int
cmdShow(const ParsedOptions &options, std::ostream &out)
{
    const ModelTree tree =
        readModelTreeFile(options.get("model"));
    out << (options.has("dot") ? tree.toDot() : tree.describe());
    return 0;
}

int
cmdPredict(const ParsedOptions &options, std::ostream &out)
{
    const ModelTree tree =
        readModelTreeFile(options.get("model"));
    const Dataset data = loadModelingData(options.get("data"));
    const auto predictions = tree.predictAll(data);
    const auto classes = tree.classifyAll(data);

    if (options.has("out")) {
        // Write the input columns plus prediction and leaf columns.
        std::vector<std::string> names = data.columnNames();
        names.push_back("Predicted" + tree.targetName());
        names.push_back("LeafModel");
        Dataset augmented(names);
        std::vector<double> row;
        for (std::size_t r = 0; r < data.numRows(); ++r) {
            const auto src = data.row(r);
            row.assign(src.begin(), src.end());
            row.push_back(predictions[r]);
            row.push_back(static_cast<double>(classes[r] + 1));
            augmented.addRow(row);
        }
        writeCsvFile(augmented, options.get("out"));
        out << "wrote " << augmented.numRows() << " rows to "
            << options.get("out") << "\n";
    } else {
        for (std::size_t r = 0; r < predictions.size(); ++r)
            out << predictions[r] << " LM" << classes[r] + 1 << "\n";
    }
    return 0;
}

int
cmdTransfer(const ParsedOptions &options, std::ostream &out)
{
    const ModelTree tree =
        readModelTreeFile(options.get("model"));
    const Dataset train = loadModelingData(options.get("train"));
    const Dataset target = loadModelingData(options.get("target"));

    TransferabilityConfig config;
    config.alpha = options.getDouble("alpha", 0.05);
    config.minCorrelation = options.getDouble("min-c", 0.85);
    config.maxMae = options.getDouble("max-mae", 0.15);
    config.bootstrapReplicates = options.getUint("bootstrap", 0);
    config.modelName = nameFromPath(options.get("model"));
    config.targetName = nameFromPath(options.get("target"));

    const auto report =
        assessTransferability(tree, train, target, config);
    out << report.render();
    return 0;
}

int
cmdProfile(const ParsedOptions &options, std::ostream &out)
{
    const ModelTree tree =
        readModelTreeFile(options.get("model"));
    const SuiteData data = loadSuiteDirectory(options.get("data"));
    const ProfileTable table(data, tree);
    out << table.render();
    if (options.has("similarity")) {
        const SimilarityMatrix sim(table);
        out << "\n" << sim.render();
    }
    return 0;
}

int
cmdPhases(const ParsedOptions &options, std::ostream &out)
{
    const ModelTree tree =
        readModelTreeFile(options.get("model"));
    const std::string path = options.get("data");

    if (std::filesystem::is_directory(path)) {
        const SuiteData data = loadSuiteDirectory(path);
        for (const BenchmarkData &bench : data.benchmarks) {
            const PhaseReport report(tree, bench.samples);
            out << bench.name << "\n" << report.render() << "\n";
        }
    } else {
        const Dataset samples = readCsvFile(path);
        const PhaseReport report(tree, samples);
        out << report.render();
    }
    return 0;
}

int
cmdSubset(const ParsedOptions &options, std::ostream &out)
{
    const ModelTree tree =
        readModelTreeFile(options.get("model"));
    const SuiteData data = loadSuiteDirectory(options.get("data"));
    const ProfileTable table(data, tree);
    const auto k = static_cast<std::size_t>(
        options.getUint("k", 4));
    const std::string method = options.get("method", "greedy");

    SubsetResult result;
    if (method == "greedy") {
        result = selectGreedyProfile(table, data, k);
    } else if (method == "medoids") {
        result = selectByMedoids(table, data, k);
    } else if (method == "pca") {
        Rng rng(options.getUint("seed", 0x5e1));
        result = selectByPcaClustering(table, data, k, rng);
    } else {
        wct_fatal("unknown --method '", method,
                  "' (greedy|medoids|pca)");
    }

    out << "selected (" << method << ", k=" << k << "):\n";
    for (const auto &name : result.selected)
        out << "  " << name << "\n";
    out << "profile distance to suite: "
        << formatDouble(result.profileDistance, 1)
        << "%\nmean-CPI error: "
        << formatDouble(result.cpiError, 3) << "\n";
    return 0;
}

int
cmdRun(const ParsedOptions &options, std::ostream &out,
       std::ostream &err)
{
    const std::string &plan = options.positional()[0];
    if (!pipeline::isPlanName(plan)) {
        std::string names;
        for (const std::string &name : pipeline::planNames())
            names += (names.empty() ? "" : "|") + name;
        wct_fatal("unknown plan '", plan, "' (", names, ")");
    }
    const pipeline::PlanProtocol protocol =
        protocolFromOptions(options);

    // Plan results go to stdout; the stage report (which carries
    // timings) to stderr, so repeated runs stay byte-comparable.
    pipeline::Pipeline pipe{storeFromOptions(options)};
    pipeline::runPlan(pipe, plan, protocol, out);
    err << pipe.renderReport();
    return 0;
}

/** Parse a `<kind>-<16 hex>` artifact name (as printed by cache ls). */
ArtifactId
parseArtifactName(const std::string &name)
{
    const auto dash = name.rfind('-');
    if (dash != std::string::npos) {
        if (const auto key = parseKeyHex(
                std::string_view(name).substr(dash + 1)))
            return {name.substr(0, dash), *key};
    }
    wct_fatal("'", name, "' is not a <kind>-<16 hex digits> artifact "
              "name");
}

/** One line per artifact, then the count and byte total (`cache ls`
 * and `store ls`). */
void
printListing(const std::vector<ArtifactInfo> &artifacts,
             std::ostream &out)
{
    std::uintmax_t total = 0;
    for (const ArtifactInfo &info : artifacts) {
        out << info.id.fileName() << "  " << info.fileBytes
            << " bytes\n";
        total += info.fileBytes;
    }
    out << artifacts.size() << " artifacts, " << total << " bytes\n";
}

int
cmdCache(const ParsedOptions &options, std::ostream &out)
{
    const std::string &action = options.positional()[0];
    const ArtifactStore store = storeFromOptions(options);

    if (action == "ls") {
        printListing(store.list(), out);
        return 0;
    }
    if (action == "rm") {
        if (options.positional().size() != 2)
            wct_fatal("cache rm needs an artifact name "
                      "(<kind>-<16 hex digits>)");
        const ArtifactId id =
            parseArtifactName(options.positional()[1]);
        if (!store.remove(id))
            wct_fatal("no artifact '", id.fileName(), "' in '",
                      store.dir(), "'");
        out << "removed " << id.fileName() << "\n";
        return 0;
    }
    if (action == "gc") {
        const std::vector<ArtifactId> live =
            livePlanArtifacts(options, store);
        const auto removed =
            store.gc(live, options.getUint("grace", 0));
        for (const ArtifactId &id : removed)
            out << "removed " << id.fileName() << "\n";
        out << removed.size() << " artifacts removed\n";
        return 0;
    }
    wct_fatal("unknown cache action '", action, "' (ls|rm|gc)");
}

/** The daemon endpoint of a `wct store` client action. */
std::string
storeUrlFromOptions(const ParsedOptions &options,
                    const std::string &action)
{
    if (options.has("store-url"))
        return options.get("store-url");
    if (options.has("unix"))
        return "unix:" + options.get("unix");
    if (options.has("port"))
        return "tcp:" + std::to_string(options.getUint("port", 0));
    wct_fatal("store ", action,
              " needs --store-url URL (or --unix SOCKET / --port N)");
}

int
cmdStore(const ParsedOptions &options, std::ostream &out,
         std::ostream &err)
{
    const std::string &action = options.positional()[0];

    if (action == "serve") {
        const std::string dir = options.get("dir");
        if (dir.empty())
            wct_fatal("store serve needs --dir DIR (the artifact "
                      "directory)");
        serve::StoreServiceConfig service_config;
        service_config.allowRemoteShutdown =
            !options.has("no-remote-shutdown");
        service_config.gcGraceSeconds = options.getUint("grace", 0);
        service_config.gcIntervalSeconds =
            options.getUint("gc-interval", 0);
        if (service_config.gcIntervalSeconds > 0) {
            if (service_config.gcGraceSeconds == 0)
                wct_fatal("--gc-interval needs --grace SECONDS > 0 "
                          "(a timed sweep with no grace window "
                          "would reap in-flight uploads)");
            // Timed sweeps pin whatever the selected plan (default:
            // every standard plan) references, plus the grace
            // window for everything else.
            service_config.gcLiveSet = [&options, dir] {
                return livePlanArtifacts(options,
                                         ArtifactStore(dir));
            };
        }
        serve::StoreService service(ArtifactStore(dir),
                                    service_config);

        serve::SocketConfig socket_config;
        socket_config.unixPath = options.get("unix");
        socket_config.tcpPort =
            static_cast<int>(options.getUint("port", 0));
        if (socket_config.unixPath.empty() && !options.has("port"))
            wct_fatal("store serve needs --unix SOCKET or --port N");
        socket_config.maxConnections =
            options.getUint("max-connections", 32);
        socket_config.frameMagic = std::string(kStoreWireMagic, 8);
        socket_config.frameVersion = kStoreWireFormatVersion;
        socket_config.maxFramePayload = kMaxStoreFramePayload;

        serve::SocketServer transport(service, socket_config);
        std::string sock_err;
        if (!transport.start(&sock_err))
            wct_fatal(sock_err);
        if (!socket_config.unixPath.empty())
            err << "store serving " << dir << " on "
                << socket_config.unixPath << "\n";
        else
            err << "store serving " << dir << " on 127.0.0.1:"
                << transport.boundPort() << "\n";

        // Block until a client sends a Shutdown frame (unless
        // --no-remote-shutdown, in which case only a signal ends us).
        transport.waitForShutdown();
        err << "store daemon drained, exiting\n";
        return 0;
    }

    const std::string url = storeUrlFromOptions(options, action);

    if (action == "gc") {
        // The liveness expansion reads train artifacts through the
        // daemon itself, so the sweep is exact without any local
        // state; the throwaway read-through cache lands in tmp.
        RemoteStoreConfig config;
        config.url = url;
        config.cacheDir = (std::filesystem::temp_directory_path() /
                           "wct-store-gc-cache")
                              .string();
        const ArtifactStore store = makeRemoteStore(config);
        const std::vector<ArtifactId> live =
            livePlanArtifacts(options, store);
        const auto removed =
            store.gc(live, options.getUint("grace", 0));
        for (const ArtifactId &id : removed)
            out << "removed " << id.fileName() << "\n";
        out << removed.size() << " artifacts removed\n";
        return 0;
    }

    StoreRequest request;
    request.id = 1;
    if (action == "ping")
        request.op = StoreOp::Ping;
    else if (action == "ls")
        request.op = StoreOp::List;
    else if (action == "shutdown")
        request.op = StoreOp::Shutdown;
    else
        wct_fatal("unknown store action '", action,
                  "' (serve|ping|ls|gc|shutdown)");

    std::string conn_err;
    const auto endpoint = parseStoreUrl(url, &conn_err);
    if (!endpoint)
        wct_fatal(conn_err);
    auto client = StoreClient::connect(*endpoint, &conn_err);
    if (!client)
        wct_fatal(conn_err);
    const auto response = client->call(request, &conn_err);
    if (!response)
        wct_fatal(conn_err);
    if (response->status != StoreStatus::Ok) {
        out << "status " << storeStatusName(response->status) << ": "
            << response->error << "\n";
        return 1;
    }

    switch (response->op) {
      case StoreOp::Ping:
        out << "ok: " << url << " (" << kStoreWireMagic << " v"
            << kStoreWireFormatVersion << ")\n";
        break;
      case StoreOp::List:
        printListing(response->artifacts, out);
        break;
      case StoreOp::Shutdown:
        out << "store daemon shutting down\n";
        break;
      default:
        break;
    }
    return 0;
}

int
cmdVersion(std::ostream &out)
{
    out << "wct " << kWctVersion << "\n"
        << "model-tree format: " << kModelTreeMagicLine << "\n"
        << "compiled-tree layout: v" << kCompiledTreeLayoutVersion
        << " (block " << CompiledTree::kBlockRows << " rows)\n"
        << "dataset format: " << kDatasetMagic << " v"
        << kDatasetFormatVersion << "\n"
        << "artifact format: " << kArtifactMagic << " v"
        << kArtifactFormatVersion << "\n"
        << "serve wire format: " << serve::kWireMagic << " v"
        << serve::kWireFormatVersion << "\n"
        << "store wire format: " << kStoreWireMagic << " v"
        << kStoreWireFormatVersion << "\n";
    return 0;
}

int
cmdServe(const ParsedOptions &options, std::ostream &out,
         std::ostream &err)
{
    serve::ServerConfig config;
    config.queueDepth = options.getUint("queue-depth", 256);
    config.maxBatch = options.getUint("max-batch", 64);
    config.allowRemoteLoad = !options.has("no-remote-load");
    config.allowRemoteShutdown = !options.has("no-remote-shutdown");
    config.defaultDeadlineMs =
        options.getUint("default-deadline", 0);
    config.maxDeadlineMs = options.getUint("max-deadline", 0);
    config.sloPredictP99Us = options.getUint("slo-predict-p99", 0);
    config.sloClassifyP99Us =
        options.getUint("slo-classify-p99", 0);
    config.sloMinSamples = options.getUint("slo-min-samples", 32);

    serve::Server server(config);
    serve::ModelInfo info;
    std::string load_err;
    if (options.has("model")) {
        const std::string model_path = options.get("model");
        if (!server.loadModel(model_path, options.get("alias"),
                              &info, &load_err))
            wct_fatal("cannot load model '", model_path, "': ",
                      load_err);
    } else if (options.has("model-key")) {
        const std::string key = options.get("model-key");
        const std::string cache_dir = options.get("cache-dir");
        if (cache_dir.empty())
            wct_fatal("--model-key needs --cache-dir DIR (the "
                      "artifact store holding the model)");
        if (!server.loadModelFromStore(ArtifactStore(cache_dir), key,
                                       options.get("alias"), &info,
                                       &load_err))
            wct_fatal("cannot load model key '", key, "': ",
                      load_err);
    } else {
        wct_fatal("serve needs --model MODEL or --model-key KEY "
                  "--cache-dir DIR");
    }
    err << "loaded model " << info.alias << " (key " << info.key
        << ", target " << info.target << ", " << info.numLeaves
        << " leaves)\n";

    serve::SocketConfig socket_config;
    socket_config.unixPath = options.get("unix");
    socket_config.tcpPort = static_cast<int>(
        options.getUint("port", 0));
    if (socket_config.unixPath.empty() && !options.has("port"))
        wct_fatal("serve needs --unix SOCKET or --port N");
    socket_config.maxConnections =
        options.getUint("max-connections", 32);
    socket_config.dispatchThreads =
        options.getUint("dispatch-threads", 4);

    serve::SocketServer transport(server, socket_config);
    std::string sock_err;
    if (!transport.start(&sock_err))
        wct_fatal(sock_err);
    if (!socket_config.unixPath.empty())
        err << "serving on " << socket_config.unixPath << "\n";
    else
        err << "serving on 127.0.0.1:" << transport.boundPort()
            << "\n";

    // Block until a client sends a shutdown frame, then drain.
    transport.waitForShutdown();
    server.drain();
    if (options.has("stats-text"))
        out << server.stats().renderText();
    err << "server drained, exiting\n";
    return 0;
}

/** Connect a query client per the --unix/--port options. */
serve::ServeClient
queryConnect(const ParsedOptions &options)
{
    std::string err;
    std::optional<serve::ServeClient> client;
    if (options.has("unix"))
        client = serve::ServeClient::connectUnix(
            options.get("unix"), &err);
    else if (options.has("port"))
        client = serve::ServeClient::connectTcp(
            static_cast<int>(options.getUint("port", 0)), &err);
    else
        wct_fatal("query needs --unix SOCKET or --port N");
    if (!client)
        wct_fatal(err);
    return std::move(*client);
}

int
cmdQuery(const ParsedOptions &options, std::ostream &out)
{
    const std::string op = options.get("op", "predict");
    serve::Request request;
    request.id = options.getUint("id", 1);

    if (op == "predict" || op == "classify") {
        request.op = op == "predict" ? serve::Opcode::Predict
                                     : serve::Opcode::Classify;
        request.modelKey = options.get("model-key");
        if (!options.has("data"))
            wct_fatal("missing required --data");
        const Dataset data = loadModelingData(options.get("data"));
        request.schema = data.columnNames();
        request.rows.reserve(data.numRows() * data.numColumns());
        for (std::size_t r = 0; r < data.numRows(); ++r) {
            const auto row = data.row(r);
            request.rows.insert(request.rows.end(), row.begin(),
                                row.end());
        }
    } else if (op == "load") {
        request.op = serve::Opcode::LoadModel;
        if (!options.has("path"))
            wct_fatal("missing required --path");
        request.path = options.get("path");
        request.alias = options.get("alias");
    } else if (op == "stats") {
        request.op = serve::Opcode::Stats;
    } else if (op == "shutdown") {
        request.op = serve::Opcode::Shutdown;
    } else {
        wct_fatal("unknown --op '", op,
                  "' (predict|classify|load|stats|shutdown)");
    }

    // --timeout MS arms both ends of the deadline: the request's
    // budgetMs header (the server abandons the request when the
    // budget expires) and a client socket deadline (a stalled server
    // cannot park the CLI forever). Either expiry exits 124, the
    // conventional timeout status (cf. timeout(1)).
    const std::uint64_t timeout_ms = options.getUint("timeout", 0);
    request.budgetMs = static_cast<std::uint32_t>(timeout_ms);

    serve::ServeClient client = queryConnect(options);
    if (timeout_ms > 0)
        client.setTimeoutMs(timeout_ms);
    std::string call_err;
    const auto response = client.call(request, &call_err);
    if (!response) {
        if (client.lastCallTimedOut()) {
            out << "status timeout: no response within "
                << timeout_ms << " ms\n";
            return 124;
        }
        wct_fatal(call_err);
    }
    if (response->status != serve::Status::Ok) {
        out << "status " << serve::statusName(response->status)
            << ": " << response->error << "\n";
        return response->status == serve::Status::DeadlineExceeded
                   ? 124
                   : 1;
    }

    switch (response->op) {
      case serve::Opcode::Predict:
      case serve::Opcode::Classify: {
        if (options.has("out")) {
            const Dataset data =
                loadModelingData(options.get("data"));
            // The response rows index the local dataset below; a
            // buggy server must fail here, not read out of bounds.
            if (response->leaf.size() != data.numRows())
                wct_fatal("server returned ",
                          response->leaf.size(), " rows for ",
                          data.numRows(), " samples");
            std::vector<std::string> names = data.columnNames();
            if (response->op == serve::Opcode::Predict)
                names.push_back("PredictedCPI");
            names.push_back("LeafModel");
            Dataset augmented(names);
            std::vector<double> row;
            for (std::size_t r = 0; r < data.numRows(); ++r) {
                const auto src = data.row(r);
                row.assign(src.begin(), src.end());
                if (response->op == serve::Opcode::Predict)
                    row.push_back(response->cpi[r]);
                row.push_back(
                    static_cast<double>(response->leaf[r]));
                augmented.addRow(row);
            }
            writeCsvFile(augmented, options.get("out"));
            out << "wrote " << augmented.numRows() << " rows to "
                << options.get("out") << "\n";
            break;
        }
        for (std::size_t r = 0; r < response->leaf.size(); ++r) {
            if (response->op == serve::Opcode::Predict)
                out << response->cpi[r] << " ";
            out << "LM" << response->leaf[r] << "\n";
        }
        break;
      }
      case serve::Opcode::LoadModel:
        out << "loaded " << response->modelKey << " (target "
            << response->target << ", " << response->numLeaves
            << " leaves)\n";
        break;
      case serve::Opcode::Stats:
        out << response->stats.renderText();
        break;
      case serve::Opcode::Shutdown:
        out << "server shutting down\n";
        break;
    }
    return 0;
}

int
cmdLoadgen(const ParsedOptions &options, std::ostream &out)
{
    serve::LoadgenConfig config;
    config.unixPath = options.get("unix");
    config.tcpPort = static_cast<int>(options.getUint("port", 0));
    if (config.unixPath.empty() && !options.has("port"))
        wct_fatal("loadgen needs --unix SOCKET or --port N");
    config.ratePerSec = options.getDouble("rate", 200.0);
    config.durationSec = options.getDouble("duration", 2.0);
    config.connections = options.getUint("connections", 4);
    config.rowsPerRequest = options.getUint("rows", 32);
    config.budgetMs =
        static_cast<std::uint32_t>(options.getUint("budget", 0));
    config.timeoutMs = options.getUint("timeout", 0);
    config.modelKey = options.get("model-key");
    config.loadPath = options.get("load-path");
    config.loadAlias = options.get("load-alias");
    config.seed = options.getUint("seed", 1);

    // --mix P:C:L:S: relative weights of predict, classify,
    // loadModel, and stats in the request stream.
    const std::string mix = options.get("mix", "6:2:0:1");
    std::uint32_t *weights[] = {
        &config.predictWeight, &config.classifyWeight,
        &config.loadWeight, &config.statsWeight};
    std::istringstream mix_in(mix);
    std::string part;
    std::size_t w = 0;
    while (w < 4 && std::getline(mix_in, part, ':')) {
        try {
            *weights[w++] = static_cast<std::uint32_t>(
                std::stoul(part));
        } catch (const std::exception &) {
            wct_fatal("bad --mix '", mix, "' (want P:C:L:S)");
        }
    }
    if (w != 4)
        wct_fatal("bad --mix '", mix, "' (want P:C:L:S)");

    if (config.predictWeight > 0 || config.classifyWeight > 0) {
        if (!options.has("data"))
            wct_fatal("loadgen with an inference mix needs --data "
                      "CSV|DIR (rows to send)");
        const Dataset data = loadModelingData(options.get("data"));
        config.schema = data.columnNames();
        config.pool.reserve(data.numRows() * data.numColumns());
        for (std::size_t r = 0; r < data.numRows(); ++r) {
            const auto row = data.row(r);
            config.pool.insert(config.pool.end(), row.begin(),
                               row.end());
        }
    }

    std::string run_err;
    const auto report = serve::runLoadgen(config, &run_err);
    if (!report)
        wct_fatal(run_err);
    out << report->renderText();
    if (report->completed == 0) {
        out << "loadgen FAILED: no request completed\n";
        return 1;
    }
    if (report->malformed() > 0) {
        out << "loadgen FAILED: " << report->malformed()
            << " malformed responses\n";
        return 1;
    }
    return 0;
}

void
printUsage(std::ostream &err)
{
    err << "usage: wct <command> [options]\ncommands:\n";
    for (const CommandSpec *spec : kCommands)
        err << cli::usageText(*spec);
}

} // namespace

int
runCli(const std::vector<std::string> &args, std::ostream &out,
       std::ostream &err)
{
    if (args.empty() || args[0] == "help" || args[0] == "--help") {
        printUsage(err);
        return args.empty() ? 2 : 0;
    }
    if (args[0] == "version" || args[0] == "--version")
        return cmdVersion(out);
    const std::string &command = args[0];

    const CommandSpec *spec = nullptr;
    for (const CommandSpec *candidate : kCommands)
        if (candidate->name == command)
            spec = candidate;
    if (spec == nullptr) {
        err << "unknown command '" << command << "'\n";
        printUsage(err);
        return 2;
    }
    if (std::find(args.begin() + 1, args.end(), "--help") !=
        args.end()) {
        err << "usage:\n" << cli::usageText(*spec);
        return 0;
    }
    const ParsedOptions options = cli::parseCommand(*spec, args, 1);

    if (command == "suites")
        return cmdSuites(out);
    if (command == "collect")
        return cmdCollect(options, err);
    if (command == "train")
        return cmdTrain(options, out);
    if (command == "show")
        return cmdShow(options, out);
    if (command == "predict")
        return cmdPredict(options, out);
    if (command == "transfer")
        return cmdTransfer(options, out);
    if (command == "profile")
        return cmdProfile(options, out);
    if (command == "subset")
        return cmdSubset(options, out);
    if (command == "phases")
        return cmdPhases(options, out);
    if (command == "run")
        return cmdRun(options, out, err);
    if (command == "cache")
        return cmdCache(options, out);
    if (command == "store")
        return cmdStore(options, out, err);
    if (command == "serve")
        return cmdServe(options, out, err);
    if (command == "query")
        return cmdQuery(options, out);
    if (command == "loadgen")
        return cmdLoadgen(options, out);
    return cmdVersion(out);
}

} // namespace wct
