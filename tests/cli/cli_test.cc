/**
 * @file
 * End-to-end tests of the `wct` command line interface, driving the
 * whole pipeline through runCli(): collect -> train -> show ->
 * predict -> transfer -> profile -> subset.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "cli/cli.hh"
#include "data/csv.hh"
#include "data/store_wire.hh"
#include "mtree/model_tree.hh"
#include "pipeline/plans.hh"
#include "serve/socket.hh"
#include "serve/store_service.hh"
#include "workload/suites.hh"

namespace wct
{
namespace
{

namespace fs = std::filesystem;

/** Temp workspace, removed on destruction. */
struct TempDir
{
    fs::path path;

    explicit TempDir(const std::string &name)
        : path(fs::temp_directory_path() / name)
    {
        fs::remove_all(path);
        fs::create_directories(path);
    }

    ~TempDir() { fs::remove_all(path); }

    std::string
    file(const std::string &name) const
    {
        return (path / name).string();
    }
};

int
run(const std::vector<std::string> &args, std::string *out_text = nullptr,
    std::string *err_text = nullptr)
{
    std::ostringstream out;
    std::ostringstream err;
    const int code = runCli(args, out, err);
    if (out_text != nullptr)
        *out_text = out.str();
    if (err_text != nullptr)
        *err_text = err.str();
    return code;
}

/** Shared pipeline state built once (collection is the slow part). */
struct Pipeline
{
    TempDir dir{"wct_cli_test"};
    std::string data_dir;
    std::string model_path;

    Pipeline()
    {
        data_dir = dir.file("omp");
        model_path = dir.file("omp.mtree");
        // A small-but-real collection of the smaller suite.
        EXPECT_EQ(run({"collect", "--suite", "omp2001", "--out",
                       data_dir, "--intervals", "60",
                       "--interval-length", "2048", "--warmup",
                       "200000"}),
                  0);
        EXPECT_EQ(run({"train", "--data", data_dir, "--out",
                       model_path, "--min-leaf", "20"}),
                  0);
    }
};

const Pipeline &
pipeline()
{
    static const Pipeline p;
    return p;
}

TEST(CliTest, HelpAndUnknownCommand)
{
    std::string err;
    EXPECT_EQ(run({"help"}, nullptr, &err), 0);
    EXPECT_NE(err.find("usage:"), std::string::npos);
    EXPECT_EQ(run({"frobnicate"}, nullptr, &err), 2);
    EXPECT_EQ(run({}, nullptr, &err), 2);
}

TEST(CliTest, CommandHelpPrintsItsUsage)
{
    // `wct <command> --help` prints the generated usage and exits 0,
    // even when the command's required flags are absent.
    std::string err;
    EXPECT_EQ(run({"run", "--help"}, nullptr, &err), 0);
    EXPECT_NE(err.find("usage:\n  run PLAN"), std::string::npos) << err;
    EXPECT_NE(err.find("[--cache-dir DIR]"), std::string::npos) << err;
    EXPECT_EQ(run({"train", "--help"}, nullptr, &err), 0);
    EXPECT_NE(err.find("  train --data"), std::string::npos) << err;
}

TEST(CliTest, SuitesListsBothSuites)
{
    std::string out;
    EXPECT_EQ(run({"suites"}, &out), 0);
    EXPECT_NE(out.find("cpu2006"), std::string::npos);
    EXPECT_NE(out.find("omp2001"), std::string::npos);
    EXPECT_NE(out.find("429.mcf"), std::string::npos);
    EXPECT_NE(out.find("328.fma3d_m"), std::string::npos);
}

TEST(CliTest, CollectWritesOneCsvPerBenchmark)
{
    const auto &p = pipeline();
    std::size_t csvs = 0;
    for (const auto &entry : fs::directory_iterator(p.data_dir))
        csvs += entry.path().extension() == ".csv";
    EXPECT_EQ(csvs, 11u); // the OMP2001 stand-in suite
}

TEST(CliTest, CollectSingleBenchmark)
{
    TempDir dir("wct_cli_single");
    EXPECT_EQ(run({"collect", "--suite", "cpu2006", "--benchmark",
                   "456.hmmer", "--out", dir.file("one"),
                   "--intervals", "10", "--interval-length", "1024",
                   "--warmup", "50000"}),
              0);
    EXPECT_TRUE(fs::exists(dir.file("one") + "/456.hmmer.csv"));
    std::size_t csvs = 0;
    for (const auto &entry : fs::directory_iterator(dir.file("one")))
        csvs += entry.is_regular_file();
    EXPECT_EQ(csvs, 1u);
}

/** Read a whole file as bytes (empty if absent). */
std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::stringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

TEST(CliTest, CollectCacheDirWarmRunIsByteIdentical)
{
    TempDir dir("wct_cli_cache");
    const std::vector<std::string> args = {
        "collect",          "--suite",    "cpu2006",
        "--benchmark",      "429.mcf",    "--out",
        dir.file("cold"),   "--intervals", "8",
        "--interval-length", "1024",      "--warmup",
        "50000",            "--cache-dir", dir.file("cache")};

    std::string err;
    EXPECT_EQ(run(args, nullptr, &err), 0);
    EXPECT_NE(err.find("cache updated"), std::string::npos);

    // One .wctart artifact appeared in the cache directory.
    std::size_t cached = 0;
    for (const auto &entry :
         fs::directory_iterator(dir.file("cache")))
        cached += entry.path().extension() == ".wctart";
    EXPECT_EQ(cached, 1u);

    // Warm run: loaded from cache, byte-identical CSV output.
    auto warm = args;
    warm[6] = dir.file("warm");
    EXPECT_EQ(run(warm, nullptr, &err), 0);
    EXPECT_NE(err.find("from cache"), std::string::npos);
    const std::string cold_csv =
        slurp(dir.file("cold") + "/429.mcf.csv");
    EXPECT_FALSE(cold_csv.empty());
    EXPECT_EQ(slurp(dir.file("warm") + "/429.mcf.csv"), cold_csv);
}

TEST(CliTest, CollectDefaultsToTheStandardProtocol)
{
    // Without --intervals, collect samples at the protocol `wct run`
    // uses, so a plan run warms the single-step command: the one
    // artifact written is the shard a plan at these overrides reads.
    TempDir dir("wct_cli_standard");
    EXPECT_EQ(run({"collect", "--suite", "cpu2006", "--benchmark",
                   "429.mcf", "--out", dir.file("out"), "--cache-dir",
                   dir.file("cache"), "--interval-length", "1024",
                   "--warmup", "50000"}),
              0);

    CollectionConfig config = pipeline::standardCollection();
    config.intervalInstructions = 1024;
    config.warmupInstructions = 50'000;
    SuiteProfile suite;
    suite.name = specCpu2006().name;
    suite.benchmarks = {specCpu2006().benchmark("429.mcf")};
    const auto expected = pipeline::collectShardArtifacts(suite, config);
    ASSERT_EQ(expected.size(), 1u);
    std::vector<std::string> cached;
    for (const auto &entry : fs::directory_iterator(dir.file("cache")))
        cached.push_back(entry.path().filename().string());
    EXPECT_EQ(cached, std::vector<std::string>{expected[0].fileName()});
}

TEST(CliTest, CollectNoCacheBypassesTheCache)
{
    TempDir dir("wct_cli_nocache");
    std::string err;
    EXPECT_EQ(run({"collect", "--suite", "cpu2006", "--benchmark",
                   "429.mcf", "--out", dir.file("out"),
                   "--intervals", "8", "--interval-length", "1024",
                   "--warmup", "50000", "--cache-dir",
                   dir.file("cache"), "--no-cache"},
                  nullptr, &err),
              0);
    EXPECT_EQ(err.find("cache"), std::string::npos) << err;
    EXPECT_FALSE(fs::exists(dir.file("cache")));
}

TEST(CliTest, CollectCorruptCacheFileFallsBackGracefully)
{
    TempDir dir("wct_cli_corrupt_cache");
    const std::vector<std::string> args = {
        "collect",          "--suite",    "cpu2006",
        "--benchmark",      "429.mcf",    "--out",
        dir.file("a"),      "--intervals", "8",
        "--interval-length", "1024",      "--warmup",
        "50000",            "--cache-dir", dir.file("cache")};
    std::string err;
    EXPECT_EQ(run(args, nullptr, &err), 0);

    // Truncate the cached file; the warm run must warn, re-collect,
    // and still produce identical CSVs.
    fs::path cached;
    for (const auto &entry :
         fs::directory_iterator(dir.file("cache")))
        if (entry.path().extension() == ".wctart")
            cached = entry.path();
    ASSERT_FALSE(cached.empty());
    const std::string bytes = slurp(cached.string());
    {
        std::ofstream out(cached, std::ios::binary | std::ios::trunc);
        out << bytes.substr(0, bytes.size() / 2);
    }

    auto again = args;
    again[6] = dir.file("b");
    EXPECT_EQ(run(again, nullptr, &err), 0);
    EXPECT_NE(err.find("cache updated"), std::string::npos);
    EXPECT_EQ(slurp(dir.file("b") + "/429.mcf.csv"),
              slurp(dir.file("a") + "/429.mcf.csv"));
}

TEST(CliTest, TransferHeaderNamesModelAndTargetFiles)
{
    const auto &p = pipeline();
    std::string out;
    EXPECT_EQ(run({"transfer", "--model", p.model_path, "--train",
                   p.data_dir, "--target", p.data_dir},
                  &out),
              0);
    // Names derive from the file stem and directory name, not the
    // old hardcoded "target" placeholder.
    EXPECT_NE(out.find("transferability of omp -> omp"),
              std::string::npos)
        << out;
}

TEST(CliTest, TrainReportsAndSavesModel)
{
    const auto &p = pipeline();
    EXPECT_TRUE(fs::exists(p.model_path));
    std::ifstream in(p.model_path);
    std::string magic;
    std::getline(in, magic);
    EXPECT_EQ(magic, "wct-model-tree v1");
}

TEST(CliTest, TrainDefaultsToTheStandardModelConfig)
{
    // Without tree flags, train grows the tree the plans grow: the
    // suite directory pooled in file-name order, trained with
    // standardModelConfig().tree.
    const auto &p = pipeline();
    TempDir dir("wct_cli_train_standard");
    EXPECT_EQ(run({"train", "--data", p.data_dir, "--out",
                   dir.file("model.mtree")}),
              0);

    std::vector<fs::path> files;
    for (const auto &entry : fs::directory_iterator(p.data_dir))
        if (entry.path().extension() == ".csv")
            files.push_back(entry.path());
    std::sort(files.begin(), files.end());
    ASSERT_FALSE(files.empty());
    Dataset pooled = readCsvFile(files.front().string());
    for (std::size_t i = 1; i < files.size(); ++i)
        pooled.append(readCsvFile(files[i].string()));
    std::ostringstream want;
    ModelTree::train(pooled, "CPI", pipeline::standardModelConfig().tree)
        .save(want);
    EXPECT_EQ(slurp(dir.file("model.mtree")), want.str());
}

TEST(CliTest, ShowPrintsTreeAndDot)
{
    const auto &p = pipeline();
    std::string out;
    EXPECT_EQ(run({"show", "--model", p.model_path}, &out), 0);
    EXPECT_NE(out.find("LM1"), std::string::npos);
    EXPECT_NE(out.find("CPI ="), std::string::npos);

    EXPECT_EQ(run({"show", "--model", p.model_path, "--dot"}, &out),
              0);
    EXPECT_EQ(out.find("digraph"), 0u);
}

TEST(CliTest, PredictWritesAugmentedCsv)
{
    const auto &p = pipeline();
    const std::string out_csv =
        p.dir.file("predictions.csv");
    std::string out;
    EXPECT_EQ(run({"predict", "--model", p.model_path, "--data",
                   p.data_dir + "/330.art_m.csv", "--out", out_csv},
                  &out),
              0);
    std::ifstream in(out_csv);
    std::string header;
    std::getline(in, header);
    EXPECT_NE(header.find("PredictedCPI"), std::string::npos);
    EXPECT_NE(header.find("LeafModel"), std::string::npos);
}

TEST(CliTest, TransferSameDataIsTransferable)
{
    const auto &p = pipeline();
    std::string out;
    EXPECT_EQ(run({"transfer", "--model", p.model_path, "--train",
                   p.data_dir, "--target", p.data_dir},
                  &out),
              0);
    EXPECT_NE(out.find("accuracy:"), std::string::npos);
    EXPECT_NE(out.find("verdicts"), std::string::npos);
    // Identical train and target populations must accept H0.
    EXPECT_NE(out.find("hypothesis tests -> transferable"),
              std::string::npos);
}

TEST(CliTest, ProfileRendersTable)
{
    const auto &p = pipeline();
    std::string out;
    EXPECT_EQ(run({"profile", "--model", p.model_path, "--data",
                   p.data_dir, "--similarity"},
                  &out),
              0);
    EXPECT_NE(out.find("330.art_m"), std::string::npos);
    EXPECT_NE(out.find("Suite"), std::string::npos);
    EXPECT_NE(out.find("Average"), std::string::npos);
}

TEST(CliTest, SubsetSelectorsRun)
{
    const auto &p = pipeline();
    for (const char *method : {"greedy", "medoids", "pca"}) {
        std::string out;
        EXPECT_EQ(run({"subset", "--model", p.model_path, "--data",
                       p.data_dir, "--k", "3", "--method", method},
                      &out),
                  0)
            << method;
        EXPECT_NE(out.find("profile distance"), std::string::npos)
            << method;
    }
}

TEST(CliTest, PhasesRendersTimeline)
{
    const auto &p = pipeline();
    std::string out;
    EXPECT_EQ(run({"phases", "--model", p.model_path, "--data",
                   p.data_dir + "/328.fma3d_m.csv"},
                  &out),
              0);
    EXPECT_NE(out.find("timeline:"), std::string::npos);
    EXPECT_NE(out.find("entropy:"), std::string::npos);

    // Directory form renders every benchmark.
    EXPECT_EQ(run({"phases", "--model", p.model_path, "--data",
                   p.data_dir},
                  &out),
              0);
    EXPECT_NE(out.find("330.art_m"), std::string::npos);
}

/** Scaled-down plan flags keeping `wct run` inside test budgets. */
std::vector<std::string>
runPlanArgs(const std::string &cache_dir)
{
    return {"run",      "omp2001",           "--cache-dir",
            cache_dir,  "--intervals",       "12",
            "--interval-length", "2048",     "--warmup",
            "20000"};
}

TEST(CliTest, RunPlanColdThenWarmIsByteIdenticalAndAllHits)
{
    TempDir dir("wct_cli_run");
    const auto args = runPlanArgs(dir.file("cache"));

    std::string cold_out, cold_err;
    EXPECT_EQ(run(args, &cold_out, &cold_err), 0);
    EXPECT_NE(cold_out.find("SPEC OMP2001"), std::string::npos);
    EXPECT_NE(cold_err.find("cache hits: 0/"), std::string::npos)
        << cold_err;

    std::string warm_out, warm_err;
    EXPECT_EQ(run(args, &warm_out, &warm_err), 0);
    EXPECT_EQ(warm_out, cold_out); // results identical cold vs warm
    // Every stage served from the store on the warm run, and only
    // train/profile run: no stage misses, so the 11 omp2001 collect
    // shards are never read.
    EXPECT_NE(warm_err.find("cache hits: 2/2"), std::string::npos)
        << warm_err;
}

TEST(CliTest, CacheLsRmGcManageThePlanArtifacts)
{
    TempDir dir("wct_cli_cachecmd");
    const std::string cache_dir = dir.file("cache");
    EXPECT_EQ(run(runPlanArgs(cache_dir)), 0);

    // ls: the 11 per-shard collect artifacts, the two downstream
    // stage artifacts, and the published model tree.
    std::string ls_out;
    EXPECT_EQ(run({"cache", "ls", "--cache-dir", cache_dir},
                  &ls_out),
              0);
    EXPECT_NE(ls_out.find("14 artifacts"), std::string::npos)
        << ls_out;
    EXPECT_NE(ls_out.find("collect-"), std::string::npos);
    EXPECT_NE(ls_out.find("train-"), std::string::npos);
    EXPECT_NE(ls_out.find("mtree-"), std::string::npos);

    // gc at the same protocol: everything is live, nothing removed.
    std::string gc_out;
    EXPECT_EQ(run({"cache", "gc", "--cache-dir", cache_dir,
                   "--intervals", "12", "--interval-length", "2048",
                   "--warmup", "20000"},
                  &gc_out),
              0);
    EXPECT_NE(gc_out.find("0 artifacts removed"), std::string::npos)
        << gc_out;

    // rm: drop the profile artifact by its listed name; the next run
    // recomputes just that stage, which asks for the samples: 12/13
    // hits, the 11 shards loading as hits.
    const std::size_t pos = ls_out.find("profile-");
    ASSERT_NE(pos, std::string::npos) << ls_out;
    const std::string name = ls_out.substr(pos, 8 + 16);
    std::string rm_out;
    EXPECT_EQ(run({"cache", "rm", name, "--cache-dir", cache_dir},
                  &rm_out),
              0);
    EXPECT_NE(rm_out.find("removed " + name), std::string::npos);
    std::string err;
    EXPECT_EQ(run(runPlanArgs(cache_dir), nullptr, &err), 0);
    EXPECT_NE(err.find("cache hits: 12/13"), std::string::npos)
        << err;

    // gc at the *standard* protocol: the scaled artifacts are dead.
    EXPECT_EQ(run({"cache", "gc", "--cache-dir", cache_dir},
                  &gc_out),
              0);
    EXPECT_EQ(gc_out.find("0 artifacts removed"), std::string::npos)
        << gc_out;
    std::size_t left = 0;
    for (const auto &entry : fs::directory_iterator(cache_dir))
        left += entry.path().extension() == ".wctart";
    EXPECT_EQ(left, 0u);
}

/** A store daemon's service that counts the List frames it answers. */
class ListCountingService : public serve::FrameHandler
{
  public:
    explicit ListCountingService(const std::string &dir)
        : service_(ArtifactStore(dir))
    {
    }

    std::string
    handlePayload(std::string_view payload) override
    {
        const auto request = decodeStoreRequest(payload);
        if (request && request->op == StoreOp::List)
            ++lists;
        return service_.handlePayload(payload);
    }

    std::string
    malformedResponse(const std::string &reason) override
    {
        return service_.malformedResponse(reason);
    }

    bool shuttingDown() const override { return service_.shuttingDown(); }

    std::atomic<int> lists{0};

  private:
    serve::StoreService service_;
};

TEST(CliTest, CacheLsOverAStoreUrlListsOnce)
{
    TempDir dir("wct_cli_cache_ls_remote");
    const ArtifactStore daemon_store(dir.file("daemon"));
    ASSERT_TRUE(daemon_store.store({"train", 1}, "first"));
    ASSERT_TRUE(daemon_store.store({"train", 2}, "second"));

    ListCountingService service(dir.file("daemon"));
    serve::SocketConfig config;
    config.unixPath = dir.file("store.sock");
    config.frameMagic = std::string(kStoreWireMagic, 8);
    config.frameVersion = kStoreWireFormatVersion;
    config.maxFramePayload = kMaxStoreFramePayload;
    serve::SocketServer transport(service, config);
    std::string err;
    ASSERT_TRUE(transport.start(&err)) << err;

    std::string out;
    EXPECT_EQ(run({"cache", "ls", "--cache-dir", dir.file("cache"),
                   "--store-url", "unix:" + config.unixPath},
                  &out),
              0);
    transport.stop();
    EXPECT_EQ(service.lists.load(), 1);
    // Two rows and a count line that agrees with them.
    EXPECT_NE(out.find("train-"), std::string::npos) << out;
    EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 3) << out;
    EXPECT_NE(out.find("2 artifacts, "), std::string::npos) << out;
}

TEST(CliDeathTest, UnknownPlanIsFatal)
{
    std::ostringstream out, err;
    EXPECT_EXIT(runCli({"run", "spec95", "--cache-dir", "/tmp/x"},
                       out, err),
                ::testing::ExitedWithCode(1), "unknown plan");
}

TEST(CliDeathTest, MismatchedCsvHeadersAreFatal)
{
    // A --data directory whose CSVs disagree on the header is a user
    // error naming both files, not an abort in the pooling code.
    TempDir dir("wct_cli_mismatch");
    std::ofstream(dir.file("a.csv")) << "CPI,x\n1.0,2.0\n1.5,2.5\n";
    std::ofstream(dir.file("b.csv")) << "CPI,y\n1.0,2.0\n1.5,2.5\n";
    std::ostringstream out, err;
    EXPECT_EXIT(runCli({"train", "--data", dir.path.string(), "--out",
                        dir.file("model.mtree")},
                       out, err),
                ::testing::ExitedWithCode(1),
                "b\\.csv' has a different header than '.*a\\.csv'");
}

TEST(CliDeathTest, SimilarityOfOneBenchmarkIsFatal)
{
    // A distance matrix needs two benchmarks: a --data directory of
    // one is a user error, not an assertion in SimilarityMatrix.
    // The model is the one `wct train` fits to this CSV, written out
    // so the test starts no pool threads before the fork.
    TempDir dir("wct_cli_one_benchmark");
    fs::create_directories(dir.file("data"));
    std::ofstream(dir.file("data/only.csv"))
        << "x,CPI\n0,1.0\n1,1.5\n2,2.0\n";
    std::ofstream(dir.file("model.mtree"))
        << "wct-model-tree v1\ntarget CPI\nschema 2 x CPI\n"
           "range 1 2 0.5 1\nnode leaf 3 1.5 0 1 1 0.5\nend\n";
    std::ostringstream out, err;
    EXPECT_EXIT(runCli({"profile", "--model", dir.file("model.mtree"),
                        "--data", dir.file("data"), "--similarity"},
                       out, err),
                ::testing::ExitedWithCode(1),
                "--similarity needs at least two benchmarks");
}

TEST(CliDeathTest, UnknownOptionIsFatal)
{
    std::ostringstream out, err;
    EXPECT_EXIT(runCli({"suites", "--frobnicate"}, out, err),
                ::testing::ExitedWithCode(1), "unknown option");
}

TEST(CliDeathTest, MissingRequiredFlagIsFatal)
{
    std::ostringstream out, err;
    EXPECT_EXIT(runCli({"train", "--out", "/tmp/x"}, out, err),
                ::testing::ExitedWithCode(1), "missing required");
}

TEST(CliDeathTest, UnknownSuiteIsFatal)
{
    std::ostringstream out, err;
    EXPECT_EXIT(runCli({"collect", "--suite", "spec95", "--out",
                        "/tmp/x"},
                       out, err),
                ::testing::ExitedWithCode(1), "unknown suite");
}

TEST(CliDeathTest, BadIntegerFlagIsFatal)
{
    std::ostringstream out, err;
    EXPECT_EXIT(runCli({"collect", "--suite", "cpu2006", "--out",
                        "/tmp/x", "--intervals", "abc"},
                       out, err),
                ::testing::ExitedWithCode(1), "expects an integer");
}

} // namespace
} // namespace wct
