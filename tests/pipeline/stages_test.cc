/**
 * @file
 * Tests of the staged pipeline (src/pipeline): stage-key sensitivity
 * to every input, codec round trips, cache hit/miss lifecycle with
 * corrupt-artifact recovery, nested stage timing, cold/warm plan
 * byte-identity with collection only on demand, and gc liveness from
 * chained plan keys.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <thread>

#include <unistd.h>

#include "core/suite_model.hh"
#include "mtree/serialize.hh"
#include "pipeline/plans.hh"
#include "pipeline/stages.hh"
#include "workload/suites.hh"

namespace wct
{
namespace
{

namespace fs = std::filesystem;
using namespace pipeline;

/** Fresh scratch directory, removed on scope exit. */
struct TempDir
{
    fs::path path;

    explicit TempDir(const std::string &tag)
        : path(fs::temp_directory_path() /
               ("wct_stage_test_" + tag + "_" +
                std::to_string(::getpid())))
    {
        fs::remove_all(path);
        fs::create_directories(path);
    }

    ~TempDir() { fs::remove_all(path); }
};

SuiteProfile
miniSuite()
{
    SuiteProfile suite;
    suite.name = "mini";
    for (int i = 0; i < 3; ++i) {
        BenchmarkProfile b;
        b.name = "mini." + std::to_string(i);
        b.instructionWeight = 0.5 + 0.5 * i;
        PhaseProfile p;
        p.loadFrac = 0.2 + 0.04 * i;
        p.dataFootprint = 1u << (18 + i);
        b.phases.push_back(p);
        suite.benchmarks.push_back(b);
    }
    return suite;
}

CollectionConfig
miniConfig()
{
    CollectionConfig config;
    config.intervalInstructions = 2048;
    config.baseIntervals = 40;
    config.warmupInstructions = 20'000;
    return config;
}

SuiteModelConfig
miniModelConfig()
{
    SuiteModelConfig config;
    config.trainFraction = 0.5;
    config.tree.minLeafInstances = 10;
    return config;
}

TEST(StageKeyTest, CollectKeyCoversEveryCollectionInput)
{
    const SuiteProfile suite = miniSuite();
    const CollectionConfig base = miniConfig();
    const std::uint64_t key = collectStageKey(suite, base);

    // Same inputs -> same key (the key is a pure function).
    EXPECT_EQ(collectStageKey(suite, base), key);

    CollectionConfig changed = base;
    changed.seed ^= 1;
    EXPECT_NE(collectStageKey(suite, changed), key);

    changed = base;
    changed.shards = 4;
    EXPECT_NE(collectStageKey(suite, changed), key);

    changed = base;
    changed.baseIntervals += 1;
    EXPECT_NE(collectStageKey(suite, changed), key);

    changed = base;
    changed.multiplexed = false;
    EXPECT_NE(collectStageKey(suite, changed), key);

    changed = base;
    changed.machine.l2MissCycles += 1.0;
    EXPECT_NE(collectStageKey(suite, changed), key);

    SuiteProfile renamed = suite;
    renamed.benchmarks[0].name = "mini.renamed";
    EXPECT_NE(collectStageKey(renamed, base), key);

    SuiteProfile tweaked = suite;
    tweaked.benchmarks[1].phases[0].loadFrac += 0.01;
    EXPECT_NE(collectStageKey(tweaked, base), key);
}

TEST(StageKeyTest, DownstreamKeysChainUpstreamKeys)
{
    const SuiteModelConfig model = miniModelConfig();
    const std::uint64_t train_a = trainStageKey(111, model);
    const std::uint64_t train_b = trainStageKey(222, model);
    EXPECT_NE(train_a, train_b); // collect key flows into train

    SuiteModelConfig other_model = model;
    other_model.trainFraction = 0.25;
    EXPECT_NE(trainStageKey(111, other_model), train_a);
    other_model = model;
    other_model.seed ^= 1;
    EXPECT_NE(trainStageKey(111, other_model), train_a);
    other_model = model;
    other_model.tree.minLeafInstances += 1;
    EXPECT_NE(trainStageKey(111, other_model), train_a);

    EXPECT_NE(profileStageKey(train_a), profileStageKey(train_b));
    EXPECT_NE(similarityStageKey(profileStageKey(train_a), {}),
              similarityStageKey(profileStageKey(train_b), {}));
    EXPECT_NE(similarityStageKey(profileStageKey(train_a), {}),
              similarityStageKey(profileStageKey(train_a), {"a"}));

    const std::uint64_t transfer =
        transferStageKey(train_a, train_b, "test", {});
    EXPECT_NE(transferStageKey(train_b, train_a, "test", {}),
              transfer); // direction matters
    EXPECT_NE(transferStageKey(train_a, train_b, "train", {}),
              transfer);
    TransferabilityConfig config;
    config.bootstrapReplicates = 500;
    EXPECT_NE(transferStageKey(train_a, train_b, "test", config),
              transfer);
}

TEST(StageKeyTest, StageKindKeepsKeysApart)
{
    // A train artifact and its profile artifact must never collide in
    // the store even if their numeric keys happened to be close: the
    // kind is part of the key derivation as well as the file name.
    const std::uint64_t collect =
        collectStageKey(miniSuite(), miniConfig());
    EXPECT_NE(trainStageKey(collect, miniModelConfig()), collect);
    EXPECT_NE(profileStageKey(collect), collect);
}

TEST(StageCodecTest, SuiteDataRoundTrip)
{
    const SuiteData data = collectSuite(miniSuite(), miniConfig());
    const std::string payload = encodeSuiteData(data);
    const auto decoded = decodeSuiteData(payload);
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(encodeSuiteData(*decoded), payload);
    EXPECT_FALSE(decodeSuiteData("not a suite").has_value());
    EXPECT_FALSE(
        decodeSuiteData(payload.substr(0, payload.size() / 2))
            .has_value());
}

TEST(StageCodecTest, SuiteModelRoundTrip)
{
    const SuiteData data = collectSuite(miniSuite(), miniConfig());
    const SuiteModel model =
        buildSuiteModel(data, miniModelConfig());
    const std::string payload = encodeSuiteModel(model);
    const auto decoded = decodeSuiteModel(payload);
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(encodeSuiteModel(*decoded), payload);
    EXPECT_EQ(decoded->suiteName, model.suiteName);
    EXPECT_EQ(decoded->meanCpi, model.meanCpi);
    EXPECT_EQ(decoded->train.numRows(), model.train.numRows());
    std::ostringstream a, b;
    writeModelTree(model.tree, a);
    writeModelTree(decoded->tree, b);
    EXPECT_EQ(a.str(), b.str());
    EXPECT_FALSE(decodeSuiteModel("garbage").has_value());
}

TEST(StageCodecTest, ProfileSimilarityAndTransferRoundTrip)
{
    const SuiteData data = collectSuite(miniSuite(), miniConfig());
    const SuiteModel model =
        buildSuiteModel(data, miniModelConfig());
    const ProfileTable table(data, model.tree);

    const std::string table_payload = encodeProfileTable(table);
    const auto table_decoded = decodeProfileTable(table_payload);
    ASSERT_TRUE(table_decoded.has_value());
    EXPECT_EQ(encodeProfileTable(*table_decoded), table_payload);
    EXPECT_EQ(table_decoded->render(), table.render());

    const SimilarityMatrix sim(table);
    const std::string sim_payload = encodeSimilarity(sim);
    const auto sim_decoded = decodeSimilarity(sim_payload);
    ASSERT_TRUE(sim_decoded.has_value());
    EXPECT_EQ(encodeSimilarity(*sim_decoded), sim_payload);
    EXPECT_EQ(sim_decoded->render(), sim.render());

    TransferabilityConfig config;
    config.bootstrapReplicates = 50;
    config.modelName = "mini";
    config.targetName = "mini.test";
    const auto report = assessTransferability(
        model.tree, model.train, model.test, config);
    const std::string report_payload = encodeTransferReport(report);
    const auto report_decoded =
        decodeTransferReport(report_payload);
    ASSERT_TRUE(report_decoded.has_value());
    EXPECT_EQ(encodeTransferReport(*report_decoded), report_payload);
    EXPECT_EQ(report_decoded->render(), report.render());
    EXPECT_FALSE(decodeTransferReport("junk").has_value());
}

TEST(StageCodecTest, SimilarityRefusesSizesItsBytesCannotHold)
{
    // 40,000 names are present, but not the 40,000^2 cells they
    // claim: the decoder refuses before sizing the matrix (12.8 GB).
    const std::uint64_t n = 40'000;
    ByteSink sink;
    sink.putU64(n);
    for (std::uint64_t i = 0; i < n; ++i)
        sink.putString("");
    EXPECT_FALSE(decodeSimilarity(sink.bytes()).has_value());

    // One byte short of a real matrix is refused too.
    const SuiteData data = collectSuite(miniSuite(), miniConfig());
    const SimilarityMatrix sim(ProfileTable(
        data, buildSuiteModel(data, miniModelConfig()).tree));
    const std::string payload = encodeSimilarity(sim);
    ASSERT_TRUE(decodeSimilarity(payload).has_value());
    EXPECT_FALSE(
        decodeSimilarity(std::string_view(payload).substr(
                             0, payload.size() - 1))
            .has_value());
}

TEST(StageRunTest, WarmStagesHitAndMatchColdBytes)
{
    const TempDir dir("warm");
    const SuiteProfile suite = miniSuite();
    const CollectionConfig config = miniConfig();
    const SuiteModelConfig model_config = miniModelConfig();
    const std::uint64_t collect_key = collectStageKey(suite, config);

    std::string cold_bytes;
    {
        pipeline::Pipeline pipe{ArtifactStore(dir.path.string())};
        const SuiteData data = collectStage(pipe, suite, config);
        const SuiteModel model = trainStage(
            pipe, suite.name, [&]() -> const SuiteData & { return data; },
            collect_key, model_config);
        EXPECT_FALSE(pipe.allCached());
        EXPECT_EQ(pipe.cachedCount(), 0u);
        cold_bytes = encodeSuiteData(data) + encodeSuiteModel(model);

        // The train stage also publishes the tree text for serving.
        std::ostringstream text;
        writeModelTree(model.tree, text);
        const ArtifactId mtree_id{
            "mtree", modelTreeContentKey(text.str())};
        ASSERT_TRUE(pipe.store().contains(mtree_id));
        const auto stored = pipe.store().load(mtree_id);
        ASSERT_TRUE(stored.has_value());
        EXPECT_EQ(*stored, text.str());
    }
    {
        pipeline::Pipeline pipe{ArtifactStore(dir.path.string())};
        const SuiteData data = collectStage(pipe, suite, config);
        const SuiteModel model = trainStage(
            pipe, suite.name, [&]() -> const SuiteData & { return data; },
            collect_key, model_config);
        // One run per collect shard (3 benchmarks x 1 shard) + train.
        EXPECT_TRUE(pipe.allCached());
        EXPECT_EQ(pipe.cachedCount(), 4u);
        EXPECT_EQ(encodeSuiteData(data) + encodeSuiteModel(model),
                  cold_bytes);
        const std::string report = pipe.renderReport();
        EXPECT_NE(report.find("cache hits: 4/4"), std::string::npos)
            << report;
    }
}

TEST(StageRunTest, CorruptArtifactRecomputesAndRepairs)
{
    const TempDir dir("repair");
    const SuiteProfile suite = miniSuite();
    const CollectionConfig config = miniConfig();
    const ArtifactStore store(dir.path.string());
    const ArtifactId id = collectShardArtifacts(suite, config)[0];

    std::string first_payload;
    {
        pipeline::Pipeline pipe{store};
        collectStage(pipe, suite, config);
        first_payload = *store.load(id);
    }

    // Flip a payload bit in the cached artifact.
    std::string bytes;
    {
        std::ifstream in(store.path(id), std::ios::binary);
        std::stringstream buf;
        buf << in.rdbuf();
        bytes = buf.str();
    }
    bytes[bytes.size() / 2] ^= 0x04;
    {
        std::ofstream out(store.path(id),
                          std::ios::binary | std::ios::trunc);
        out << bytes;
    }
    EXPECT_FALSE(store.load(id).has_value());

    // The stage re-collects exactly that shard (a miss; the other
    // shards stay hits), repairs the file, and still returns the
    // right data. Shard runs are recorded in deterministic task
    // order, so the corrupted shard is the first run.
    pipeline::Pipeline pipe{store};
    collectStage(pipe, suite, config);
    EXPECT_FALSE(pipe.runs().front().cached);
    EXPECT_EQ(pipe.cachedCount(), pipe.runs().size() - 1);
    const auto repaired = store.load(id);
    ASSERT_TRUE(repaired.has_value());
    EXPECT_EQ(*repaired, first_payload);
}

TEST(StageRunTest, ShardOfTheWrongShapeIsRecollected)
{
    // Well-formed shards stored under the right id, one a row short
    // and one a column short, are refused like a checksum failure:
    // plans take their sample counts from the shard plans.
    const TempDir dir("shape");
    const SuiteProfile suite = miniSuite();
    const CollectionConfig config = miniConfig();
    const ArtifactStore store(dir.path.string());
    const SuiteData uncached = collectSuite(suite, config);
    const Dataset &first = uncached.benchmarks[0].samples;
    ASSERT_EQ(shardPlan(suite.benchmarks[0], config).size(), 1u);
    const ArtifactId id = collectShardArtifacts(suite, config)[0];

    std::vector<std::size_t> rows(first.numRows() - 1);
    for (std::size_t r = 0; r < rows.size(); ++r)
        rows[r] = r;
    std::vector<std::string> columns = first.columnNames();
    columns.pop_back();
    for (const Dataset &wrong :
         {first.selectRows(rows), first.selectColumns(columns)}) {
        ASSERT_TRUE(store.store(id, encodeShardSamples(wrong)));
        pipeline::Pipeline pipe{store};
        const SuiteData data = collectStage(pipe, suite, config);
        EXPECT_FALSE(pipe.runs().front().cached);
        EXPECT_EQ(encodeSuiteData(data), encodeSuiteData(uncached));
        EXPECT_EQ(store.load(id), encodeShardSamples(first));
    }
}

TEST(StageRunTest, NestedStageTimeIsExcluded)
{
    // A stage whose compute runs another stage (as a train miss
    // collects its suite on demand) records only its own time; the
    // nested stage keeps its own record.
    using namespace std::chrono_literals;
    const auto same = [](const std::string &value) { return value; };
    const auto parse =
        [](std::string_view payload) -> std::optional<std::string> {
        return std::string(payload);
    };
    pipeline::Pipeline pipe;
    const auto stage = [&](const char *label, std::uint64_t key,
                           const std::function<std::string()> &compute) {
        return pipe.run<std::string>(label, {"train", key}, same, parse,
                                     compute);
    };
    stage("outer", 1, [&] {
        std::this_thread::sleep_for(50ms);
        return stage("inner", 2, [] {
            std::this_thread::sleep_for(400ms);
            return std::string("x");
        });
    });
    ASSERT_EQ(pipe.runs().size(), 2u);
    const StageRun &inner = pipe.runs()[0];
    const StageRun &outer = pipe.runs()[1];
    EXPECT_EQ(inner.label, "inner");
    EXPECT_GE(inner.ms, 400.0);
    EXPECT_GE(outer.ms, 50.0);
    EXPECT_LT(outer.ms, 400.0);
}

TEST(StageRunTest, DisabledStoreStillComputes)
{
    pipeline::Pipeline pipe; // no store
    const SuiteData direct = collectSuite(miniSuite(), miniConfig());
    const SuiteData staged =
        collectStage(pipe, miniSuite(), miniConfig());
    EXPECT_EQ(encodeSuiteData(staged), encodeSuiteData(direct));
    EXPECT_FALSE(pipe.runs().empty());
    EXPECT_FALSE(pipe.allCached());
}

/** A scaled-down protocol keeping plan tests inside ctest budgets. */
pipeline::PlanProtocol
tinyProtocol()
{
    pipeline::PlanProtocol protocol;
    protocol.collection.intervalInstructions = 2048;
    protocol.collection.baseIntervals = 12;
    protocol.collection.warmupInstructions = 20'000;
    return protocol;
}

TEST(PlanTest, NamesAreStable)
{
    for (const char *name :
         {"cpu2006", "omp2001", "transfer", "full", "paper"})
        EXPECT_TRUE(pipeline::isPlanName(name)) << name;
    EXPECT_FALSE(pipeline::isPlanName("spec95"));
    EXPECT_EQ(pipeline::planNames().size(), 5u);
}

/** Run `plan` at the tiny protocol through `pipe`; its output. */
std::string
planText(pipeline::Pipeline &pipe, const std::string &plan)
{
    std::ostringstream out;
    pipeline::runPlan(pipe, plan, tinyProtocol(), out);
    return out.str();
}

TEST(PlanTest, ColdAndWarmRunsAreByteIdentical)
{
    // Cold runs collect each suite once (40 shards over both) and
    // transfer from the models in memory; warm runs execute only
    // train, profile and similarity per suite and the transfers.
    struct Case
    {
        const char *plan;
        std::size_t coldStages;
        std::size_t warmStages;
    };
    for (const Case &c : {Case{"omp2001", 11 + 3, 3},
                          Case{"transfer", 40 + 2 + 4, 2 + 4},
                          Case{"full", 40 + 6 + 4, 6 + 4},
                          Case{"paper", 40 + 6 + 4, 6 + 4}}) {
        SCOPED_TRACE(c.plan);
        const TempDir dir(std::string("plan_") + c.plan);
        const ArtifactStore store(dir.path.string());

        pipeline::Pipeline cold_pipe{store};
        const std::string cold = planText(cold_pipe, c.plan);
        EXPECT_EQ(cold_pipe.cachedCount(), 0u);
        EXPECT_EQ(cold_pipe.runs().size(), c.coldStages);

        pipeline::Pipeline warm_pipe{store};
        EXPECT_EQ(planText(warm_pipe, c.plan), cold);
        EXPECT_TRUE(warm_pipe.allCached());
        EXPECT_EQ(warm_pipe.runs().size(), c.warmStages);

        // Uncached execution agrees byte-for-byte with both.
        pipeline::Pipeline fresh_pipe;
        EXPECT_EQ(planText(fresh_pipe, c.plan), cold);
    }
}

TEST(PlanTest, WarmFullPlanCollectsOnlyOnDemand)
{
    const TempDir dir("ondemand");
    const ArtifactStore store(dir.path.string());
    const pipeline::PlanProtocol protocol = tinyProtocol();
    pipeline::Pipeline cold_pipe{store};
    const std::string cold = planText(cold_pipe, "full");

    // The headers' sample counts come from the shard plans and match
    // the collected suites.
    for (const SuiteProfile *suite : {&specCpu2006(), &specOmp2001()}) {
        pipeline::Pipeline pipe{store};
        const SuiteData data =
            collectStage(pipe, *suite, protocol.collection);
        EXPECT_NE(cold.find("== " + suite->name + " ==\nbenchmarks: " +
                            std::to_string(data.benchmarks.size()) +
                            ", samples: " +
                            std::to_string(data.totalSamples()) + ","),
                  std::string::npos)
            << suite->name;
    }

    // Without its profile artifact, omp2001's profile stage is the
    // one miss, and it asks for the samples: the suite's 11 shards
    // load as hits.
    const ArtifactId omp_profile{
        "profile",
        profileStageKey(trainStageKey(
            collectStageKey(specOmp2001(), protocol.collection),
            protocol.model))};
    ASSERT_TRUE(store.remove(omp_profile));
    pipeline::Pipeline repair_pipe{store};
    EXPECT_EQ(planText(repair_pipe, "full"), cold);
    EXPECT_EQ(repair_pipe.runs().size(), 10 + 11u);
    std::size_t shard_hits = 0;
    for (const StageRun &run : repair_pipe.runs()) {
        shard_hits += run.id.kind == "collect-shard" && run.cached;
        EXPECT_EQ(run.cached, run.id.fileName() != omp_profile.fileName())
            << run.label;
    }
    EXPECT_EQ(shard_hits, 11u);

    // A warm run reads no shard at all: with every one deleted it is
    // still all hits, 10 stages, byte-identical.
    std::size_t removed = 0;
    for (const ArtifactInfo &info : store.list())
        if (info.id.kind == "collect-shard")
            removed += store.remove(info.id);
    EXPECT_EQ(removed, 40u);
    pipeline::Pipeline warm_pipe{store};
    EXPECT_EQ(planText(warm_pipe, "full"), cold);
    EXPECT_TRUE(warm_pipe.allCached());
    EXPECT_EQ(warm_pipe.runs().size(), 10u);
}

TEST(PlanTest, PaperIsFullThenSectionsFromFullsArtifacts)
{
    // `full`'s text at the tiny protocol. perfbench pins the standard
    // protocol's (kFullPlanDigest), but tier-1 does not run it.
    const TempDir dir("paper");
    const ArtifactStore store(dir.path.string());
    pipeline::Pipeline full_pipe{store};
    const std::string full = planText(full_pipe, "full");
    EXPECT_EQ(fnv1a64(full), 0xaa1b2513694a0bb3ull)
        << keyHex(fnv1a64(full));

    // `paper` against the store `full` filled: all hits, the same 10
    // stages, no artifact written, `full`'s bytes first.
    const auto listing = [&store] {
        std::set<std::string> names;
        for (const ArtifactInfo &info : store.list())
            names.insert(info.id.fileName());
        return names;
    };
    const std::set<std::string> before = listing();
    pipeline::Pipeline paper_pipe{store};
    const std::string paper = planText(paper_pipe, "paper");
    EXPECT_TRUE(paper_pipe.allCached());
    EXPECT_EQ(paper_pipe.runs().size(), 10u);
    EXPECT_EQ(listing(), before);
    ASSERT_GT(paper.size(), full.size());
    EXPECT_EQ(paper.compare(0, full.size(), full), 0);

    // Then every paper section, in the paper's order.
    std::size_t at = full.size();
    for (const char *title :
         {"== Table I: ", "== Figure 1: SPEC CPU2006 model tree",
          "== Observations (Section IV-B", "== Table III: ",
          "== Highlighted pairs", "== Figure 2: SPEC OMP2001 model tree",
          "== Observations (Section V-B", "== Section VI-A: ",
          "== Section VI-B: ", "OMP2001 -> CPU2006 "}) {
        at = paper.find(title, at);
        ASSERT_NE(at, std::string::npos) << title;
    }
}

TEST(PlanTest, MtreeIdsComeFromTheStoredTreeText)
{
    // On a hit, the train stage and planArtifacts key each tree's
    // ("mtree", key) artifact by the text the train artifact holds
    // instead of printing the decoded tree again. The keys agree
    // because that text is what the decoded tree prints.
    const TempDir dir("mtree_text");
    const ArtifactStore store(dir.path.string());
    const pipeline::PlanProtocol protocol = tinyProtocol();
    pipeline::Pipeline cold_pipe{store};
    const std::string cold = planText(cold_pipe, "full");

    std::set<std::string> trees;
    for (const SuiteProfile *suite : {&specCpu2006(), &specOmp2001()}) {
        SCOPED_TRACE(suite->name);
        const auto payload = store.load(
            {"train",
             trainStageKey(collectStageKey(*suite, protocol.collection),
                           protocol.model)});
        ASSERT_TRUE(payload.has_value());
        std::string text;
        const auto model = decodeSuiteModel(*payload, &text);
        ASSERT_TRUE(model.has_value());
        std::ostringstream printed;
        writeModelTree(model->tree, printed);
        EXPECT_EQ(text, printed.str());
        const ArtifactId id = modelTreeArtifact(text);
        EXPECT_EQ(store.load(id), text);
        trees.insert(id.fileName());
    }
    ASSERT_EQ(trees.size(), 2u);

    // A warm run with both tree artifacts gone is still all hits and
    // publishes them again under the same ids, which planArtifacts
    // lists.
    const auto stored_trees = [&store] {
        std::set<std::string> names;
        for (const ArtifactInfo &info : store.list())
            if (info.id.kind == "mtree")
                names.insert(info.id.fileName());
        return names;
    };
    for (const ArtifactInfo &info : store.list()) {
        if (info.id.kind == "mtree") {
            ASSERT_TRUE(store.remove(info.id));
        }
    }
    ASSERT_TRUE(stored_trees().empty());
    pipeline::Pipeline warm_pipe{store};
    EXPECT_EQ(planText(warm_pipe, "full"), cold);
    EXPECT_TRUE(warm_pipe.allCached());
    EXPECT_EQ(stored_trees(), trees);
    std::set<std::string> listed;
    for (const ArtifactId &id :
         pipeline::planArtifacts("full", protocol, store))
        if (id.kind == "mtree")
            listed.insert(id.fileName());
    EXPECT_EQ(listed, trees);
}

/** FNV-1a of a plan's artifact file names, one per line, in order. */
std::uint64_t
artifactListDigest(const std::vector<ArtifactId> &ids)
{
    std::string names;
    for (const ArtifactId &id : ids)
        names += id.fileName() + "\n";
    return fnv1a64(names);
}

TEST(PlanTest, GcFromPlanArtifactsKeepsThePlanWarm)
{
    // Per plan: its artifact count after a cold tiny run (shards,
    // train/profile/similarity, transfers, mtree), and the digest of
    // its planArtifacts list at the standard protocol on an empty
    // store, recorded before plans were declared in one table.
    // `paper` runs `full`'s stages, so it lists `full`'s artifacts.
    const struct
    {
        const char *plan;
        std::size_t artifacts;
        std::uint64_t standardDigest;
    } cases[] = {
        {"cpu2006", 29 + 3 + 1, 0x4544977e09c48a4eull},
        {"omp2001", 11 + 3 + 1, 0xc4266a2638529335ull},
        {"transfer", 40 + 2 + 4 + 2, 0x6fdcb9d7213fe29eull},
        {"full", 40 + 6 + 4 + 2, 0xba00fcd050a50bc4ull},
        {"paper", 40 + 6 + 4 + 2, 0xba00fcd050a50bc4ull},
    };
    ASSERT_EQ(pipeline::planNames().size(), std::size(cases));
    const TempDir empty_dir("gc_empty");
    const ArtifactStore empty(empty_dir.path.string());
    for (const auto &c : cases) {
        SCOPED_TRACE(c.plan);
        const std::uint64_t digest = artifactListDigest(
            pipeline::planArtifacts(c.plan, {}, empty));
        EXPECT_EQ(digest, c.standardDigest) << keyHex(digest);

        const TempDir dir(std::string("gc_") + c.plan);
        const pipeline::PlanProtocol protocol = tinyProtocol();
        const ArtifactStore store(dir.path.string());
        std::ostringstream cold;
        pipeline::Pipeline pipe{store};
        pipeline::runPlan(pipe, c.plan, protocol, cold);

        // A cold run writes exactly the plan's artifact set.
        const auto live = pipeline::planArtifacts(c.plan, protocol, store);
        std::set<std::string> listed;
        for (const ArtifactId &id : live)
            listed.insert(id.fileName());
        std::set<std::string> stored;
        for (const ArtifactInfo &info : store.list())
            stored.insert(info.id.fileName());
        EXPECT_EQ(live.size(), c.artifacts);
        EXPECT_EQ(listed.size(), live.size());
        EXPECT_EQ(stored, listed);

        // Garbage, an artifact no plan references, is all gc removes.
        ASSERT_TRUE(store.store({"train", 0xdead}, "stale"));
        const auto removed = store.gc(live);
        ASSERT_EQ(removed.size(), 1u);
        EXPECT_EQ(removed[0].kind, "train");
        EXPECT_EQ(removed[0].key, 0xdeadu);

        // Everything the plan needs survived: the re-run is all hits
        // and byte-identical.
        std::ostringstream warm;
        pipeline::Pipeline warm_pipe{store};
        pipeline::runPlan(warm_pipe, c.plan, protocol, warm);
        EXPECT_TRUE(warm_pipe.allCached());
        EXPECT_EQ(warm.str(), cold.str());
    }
}

} // namespace
} // namespace wct
