/**
 * @file
 * Deterministic seed-corpus generator: `wct_fuzz_corpus_gen <root>`
 * writes the seed inputs for every fuzz harness under
 * <root>/<harness>/, using the *real* writers (writeEnvelope, the
 * stage encoders over a mini suite, encodeRequest/encodeResponse,
 * ModelTree::save, ArtifactStore::store) so mutation starts at the
 * valid-input frontier instead of spending its budget rediscovering
 * magics and checksums.
 *
 * Everything is seeded and pinned: rerunning the tool reproduces the
 * checked-in fuzz/corpus/ tree byte for byte (`git diff` after a run
 * is the review surface for corpus changes, exactly like goldens).
 */

#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "data/artifact_store.hh"
#include "data/binary_io.hh"
#include "data/store_wire.hh"
#include "mtree/model_tree.hh"
#include "mtree/serialize.hh"
#include "pipeline/stages.hh"
#include "serve/wire.hh"
#include "util/rng.hh"

namespace
{

using namespace wct;
namespace fs = std::filesystem;

int written = 0;

void
emit(const fs::path &root, const std::string &harness,
     const std::string &name, const std::string &bytes)
{
    const fs::path dir = root / harness;
    fs::create_directories(dir);
    std::ofstream out(dir / name, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size()));
    if (!out) {
        std::cerr << "corpus_gen: cannot write " << (dir / name)
                  << "\n";
        std::exit(1);
    }
    ++written;
}

Dataset
sampleDataset(std::size_t rows, std::uint64_t seed)
{
    Dataset data({"IPC", "L1D_MISS", "CPI"});
    Rng rng(seed);
    for (std::size_t i = 0; i < rows; ++i)
        data.addRow({rng.uniform(0.0, 4.0), rng.uniform(0.0, 0.2),
                     rng.uniform(0.4, 3.0)});
    return data;
}

/** The envelope magic fuzz_envelope reads under. */
constexpr std::string_view kEnvelopeMagic("WCTFUZZ\0", 8);

std::string
envelopeBytes(std::string_view payload)
{
    std::ostringstream out;
    writeEnvelope(out, kEnvelopeMagic, 1, {payload});
    return out.str();
}

/** A three-benchmark suite small enough to collect in a blink. */
SuiteProfile
miniSuite()
{
    SuiteProfile suite;
    suite.name = "fuzz-suite";
    for (int i = 0; i < 3; ++i) {
        BenchmarkProfile bench;
        bench.name = "fuzz." + std::to_string(i);
        bench.instructionWeight = 0.5 + 0.5 * i;
        PhaseProfile phase;
        phase.loadFrac = 0.2 + 0.04 * i;
        phase.dataFootprint = 1u << (18 + i);
        bench.phases.push_back(phase);
        suite.benchmarks.push_back(bench);
    }
    return suite;
}

ModelTree
miniTree(std::uint64_t seed, std::size_t rows)
{
    Dataset data({"x0", "x1", "y"});
    Rng rng(seed);
    for (std::size_t i = 0; i < rows; ++i) {
        const double x0 = rng.uniform(0.0, 1.0);
        const double x1 = rng.uniform(0.0, 1.0);
        data.addRow({x0, x1, x0 <= 0.5 ? 1.0 + 2.0 * x1 : 6.0 - x1});
    }
    return ModelTree::train(data, "y");
}

std::string
treeText(const ModelTree &tree)
{
    std::ostringstream out;
    tree.save(out);
    return out.str();
}

void
envelopeSeeds(const fs::path &root)
{
    using namespace wct::pipeline;
    const std::string dataset =
        envelopeBytes(encodeShardSamples(sampleDataset(6, 7)));
    emit(root, "fuzz_envelope", "dataset-small", dataset);
    emit(root, "fuzz_envelope", "dataset-empty-rows",
         envelopeBytes(encodeShardSamples(Dataset({"IPC", "CPI"}))));
    emit(root, "fuzz_envelope", "dataset-truncated",
         dataset.substr(0, dataset.size() * 3 / 5));
    emit(root, "fuzz_envelope", "empty-payload", envelopeBytes(""));

    // One real payload of each stage kind, bare as the store hands
    // it to the decoder.
    CollectionConfig config;
    config.intervalInstructions = 2048;
    config.baseIntervals = 40;
    config.warmupInstructions = 20'000;
    const SuiteData data = collectSuite(miniSuite(), config);
    SuiteModelConfig model_config;
    model_config.trainFraction = 0.5;
    model_config.tree.minLeafInstances = 10;
    const SuiteModel model = buildSuiteModel(data, model_config);
    TransferabilityConfig transfer;
    transfer.bootstrapReplicates = 50;
    transfer.modelName = "fuzz-suite";
    transfer.targetName = "fuzz-suite.test";
    emit(root, "fuzz_envelope", "stage-collect-shard",
         encodeShardSamples(data.benchmarks[0].samples));
    emit(root, "fuzz_envelope", "stage-train", encodeSuiteModel(model));
    emit(root, "fuzz_envelope", "stage-profile",
         encodeProfileTable(ProfileTable(data, model.tree)));
    emit(root, "fuzz_envelope", "stage-transfer",
         encodeTransferReport(assessTransferability(
             model.tree, model.train, model.test, transfer)));
}

void
wireSeeds(const fs::path &root)
{
    using namespace wct::serve;
    const Dataset rows = sampleDataset(3, 21);

    Request predict;
    predict.op = Opcode::Predict;
    predict.id = 1;
    predict.modelKey = "default";
    predict.schema = rows.columnNames();
    for (std::size_t r = 0; r < rows.numRows(); ++r)
        for (double v : rows.row(r))
            predict.rows.push_back(v);
    Request classify = predict;
    classify.op = Opcode::Classify;
    classify.id = 2;
    Request load;
    load.op = Opcode::LoadModel;
    load.id = 3;
    load.path = "/models/tree.mtree";
    load.alias = "prod";
    Request stats;
    stats.op = Opcode::Stats;
    stats.id = 4;
    Request shutdown;
    shutdown.op = Opcode::Shutdown;
    shutdown.id = 5;

    const auto payloadOf = [](const std::string &frame) {
        std::istringstream in(frame);
        return readFrame(in).value();
    };
    const auto seedBoth = [&](const std::string &name,
                              const std::string &frame) {
        emit(root, "fuzz_wire_frame", name + "-frame", frame);
        emit(root, "fuzz_wire_frame", name + "-payload",
             payloadOf(frame));
    };
    seedBoth("req-predict", encodeRequest(predict));
    seedBoth("req-classify", encodeRequest(classify));
    seedBoth("req-load", encodeRequest(load));
    seedBoth("req-stats", encodeRequest(stats));
    seedBoth("req-shutdown", encodeRequest(shutdown));

    Response ok;
    ok.op = Opcode::Predict;
    ok.id = 1;
    ok.cpi = {1.25, 2.5, 0.75};
    ok.leaf = {1, 3, 2};
    seedBoth("resp-predict", encodeResponse(ok));
    Response error;
    error.op = Opcode::Classify;
    error.id = 2;
    error.status = Status::Overloaded;
    error.error = "queue full";
    seedBoth("resp-error", encodeResponse(error));

    // Session streams: whole client conversations, valid and broken.
    const std::string predictFrame = encodeRequest(predict);
    emit(root, "fuzz_serve_session", "stats-only",
         encodeRequest(stats));
    emit(root, "fuzz_serve_session", "predict-then-stats",
         predictFrame + encodeRequest(stats));
    emit(root, "fuzz_serve_session", "classify-then-garbage",
         encodeRequest(classify) +
             std::string("\x7fGARBAGE\x00\x01\x02", 11));
    emit(root, "fuzz_serve_session", "load-then-shutdown",
         encodeRequest(load) + encodeRequest(shutdown));
    emit(root, "fuzz_serve_session", "predict-truncated",
         predictFrame.substr(0, predictFrame.size() - 9));

    // Reassembly seeds for the interleaved multi-connection session:
    // half-frames butted against whole frames, so the round-robin
    // chunking deals mid-frame splits across connections.
    const std::string statsFrame = encodeRequest(stats);
    emit(root, "fuzz_serve_session", "half-predict-then-stats",
         predictFrame.substr(0, predictFrame.size() / 2) +
             statsFrame);
    emit(root, "fuzz_serve_session", "stats-then-half-classify",
         statsFrame + encodeRequest(classify).substr(
                          0, encodeRequest(classify).size() / 2));
    emit(root, "fuzz_serve_session", "two-half-frames",
         predictFrame.substr(0, predictFrame.size() / 2) +
             statsFrame.substr(0, statsFrame.size() / 2));
}

void
treeSeeds(const fs::path &root)
{
    emit(root, "fuzz_tree_text", "tree-trained",
         treeText(miniTree(1, 400)));
    emit(root, "fuzz_tree_text", "tree-single-leaf",
         treeText(miniTree(2, 12)));
    emit(root, "fuzz_tree_text", "tree-handwritten",
         "wct-model-tree v1\n"
         "target y\n"
         "schema 2 x y\n"
         "range 0 10 1 1\n"
         "node split 0 0.5 4 2\n"
         "node leaf 2 1 1 1 0 0.25\n"
         "node leaf 2 3 3 0\n"
         "end\n");
}

void
artifactSeeds(const fs::path &root)
{
    // The harness loads every input under ("fuzz", 0xf00dfeedd00d);
    // seed one artifact at that address (accepted) and one under a
    // different kind (the address-mismatch rejection path). Write
    // through the real store, then lift the file bytes.
    const ArtifactId match{"fuzz", 0xf00dfeedd00dull};
    const ArtifactId mismatch{"other", 0xf00dfeedd00dull};
    const fs::path scratch = root / ".corpus_gen_scratch";
    ArtifactStore store(scratch.string());
    const auto fileBytes = [&](const ArtifactId &id,
                               const std::string &payload) {
        if (!store.store(id, payload)) {
            std::cerr << "corpus_gen: artifact store failed\n";
            std::exit(1);
        }
        std::ifstream in(store.path(id), std::ios::binary);
        return std::string((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    };
    emit(root, "fuzz_artifact_store", "artifact-match",
         fileBytes(match, pipeline::encodeShardSamples(
                              sampleDataset(5, 33))));
    emit(root, "fuzz_artifact_store", "artifact-mismatched-kind",
         fileBytes(mismatch, "payload under the wrong kind"));
    emit(root, "fuzz_artifact_store", "artifact-tree-payload",
         fileBytes(match, treeText(miniTree(3, 60))));
    fs::remove_all(scratch);
}

void
storeSeeds(const fs::path &root)
{
    // WCTSTOR frames through the real encoders, plus whole hostile
    // session streams, mirroring the fuzz_serve_session layout.
    StoreRequest load;
    load.op = StoreOp::Load;
    load.id = 1;
    load.artifact = {"collect-shard", 0x1122334455667788ull};
    StoreRequest store;
    store.op = StoreOp::Store;
    store.id = 2;
    store.artifact = {"mtree", fnv1a64("stored tree text")};
    store.payload = "stored tree text";
    StoreRequest gc;
    gc.op = StoreOp::Gc;
    gc.id = 3;
    gc.graceSeconds = 300;
    gc.live = {{"collect-shard", 0x1122334455667788ull},
               {"train", 0xfeedull}};
    StoreRequest ping;
    ping.op = StoreOp::Ping;
    ping.id = 4;
    StoreRequest shutdown;
    shutdown.op = StoreOp::Shutdown;
    shutdown.id = 5;
    StoreRequest list;
    list.op = StoreOp::List;
    list.id = 6;

    const auto payloadOf = [](const std::string &frame) {
        std::istringstream in(frame);
        return readStoreFrame(in).value();
    };
    const auto seedBoth = [&](const std::string &name,
                              const std::string &frame) {
        emit(root, "fuzz_store_wire", name + "-frame", frame);
        emit(root, "fuzz_store_wire", name + "-payload",
             payloadOf(frame));
    };
    seedBoth("req-load", encodeStoreRequest(load));
    seedBoth("req-store", encodeStoreRequest(store));
    seedBoth("req-gc", encodeStoreRequest(gc));
    seedBoth("req-ping", encodeStoreRequest(ping));
    seedBoth("req-shutdown", encodeStoreRequest(shutdown));
    seedBoth("req-list", encodeStoreRequest(list));

    StoreResponse loaded;
    loaded.op = StoreOp::Load;
    loaded.id = 1;
    loaded.payload = "artifact bytes";
    seedBoth("resp-load", encodeStoreResponse(loaded));
    StoreResponse missing;
    missing.op = StoreOp::Load;
    missing.id = 2;
    missing.status = StoreStatus::NotFound;
    missing.error = "no such artifact";
    seedBoth("resp-not-found", encodeStoreResponse(missing));
    StoreResponse listing;
    listing.op = StoreOp::List;
    listing.id = 6;
    ArtifactInfo info;
    info.id = {"train", 0xfeedull};
    info.fileBytes = 512;
    listing.artifacts.push_back(info);
    seedBoth("resp-list", encodeStoreResponse(listing));

    // Session streams: whole client conversations, valid and broken.
    const std::string storeFrame = encodeStoreRequest(store);
    emit(root, "fuzz_store_wire", "session-store-then-load",
         storeFrame + encodeStoreRequest(load));
    emit(root, "fuzz_store_wire", "session-ping-gc",
         encodeStoreRequest(ping) + encodeStoreRequest(gc));
    emit(root, "fuzz_store_wire", "session-store-truncated",
         storeFrame.substr(0, storeFrame.size() - 7));
    emit(root, "fuzz_store_wire", "session-store-then-garbage",
         storeFrame + std::string("\x7fGARBAGE\x00\x01\x02", 11));

    // Reassembly seeds for the interleaved multi-connection session.
    const std::string pingFrame = encodeStoreRequest(ping);
    emit(root, "fuzz_store_wire", "session-half-store-then-ping",
         storeFrame.substr(0, storeFrame.size() / 2) + pingFrame);
    emit(root, "fuzz_store_wire", "session-two-half-frames",
         storeFrame.substr(0, storeFrame.size() / 2) +
             pingFrame.substr(0, pingFrame.size() / 2));
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc != 2) {
        std::cerr << "usage: wct_fuzz_corpus_gen <corpus-root>\n";
        return 2;
    }
    const fs::path root = argv[1];
    envelopeSeeds(root);
    wireSeeds(root);
    treeSeeds(root);
    artifactSeeds(root);
    storeSeeds(root);
    std::cout << "corpus_gen: wrote " << written
              << " seed inputs under " << root << "\n";
    return 0;
}
