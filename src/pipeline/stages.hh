/**
 * @file
 * The typed stages of the paper's dataflow, each one a content key
 * derivation plus an artifact codec over Pipeline::run():
 *
 *   collect    SuiteProfile + CollectionConfig  -> SuiteData
 *   train      SuiteSource + SuiteModelConfig   -> SuiteModel
 *   profile    SuiteSource + SuiteModel         -> ProfileTable
 *   transfer   SuiteModel + target dataset      -> TransferabilityReport
 *
 * Table III's similarity matrix is not a stage: it is Equation 4 over
 * the profile table a plan already holds (SimilarityMatrix), cheaper
 * to compute than to load and decode.
 *
 * Stage keys chain: a stage hashes the keys of the artifacts it
 * consumes rather than their bytes, so a plan's full artifact set is
 * computable without executing anything (`wct cache gc` uses this to
 * decide liveness) and a parameter change re-runs exactly the stages
 * downstream of it. Every key goes through KeyBuilder — the single
 * key-derivation implementation — and starts with the stage kind and
 * its payload format version, so a codec change can never resurrect
 * stale bytes.
 *
 * Train and profile take their samples through a SuiteSource that is
 * called only on a miss, so a warm plan collects (and loads) no
 * shards at all: it executes train, profile and transfer and nothing
 * else.
 *
 * The train stage additionally publishes the tree's *text* under
 * ("mtree", modelTreeContentKey(text)): the serving registry resolves
 * models from the store by that content hash (see serve/registry.hh),
 * which addresses the tree by what it computes rather than by the
 * inputs that produced it.
 */

#ifndef WCT_PIPELINE_STAGES_HH
#define WCT_PIPELINE_STAGES_HH

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/collect.hh"
#include "core/profile_table.hh"
#include "core/suite_model.hh"
#include "core/transferability.hh"
#include "pipeline/pipeline.hh"

namespace wct::pipeline
{

// ---- Payload format versions (bump on codec layout changes; each
// one is hashed into its stage key, so old artifacts simply miss). --
constexpr std::uint32_t kCollectShardPayloadVersion = 1;
constexpr std::uint32_t kTrainPayloadVersion = 1;
constexpr std::uint32_t kProfilePayloadVersion = 1;
constexpr std::uint32_t kTransferPayloadVersion = 1;

// ---- Canonical input encoders (exact bit patterns; shared by every
// key derivation — exposed for the key-coverage tests). ----
void appendSuiteProfile(KeyBuilder &key, const SuiteProfile &suite);
void appendBenchmarkProfile(KeyBuilder &key,
                            const BenchmarkProfile &bench);
void appendCollectionConfig(KeyBuilder &key,
                            const CollectionConfig &config);
void appendSuiteModelConfig(KeyBuilder &key,
                            const SuiteModelConfig &config);
void appendTransferabilityConfig(KeyBuilder &key,
                                 const TransferabilityConfig &config);

// ---- Stage keys. ----

/**
 * Logical key of a collected suite (covers every input the samples
 * depend on, including the SuiteData payload format version). No
 * artifact is stored under this key anymore — collection artifacts
 * are per-shard (below) — but it remains the chaining key every
 * downstream stage hashes, so shard granularity never perturbs
 * train/profile/transfer keys.
 */
std::uint64_t collectStageKey(const SuiteProfile &suite,
                              const CollectionConfig &config);

/**
 * Key of one (benchmark, shard) collection task. Deliberately
 * benchmark-scoped — the suite name and the other benchmarks are
 * excluded — so workers dedupe shards across suites and plans, and a
 * single-benchmark profile change invalidates only that benchmark's
 * shard artifacts.
 */
std::uint64_t collectShardKey(const BenchmarkProfile &bench,
                              const CollectionConfig &config,
                              std::size_t shard,
                              const ShardSpec &spec);

/**
 * Every ("collect-shard", key) artifact a suite collection reads or
 * writes, in deterministic task order: the ids of the very task list
 * collectStage runs. `wct cache gc` liveness (planArtifacts) lists
 * them without collecting anything — the shard plan is a pure
 * function of the config.
 */
std::vector<ArtifactId>
collectShardArtifacts(const SuiteProfile &suite,
                      const CollectionConfig &config);

/** Key of a trained suite model. The thread count is not part of
 * it: training is byte-identical at any pool size (pinned by the
 * builder-equivalence test). */
std::uint64_t trainStageKey(std::uint64_t collectKey,
                            const SuiteModelConfig &config);

/** Key of the leaf-profile table of a trained model's suite. */
std::uint64_t profileStageKey(std::uint64_t trainKey);

/**
 * Key of a transferability assessment: model (by train key) applied
 * to a target dataset named by the (train key, selector) pair of the
 * stage that produced it — e.g. (omp train key, "test").
 */
std::uint64_t transferStageKey(std::uint64_t modelTrainKey,
                               std::uint64_t targetTrainKey,
                               std::string_view targetSelector,
                               const TransferabilityConfig &config);

// ---- Artifact codecs (exposed for the store tests, the fuzz
// harness and the serving registry; decode rejects anything encode
// did not produce). ----

/** The bytes writeSuiteData writes for a suite. No stage stores them;
 * they pin a collection's exact samples (the determinism checks). */
std::string encodeSuiteData(const SuiteData &data);

std::string encodeShardSamples(const Dataset &samples);
std::optional<Dataset> decodeShardSamples(std::string_view payload);

std::string encodeSuiteModel(const SuiteModel &model);
/** `treeText`, when given, receives the tree text the payload holds
 * (see modelTreeArtifact). A train or test set whose columns are not
 * the tree's schema is refused. */
std::optional<SuiteModel> decodeSuiteModel(std::string_view payload,
                                           std::string *treeText = nullptr);

/**
 * The ("mtree", content key) id of a tree text. The train stage and
 * planArtifacts take it from the text the train artifact stores, not
 * from the decoded tree printed again: a saved text is a load→save
 * fixed point (fuzz_tree_text), so the two keys are equal.
 */
ArtifactId modelTreeArtifact(std::string_view treeText);

std::string encodeProfileTable(const ProfileTable &table);
/** Refuses a table without leaf models, with fewer than two
 * benchmarks (SimilarityMatrix needs two) or with a row that does not
 * hold one share per leaf model. */
std::optional<ProfileTable>
decodeProfileTable(std::string_view payload);

std::string encodeTransferReport(const TransferabilityReport &report);
std::optional<TransferabilityReport>
decodeTransferReport(std::string_view payload);

// ---- The stages themselves. Each appends a StageRun for what it
// executes (collect: one per shard); a warm run therefore records
// exactly the stages it reads, all hits. ----

/**
 * Samples of one suite, asked for only by a stage that misses. A
 * source may collect on its first call (collectOnDemand) and must
 * return the same data on every call.
 */
using SuiteSource = std::function<const SuiteData &()>;

/**
 * Collect a suite at shard granularity: every (benchmark, shard)
 * task is its own ("collect-shard", collectShardKey) artifact. Hits
 * load and decode in a serial deterministic pass; a shard whose
 * columns are not metricColumnNames() or whose row count is not its
 * ShardSpec::intervals is a miss, like a checksum failure. Misses
 * compute and publish over the work-stealing pool into pre-assigned
 * slots; the stitch is a fixed-order concatenation of the shard
 * datasets — so the suite is byte-identical for any WCT_THREADS and
 * any warm/cold mix, and a fleet of workers sharing one store dedupes
 * at shard granularity. Records one StageRun per shard.
 */
SuiteData collectStage(Pipeline &pipe, const SuiteProfile &suite,
                       const CollectionConfig &config);

/**
 * Collect a suite without a store: collectStage over a disabled
 * store, so every shard computes. The result is a pure function of
 * (suite, config), byte-identical for any WCT_THREADS; stream seeds
 * derive from benchmark names, so a suite filtered down to one
 * benchmark yields exactly that benchmark's rows of the full suite.
 */
SuiteData collectSuite(const SuiteProfile &suite,
                       const CollectionConfig &config);

/**
 * A SuiteSource that runs collectStage on its first call and keeps
 * the result. `pipe`, `suite` and `config` must outlive the source.
 */
SuiteSource collectOnDemand(Pipeline &pipe, const SuiteProfile &suite,
                            const CollectionConfig &config);

/**
 * Train the suite model, cached under ("train", trainStageKey), and
 * ensure the tree text exists under ("mtree", its content key).
 * `data` is called only on a miss.
 */
SuiteModel trainStage(Pipeline &pipe, const std::string &suiteName,
                      const SuiteSource &data, std::uint64_t collectKey,
                      const SuiteModelConfig &config);

/** Classify the suite into leaf profiles, cached under ("profile").
 * `data` is called only on a miss. A stored table whose rows are not
 * `suite`'s benchmarks in suite order, or whose model count is not
 * `tree`'s leaf count, is refused and recomputed. */
ProfileTable profileStage(Pipeline &pipe, const SuiteProfile &suite,
                          const SuiteSource &data,
                          const ModelTree &tree,
                          std::uint64_t trainKey);

/** Transferability assessment, cached under ("transfer"). */
TransferabilityReport
transferStage(Pipeline &pipe, const SuiteModel &model,
              std::uint64_t modelTrainKey, const Dataset &target,
              std::uint64_t targetTrainKey,
              std::string_view targetSelector,
              const TransferabilityConfig &config = {});

} // namespace wct::pipeline

#endif // WCT_PIPELINE_STAGES_HH
