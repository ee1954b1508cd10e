/**
 * @file
 * The staged-execution layer: one Pipeline drives the paper's fixed
 * dataflow — collect PMU intervals, train the suite M5' tree,
 * classify samples into leaf profiles, assess transferability — as
 * content-addressed stages over an ArtifactStore.
 *
 * Every stage declares its inputs as a content key (derived with the
 * store's KeyBuilder from canonical encodings of everything the
 * output depends on, including upstream stage keys) and its output as
 * a binary artifact payload. Pipeline::run() then gives each stage
 * the same lifecycle: look the key up in the store, decode on a hit,
 * compute + encode + store on a miss, and warn-and-recompute when the
 * artifact on disk is corrupt or mismatched. Each execution is
 * recorded as a StageRun (key, hit/miss, own wall time, artifact
 * size), which `wct run` renders as the per-stage cache report.
 *
 * Because stage keys chain (a train key hashes the collect key it
 * consumes), changing any parameter re-runs exactly the stages
 * downstream of the change — regenerating Table III after a tweak
 * re-collects nothing that is still valid.
 */

#ifndef WCT_PIPELINE_PIPELINE_HH
#define WCT_PIPELINE_PIPELINE_HH

#include <chrono>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "data/artifact_store.hh"
#include "util/logging.hh"

namespace wct::pipeline
{

/** Record of one executed stage. */
struct StageRun
{
    std::string label;  ///< human name, e.g. "collect:cpu2006"
    ArtifactId id;      ///< where the output lives in the store
    bool cached = false; ///< artifact hit (no recompute)
    /** Own wall time incl. decode or compute+store; stages executed
     * inside this one's compute are excluded (see StageClock). */
    double ms = 0.0;
    std::size_t payloadBytes = 0;
};

/** One staged execution over a store; see the file comment. */
class Pipeline
{
  public:
    /** A disabled (default) store runs every stage uncached. */
    explicit Pipeline(ArtifactStore store = {})
        : store_(std::move(store))
    {
    }

    const ArtifactStore &store() const { return store_; }

    /** Stages executed so far, in order. */
    const std::vector<StageRun> &runs() const { return runs_; }

    /** True when every executed stage was served from the store. */
    bool allCached() const;

    /** Number of cache hits among the executed stages. */
    std::size_t cachedCount() const;

    /** Render the per-stage cache/hit/timing report. */
    std::string renderReport() const;

    /**
     * Append an externally-executed stage record. The shard-granular
     * collect stage drives its own load/compute/store loop (hits
     * decode serially, misses fan out over the pool) and records one
     * StageRun per shard in deterministic task order through here.
     */
    void record(StageRun run) { runs_.push_back(std::move(run)); }

    /**
     * Times one stage execution. A stage can run others inside its
     * compute (a train miss collects its suite on demand); those keep
     * their own records, and their wall time is excluded from the
     * enclosing stage's ownMs(). Stages run on the calling thread
     * only, so the clocks nest like the calls.
     */
    class StageClock
    {
      public:
        explicit StageClock(Pipeline &pipe)
            : pipe_(pipe), start_(std::chrono::steady_clock::now()),
              outerNestedMs_(std::exchange(pipe.nestedMs_, 0.0))
        {
        }

        StageClock(const StageClock &) = delete;
        StageClock &operator=(const StageClock &) = delete;

        /** Hands this stage's whole wall time to the enclosing one. */
        ~StageClock() { pipe_.nestedMs_ = outerNestedMs_ + wallMs(); }

        /** Wall time so far minus the stages nested inside it. */
        double ownMs() const { return wallMs() - pipe_.nestedMs_; }

      private:
        double
        wallMs() const
        {
            return std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - start_)
                .count();
        }

        Pipeline &pipe_;
        std::chrono::steady_clock::time_point start_;
        double outerNestedMs_;
    };

    /**
     * Execute one stage. `encode` serializes a computed value into an
     * artifact payload; `decode` must reject any byte sequence it did
     * not produce (returning nullopt falls back to recompute, with a
     * warning). The value is returned either way; the StageRun is
     * appended to runs().
     */
    template <typename T>
    T
    run(const std::string &label, const ArtifactId &id,
        const std::function<std::string(const T &)> &encode,
        const std::function<std::optional<T>(std::string_view)>
            &decode,
        const std::function<T()> &compute)
    {
        StageRun record;
        record.label = label;
        record.id = id;
        const StageClock clock(*this);

        std::optional<T> value;
        if (auto payload = store_.load(id)) {
            value = decode(*payload);
            if (value) {
                record.cached = true;
                record.payloadBytes = payload->size();
            } else {
                wct_warn("artifact '", id.fileName(),
                         "' failed to decode; recomputing stage ",
                         label);
            }
        }
        if (!value) {
            value = compute();
            const std::string payload = encode(*value);
            record.payloadBytes = payload.size();
            store_.store(id, payload);
        }

        record.ms = clock.ownMs();
        runs_.push_back(record);
        return std::move(*value);
    }

  private:
    ArtifactStore store_;
    std::vector<StageRun> runs_;
    double nestedMs_ = 0.0; ///< wall ms of stages nested in the open one
};

} // namespace wct::pipeline

#endif // WCT_PIPELINE_PIPELINE_HH
