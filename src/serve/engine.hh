/**
 * @file
 * The batched inference engine: one consumer thread that drains the
 * admission queue, coalesces whatever is waiting into one batch, and
 * fans the rows over the work-stealing pool.
 *
 * Two levels of parallelism compose here. The batcher thread owns
 * request-level work: popping coalesced batches, grouping jobs that
 * resolved to the same model, and completing promises. Row-level
 * work — the actual tree descents — goes through parallelFor on the
 * global pool, the same path predictAll uses for offline datasets,
 * so a single 10k-row request saturates the machine just like ten
 * 1k-row requests do. Rows are evaluated in blocks through the
 * model's flattened CompiledTree (branch-free descent, one pass for
 * CPI + leaf; mtree/compiled_tree.hh), which is bit-identical to the
 * interpreted ModelTree::predict/classify walk that stays the
 * reference.
 *
 * Results are deterministic by construction: every row's (CPI, leaf)
 * is a pure function of the row and the model snapshot resolved at
 * admission, written to a pre-sized slot of its own response. Batch
 * *composition* depends on timing; batch *outputs* never do.
 */

#ifndef WCT_SERVE_ENGINE_HH
#define WCT_SERVE_ENGINE_HH

#include <cstddef>
#include <thread>
#include <vector>

#include "serve/metrics.hh"
#include "serve/queue.hh"

namespace wct::serve
{

/** Owns the batcher thread; see file comment. */
class BatchEngine
{
  public:
    /** `maxBatch`: most jobs coalesced into one batch (at least 1). */
    BatchEngine(RequestQueue &queue, ServingMetrics &metrics,
                std::size_t maxBatch);

    BatchEngine(const BatchEngine &) = delete;
    BatchEngine &operator=(const BatchEngine &) = delete;

    /** Stops (drains) if still running. */
    ~BatchEngine();

    /** Spawn the batcher thread; call at most once. */
    void start();

    /**
     * Close the queue and join the batcher. Every job admitted
     * before the close is completed first (graceful drain).
     */
    void stop();

  private:
    void batcherLoop();
    void runBatch(std::vector<Job> &batch);

    RequestQueue &queue_;
    ServingMetrics &metrics_;
    std::size_t maxBatch_;
    std::thread batcher_;
};

} // namespace wct::serve

#endif // WCT_SERVE_ENGINE_HH
