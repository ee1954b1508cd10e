#include "serve/engine.hh"

#include <algorithm>
#include <chrono>

#include "mtree/compiled_tree.hh"
#include "util/thread_pool.hh"

namespace wct::serve
{

BatchEngine::BatchEngine(RequestQueue &queue, ServingMetrics &metrics,
                         std::size_t maxBatch)
    : queue_(queue), metrics_(metrics),
      maxBatch_(std::max<std::size_t>(1, maxBatch))
{
}

BatchEngine::~BatchEngine()
{
    stop();
}

void
BatchEngine::start()
{
    batcher_ = std::thread([this] { batcherLoop(); });
}

void
BatchEngine::stop()
{
    queue_.close();
    if (batcher_.joinable())
        batcher_.join();
}

void
BatchEngine::batcherLoop()
{
    std::vector<Job> batch;
    while (true) {
        batch.clear();
        if (!queue_.popBatch(batch, maxBatch_))
            return; // closed and drained
        runBatch(batch);
    }
}

void
BatchEngine::runBatch(std::vector<Job> &batch)
{
    // Deadline check at dequeue: a job whose budget expired while it
    // sat in the queue is answered immediately and never evaluated —
    // under overload the engine spends its time on requests whose
    // clients are still waiting. Expired jobs are excluded from the
    // batch accounting and (below) from the latency histograms, so
    // requestLatencyUs.total() keeps counting exactly the Ok
    // inference responses. tree == nullptr marks a job as expired
    // for the rest of this function (live jobs always carry the
    // model snapshot resolved at admission).
    const auto dequeued = std::chrono::steady_clock::now();
    std::size_t total_rows = 0;
    std::size_t live_jobs = 0;
    for (Job &job : batch) {
        if (job.deadline && *job.deadline <= dequeued) {
            Response &response = job.response;
            response.op = job.request.op;
            response.id = job.request.id;
            response.status = Status::DeadlineExceeded;
            response.error = "deadline expired in queue";
            metrics_.countDeadlineExpired(
                static_cast<std::uint8_t>(job.request.op));
            job.tree.reset();
            job.result.set_value(std::move(response));
            continue;
        }
        total_rows += job.request.numRows();
        ++live_jobs;
    }
    if (live_jobs == 0)
        return;
    metrics_.countBatch(live_jobs, total_rows);

    // Group jobs that resolved to the same model snapshot so one
    // parallelFor covers all their rows (stable order: first
    // appearance; the grouping never reorders rows inside a job).
    std::vector<std::vector<Job *>> groups;
    for (Job &job : batch) {
        if (!job.tree)
            continue; // expired at dequeue, already answered
        bool placed = false;
        for (auto &group : groups) {
            if (group.front()->tree == job.tree) {
                group.push_back(&job);
                placed = true;
                break;
            }
        }
        if (!placed)
            groups.push_back({&job});
    }

    for (auto &group : groups) {
        // Pre-size every response and build flat row offsets.
        std::vector<std::size_t> offsets = {0};
        for (Job *job : group) {
            const std::size_t rows = job->request.numRows();
            Response &response = job->response;
            response.op = job->request.op;
            response.id = job->request.id;
            response.status = Status::Ok;
            if (job->request.op == Opcode::Predict)
                response.cpi.resize(rows);
            response.leaf.resize(rows);
            offsets.push_back(offsets.back() + rows);
        }
        const std::size_t group_rows = offsets.back();

        // Blocks of the flat row space go through the flattened
        // CompiledTree: one branch-free descent per row fills leaf
        // and CPI together. A block may span several jobs; it is
        // split at job boundaries so each sub-range streams one
        // request's contiguous row-major buffer into that job's
        // pre-sized response slots (byte-deterministic at any
        // WCT_THREADS).
        const CompiledTree &compiled = group.front()->tree->compiled();
        const std::size_t block = CompiledTree::kBlockRows;
        const std::size_t blocks = (group_rows + block - 1) / block;
        parallelFor(
            blocks,
            [&](std::size_t b) {
                std::size_t lo = b * block;
                const std::size_t hi = std::min(group_rows, lo + block);
                std::size_t j = static_cast<std::size_t>(
                    std::upper_bound(offsets.begin(), offsets.end(),
                                     lo) -
                    offsets.begin() - 1);
                std::uint32_t leaves[CompiledTree::kBlockRows];
                while (lo < hi) {
                    const std::size_t take =
                        std::min(hi, offsets[j + 1]) - lo;
                    if (take == 0) { // zero-row job in range
                        ++j;
                        continue;
                    }
                    Job &job = *group[j];
                    const std::size_t r = lo - offsets[j];
                    const std::size_t cols = job.request.schema.size();
                    double *cpi = job.request.op == Opcode::Predict
                        ? job.response.cpi.data() + r
                        : nullptr;
                    compiled.evaluateBlock(
                        job.request.rows.data() + r * cols, cols, take,
                        cpi, leaves);
                    for (std::size_t i = 0; i < take; ++i)
                        job.response.leaf[r + i] =
                            leaves[i] + 1; // wire: LM numbers
                    lo += take;
                    ++j;
                }
            },
            ThreadPool::global(), /*min_chunk=*/1);
    }

    // Complete promises only after the whole group finished; record
    // admission-to-completion latency per request, feeding both the
    // aggregate histogram and the per-class SLO window.
    const auto now = std::chrono::steady_clock::now();
    for (Job &job : batch) {
        if (!job.tree)
            continue; // expired at dequeue, already answered
        const double us =
            std::chrono::duration<double, std::micro>(now -
                                                      job.admitted)
                .count();
        metrics_.recordRequestLatencyUs(us);
        metrics_.recordClassLatencyUs(
            static_cast<std::uint8_t>(job.request.op), us);
        job.result.set_value(std::move(job.response));
    }
}

} // namespace wct::serve
