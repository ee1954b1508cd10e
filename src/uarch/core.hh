/**
 * @file
 * Core2-like behavioural timing model.
 *
 * The core walks an abstract instruction stream, drives the cache,
 * TLB, branch-predictor, and store-buffer models, charges latency for
 * every microarchitectural event, and counts the PMU events of
 * Table I. CPI therefore *emerges* from structural interactions (miss
 * chains, walk costs, blocked loads) rather than from any planted
 * formula — the regression pipeline has a real function to discover.
 *
 * Miss-level parallelism is modelled through the dataflow flags on
 * instructions: dependent loads serialise behind the youngest
 * outstanding long miss, while independent misses overlap under a
 * reorder-window and bandwidth constraint. This is what produces the
 * strongly phase-dependent cost-per-event the paper observes (e.g.,
 * an L2 miss costing 63 cycles in one leaf model and 1172 in another).
 */

#ifndef WCT_UARCH_CORE_HH
#define WCT_UARCH_CORE_HH

#include <cstdint>
#include <vector>

#include "pmu/events.hh"
#include "uarch/branch.hh"
#include "uarch/cache.hh"
#include "uarch/store_buffer.hh"
#include "uarch/tlb.hh"
#include "uarch/types.hh"

namespace wct
{

/** Full machine configuration with Core2-Duo-like defaults. */
struct CoreConfig
{
    CacheConfig l1d{32 * 1024, 64, 8};
    CacheConfig l1i{32 * 1024, 64, 8};
    CacheConfig l2{4 * 1024 * 1024, 64, 16};
    TlbConfig dtlb{};

    /** Instruction TLB (page walks count, misses are not DtlbMiss). */
    TlbConfig itlb{4096, 128, 4, 42.0, 20.0, 8};
    BranchPredictorConfig branch{};
    StoreBufferConfig storeBuffer{};

    /** Sustained issue width (instructions per cycle). */
    double issueWidth = 4.0;

    /** Extra cycles charged per multiply (mostly pipelined). */
    double mulExtraCycles = 0.25;

    /** Extra cycles per divide (unpipelined long op). */
    double divExtraCycles = 18.0;

    /** Extra cycles per SIMD op (decode/port pressure). */
    double simdExtraCycles = 0.05;

    /** L1D miss serviced by the L2 (load-to-use penalty). */
    double l1dMissCycles = 12.0;

    /** Fraction of an L1D-miss penalty exposed for independent loads. */
    double l1dMissExposed = 0.35;

    /** L2 miss serviced by memory. */
    double l2MissCycles = 180.0;

    /** L1I miss serviced by the L2 (front-end stall). */
    double l1iMissCycles = 10.0;

    /** Instruction fetch missing the L2 as well. */
    double l2iMissCycles = 150.0;

    /** Pipeline restart after a branch mispredict. */
    double mispredictCycles = 14.0;

    /** Load blocked until an unknown store address resolves. */
    double ldBlkStaCycles = 6.0;

    /** Load blocked until forwarding store data is ready. */
    double ldBlkStdCycles = 9.0;

    /** Load blocked until an overlapping/aliased store retires. */
    double ldBlkOlpCycles = 12.0;

    /** Extra cycles for a line-splitting load or store. */
    double splitCycles = 9.0;

    /** Extra cycles for a misaligned (non-splitting) access. */
    double misalignCycles = 1.5;

    /** Microcode assist for denormal/exceptional FP operands. */
    double fpAssistCycles = 160.0;

    /**
     * Reorder-window depth in cycles: how far execution can run ahead
     * of the oldest outstanding memory miss.
     */
    double robWindowCycles = 32.0;

    /**
     * Effective bandwidth share for overlapping independent misses: an
     * extra miss under an outstanding one occupies l2MissCycles / mlp
     * of the memory system.
     */
    double mlpFactor = 8.0;

    // ---- L2 stream prefetcher (Core 2's DPL). ----
    /** Enable the L2 streaming prefetcher. */
    bool prefetchEnabled = true;

    /** Consecutive-line misses required to confirm a stream. */
    std::uint32_t prefetchStreak = 2;

    /** Concurrently tracked streams (DPL tracked multiple). */
    std::uint32_t prefetchStreams = 8;

    /** Lines fetched ahead of a confirmed stream. */
    std::uint32_t prefetchDepth = 4;

    /**
     * Bandwidth cost of one prefetched line, as a divisor of
     * l2MissCycles added to the outstanding-miss horizon.
     */
    double prefetchBandwidthDivisor = 16.0;
};

/** Behavioural core: executes instructions, counts events and cycles. */
class CoreModel
{
  public:
    explicit CoreModel(const CoreConfig &config);

    /** Execute one instruction, charging cycles and counting events. */
    void execute(const Inst &inst);

    /** Pull and execute n instructions from a source. */
    void run(InstSource &source, std::uint64_t n);

    /**
     * Zero the event counts and the cycle accumulator while keeping
     * cache/TLB/predictor state warm — the per-interval sampling mode
     * of the PMU collector.
     */
    void resetCounts();

    /** Cold reset: counts and all microarchitectural state. */
    void resetAll();

    const EventCounts &counts() const { return counts_; }
    double cycles() const { return cycles_; }
    std::uint64_t instructionsRetired() const { return retired_; }

    /** Cycles per instruction over the counted window. */
    double cpi() const;

    const CoreConfig &config() const { return config_; }

    // Structural components exposed for inspection and tests.
    const CacheModel &l1d() const { return l1d_; }
    const CacheModel &l1i() const { return l1i_; }
    const CacheModel &l2() const { return l2_; }
    const TlbModel &dtlb() const { return dtlb_; }
    const TlbModel &itlb() const { return itlb_; }

  private:
    /** execute() without the cycle-counter update. */
    void step(const Inst &inst);

    /**
     * Copy the cycle accumulator into the Cycles/CyclesRef counts.
     * Done once per execute() or run(), the points where counts()
     * can next be read, instead of once per instruction.
     */
    void syncCycleCounts();

    /** Charge a long memory miss honouring dependence and overlap. */
    void serviceLongMiss(double penalty, bool dependent);

    void executeLoad(const Inst &inst);
    void executeStore(const Inst &inst);

    CoreConfig config_;

    /** Cycles of one issue slot: 1 / issueWidth, divided once. */
    double issueCycles_;

    CacheModel l1d_;
    CacheModel l1i_;
    CacheModel l2_;
    TlbModel dtlb_;
    TlbModel itlb_;
    BranchPredictor branch_;
    StoreBuffer stores_;

    EventCounts counts_{};
    double cycles_ = 0.0;
    std::uint64_t retired_ = 0;

    /** Global instruction index (store-buffer age base). */
    std::uint64_t now_ = 0;

    /** Completion time of the youngest outstanding long miss. */
    double missComplete_ = 0.0;

    /** One tracked stream in the prefetcher. */
    struct StreamSlot
    {
        std::uint64_t lastLine = ~std::uint64_t(0);
        std::uint64_t lastUse = 0;
        std::uint32_t streak = 0;
    };

    /** Stream prefetcher slots (LRU-allocated). */
    std::vector<StreamSlot> prefetchSlots_;
    std::uint64_t prefetchTick_ = 0;

    /** Feed one L1D miss to the stream detector. */
    void notePrefetcher(std::uint64_t addr);
};

} // namespace wct

#endif // WCT_UARCH_CORE_HH
