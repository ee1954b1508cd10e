#include "uarch/core.hh"

#include <algorithm>

#include "util/logging.hh"

namespace wct
{

namespace
{

/**
 * addr is not a multiple of size (> 0); a mask when size is 2^k. The
 * power-of-two test is spelled out: std::has_single_bit is a
 * popcount, a libgcc call on baseline x86-64.
 */
bool
misaligned(std::uint64_t addr, std::uint8_t size)
{
    return size != 0 && (size & (size - 1u)) == 0
        ? (addr & (size - 1u)) != 0
        : addr % size != 0;
}

} // namespace

CoreModel::CoreModel(const CoreConfig &config)
    : config_(config), issueCycles_(1.0 / config.issueWidth),
      l1d_(config.l1d), l1i_(config.l1i), l2_(config.l2),
      dtlb_(config.dtlb), itlb_(config.itlb), branch_(config.branch),
      stores_(config.storeBuffer)
{
    wct_assert(config.issueWidth > 0.0, "issue width must be positive");
    prefetchSlots_.resize(config.prefetchStreams);
    clearCounts(counts_);
}

void
CoreModel::serviceLongMiss(double penalty, bool dependent)
{
    if (dependent) {
        // Serialise behind the youngest outstanding miss, then pay the
        // full latency (pointer-chase behaviour).
        const double start = std::max(cycles_, missComplete_);
        cycles_ = start + penalty;
        missComplete_ = cycles_;
        return;
    }
    if (cycles_ < missComplete_) {
        // Overlaps an outstanding miss: bandwidth-shared service.
        missComplete_ += penalty / config_.mlpFactor;
    } else {
        missComplete_ = cycles_ + penalty;
    }
    // The reorder window bounds how far execution runs ahead of the
    // oldest outstanding miss.
    cycles_ = std::max(cycles_, missComplete_ - config_.robWindowCycles);
}

void
CoreModel::notePrefetcher(std::uint64_t addr)
{
    if (!config_.prefetchEnabled || prefetchSlots_.empty())
        return;
    const std::uint64_t line = l2_.lineOf(addr);
    ++prefetchTick_;

    // Match the miss against a tracked stream (the line after, or a
    // re-touch of, a slot's last line).
    StreamSlot *slot = nullptr;
    StreamSlot *lru = &prefetchSlots_.front();
    for (StreamSlot &candidate : prefetchSlots_) {
        if (line == candidate.lastLine + 1 ||
            line == candidate.lastLine) {
            slot = &candidate;
            break;
        }
        if (candidate.lastUse < lru->lastUse)
            lru = &candidate;
    }
    if (slot == nullptr) {
        // New potential stream displaces the least recently used.
        lru->lastLine = line;
        lru->lastUse = prefetchTick_;
        lru->streak = 0;
        return;
    }
    if (line == slot->lastLine + 1 &&
        slot->streak < config_.prefetchStreak) {
        ++slot->streak;
    }
    slot->lastLine = line;
    slot->lastUse = prefetchTick_;
    if (slot->streak >= config_.prefetchStreak) {
        // Fetch ahead into the L2; each prefetch occupies a slice of
        // memory bandwidth on the outstanding-miss horizon.
        for (std::uint32_t k = 1; k <= config_.prefetchDepth; ++k) {
            const std::uint64_t target =
                (line + k) * config_.l2.lineBytes;
            if (!l2_.access(target)) {
                missComplete_ = std::max(missComplete_, cycles_) +
                    config_.l2MissCycles /
                        config_.prefetchBandwidthDivisor;
            }
        }
    }
}

void
CoreModel::executeLoad(const Inst &inst)
{
    bump(counts_, Event::Load);

    // Interaction with older buffered stores.
    switch (stores_.checkLoad(inst, now_)) {
      case LoadBlock::Sta:
        bump(counts_, Event::LdBlkSta);
        cycles_ += config_.ldBlkStaCycles;
        break;
      case LoadBlock::Std:
        bump(counts_, Event::LdBlkStd);
        cycles_ += config_.ldBlkStdCycles;
        break;
      case LoadBlock::Overlap:
        bump(counts_, Event::LdBlkOlp);
        cycles_ += config_.ldBlkOlpCycles;
        break;
      case LoadBlock::Forwarded:
        // Forwarded loads do not touch the memory hierarchy.
        return;
      case LoadBlock::None:
        break;
    }

    // Alignment handling.
    if (l1d_.splitsLine(inst.addr, inst.size)) {
        bump(counts_, Event::SplitLoad);
        bump(counts_, Event::Misalign);
        cycles_ += config_.splitCycles;
    } else if (inst.size != 0 && misaligned(inst.addr, inst.size)) {
        bump(counts_, Event::Misalign);
        cycles_ += config_.misalignCycles;
    }

    // Translation.
    const TlbResult tlb = dtlb_.access(inst.addr);
    if (tlb.miss) {
        bump(counts_, Event::DtlbMiss);
        bump(counts_, Event::PageWalk);
        cycles_ += tlb.walkLatency;
    }

    // Data hierarchy.
    if (!l1d_.access(inst.addr)) {
        bump(counts_, Event::L1DMiss);
        const bool l2_hit = l2_.access(inst.addr);
        notePrefetcher(inst.addr);
        if (!l2_hit) {
            bump(counts_, Event::L2Miss);
            serviceLongMiss(config_.l2MissCycles, inst.dependent());
        } else {
            cycles_ += inst.dependent()
                ? config_.l1dMissCycles
                : config_.l1dMissCycles * config_.l1dMissExposed;
        }
    }
}

void
CoreModel::executeStore(const Inst &inst)
{
    bump(counts_, Event::Store);
    stores_.recordStore(inst, now_);

    if (l1d_.splitsLine(inst.addr, inst.size)) {
        bump(counts_, Event::SplitStore);
        bump(counts_, Event::Misalign);
        cycles_ += config_.splitCycles;
    } else if (inst.size != 0 && misaligned(inst.addr, inst.size)) {
        bump(counts_, Event::Misalign);
        cycles_ += config_.misalignCycles;
    }

    const TlbResult tlb = dtlb_.access(inst.addr);
    if (tlb.miss) {
        bump(counts_, Event::DtlbMiss);
        bump(counts_, Event::PageWalk);
        cycles_ += tlb.walkLatency;
    }

    // Stores retire through the write buffer; misses cost little
    // directly (write-allocate fill happens off the critical path),
    // but they do install lines and consume L2/memory state.
    if (!l1d_.access(inst.addr)) {
        bump(counts_, Event::L1DMiss);
        const bool l2_hit = l2_.access(inst.addr);
        notePrefetcher(inst.addr);
        if (!l2_hit) {
            bump(counts_, Event::L2Miss);
            // A store miss occupies memory bandwidth.
            serviceLongMiss(config_.l2MissCycles * 0.25, false);
        } else {
            cycles_ += config_.l1dMissCycles * 0.15;
        }
    }
}

void
CoreModel::step(const Inst &inst)
{
    ++retired_;
    ++now_;
    bump(counts_, Event::Instructions);

    // Base issue slot.
    cycles_ += issueCycles_;

    // Front end: one L1I probe per instruction, with instruction-
    // side translation (ITLB walks count as page walks but not as
    // DTLB misses).
    const TlbResult itlb = itlb_.access(inst.pc);
    if (itlb.miss) {
        bump(counts_, Event::PageWalk);
        cycles_ += itlb.walkLatency;
    }
    if (!l1i_.access(inst.pc)) {
        bump(counts_, Event::L1IMiss);
        if (!l2_.access(inst.pc))
            cycles_ += config_.l2iMissCycles;
        else
            cycles_ += config_.l1iMissCycles;
    }

    if (inst.fpAssist()) {
        bump(counts_, Event::FpAssist);
        cycles_ += config_.fpAssistCycles;
    }

    switch (inst.cls) {
      case InstClass::Alu:
        break;
      case InstClass::Load:
        executeLoad(inst);
        break;
      case InstClass::Store:
        executeStore(inst);
        break;
      case InstClass::Branch:
        bump(counts_, Event::Br);
        if (!branch_.predict(inst.pc, inst.taken())) {
            bump(counts_, Event::BrMispred);
            cycles_ += config_.mispredictCycles;
        }
        break;
      case InstClass::Mul:
        bump(counts_, Event::Mul);
        cycles_ += config_.mulExtraCycles;
        break;
      case InstClass::Div:
        bump(counts_, Event::Div);
        cycles_ += config_.divExtraCycles;
        break;
      case InstClass::Simd:
        bump(counts_, Event::Simd);
        cycles_ += config_.simdExtraCycles;
        break;
    }
}

void
CoreModel::syncCycleCounts()
{
    const auto cyc = static_cast<std::uint64_t>(cycles_);
    counts_[static_cast<std::size_t>(Event::Cycles)] = cyc;
    counts_[static_cast<std::size_t>(Event::CyclesRef)] = cyc;
}

void
CoreModel::execute(const Inst &inst)
{
    step(inst);
    syncCycleCounts();
}

void
CoreModel::run(InstSource &source, std::uint64_t n)
{
    for (std::uint64_t i = 0; i < n; ++i)
        step(source.next());
    syncCycleCounts();
}

void
CoreModel::resetCounts()
{
    clearCounts(counts_);
    // Re-base time so the next window starts at zero cycles while the
    // outstanding-miss horizon keeps its relative position.
    missComplete_ = std::max(0.0, missComplete_ - cycles_);
    cycles_ = 0.0;
    retired_ = 0;
}

void
CoreModel::resetAll()
{
    resetCounts();
    l1d_.reset();
    l1i_.reset();
    l2_.reset();
    dtlb_.reset();
    itlb_.reset();
    branch_.reset();
    stores_.reset();
    now_ = 0;
    missComplete_ = 0.0;
    for (StreamSlot &slot : prefetchSlots_)
        slot = StreamSlot{};
    prefetchTick_ = 0;
}

double
CoreModel::cpi() const
{
    return retired_ == 0
        ? 0.0 : cycles_ / static_cast<double>(retired_);
}

} // namespace wct
