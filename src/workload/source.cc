#include "workload/source.hh"

#include <algorithm>
#include <bit>

#include "util/logging.hh"

namespace wct
{

namespace
{

/**
 * value % bound, dividing only when value reaches the bound. The PC
 * cursors are shared by phases with different bounds, so a cursor can
 * arrive far above the bound; the `%` keeps that case exact.
 */
std::uint64_t
wrap(std::uint64_t value, std::uint64_t bound)
{
    return value < bound ? value : value % bound;
}

/**
 * value / divisor, as a shift when the divisor is a power of two
 * (tested without std::has_single_bit, whose popcount is a libgcc
 * call on baseline x86-64).
 */
std::uint64_t
divide(std::uint64_t value, std::uint64_t divisor)
{
    return divisor != 0 && (divisor & (divisor - 1)) == 0
        ? value >> std::countr_zero(divisor)
        : value / divisor;
}

} // namespace

WorkloadSource::WorkloadSource(const BenchmarkProfile &profile,
                               std::uint64_t seed)
    : profile_(profile), rng_(Rng(seed).fork(0x77c7))
{
    validateProfile(profile_);
    phaseWeights_.reserve(profile_.phases.size());
    for (const PhaseProfile &phase : profile_.phases)
        phaseWeights_.push_back(phase.weight);
    streamPos_.assign(profile_.phases.size(), 0);
    switchPhase();
}

void
WorkloadSource::switchPhase()
{
    phaseIndex_ = rng_.weightedChoice(phaseWeights_);
    // Geometric run length with the configured mean.
    const double p =
        1.0 / static_cast<double>(profile_.phaseRunLength);
    phaseRemaining_ = rng_.geometric(p);
}

std::uint64_t
WorkloadSource::dataAddress(const PhaseProfile &phase)
{
    const std::uint64_t align = phase.accessSize;
    std::uint64_t base;   // region the access belongs to
    std::uint64_t region; // region size in bytes
    std::uint64_t offset; // aligned offset within the region

    if (rng_.bernoulli(phase.streamFrac)) {
        // Sequential streaming through this phase's own arrays.
        std::uint64_t &pos = streamPos_[phaseIndex_];
        base = kDataBase + phaseIndex_ * (1ull << 30);
        region = phase.dataFootprint;
        offset = pos;
        pos = wrap(pos + align, phase.dataFootprint);
    } else if (rng_.bernoulli(phase.hotFrac)) {
        // Frequently revisited hot structures.
        base = kDataBase;
        region = phase.hotBytes;
        offset = rng_.uniformInt(divide(phase.hotBytes, align)) * align;
    } else {
        // Cold touch anywhere in the footprint.
        base = kDataBase;
        region = phase.dataFootprint;
        offset = rng_.uniformInt(divide(phase.dataFootprint, align)) * align;
    }

    // Alignment perturbations. A single-byte access can be neither
    // split nor misaligned, and `align / 2` must be kept away from
    // zero so the perturbations still move the address for narrow
    // accesses; both perturbed offsets are folded back so the access
    // never escapes [base, base + region).
    if (phase.splitFrac > 0.0 && rng_.bernoulli(phase.splitFrac)) {
        // Park the access so it crosses a 64-byte line: start it
        // `intrude` bytes before the next boundary (intrude < align,
        // so the tail lands in the following line).
        if (align >= 2 && region >= 128) {
            const std::uint64_t intrude =
                std::max<std::uint64_t>(align / 2, 1);
            offset = (offset & ~std::uint64_t(63)) + 64 - intrude;
            while (offset + align > region)
                offset -= 64; // previous line; still crosses
        }
    } else if (phase.misalignFrac > 0.0 &&
               rng_.bernoulli(phase.misalignFrac)) {
        if (align >= 2 && region >= 2 * align) {
            offset += std::max<std::uint64_t>(align / 2, 1);
            while (offset + align > region)
                offset -= align; // same misalignment, one slot back
        }
    }
    return base + offset;
}

std::uint64_t
WorkloadSource::nextPc(const PhaseProfile &phase)
{
    // Each phase occupies its own code region so phase switches shift
    // the active instruction working set.
    const std::uint64_t code_base =
        kCodeBase + phaseIndex_ * (16ull << 20);

    if (rng_.bernoulli(phase.hotCodeFrac)) {
        // Inside the resident inner loop.
        const std::uint64_t pc = code_base + hotPcCursor_;
        hotPcCursor_ = wrap(hotPcCursor_ + 4, phase.hotCodeBytes);
        return pc;
    }
    // Cold code: occasionally relocate, then walk sequentially.
    if (coldRunRemaining_ == 0) {
        coldPcCursor_ =
            rng_.uniformInt(phase.codeFootprint / 4) * 4;
        coldRunRemaining_ = 16 + rng_.uniformInt(48);
    }
    --coldRunRemaining_;
    const std::uint64_t pc = code_base + coldPcCursor_;
    coldPcCursor_ = wrap(coldPcCursor_ + 4, phase.codeFootprint);
    return pc;
}

Inst
WorkloadSource::next()
{
    if (phaseRemaining_ == 0)
        switchPhase();
    --phaseRemaining_;
    ++generated_;

    const PhaseProfile &phase = profile_.phases[phaseIndex_];
    Inst inst;
    inst.pc = nextPc(phase);

    // Class selection.
    const double u = rng_.uniform();
    double edge = phase.loadFrac;
    if (u < edge) {
        inst.cls = InstClass::Load;
    } else if (u < (edge += phase.storeFrac)) {
        inst.cls = InstClass::Store;
    } else if (u < (edge += phase.branchFrac)) {
        inst.cls = InstClass::Branch;
    } else if (u < (edge += phase.mulFrac)) {
        inst.cls = InstClass::Mul;
    } else if (u < (edge += phase.divFrac)) {
        inst.cls = InstClass::Div;
    } else if (u < (edge += phase.simdFrac)) {
        inst.cls = InstClass::Simd;
    } else {
        inst.cls = InstClass::Alu;
    }

    switch (inst.cls) {
      case InstClass::Load: {
        inst.size = phase.accessSize;
        if (lastStoreAddr_ != 0 &&
            rng_.bernoulli(phase.overlapFrac)) {
            // Re-read the latest store's slot through its previous-
            // page image: same page offset, different page. The
            // partial-address disambiguator cannot forward across the
            // alias, so the load blocks until the store retires (the
            // LOAD_BLOCK.OVERLAP_STORE condition). Aliasing downward
            // keeps the target line warm for recently streamed data,
            // isolating the block cost from cold-miss costs.
            inst.addr = lastStoreAddr_ >= 8192
                ? lastStoreAddr_ - 4096
                : lastStoreAddr_ + 4096;
        } else if (lastStoreAddr_ != 0 &&
                   rng_.bernoulli(phase.aliasFrac)) {
            // Same page offset, different page (4 KB alias).
            inst.addr = lastStoreAddr_ +
                4096 * (1 + rng_.uniformInt(7));
        } else {
            inst.addr = dataAddress(phase);
            // Pointer chases serialise behind earlier misses.
            if (rng_.bernoulli(phase.pointerChaseFrac))
                inst.flags |= kFlagDependent;
        }
        break;
      }
      case InstClass::Store: {
        inst.size = phase.accessSize;
        inst.addr = dataAddress(phase);
        if (rng_.bernoulli(phase.slowStoreAddrFrac))
            inst.flags |= kFlagSlowAddress;
        if (rng_.bernoulli(phase.slowStoreDataFrac))
            inst.flags |= kFlagSlowData;
        lastStoreAddr_ = inst.addr;
        break;
      }
      case InstClass::Branch: {
        // Branch instructions come from a pool of static branch sites
        // within the hot code; each site has a fixed direction so the
        // predictor can learn it, while a fraction of dynamic
        // branches (branchEntropy) are data-dependent and random.
        const std::uint64_t site = branchCounter_++ % kBranchSites;
        const std::uint64_t code_base =
            kCodeBase + phaseIndex_ * (16ull << 20);
        inst.pc = code_base + wrap(site * 28, phase.hotCodeBytes);

        bool taken;
        if (rng_.bernoulli(phase.branchEntropy)) {
            taken = rng_.bernoulli(phase.takenBias);
        } else {
            // Constant per-site direction, biased toward taken the
            // way loop back-edges are.
            taken = ((site * 2654435761ull) >> 7 & 0xFF) <
                static_cast<std::uint64_t>(224);
        }
        if (taken)
            inst.flags |= kFlagTaken;
        break;
      }
      case InstClass::Simd:
      case InstClass::Alu:
        if (phase.fpAssistFrac > 0.0 &&
            rng_.bernoulli(phase.fpAssistFrac)) {
            inst.flags |= kFlagFpAssist;
        }
        break;
      default:
        break;
    }
    return inst;
}

} // namespace wct
