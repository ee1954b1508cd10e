/**
 * @file
 * The performance-event taxonomy of Table I.
 *
 * The paper predicts CPI from per-instruction densities of the other
 * PMU events collected on a Core 2 processor. Three events have
 * dedicated hardware counters (core cycles, retired instructions,
 * reference cycles); the rest share two programmable counters through
 * round-robin multiplexing.
 */

#ifndef WCT_PMU_EVENTS_HH
#define WCT_PMU_EVENTS_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace wct
{

/** Every event the simulated PMU can count. */
enum class Event : std::uint8_t
{
    // Events with dedicated counters.
    Cycles,       ///< CPU_CLK_UNHALTED.CORE
    Instructions, ///< INST_RETIRED.ANY
    CyclesRef,    ///< CPU_CLK_UNHALTED.REF

    // Events multiplexed over the two programmable counters.
    Load,       ///< INST_RETIRED.LOADS
    Store,      ///< INST_RETIRED.STORES
    BrMispred,  ///< BR_INST_RETIRED.MISPRED
    Br,         ///< BR_INST_RETIRED.ANY
    L1DMiss,    ///< MEM_LOAD_RETIRED.L1D_MISS
    L1IMiss,    ///< L1I_MISSES
    L2Miss,     ///< MEM_LOAD_RETIRED.L2_MISS
    DtlbMiss,   ///< DTLB_MISSES.ANY
    LdBlkSta,   ///< LOAD_BLOCK.STA
    LdBlkStd,   ///< LOAD_BLOCK.STD
    LdBlkOlp,   ///< LOAD_BLOCK.OVERLAP_STORE
    SplitLoad,  ///< L1D_SPLIT.LOADS
    SplitStore, ///< L1D_SPLIT.STORES
    Misalign,   ///< MISALIGN_MEM_REF
    Div,        ///< DIV
    PageWalk,   ///< PAGE_WALKS.COUNT
    Mul,        ///< MUL
    FpAssist,   ///< FP_ASSIST
    Simd,       ///< SIMD_INST_RETIRED.ANY

    NumEvents
};

/** Number of distinct events. */
constexpr std::size_t kNumEvents =
    static_cast<std::size_t>(Event::NumEvents);

/** Index of the first multiplexed (programmable-counter) event. */
constexpr std::size_t kFirstMultiplexedEvent =
    static_cast<std::size_t>(Event::Load);

/** Static description of one event (one row of Table I). */
struct EventInfo
{
    Event event;
    const char *shortName;   ///< Metric name used in models ("DtlbMiss")
    const char *pmuName;     ///< Hardware event name
    const char *description; ///< Human-readable meaning
    bool dedicated;          ///< Owns a fixed counter
};

/** Table I: every event with its naming and counter assignment. */
const std::array<EventInfo, kNumEvents> &eventTable();

/** Lookup of one event's static description. */
const EventInfo &eventInfo(Event e);

/** Parse a short metric name back to an event; fatal when unknown. */
Event eventFromShortName(const std::string &name);

/**
 * Names of the per-instruction metric columns in modeling datasets:
 * "CPI" first, then the multiplexed events in Table I order.
 */
std::vector<std::string> metricColumnNames();

/** Plain array of per-event counts. */
using EventCounts = std::array<std::uint64_t, kNumEvents>;

/** Zero all counts. */
inline void
clearCounts(EventCounts &counts)
{
    counts.fill(0);
}

/** counts[e] += n without the cast noise at call sites. */
inline void
bump(EventCounts &counts, Event e, std::uint64_t n = 1)
{
    counts[static_cast<std::size_t>(e)] += n;
}

/** Read one event count. */
inline std::uint64_t
countOf(const EventCounts &counts, Event e)
{
    return counts[static_cast<std::size_t>(e)];
}

} // namespace wct

#endif // WCT_PMU_EVENTS_HH
