#include "pmu/events.hh"

#include "util/logging.hh"

namespace wct
{

const std::array<EventInfo, kNumEvents> &
eventTable()
{
    static const std::array<EventInfo, kNumEvents> table = {{
        {Event::Cycles, "Cycles", "CPU_CLK_UNHALTED.CORE",
         "CPU core clock cycles", true},
        {Event::Instructions, "Inst", "INST_RETIRED.ANY",
         "Retired instructions", true},
        {Event::CyclesRef, "CyclesRef", "CPU_CLK_UNHALTED.REF",
         "Reference clock cycles", true},
        {Event::Load, "Load", "INST_RETIRED.LOADS",
         "Retired loads", false},
        {Event::Store, "Store", "INST_RETIRED.STORES",
         "Retired stores", false},
        {Event::BrMispred, "MisprBr", "BR_INST_RETIRED.MISPRED",
         "Mispredicted branches", false},
        {Event::Br, "Br", "BR_INST_RETIRED.ANY",
         "Retired branches", false},
        {Event::L1DMiss, "L1DMiss", "MEM_LOAD_RETIRED.L1D_MISS",
         "L1 data cache misses", false},
        {Event::L1IMiss, "L1IMiss", "L1I_MISSES",
         "L1 instruction cache misses", false},
        {Event::L2Miss, "L2Miss", "MEM_LOAD_RETIRED.L2_MISS",
         "L2 cache misses", false},
        {Event::DtlbMiss, "DtlbMiss", "DTLB_MISSES.ANY",
         "Last-level DTLB misses", false},
        {Event::LdBlkSta, "LdBlkStA", "LOAD_BLOCK.STA",
         "Loads blocked by unknown store address", false},
        {Event::LdBlkStd, "LdBlkStD", "LOAD_BLOCK.STD",
         "Loads blocked by unready store data", false},
        {Event::LdBlkOlp, "LdBlkOlp", "LOAD_BLOCK.OVERLAP_STORE",
         "Loads blocked by a partially overlapping or aliased store",
         false},
        {Event::SplitLoad, "SplitLoad", "L1D_SPLIT.LOADS",
         "Loads split across cache lines", false},
        {Event::SplitStore, "SplitStore", "L1D_SPLIT.STORES",
         "Stores split across cache lines", false},
        {Event::Misalign, "Misalign", "MISALIGN_MEM_REF",
         "Misaligned memory references", false},
        {Event::Div, "Div", "DIV", "Divide operations", false},
        {Event::PageWalk, "PageWalk", "PAGE_WALKS.COUNT",
         "Hardware page walks", false},
        {Event::Mul, "Mul", "MUL", "Multiply operations", false},
        {Event::FpAssist, "FpAsst", "FP_ASSIST",
         "Floating point assists", false},
        {Event::Simd, "SIMD", "SIMD_INST_RETIRED.ANY",
         "Retired streaming SIMD instructions", false},
    }};
    return table;
}

const EventInfo &
eventInfo(Event e)
{
    const auto idx = static_cast<std::size_t>(e);
    wct_assert(idx < kNumEvents, "bad event id ", idx);
    const EventInfo &info = eventTable()[idx];
    wct_assert(info.event == e, "event table out of order at ", idx);
    return info;
}

Event
eventFromShortName(const std::string &name)
{
    for (const EventInfo &info : eventTable())
        if (name == info.shortName)
            return info.event;
    wct_fatal("unknown event short name '", name, "'");
}

std::vector<std::string>
metricColumnNames()
{
    std::vector<std::string> names;
    names.reserve(kNumEvents - kFirstMultiplexedEvent + 1);
    names.emplace_back("CPI");
    for (std::size_t i = kFirstMultiplexedEvent; i < kNumEvents; ++i)
        names.emplace_back(eventTable()[i].shortName);
    return names;
}

} // namespace wct
