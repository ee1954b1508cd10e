#include "core/suite_io.hh"

#include "data/binary_io.hh"

namespace wct
{

namespace
{

constexpr char kSuiteMagic[] = "WCTSUIT"; ///< 7 chars + NUL = 8 bytes

} // namespace

void
writeSuiteData(std::ostream &out, const SuiteData &data)
{
    ByteSink sink;
    sink.putString(data.suiteName);
    sink.putU64(data.benchmarks.size());
    for (const BenchmarkData &bench : data.benchmarks) {
        sink.putString(bench.name);
        sink.putDouble(bench.instructionWeight);
        appendDataset(sink, bench.samples);
    }
    writeEnvelope(out, std::string_view(kSuiteMagic, 8),
                  kSuiteDataFormatVersion, {sink.bytes()});
}

} // namespace wct
