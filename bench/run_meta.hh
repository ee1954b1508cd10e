/**
 * @file
 * What every perf smoke shares: the run metadata stamped into each
 * BENCH_*.json (which compiler built the binary, which git revision
 * it came from, how many threads the run actually used), the writer
 * of that report, and the gate that compares a measured ratio with a
 * checked-in baseline. A checked-in baseline or a CI artifact is only
 * interpretable when the numbers carry their provenance — two BENCH
 * files that disagree should first be compared on the run_meta block.
 */

#ifndef WCT_BENCH_RUN_META_HH
#define WCT_BENCH_RUN_META_HH

#include <sstream>
#include <string>
#include <type_traits>

namespace wct::bench
{

/**
 * One JSON object member, `"run_meta": {...}`, ready to splice into a
 * BENCH_*.json (no trailing comma or newline). Each inner line is
 * prefixed with `indent`. Contents: toolkit version, git revision the
 * build was configured at (WCT_GIT_REV, "unknown" outside a
 * checkout), compiler id from __VERSION__, effective worker-thread
 * count of the global pool at call time (so call it *after* any
 * resetGlobalForTest), and host CPU count.
 */
std::string runMetadataJson(const std::string &indent);

/**
 * A flat BENCH_*.json report: `"benchmark"` and `"run_meta"` first,
 * then the members in the order they are added. Construct it after
 * any resetGlobalForTest, since run_meta records the pool size then.
 */
class Report
{
  public:
    explicit Report(const std::string &benchmark);

    /** Append `"key": value`: numbers as streamed, bools as
     * true/false, anything else as a quoted string. */
    template <typename T>
    Report &
    add(const std::string &key, const T &value)
    {
        json_ << ",\n  \"" << key << "\": ";
        if constexpr (std::is_same_v<T, bool>)
            json_ << (value ? "true" : "false");
        else if constexpr (std::is_arithmetic_v<T>)
            json_ << value;
        else
            json_ << '"' << value << '"';
        return *this;
    }

    /** Close the object, write it to `path` and echo it on stdout. */
    void write(const std::string &path) const;

  private:
    std::ostringstream json_;
};

/** Value of the first `"key": <number>` in a flat JSON text; NaN
 * when the key is missing. */
double jsonNumber(const std::string &text, const std::string &key);

/**
 * The perf-smoke baseline gate: `measured` must reach
 * max(hardFloor, 75% of the `key` value in the `baseline` file).
 * Gated values are ratios whose numerator and denominator were
 * measured on the same host, so a floor relative to a baseline
 * recorded elsewhere transfers across machines and CI load. Prints
 * `<bench>: <gate> gate OK (...)` on stdout, or a FAIL line on
 * stderr and returns false — also when the baseline is unreadable or
 * has no positive `key`.
 */
bool baselineGate(const std::string &bench, const std::string &gate,
                  const std::string &baseline, const std::string &key,
                  double measured, double hardFloor = 0.0);

} // namespace wct::bench

#endif // WCT_BENCH_RUN_META_HH
