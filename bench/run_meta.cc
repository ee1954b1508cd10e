#include "bench/run_meta.hh"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <thread>

#include "util/thread_pool.hh"
#include "util/version.hh"

#ifndef WCT_GIT_REV
#define WCT_GIT_REV "unknown"
#endif

namespace wct::bench
{

namespace
{

/** Minimal JSON string escaping; compiler banners can carry quotes. */
std::string
jsonEscape(const std::string &text)
{
    std::string out;
    out.reserve(text.size());
    for (const char c : text) {
        switch (c) {
        case '"':
            out += "\\\"";
            break;
        case '\\':
            out += "\\\\";
            break;
        case '\n':
            out += "\\n";
            break;
        case '\t':
            out += "\\t";
            break;
        default:
            if (static_cast<unsigned char>(c) >= 0x20)
                out += c;
        }
    }
    return out;
}

/** Compiler id: family prefix plus the predefined version banner. */
std::string
compilerId()
{
#if defined(__clang__)
    return std::string("clang ") + __VERSION__;
#elif defined(__GNUC__)
    return std::string("gcc ") + __VERSION__;
#else
    return std::string("unknown ") + __VERSION__;
#endif
}

} // namespace

std::string
runMetadataJson(const std::string &indent)
{
    // Worker threads of the pool this run will actually fan out on;
    // +1 for the calling thread matches WCT_THREADS semantics
    // (WCT_THREADS=1 -> zero workers, inline execution).
    const std::size_t wct_threads =
        ThreadPool::global().workerCount() + 1;

    std::ostringstream json;
    json << indent << "\"run_meta\": {\n"
         << indent << "  \"wct_version\": \""
         << jsonEscape(kWctVersion) << "\",\n"
         << indent << "  \"git_rev\": \"" << jsonEscape(WCT_GIT_REV)
         << "\",\n"
         << indent << "  \"compiler\": \""
         << jsonEscape(compilerId()) << "\",\n"
         << indent << "  \"wct_threads\": " << wct_threads << ",\n"
         << indent << "  \"host_cpus\": "
         << std::thread::hardware_concurrency() << "\n"
         << indent << "}";
    return json.str();
}

Report::Report(const std::string &benchmark)
{
    json_ << "{\n  \"benchmark\": \"" << benchmark << "\",\n"
          << runMetadataJson("  ");
}

void
Report::write(const std::string &path) const
{
    const std::string text = json_.str() + "\n}\n";
    std::ofstream(path) << text;
    std::cout << text;
}

double
jsonNumber(const std::string &text, const std::string &key)
{
    const std::string quoted = "\"" + key + "\"";
    const std::size_t pos = text.find(quoted);
    if (pos == std::string::npos)
        return std::nan("");
    const std::size_t colon = text.find(':', pos + quoted.size());
    if (colon == std::string::npos)
        return std::nan("");
    return std::strtod(text.c_str() + colon + 1, nullptr);
}

bool
baselineGate(const std::string &bench, const std::string &gate,
             const std::string &baseline, const std::string &key,
             double measured, double hardFloor)
{
    std::ifstream in(baseline);
    if (!in) {
        std::cerr << bench << ": cannot read baseline " << baseline
                  << "\n";
        return false;
    }
    std::stringstream text;
    text << in.rdbuf();
    const double base = jsonNumber(text.str(), key);
    if (std::isnan(base) || base <= 0.0) {
        std::cerr << bench << ": baseline has no usable " << key
                  << "\n";
        return false;
    }
    const double floor = std::max(hardFloor, 0.75 * base);
    if (!(measured >= floor)) {
        std::cerr << bench << ": FAIL: " << gate << " " << measured
                  << " fell below the " << floor << " floor (75% of "
                  << "baseline " << base;
        if (hardFloor > 0.0)
            std::cerr << ", at least " << hardFloor;
        std::cerr << ")\n";
        return false;
    }
    std::cout << bench << ": " << gate << " gate OK (" << measured
              << " >= " << floor << " floor)\n";
    return true;
}

} // namespace wct::bench
