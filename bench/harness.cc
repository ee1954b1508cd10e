#include "bench/harness.hh"

#include <cstdio>
#include <cstdlib>
#include <map>

#include "workload/suites.hh"

namespace wct
{
namespace bench
{

namespace
{

/**
 * The experiment binaries share one artifact store under
 * $WCT_BENCH_CACHE (default .wct_cache) — the same content-addressed
 * store `wct run`/`wct cache` operate on, so the ablations, the phase
 * analysis and `wct run paper` share one simulation pass. Delete the
 * directory (or `wct cache gc` it) to force re-simulation.
 */
ArtifactStore
benchStore()
{
    const char *base = std::getenv("WCT_BENCH_CACHE");
    return ArtifactStore(base ? base : ".wct_cache");
}

} // namespace

const SuiteData &
collectedSuite(const std::string &name)
{
    static std::map<std::string, SuiteData> cache;
    auto it = cache.find(name);
    if (it == cache.end()) {
        pipeline::Pipeline pipe{benchStore()};
        SuiteData data = pipeline::collectStage(
            pipe, suiteByName(name), pipeline::standardCollection());
        std::fprintf(stderr, "[harness] %s: %zu samples (%s)\n",
                     name.c_str(), data.totalSamples(),
                     pipe.allCached() ? "from cache" : "collected");
        it = cache.emplace(name, std::move(data)).first;
    }
    return it->second;
}

const SuiteModel &
suiteModel(const std::string &name)
{
    static std::map<std::string, SuiteModel> cache;
    auto it = cache.find(name);
    if (it == cache.end()) {
        const SuiteProfile &suite = suiteByName(name);
        const std::uint64_t collect_key =
            pipeline::collectStageKey(suite,
                                      pipeline::standardCollection());
        pipeline::Pipeline pipe{benchStore()};
        it = cache
                 .emplace(name,
                          pipeline::trainStage(
                              pipe, suite.name,
                              [&]() -> const SuiteData & {
                                  return collectedSuite(name);
                              },
                              collect_key,
                              pipeline::standardModelConfig()))
                 .first;
    }
    return it->second;
}

void
banner(const std::string &title)
{
    std::printf("\n================================================="
                "=============\n%s\n============================="
                "=================================\n\n",
                title.c_str());
}

} // namespace bench
} // namespace wct
