/**
 * @file
 * Shared data for the ablation and phase-analysis binaries: each
 * suite comes from the standard protocol of pipeline/plans.hh,
 * through the artifact store `wct run` fills.
 */

#ifndef WCT_BENCH_HARNESS_HH
#define WCT_BENCH_HARNESS_HH

#include <string>

#include "pipeline/plans.hh"

namespace wct
{
namespace bench
{

/** Collect a built-in suite ("cpu2006" or "omp2001") once, at
 * pipeline::standardCollection(). */
const SuiteData &collectedSuite(const std::string &name);

/** Suite model built from collectedSuite at
 * pipeline::standardModelConfig(). */
const SuiteModel &suiteModel(const std::string &name);

/** Print a section header for bench output. */
void banner(const std::string &title);

} // namespace bench
} // namespace wct

#endif // WCT_BENCH_HARNESS_HH
