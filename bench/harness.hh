/**
 * @file
 * Shared data for the experiment-reproduction binaries: every
 * table/figure is regenerated from the standard protocol of
 * pipeline/plans.hh, through the same artifact store.
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
