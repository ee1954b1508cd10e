/**
 * @file
 * Binary serialization of collected suites (SuiteData): one
 * checksummed envelope (data/binary_io) holding every benchmark's
 * samples with exact double bit patterns.
 *
 * No artifact holds a whole suite: collection stores one artifact per
 * (benchmark, shard) (pipeline/stages.hh). These bytes pin a
 * collection instead: the determinism checks and perfbench's
 * `sim.suite_digest` hash them, so two collections agree exactly when
 * their bytes do. kSuiteDataFormatVersion is also hashed into the collect
 * stage key every downstream stage chains.
 */

#ifndef WCT_CORE_SUITE_IO_HH
#define WCT_CORE_SUITE_IO_HH

#include <cstdint>
#include <iosfwd>

#include "core/collect.hh"

namespace wct
{

/** Version of the SuiteData envelope; bump on layout changes. */
constexpr std::uint32_t kSuiteDataFormatVersion = 1;

/** Serialize a collected suite as a checksummed binary stream. */
void writeSuiteData(std::ostream &out, const SuiteData &data);

} // namespace wct

#endif // WCT_CORE_SUITE_IO_HH
