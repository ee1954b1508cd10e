/**
 * @file
 * Small string helpers shared across the toolkit.
 */

#ifndef WCT_UTIL_STRING_UTILS_HH
#define WCT_UTIL_STRING_UTILS_HH

#include <string>
#include <vector>

namespace wct
{

/** Split on a single-character delimiter; keeps empty fields. */
std::vector<std::string> split(const std::string &text, char delim);

/** Strip leading and trailing ASCII whitespace. */
std::string trim(const std::string &text);

/** Join the pieces with the given separator. */
std::string join(const std::vector<std::string> &pieces,
                 const std::string &sep);

/** True when text begins with the given prefix. */
bool startsWith(const std::string &text, const std::string &prefix);

/** printf-style double formatting with a fixed precision. */
std::string formatDouble(double value, int precision);

/**
 * Compact numeric formatting for report tables: fixed precision, but
 * very small magnitudes switch to scientific so thresholds such as
 * 0.00019 stay legible.
 */
std::string formatCompact(double value);

} // namespace wct

#endif // WCT_UTIL_STRING_UTILS_HH
