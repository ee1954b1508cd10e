/**
 * @file
 * Typed command-line option parsing shared by every wct command.
 *
 * Each command declares a CommandSpec — its flags, their types, and
 * which are required — and parseCommand() does the rest: boolean
 * flags take no value, typed flags are validated as they are parsed
 * ("--intervals expects an integer"), required flags are enforced
 * ("missing required --suite"), and unknown flags are fatal instead
 * of being silently swallowed as positionals. The same specs generate
 * the usage text, so `wct help` and `wct <command> --help` can never
 * drift from what the parser accepts. (Before this existed, every
 * command re-implemented its own subset of this logic against a
 * stringly-typed map.)
 */

#ifndef WCT_CLI_OPTIONS_HH
#define WCT_CLI_OPTIONS_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace wct::cli
{

/** Value type of one flag. */
enum class FlagType
{
    Bool,   ///< present/absent, takes no value
    String, ///< any value
    Uint,   ///< non-negative integer
    Double, ///< floating point
};

/** Declaration of one --flag. */
struct FlagSpec
{
    std::string name;              ///< without the leading "--"
    FlagType type = FlagType::String;
    bool required = false;
    std::string valueName;         ///< usage placeholder, e.g. "DIR"
};

/** Declaration of one command: its flags and positional shape. */
struct CommandSpec
{
    std::string name;
    std::vector<FlagSpec> flags;

    /** Usage placeholders for positionals, e.g. {"PLAN"}. */
    std::vector<std::string> positionals;

    /** Minimum positional count (fatal below it). */
    std::size_t minPositionals = 0;

    /** Maximum positional count (fatal above it). */
    std::size_t maxPositionals = 0;
};

/** Parsed, validated options of one command invocation. */
class ParsedOptions
{
  public:
    bool has(const std::string &name) const;

    /** String value, or `fallback` when the flag is absent. */
    std::string get(const std::string &name,
                    const std::string &fallback = "") const;

    /** Integer value (validated at parse time). */
    std::uint64_t getUint(const std::string &name,
                          std::uint64_t fallback) const;

    /** Double value (validated at parse time). */
    double getDouble(const std::string &name, double fallback) const;

    const std::vector<std::string> &positional() const
    {
        return positional_;
    }

  private:
    friend ParsedOptions parseCommand(
        const CommandSpec &spec,
        const std::vector<std::string> &args, std::size_t begin);

    std::map<std::string, std::string> values_;
    std::map<std::string, std::uint64_t> uints_;
    std::map<std::string, double> doubles_;
    std::vector<std::string> positional_;
};

/**
 * Parse args[begin..] against `spec`. Fatal (this is user input) on
 * an unknown flag, a missing value, a value of the wrong type, a
 * missing required flag, or a positional count outside the spec.
 */
ParsedOptions parseCommand(const CommandSpec &spec,
                           const std::vector<std::string> &args,
                           std::size_t begin);

/**
 * Usage line(s) for one command, generated from its spec: required
 * flags first, then optionals in brackets, wrapped to terminal width.
 */
std::string usageText(const CommandSpec &spec);

} // namespace wct::cli

#endif // WCT_CLI_OPTIONS_HH
