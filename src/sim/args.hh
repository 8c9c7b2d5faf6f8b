/**
 * @file
 * Driver options: one declarative table per driver, one strict parser.
 *
 * A row names a flag and/or an environment variable, a value
 * placeholder, a help line and a strict setter. strtoul-style parsing
 * reads "abc" as 0 and "2x" as 2, so a typo in a scripted run
 * silently changes what runs; here any value a setter rejects is a
 * fatal error naming the tool and the flag or variable.
 */

#ifndef SIM_ARGS_HH
#define SIM_ARGS_HH

#include <climits>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace middlesim::sim
{

/**
 * Store one value. Returns "" when it is accepted, otherwise what the
 * row wants instead ("an integer in [1, 8]").
 */
using OptionSetter = std::function<std::string(const std::string &)>;

struct Option
{
    /** "--jobs"; empty for an environment-only row. */
    std::string flag;
    /** "MIDDLESIM_JOBS"; empty for a flag-only row. */
    std::string env;
    /** Value placeholder ("N", "DIR"); empty for a switch. */
    std::string value;
    std::string help;
    OptionSetter set;
};

using OptionTable = std::vector<Option>;

/** A base-10 integer in [lo, hi]. */
OptionSetter setUint(unsigned &dst, unsigned lo = 0,
                     unsigned hi = UINT_MAX);
/** A base-10 integer in [0, hi]. */
OptionSetter setU64(std::uint64_t &dst, std::uint64_t hi = UINT64_MAX);
/** Non-negative seconds with an optional `s` suffix ("60", "0.5s"). */
OptionSetter setSeconds(double &dst);
/** A positive decimal number ("0.05", "2"). */
OptionSetter setPositive(double &dst);
/** Any non-empty text. */
OptionSetter setText(std::string &dst);
/** A switch: the bare flag sets it; the variable takes 0 or 1. */
OptionSetter setSwitch(bool &dst);

/**
 * A name `parse` accepts (sim::parseProtocol, sim::parseTopology,
 * mem::parseFaultKind); `names` lists them for the error.
 */
template <typename T>
OptionSetter
setChoice(T &dst, bool (*parse)(const std::string &, T &),
          const char *names)
{
    return [&dst, parse, names](const std::string &v) {
        return parse(v, dst) ? std::string() : std::string(names);
    };
}

/** One help line per row: flag, variable, help. */
std::string optionsHelp(const OptionTable &table);

/**
 * Apply `table`: each row's environment variable in table order (an
 * empty one counts as unset), then argv[first, argc) in order, so a
 * flag beats its variable. `--help` prints the table and exits 0. An
 * unknown flag, a malformed one and a rejected value are fatal.
 */
void parseOptions(const char *tool, const OptionTable &table, int argc,
                  char **argv, int first = 1);

} // namespace middlesim::sim

#endif // SIM_ARGS_HH
