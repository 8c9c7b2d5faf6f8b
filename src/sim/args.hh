/**
 * @file
 * Strict parsing of numeric command-line values.
 *
 * strtoul-style parsing reads "abc" as 0 and "2x" as 2, so a typo in
 * a scripted run silently changes what runs. The drivers read every
 * numeric flag through these helpers instead: anything but a whole,
 * in-range number is a fatal error naming the tool and the argument.
 */

#ifndef SIM_ARGS_HH
#define SIM_ARGS_HH

#include <climits>
#include <cstdint>
#include <string>

namespace middlesim::sim
{

/**
 * The value of a `--name=N` argument: a base-10 unsigned integer in
 * [lo, hi]. Empty, signed, non-numeric, trailing-character and
 * out-of-range text is fatal.
 */
std::uint64_t parseUintFlag(const char *tool, const std::string &arg,
                            std::uint64_t lo = 0,
                            std::uint64_t hi = UINT_MAX);

/**
 * The value of a `--name=SECONDS` argument: a non-negative decimal
 * number with an optional `s` suffix ("60", "60s", "0.5s"). Anything
 * else is fatal.
 */
double parseSecondsFlag(const char *tool, const std::string &arg);

} // namespace middlesim::sim

#endif // SIM_ARGS_HH
