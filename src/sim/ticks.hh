/**
 * @file
 * Basic time types for the simulator.
 *
 * The machine modeled throughout this project is a Sun E6000-like
 * bus-based snooping multiprocessor with 248 MHz UltraSPARC-II-like
 * processors, matching the hardware used in the paper. All simulated
 * time is kept in processor clock cycles ("ticks") and converted to
 * seconds only at reporting boundaries.
 */

#ifndef SIM_TICKS_HH
#define SIM_TICKS_HH

#include <cstdint>

namespace middlesim::sim
{

/** Simulated time in processor clock cycles. */
using Tick = std::uint64_t;

/** Clock frequency of the modeled UltraSPARC II (248 MHz). */
constexpr double clockHz = 248.0e6;

/** Convert a cycle count to simulated seconds. */
constexpr double
ticksToSeconds(Tick t)
{
    return static_cast<double>(t) / clockHz;
}

} // namespace middlesim::sim

#endif // SIM_TICKS_HH
