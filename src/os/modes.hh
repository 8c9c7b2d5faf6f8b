/**
 * @file
 * mpstat-style execution mode accounting (Figure 5).
 *
 * The paper breaks execution time into user, system, I/O wait and
 * idle, and separately estimates the idle time attributable to the
 * single-threaded garbage collector. We track the same buckets per
 * CPU.
 */

#ifndef OS_MODES_HH
#define OS_MODES_HH

#include <utility>

#include "sim/ticks.hh"

namespace middlesim::os
{

/** Per-CPU cycle totals by execution mode. */
struct ModeBreakdown
{
    sim::Tick user = 0;
    sim::Tick system = 0;
    sim::Tick io = 0;
    /** Idle not attributable to garbage collection. */
    sim::Tick idle = 0;
    /** Idle while a stop-the-world collection was in progress. */
    sim::Tick gcIdle = 0;

    sim::Tick
    total() const
    {
        return user + system + io + idle + gcIdle;
    }

    double
    fraction(sim::Tick bucket) const
    {
        const sim::Tick t = total();
        return t ? static_cast<double>(bucket) / static_cast<double>(t)
                 : 0.0;
    }

    /** Every counter by its metric name, in RunResult payload order. */
    static constexpr std::pair<const char *, sim::Tick ModeBreakdown::*>
        counters[] = {
            {"user", &ModeBreakdown::user},
            {"system", &ModeBreakdown::system},
            {"io", &ModeBreakdown::io},
            {"idle", &ModeBreakdown::idle},
            {"gc_idle", &ModeBreakdown::gcIdle},
        };

    void
    accumulate(const ModeBreakdown &o)
    {
        for (const auto &[name, counter] : counters)
            this->*counter += o.*counter;
    }
};

} // namespace middlesim::os

#endif // OS_MODES_HH
