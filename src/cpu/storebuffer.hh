/**
 * @file
 * Store buffer drain model.
 *
 * The UltraSPARC II retires stores into a small store buffer that
 * drains to the (write-through) L1/L2 in the background; the paper
 * finds store buffer stalls account for only 1-2% of execution time.
 * We model the buffer as a bounded queue of drain-completion times:
 * a store whose buffer is full stalls the core until the oldest entry
 * drains.
 */

#ifndef CPU_STOREBUFFER_HH
#define CPU_STOREBUFFER_HH

#include <algorithm>
#include <deque>

#include "sim/ticks.hh"

namespace middlesim::cpu
{

/** Bounded queue of in-flight stores with serialized drain. */
class StoreBuffer
{
  public:
    explicit StoreBuffer(unsigned depth = 8) : depth_(depth) {}

    /**
     * Issue a store at `now` whose drain occupies `drain_latency`
     * cycles of the memory pipe.
     *
     * @return stall cycles suffered by the core (0 if a slot is free).
     */
    sim::Tick
    issue(sim::Tick now, sim::Tick drain_latency)
    {
        // Retire completed drains.
        while (!inflight_.empty() && inflight_.front() <= now)
            inflight_.pop_front();

        sim::Tick stall = 0;
        if (inflight_.size() >= depth_) {
            stall = inflight_.front() - now;
            now = inflight_.front();
            inflight_.pop_front();
        }

        const sim::Tick start =
            inflight_.empty() ? now
                              : std::max(now, inflight_.back());
        inflight_.push_back(start + drain_latency);
        return stall;
    }

    /** Entries currently in flight at time `now`. */
    std::size_t
    occupancy(sim::Tick now) const
    {
        std::size_t n = 0;
        for (auto t : inflight_) {
            if (t > now)
                ++n;
        }
        return n;
    }

  private:
    unsigned depth_;
    std::deque<sim::Tick> inflight_;
};

} // namespace middlesim::cpu

#endif // CPU_STOREBUFFER_HH
