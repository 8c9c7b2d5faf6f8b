/**
 * @file
 * Snooping bus occupancy and contention model.
 *
 * The Gigaplane-like bus serializes coherence transactions. Because
 * processors advance in loose lockstep windows, their local clocks
 * are not precise enough for a busy-until arbiter; instead the bus
 * measures its utilization over each window (epoch) and charges a
 * queueing delay derived from it (M/M/1-shaped, capped), applied to
 * transactions in the next window. This captures the first-order
 * effect — delay grows with aggregate miss rate and processor count —
 * without fake cross-window serialization.
 */

#ifndef MEM_BUS_HH
#define MEM_BUS_HH

#include <algorithm>
#include <cstdint>

#include "sim/ticks.hh"

namespace middlesim::mem
{

/** Bus occupancy accounting with utilization-based queueing delay. */
class Bus
{
  public:
    /**
     * @param contention if false, transactions never queue (pure
     *        latency model); if true, utilization-based queueing
     *        delay is added.
     */
    explicit Bus(bool contention = true) : contention_(contention) {}

    /**
     * Acquire the bus for `occupancy` cycles.
     * @return queueing delay in cycles (0 when uncontended).
     */
    sim::Tick
    acquire(sim::Tick /* now */, sim::Tick occupancy)
    {
        ++transactions_;
        busyCycles_ += occupancy;
        epochBusy_ += occupancy;
        if (!contention_)
            return 0;
        const sim::Tick delay = static_cast<sim::Tick>(
            static_cast<double>(occupancy) * 0.5 * utilization_ /
            (1.0 - utilization_));
        queueDelay_ += delay;
        return delay;
    }

    /**
     * Close the current epoch of `epoch_len` cycles: utilization
     * measured in it drives queueing delays in the next epoch.
     */
    void
    advanceEpoch(sim::Tick epoch_len)
    {
        if (epoch_len == 0)
            return;
        const double rho = static_cast<double>(epochBusy_) /
                           static_cast<double>(epoch_len);
        utilization_ = std::min(rho, 0.92);
        epochBusy_ = 0;
    }

    /** Utilization measured in the last completed epoch. */
    double lastUtilization() const { return utilization_; }

    std::uint64_t transactions() const { return transactions_; }
    std::uint64_t busyCycles() const { return busyCycles_; }
    std::uint64_t totalQueueDelay() const { return queueDelay_; }

    /** Mean queueing delay per transaction. */
    double
    meanQueueDelay() const
    {
        return transactions_
            ? static_cast<double>(queueDelay_) /
              static_cast<double>(transactions_)
            : 0.0;
    }

    void
    reset()
    {
        transactions_ = 0;
        busyCycles_ = 0;
        queueDelay_ = 0;
    }

  private:
    bool contention_;
    double utilization_ = 0.0;
    std::uint64_t epochBusy_ = 0;
    std::uint64_t transactions_ = 0;
    std::uint64_t busyCycles_ = 0;
    std::uint64_t queueDelay_ = 0;
};

} // namespace middlesim::mem

#endif // MEM_BUS_HH
