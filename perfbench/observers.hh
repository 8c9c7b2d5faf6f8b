/**
 * @file
 * Benchmark-owned tracing: an in-memory span log and one read-only
 * observer attached to the simulator's public hook points
 * (mem::AccessObserver, os::SchedObserver, jvm::JvmObserver).
 *
 * The observer never writes simulation state, so a traced iteration
 * produces the same simulated statistics as an untraced one; the
 * benchmark checks that by digest. Host time inside the memory
 * hierarchy is sampled: one access in `sampleEvery` is bracketed by
 * a steady_clock pair, and the cost of an empty pair read just before
 * it is subtracted.
 */

#ifndef PERFBENCH_OBSERVERS_HH
#define PERFBENCH_OBSERVERS_HH

#include <array>
#include <chrono>
#include <cstdint>
#include <ostream>
#include <vector>

#include "core/system.hh"
#include "jvm/jvm.hh"
#include "mem/access_observer.hh"
#include "os/sched_observer.hh"

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/** Nanoseconds on the steady clock (arbitrary epoch). */
inline std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

/** Spans kept in memory and written once when the benchmark ends. */
class SpanLog
{
  public:
    /** Id 0 means "no parent". */
    static constexpr std::uint32_t noParent = 0;

    /** Open a span starting now; returns its id. */
    std::uint32_t open(const char *name, std::uint32_t parent);
    /** Close an open span at now; returns its duration in seconds. */
    double close(std::uint32_t id);
    /** Record a finished span. */
    void add(const char *name, std::uint32_t parent, std::int64_t start,
             std::int64_t end);

    /** {"schema": ..., "spans": [{id, parent, name, start_ns, end_ns}]} */
    void writeJson(std::ostream &os) const;

  private:
    struct Span
    {
        const char *name;
        std::uint32_t parent;
        std::int64_t start;
        std::int64_t end;
    };
    std::vector<Span> spans_;
};

/** Host-time and event counts gathered while attached. */
struct TraceCounts
{
    std::uint64_t refs = 0;
    /** Sampled accesses and their summed host ns, by ServedBy. */
    std::array<std::uint64_t, 5> samples{};
    std::array<double, 5> sampleNs{};
    /** Summed cost of one empty clock pair per sampled access. */
    double emptyPairNs = 0.0;
    std::uint64_t dispatches = 0;
    std::uint64_t allocations = 0;
    double gcSeconds = 0.0;
};

/**
 * Read-only observer of one System: memory accesses (sampled host
 * time), scheduler dispatches and JVM allocations/collections. Spans
 * go under the phase span passed to attach(): GC windows, and below
 * them (or the phase) a capped number of sampled accesses.
 */
class Tracer final : public middlesim::mem::AccessObserver,
                     public middlesim::os::SchedObserver,
                     public middlesim::jvm::JvmObserver
{
  public:
    Tracer(SpanLog &spans, unsigned sample_every);
    ~Tracer() override;

    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    /** Hook into every observer slot of `system`. */
    void attach(middlesim::core::System &system, std::uint32_t phase);
    /** Unhook from the attached System (idempotent). */
    void detach();

    const TraceCounts &counts() const { return counts_; }

    void preAccess(const middlesim::mem::MemRef &ref,
                   middlesim::sim::Tick now) override;
    void postAccess(const middlesim::mem::MemRef &ref,
                    const middlesim::mem::AccessResult &res,
                    middlesim::sim::Tick now) override;

    void onDispatch(unsigned cpu, const middlesim::os::SimThread &t,
                    bool gc_active, middlesim::sim::Tick now) override;

    void onTlabIssued(unsigned, middlesim::mem::Addr,
                      middlesim::mem::Addr) override {}
    void onAllocate(unsigned tid, middlesim::mem::Addr addr,
                    std::uint64_t bytes) override;
    void onCollectionBegin(const middlesim::jvm::GcWork &work) override;
    void onCollectionEnd(bool major) override;

  private:
    /** Sampled-access spans kept per parent span (bounds span memory). */
    static constexpr unsigned accessSpanCap = 64;

    SpanLog &spans_;
    const std::uint64_t sampleEvery_;
    middlesim::core::System *system_ = nullptr;
    std::uint32_t phase_ = SpanLog::noParent;
    std::uint32_t gcSpan_ = SpanLog::noParent;
    bool sampling_ = false;
    std::int64_t sampleStart_ = 0;
    unsigned accessSpans_ = 0;
    TraceCounts counts_;
};

} // namespace perfbench

#endif // PERFBENCH_OBSERVERS_HH
