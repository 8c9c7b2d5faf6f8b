/**
 * @file
 * ECperf (SPECjAppServer2001) middle-tier workload model.
 *
 * ECperf deploys servlets + EJB on a commercial application server,
 * with the database, supplier emulator and driver on separate
 * machines (Section 2.2 / Figure 3). We model the application-server
 * machine in detail; the other tiers appear as network round-trip
 * latencies, which is exactly the filtering the authors applied (they
 * report cache statistics from the application-server machine /
 * processors only).
 *
 * Structural properties encoded, each tied to a paper observation:
 *
 *  - Large middleware instruction footprint (servlet engine, EJB
 *    container, JDBC, XML): ECperf's instruction miss rate is much
 *    higher than SPECjbb's for intermediate caches (Figure 12).
 *
 *  - TTL-invalidated object-level bean cache shared by all worker
 *    threads: constructive interference shortens the instruction path
 *    per BBop as throughput rises — the super-linear speedup of
 *    Section 4.4 — and spreads communication over many lines
 *    (Figures 14/15).
 *
 *  - Inter-tier communication through kernel networking code with a
 *    global netstack lock: system time grows with processor count
 *    (Figure 5), and the paper hypothesizes exactly this contention.
 *
 *  - Thread pool and bounded DB connection pool: shared software
 *    resources whose contention contributes the idle time on large
 *    systems (Section 4.1).
 *
 *  - Middle-tier memory footprint nearly independent of the Orders
 *    Injection Rate (Figure 11): the bean cache and session state
 *    saturate around OIR ~6 while the database (remote) keeps
 *    growing.
 */

#ifndef WORKLOAD_ECPERF_HH
#define WORKLOAD_ECPERF_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "exec/program.hh"
#include "jvm/jvm.hh"
#include "os/kernel.hh"
#include "sim/rng.hh"
#include "workload/beancache.hh"
#include "workload/codepath.hh"
#include "workload/zipf.hh"

namespace middlesim::workload
{

/** ECperf transaction types (BBops). */
enum class EcperfTx : unsigned
{
    NewOrder = 0,        // customer domain
    ChangeOrder = 1,     // customer domain
    OrderStatus = 2,     // customer domain
    ScheduleWorkOrder = 3, // manufacturing domain
    UpdateWorkOrder = 4,   // manufacturing domain
    PurchaseOrder = 5,     // supplier domain (XML exchange)
};

constexpr unsigned ecperfNumTxTypes = 6;

/** Model parameters. */
struct EcperfParams
{
    /** Orders Injection Rate: sizes the entity key space. */
    unsigned injectionRate = 8;

    /** Worker threads (0 = auto: 16 per application CPU). */
    unsigned workerThreads = 0;
    /** DB connection pool size (0 = auto: 6 per application CPU). */
    unsigned connPoolSize = 0;
    /** CPUs used for auto-sizing the pools. */
    unsigned tunedForCpus = 8;

    /** Transaction mix weights, indexed by EcperfTx. */
    double mix[ecperfNumTxTypes] = {25, 12, 13, 20, 15, 15};

    /** Distinct entity-bean keys per unit of injection rate. */
    std::uint64_t keysPerOir = 18000;
    /** Zipf skew of bean popularity. */
    double beanZipf = 1.15;
    /** Bean cache capacity (slots). */
    std::uint64_t beanCacheCapacity = 150000;
    /** Bean payload bytes. */
    unsigned beanBytes = 1024;
    /** Bean TTL (cycles); default ~100 ms at 248 MHz. */
    sim::Tick beanTtl = 25000000;

    /** Mean database round-trip latency (cycles; ~1.2 ms). */
    sim::Tick dbLatencyMean = 300000;
    /** Mean supplier-emulator round-trip latency (~3 ms). */
    sim::Tick supplierLatencyMean = 750000;

    /** Entity beans touched per transaction. */
    unsigned beansPerTx = 2;
    /** Short-lived allocation per transaction body segment. */
    std::uint64_t tempAllocBytes = 6144;
    /** Scales all instruction counts. */
    double instrScale = 1.0;
};

/** The application-server instance (shared state of all workers). */
class EcperfServer
{
  public:
    EcperfServer(const EcperfParams &params, jvm::Jvm &vm,
                 os::KernelModel &kernel, unsigned app_cpus,
                 sim::Rng rng);

    const EcperfParams &params() const { return params_; }

    /** Worker-thread count after auto-sizing. */
    unsigned numWorkers() const { return numWorkers_; }

    /** Long-lived heap bytes (bean cache occupancy + sessions). */
    std::uint64_t liveBytes() const;

    /** Create the worker thread programs. */
    std::vector<std::unique_ptr<exec::ThreadProgram>> makeThreads();

    BeanCache &beanCache() { return *beanCache_; }

    mem::Addr beanSlabBase() const { return beanSlabBase_; }
    std::uint64_t beanSlabBytes() const { return beanSlabBytes_; }
    mem::Addr sessionBase() const { return sessionBase_; }

    std::uint64_t
    sessionBytes() const
    {
        return static_cast<std::uint64_t>(numWorkers_) *
               sessionBytesPerWorker_;
    }
    exec::ResourcePool &connPool() { return *connPool_; }
    jvm::Jvm &vm() { return vm_; }
    os::KernelModel &kernel() { return kernel_; }

  private:
    friend class EcperfThread;

    EcperfParams params_;
    jvm::Jvm &vm_;
    os::KernelModel &kernel_;
    sim::Rng rng_;
    unsigned numWorkers_;

    std::unique_ptr<BeanCache> beanCache_;
    mem::Addr beanSlabBase_ = 0;
    std::uint64_t beanSlabBytes_ = 0;
    std::unique_ptr<ZipfSampler> beanKeys_;
    std::unique_ptr<exec::ResourcePool> connPool_;
    mem::Addr sessionBase_ = 0;
    std::uint64_t sessionBytesPerWorker_ = 2 * 1024;

    CodeLibrary codeLib_;
    CodePath servletPath_;
    CodePath ejbPath_[ecperfNumTxTypes];
    CodePath jdbcPath_;
    CodePath xmlPath_;
};

/**
 * Build an ECperf application server and register its live-bytes
 * provider.
 */
std::unique_ptr<EcperfServer>
buildEcperf(const EcperfParams &params, jvm::Jvm &vm,
            os::KernelModel &kernel, unsigned app_cpus, sim::Rng rng);

} // namespace middlesim::workload

#endif // WORKLOAD_ECPERF_HH
