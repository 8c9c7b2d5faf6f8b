/**
 * @file
 * SPECjbb2000 workload model.
 *
 * SPECjbb models a wholesale company with a variable number of
 * warehouses; all three tiers run in one JVM, the "database" is trees
 * of Java objects, and each warehouse is driven by one thread
 * (Section 2.1). Structural properties the model encodes, each tied
 * to a paper observation:
 *
 *  - One thread per warehouse; warehouse data (stock/customer/district
 *    trees) is almost always accessed by its own thread, so the trees
 *    are "updated sparsely enough that they rarely result in
 *    cache-to-cache transfers" (Section 5.2). A small TPC-C-like
 *    fraction of remote-warehouse payments provides the residual
 *    sharing.
 *
 *  - Company-wide statistics lines and the JVM-internal lock are the
 *    few highly contended lines that concentrate the communication
 *    footprint (Figure 14: top line = 20% of all c2c transfers).
 *
 *  - Per-warehouse trees make the data set grow linearly with the
 *    warehouse count (Figure 11) and push the data-cache miss rate up
 *    ~30% from 1 to 25 warehouses (Figure 13).
 *
 *  - Heavy young-generation allocation (orders, order lines, history
 *    records) drives the generational collector (Figures 9/10).
 *
 *  - No inter-tier communication: essentially zero system time
 *    (Figure 5).
 */

#ifndef WORKLOAD_SPECJBB_HH
#define WORKLOAD_SPECJBB_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "exec/program.hh"
#include "jvm/jvm.hh"
#include "sim/rng.hh"
#include "workload/codepath.hh"
#include "workload/objecttree.hh"

namespace middlesim::workload
{

/** SPECjbb transaction types (the TPC-C-inspired mix). */
enum class JbbTx : unsigned
{
    NewOrder = 0,
    Payment = 1,
    OrderStatus = 2,
    Delivery = 3,
    StockLevel = 4,
};

constexpr unsigned jbbNumTxTypes = 5;

/** Model parameters. */
struct SpecJbbParams
{
    unsigned warehouses = 8;

    /** Transaction mix weights, indexed by JbbTx. */
    double mix[jbbNumTxTypes] = {43.5, 43.5, 4.3, 4.35, 4.35};

    // Per-warehouse table geometry (node_bytes = 128 throughout).
    unsigned stockLevels = 5, stockFanout = 16;   // ~8.9 MB
    unsigned custLevels = 5, custFanout = 10;     // ~1.4 MB
    unsigned distLevels = 3, distFanout = 10;     // tiny
    // Company-wide shared item table (read-only).
    unsigned itemLevels = 5, itemFanout = 12;     // ~2.9 MB
    unsigned nodeBytes = 128;

    /** Mean order lines per NewOrder. */
    unsigned orderLinesMean = 10;
    /** Orders delivered per Delivery transaction. */
    unsigned deliveryBatch = 10;
    /** Bytes allocated per NewOrder (order + lines). */
    std::uint64_t orderBytes = 1024;
    /**
     * Short-lived allocation per transaction body (strings, iterators,
     * boxing — Java middleware allocates heavily).
     */
    std::uint64_t tempAllocBytes = 2048;
    /** TPC-C-like remote-warehouse probability for Payment. */
    double remotePaymentProb = 0.15;
    /** Remote-warehouse probability per NewOrder item. */
    double remoteItemProb = 0.01;
    /** Probability a transaction takes the JVM-internal lock. */
    double jvmLockProb = 0.35;
    /**
     * Per-table working sets: the probability of touching the hot
     * subset and its size in leaves. Sized so a warehouse's working
     * set is ~256 KB — a few warehouses fit a 1 MB cache, 25 do not
     * (the Figure 16 contrast).
     */
    double hotLeafProb = 0.57;
    /** Warm-tier probability (middle working set). */
    double warmLeafProb = 0.40;
    std::uint64_t stockHotLeaves = 2304;
    std::uint64_t custHotLeaves = 576;
    std::uint64_t itemHotLeaves = 1024;
    /** Warm tier sizes (per-warehouse ~1 MB beyond the hot set). */
    std::uint64_t stockWarmLeaves = 4352;
    std::uint64_t custWarmLeaves = 1088;
    /** Scales all instruction counts. */
    double instrScale = 1.0;
};

/** Shared state of one SPECjbb instance (the "company"). */
class SpecJbbCompany
{
  public:
    SpecJbbCompany(const SpecJbbParams &params, jvm::Jvm &vm,
                   sim::Rng rng);

    const SpecJbbParams &params() const { return params_; }

    /** Long-lived heap bytes (trees + outstanding orders). */
    std::uint64_t liveBytes() const;

    /** Create the per-warehouse worker thread programs. */
    std::vector<std::unique_ptr<exec::ThreadProgram>> makeThreads();

    /** Completed transactions by type (sum over threads). */
    std::uint64_t outstandingOrders() const { return outstanding_; }

    // Accessors used by worker threads and tests.
    const ObjectTree &itemTree() const { return *itemTree_; }
    const ObjectTree &stockTree(unsigned wh) const { return *stock_[wh]; }
    const ObjectTree &custTree(unsigned wh) const { return *cust_[wh]; }
    const ObjectTree &distTree(unsigned wh) const { return *dist_[wh]; }
    exec::Lock &warehouseLock(unsigned wh) { return *whLocks_[wh]; }
    mem::Addr companyLine(unsigned i) const { return companyBase_ + i * 64; }
    mem::Addr warehouseTotalsLine(unsigned wh) const;
    jvm::Jvm &vm() { return vm_; }

    void noteOrderCreated() { ++outstanding_; }

    void
    noteOrdersDelivered(std::uint64_t n)
    {
        outstanding_ = n >= outstanding_ ? 0 : outstanding_ - n;
    }

    /** Per-warehouse static tree bytes (for sizing/tests). */
    std::uint64_t perWarehouseBytes() const;

  private:
    friend class SpecJbbThread;

    SpecJbbParams params_;
    jvm::Jvm &vm_;
    sim::Rng rng_;

    std::unique_ptr<ObjectTree> itemTree_;
    std::vector<std::unique_ptr<ObjectTree>> stock_;
    std::vector<std::unique_ptr<ObjectTree>> cust_;
    std::vector<std::unique_ptr<ObjectTree>> dist_;
    std::vector<exec::Lock *> whLocks_;
    mem::Addr companyBase_ = 0;
    mem::Addr whTotalsBase_ = 0;

    CodeLibrary codeLib_;
    CodePath txPath_[jbbNumTxTypes];
    CodePath jvmRuntimePath_;

    std::uint64_t outstanding_ = 0;
};

/**
 * Build a SPECjbb company inside `vm` and register its live-bytes
 * provider. Returned company must outlive its threads.
 */
std::unique_ptr<SpecJbbCompany>
buildSpecJbb(const SpecJbbParams &params, jvm::Jvm &vm, sim::Rng rng);

} // namespace middlesim::workload

#endif // WORKLOAD_SPECJBB_HH
