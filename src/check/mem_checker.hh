/**
 * @file
 * Memory-system invariant checker.
 *
 * Attached to a mem::Hierarchy as its AccessObserver, the checker
 * maintains an independent shadow model of every block it has seen
 * and verifies, on every access:
 *
 *  - Protocol legality: no state changes between accesses to a block
 *    except silent eviction (valid -> Invalid); at most one Modified
 *    copy, and a Modified copy is exclusive; at most one owner (M|O
 *    on the snooping bus). Under the directory protocol the MESI
 *    rules apply instead: Exclusive is as exclusive as Modified, the
 *    Owned state must never appear, and a forwarded owner degrades
 *    to Shared (not Owned).
 *  - Directory lockstep (directory protocol only): the home's sharer
 *    vector matches the true set of valid L2 copies, its owner field
 *    matches the actual E/M holder, and every invalidation sent has
 *    been acknowledged by the time the transaction retires.
 *  - Data-value consistency: a flat golden memory of per-block write
 *    sequence numbers; every valid copy must hold the latest write.
 *  - L1 inclusion: no L1 may cache a block its L2 group does not hold.
 *  - Snoop metadata: the presence mask matches the true set of valid
 *    L2 copies.
 *  - Routing/classification: the hierarchy's servedBy and miss-class
 *    results match what the shadow model predicts.
 *  - GC window (armed by the JVM checker): no non-collector CPU
 *    references the young generation during a stop-the-world window,
 *    and the collector copies each to-space line at most once.
 *
 * Deliberate non-check: the model allows sibling L1s within the
 * writer's own L2 group to keep a (write-through updated or stale)
 * copy after a write — an intra-group simplification of the modeled
 * machine — so the checker verifies L1 *inclusion* but never L1 value
 * currency inside the writing group.
 */

#ifndef CHECK_MEM_CHECKER_HH
#define CHECK_MEM_CHECKER_HH

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "check/report.hh"
#include "mem/access_observer.hh"
#include "mem/hierarchy.hh"
#include "mem/sharer_set.hh"

namespace middlesim::check
{

/** Shadow-model observer verifying hierarchy invariants per access. */
class MemChecker final : public mem::AccessObserver
{
  public:
    /** The hierarchy is inspected read-only and must outlive this. */
    MemChecker(const mem::Hierarchy &hierarchy, CheckReport &report);

    void preAccess(const mem::MemRef &ref, sim::Tick now) override;
    void postAccess(const mem::MemRef &ref, const mem::AccessResult &res,
                    sim::Tick now) override;
    void onInvalidateAll() override;

    /**
     * Arm the stop-the-world window checks: young generation
     * [young_base, young_limit) is off limits to every CPU except
     * `gc_cpu`, and block-initializing stores into the to-space
     * [to_base, to_limit) must hit each line at most once.
     */
    void beginGcWindow(mem::Addr young_base, mem::Addr young_limit,
                       mem::Addr to_base, mem::Addr to_limit,
                       unsigned gc_cpu);
    void endGcWindow();

    /**
     * Audit the complete cache state (not just referenced blocks):
     * exclusivity/ownership across all valid lines, presence-mask
     * (and, under the directory protocol, sharer-vector/owner)
     * consistency in both directions, and full L1 inclusion.
     */
    void auditFull(sim::Tick now);

  private:
    /** Independent model of one block across all L2 groups. */
    struct Shadow
    {
        /** Latest global write sequence number stored to this block. */
        std::uint64_t golden = 0;
        /** Groups that ever cached the block (mirrors LineMeta). */
        mem::SharerSet everCached;
        /** Groups whose copy was last removed by an invalidation. */
        mem::SharerSet lastInval;
        /** CoherenceState per group, as of the last access. */
        std::vector<std::uint8_t> state;
        /** Write sequence number each group's copy holds. */
        std::vector<std::uint64_t> value;
    };

    Shadow &shadowFor(mem::Addr block);
    mem::CoherenceState actualState(unsigned group, mem::Addr block) const;
    mem::Addr blockOf(mem::Addr addr) const;

    /** Directory-lockstep checks for one block (directory mode). */
    void checkDirectoryBlock(mem::Addr block,
                             const mem::SharerSet &valid_set,
                             sim::Tick now, const char *ctx);

    const mem::Hierarchy &h_;
    CheckReport &report_;
    unsigned groups_;
    unsigned cpus_;
    /** Non-null when the hierarchy runs the directory protocol. */
    const mem::DirectoryController *dir_;

    std::uint64_t writeSeq_ = 0;
    std::unordered_map<mem::Addr, Shadow> shadow_;

    // Pre-access snapshot consumed by postAccess.
    std::vector<std::uint8_t> preState_;
    mem::CoherenceState preL2State_ = mem::CoherenceState::Invalid;
    bool preL1Hit_ = false;
    bool preOwnerElsewhere_ = false;
    mem::SharerSet preEver_;
    mem::SharerSet preInval_;
    /** Directory livelock breaks before the access. */
    std::uint64_t preLivelockBreaks_ = 0;

    /** Last reported sent-minus-acked delta (dedups ack reports). */
    std::uint64_t lastAckDelta_ = 0;

    // GC window state.
    bool gcWindow_ = false;
    mem::Addr youngBase_ = 0;
    mem::Addr youngLimit_ = 0;
    mem::Addr toBase_ = 0;
    mem::Addr toLimit_ = 0;
    unsigned gcCpu_ = 0;
    std::unordered_map<mem::Addr, std::uint32_t> copyCounts_;
};

} // namespace middlesim::check

#endif // CHECK_MEM_CHECKER_HH
