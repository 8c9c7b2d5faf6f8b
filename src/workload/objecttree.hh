/**
 * @file
 * Emulated in-memory database: trees of Java objects.
 *
 * SPECjbb stores its warehouse data as trees of Java objects instead
 * of a database (Section 2.1 / Figure 2). We model each table as an
 * implicit complete B-tree laid out level-by-level in the old
 * generation: interior levels are small and stay cached (hot), leaf
 * levels are large and produce the capacity misses that make
 * SPECjbb's data footprint grow linearly with warehouses.
 */

#ifndef WORKLOAD_OBJECTTREE_HH
#define WORKLOAD_OBJECTTREE_HH

#include <cstdint>

#include "exec/program.hh"
#include "mem/memref.hh"
#include "sim/rng.hh"

namespace middlesim::workload
{

/** An implicit complete tree of fixed-size object nodes. */
class ObjectTree
{
  public:
    /**
     * @param base address of the level-order node array
     * @param levels tree depth (root = level 0)
     * @param fanout children per interior node
     * @param node_bytes bytes per node (rounded up to 64)
     */
    ObjectTree(mem::Addr base, unsigned levels, unsigned fanout,
               unsigned node_bytes);

    /** Total bytes of all nodes. */
    std::uint64_t footprintBytes() const { return totalNodes_ * nodeBytes_; }

    std::uint64_t numNodes() const { return totalNodes_; }

    /** Address of a node by level and index within the level. */
    mem::Addr nodeAddr(unsigned level, std::uint64_t index) const;

    /**
     * Append the data references of one random root-to-leaf descent
     * to `burst`: one load per level, plus a store to the leaf when
     * `write_leaf` is set.
     *
     * The leaf is drawn from three tiers: with probability `p_hot`
     * uniformly from the first `hot_leaves` leaves (the table's
     * working set: active customers, popular stock), with
     * probability `p_warm` from a warm region of `warm_leaves`, else
     * uniformly from the whole table. The hot tier produces the
     * plateau-shaped per-warehouse working set behind the
     * shared-cache behavior of Figure 16; the warm tier grows the
     * per-warehouse footprint gradient of Figure 13 without
     * disturbing it. p_hot = p_warm = 0 is a uniform draw.
     *
     * @return the leaf node address (for follow-up accesses).
     */
    mem::Addr fillDescentTiered(exec::Burst &burst, sim::Rng &rng,
                                bool write_leaf,
                                std::uint64_t hot_leaves, double p_hot,
                                std::uint64_t warm_leaves,
                                double p_warm) const;

    /** Number of leaves in the bottom level. */
    std::uint64_t numLeaves() const { return levelCount_[levels_ - 1]; }

    /**
     * Append references for a short range scan of `count` sibling
     * leaves starting at a random leaf.
     */
    void fillLeafScan(exec::Burst &burst, sim::Rng &rng,
                      unsigned count) const;

  private:
    /** Walk the path from the root to `leaf_index`, recording loads. */
    mem::Addr descendTo(exec::Burst &burst, std::uint64_t leaf_index,
                        bool write_leaf) const;

    mem::Addr base_;
    unsigned levels_;
    unsigned fanout_;
    std::uint64_t nodeBytes_;
    std::uint64_t totalNodes_;
    /** Number of nodes above each level (level-order offset). */
    std::uint64_t levelOffset_[16];
    std::uint64_t levelCount_[16];
};

} // namespace middlesim::workload

#endif // WORKLOAD_OBJECTTREE_HH
