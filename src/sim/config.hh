/**
 * @file
 * Machine-level configuration structures.
 *
 * Defaults model the paper's measurement platform: a 16-processor Sun
 * E6000 with UltraSPARC II processors and 1 MB L2 caches on a snooping
 * bus. The simulated cache sweeps in the paper use 4-way set
 * associative caches with 64-byte blocks; we adopt those geometries as
 * defaults throughout.
 */

#ifndef SIM_CONFIG_HH
#define SIM_CONFIG_HH

#include <cstdint>
#include <string>

#include "sim/log.hh"

namespace middlesim::sim
{

/** Geometry of one cache. */
struct CacheParams
{
    /** Total capacity in bytes. */
    std::uint64_t sizeBytes = 1u << 20;
    /** Set associativity (1 = direct mapped). */
    unsigned assoc = 4;
    /** Block (line) size in bytes; the paper uses 64 B throughout. */
    unsigned blockBytes = 64;

    std::uint64_t numBlocks() const { return sizeBytes / blockBytes; }
    std::uint64_t numSets() const { return numBlocks() / assoc; }

    /** Validate that the geometry is self-consistent. */
    void
    validate(const std::string &name) const
    {
        if (blockBytes == 0 || (blockBytes & (blockBytes - 1)) != 0)
            fatal(name, ": block size must be a power of two");
        if (assoc == 0)
            fatal(name, ": associativity must be nonzero");
        if (sizeBytes % (static_cast<std::uint64_t>(blockBytes) * assoc)
                != 0) {
            fatal(name, ": size must be a multiple of assoc * block");
        }
        if (numSets() == 0)
            fatal(name, ": cache has no sets");
    }
};

/**
 * Coherence protocol plane. SnoopBus is the paper's machine: a MOSI
 * snooping Gigaplane bus, every L2 observes every transaction.
 * DirectoryMesi is the many-core option: a full-map directory MESI
 * protocol with per-node homes and point-to-point messages, required
 * beyond the snooping sharer ceiling (see Hierarchy).
 */
enum class CoherenceProtocol : std::uint8_t
{
    SnoopBus = 0,
    DirectoryMesi = 1,
};

constexpr const char *
toString(CoherenceProtocol p)
{
    return p == CoherenceProtocol::DirectoryMesi ? "directory" : "snoop";
}

/**
 * Parse a protocol name. Accepts "snoop"/"bus"/"mosi" and
 * "directory"/"dir"/"mesi". @return false on an unknown name (`out`
 * is left untouched).
 */
inline bool
parseProtocol(const std::string &name, CoherenceProtocol &out)
{
    if (name == "snoop" || name == "bus" || name == "mosi") {
        out = CoherenceProtocol::SnoopBus;
        return true;
    }
    if (name == "directory" || name == "dir" || name == "mesi") {
        out = CoherenceProtocol::DirectoryMesi;
        return true;
    }
    return false;
}

/**
 * Interconnect topology linking the NUMA nodes under the directory
 * protocol. Ring is the PR 9 baseline (shortest-way-around distance).
 * Mesh is a 2-D wrap-around mesh (k-ary 2-cube): nodes are arranged
 * in a near-square grid, messages route dimension-ordered (X first,
 * then Y, each dimension the shorter way around its row/column ring),
 * so a W x 1 mesh degenerates to exactly the W-node ring.
 */
enum class Topology : std::uint8_t
{
    Ring = 0,
    Mesh = 1,
};

constexpr const char *
toString(Topology t)
{
    return t == Topology::Mesh ? "mesh" : "ring";
}

/**
 * Parse a topology name. Accepts "ring" and "mesh"/"mesh2d"/"torus".
 * @return false on an unknown name (`out` is left untouched).
 */
inline bool
parseTopology(const std::string &name, Topology &out)
{
    if (name == "ring") {
        out = Topology::Ring;
        return true;
    }
    if (name == "mesh" || name == "mesh2d" || name == "torus") {
        out = Topology::Mesh;
        return true;
    }
    return false;
}

/** Configuration of the modeled multiprocessor. */
struct MachineConfig
{
    /** Physical processors in the machine (E6000: 16). */
    unsigned totalCpus = 16;

    /**
     * Processors in the application's processor set (psrset). The
     * benchmark's threads are bound here; the OS continues to run
     * background activity on all totalCpus processors.
     */
    unsigned appCpus = 16;

    /** Private split L1 instruction cache. */
    CacheParams l1i{16 * 1024, 4, 64};
    /** Private split L1 data cache. */
    CacheParams l1d{16 * 1024, 4, 64};
    /** Second-level cache (private or shared, see cpusPerL2). */
    CacheParams l2{1u << 20, 4, 64};

    /**
     * Number of processors sharing each L2 cache. 1 models the E6000's
     * private per-processor L2s; 2/4/8 model the CMP shared-cache
     * configurations of Figure 16.
     */
    unsigned cpusPerL2 = 1;

    /** Coherence protocol connecting the L2 groups. */
    CoherenceProtocol protocol = CoherenceProtocol::SnoopBus;

    /**
     * NUMA nodes the machine is partitioned into. 1 models the
     * E6000's flat UMA backplane. Under the directory protocol each
     * node owns an equal slice of the L2 groups and serves as home
     * for an interleaved slice of physical memory; remote homes cost
     * interconnect hops (see LatencyModel::hop).
     */
    unsigned numaNodes = 1;

    /** Interconnect topology linking the NUMA nodes. */
    Topology topology = Topology::Ring;

    /**
     * Home-side contention: concurrent in-flight transaction slots
     * per directory home. 0 (default) is the contention-free PR 9
     * model — every home services requests instantly. When nonzero, a
     * request that finds every slot of its home busy, or its block
     * mid-transaction, is NACKed and retried with bounded exponential
     * backoff, and every interconnect hop queues on a per-link
     * utilization model (see DirectoryController).
     */
    unsigned dirOccupancy = 0;

    unsigned
    numL2s() const
    {
        return (totalCpus + cpusPerL2 - 1) / cpusPerL2;
    }

    /** L2 groups per NUMA node (nodes partition the groups evenly). */
    unsigned
    groupsPerNode() const
    {
        return numL2s() / numaNodes;
    }

    /** NUMA node owning L2 group `group`. */
    unsigned
    nodeOfGroup(unsigned group) const
    {
        return group / groupsPerNode();
    }

    /**
     * Home node of a block-aligned address: physical memory is
     * block-interleaved across nodes.
     */
    unsigned
    homeNodeOf(std::uint64_t block, unsigned block_bytes) const
    {
        return static_cast<unsigned>((block / block_bytes) % numaNodes);
    }

    /** Shortest-way distance between positions on a ring of `size`. */
    static unsigned
    ringDistance(unsigned a, unsigned b, unsigned size)
    {
        const unsigned d = a > b ? a - b : b - a;
        return d < size - d ? d : size - d;
    }

    /**
     * Mesh width (columns). The near-square factorization of the node
     * count: height is the largest divisor not exceeding sqrt(n),
     * width the cofactor, so width >= height and width * height == n.
     * A prime node count degenerates to an n x 1 row — i.e. the ring.
     */
    unsigned
    meshWidth() const
    {
        return numaNodes / meshHeight();
    }

    /** Mesh height (rows); see meshWidth(). */
    unsigned
    meshHeight() const
    {
        unsigned best = 1;
        for (unsigned h = 1; h * h <= numaNodes; ++h) {
            if (numaNodes % h == 0)
                best = h;
        }
        return best;
    }

    /** Mesh X coordinate (column) of a node. */
    unsigned meshX(unsigned node) const { return node % meshWidth(); }

    /** Mesh Y coordinate (row) of a node. */
    unsigned meshY(unsigned node) const { return node / meshWidth(); }

    void
    validate() const
    {
        if (totalCpus == 0)
            fatal("machine: totalCpus must be nonzero");
        if (appCpus == 0 || appCpus > totalCpus)
            fatal("machine: appCpus must be in [1, totalCpus]");
        if (cpusPerL2 == 0 || totalCpus % cpusPerL2 != 0)
            fatal("machine: cpusPerL2 must divide totalCpus");
        if (numaNodes == 0 || numL2s() % numaNodes != 0)
            fatal("machine: numaNodes must divide the L2 group count");
        if (protocol == CoherenceProtocol::SnoopBus && numaNodes != 1) {
            fatal("machine: the snooping bus is a single-node fabric; "
                  "numaNodes=", numaNodes,
                  " requires --protocol=directory");
        }
        if (protocol == CoherenceProtocol::SnoopBus &&
            topology != Topology::Ring) {
            fatal("machine: --topology=", toString(topology),
                  " is a directory-interconnect option; the snooping "
                  "bus has no point-to-point fabric");
        }
        if (protocol == CoherenceProtocol::SnoopBus && dirOccupancy != 0) {
            fatal("machine: --dir-occupancy models directory homes; "
                  "it requires --protocol=directory");
        }
        l1i.validate("l1i");
        l1d.validate("l1d");
        l2.validate("l2");
        if (l1i.blockBytes != l2.blockBytes ||
            l1d.blockBytes != l2.blockBytes) {
            fatal("machine: L1/L2 block sizes must match");
        }
    }
};

} // namespace middlesim::sim

#endif // SIM_CONFIG_HH
