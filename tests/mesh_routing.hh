/**
 * @file
 * The interconnect routing spec, shared by the directory tests:
 * hop distances between NUMA nodes computed from the machine config
 * alone. mem::DirectoryController caches its own per-node tables;
 * the DirMesh and DirNuma tests check those tables and the hop
 * counters against this reference.
 */

#ifndef TESTS_MESH_ROUTING_HH
#define TESTS_MESH_ROUTING_HH

#include "sim/config.hh"

namespace middlesim::test
{

/**
 * Interconnect hop distance between two nodes. Ring: the shorter
 * way around. Mesh: dimension-ordered XY routing on the
 * wrap-around grid — the Manhattan distance with each axis
 * measured the shorter way around its ring, so the route length
 * equals ringDistance in X plus ringDistance in Y and a W x 1
 * mesh agrees with the W-node ring exactly.
 */
inline unsigned
hopsBetween(const sim::MachineConfig &m, unsigned a, unsigned b)
{
    if (m.topology == sim::Topology::Mesh) {
        const unsigned w = m.meshWidth();
        return sim::MachineConfig::ringDistance(a % w, b % w, w) +
               sim::MachineConfig::ringDistance(a / w, b / w,
                                                m.numaNodes / w);
    }
    return sim::MachineConfig::ringDistance(a, b, m.numaNodes);
}

/** X-axis leg of the dimension-ordered mesh route (0 under ring). */
inline unsigned
meshHopsX(const sim::MachineConfig &m, unsigned a, unsigned b)
{
    if (m.topology != sim::Topology::Mesh)
        return 0;
    const unsigned w = m.meshWidth();
    return sim::MachineConfig::ringDistance(a % w, b % w, w);
}

/** Y-axis leg of the dimension-ordered mesh route (0 under ring). */
inline unsigned
meshHopsY(const sim::MachineConfig &m, unsigned a, unsigned b)
{
    if (m.topology != sim::Topology::Mesh)
        return 0;
    const unsigned w = m.meshWidth();
    return sim::MachineConfig::ringDistance(a / w, b / w,
                                            m.numaNodes / w);
}

} // namespace middlesim::test

#endif // TESTS_MESH_ROUTING_HH
