#include "workload/objecttree.hh"

#include "sim/log.hh"

namespace middlesim::workload
{

ObjectTree::ObjectTree(mem::Addr base, unsigned levels, unsigned fanout,
                       unsigned node_bytes)
    : base_(base), levels_(levels), fanout_(fanout),
      nodeBytes_((node_bytes + 63) & ~std::uint64_t{63})
{
    if (levels == 0 || levels > 15)
        fatal("object tree: levels must be in [1, 15]");
    if (fanout < 2)
        fatal("object tree: fanout must be at least 2");
    std::uint64_t count = 1;
    std::uint64_t offset = 0;
    for (unsigned l = 0; l < levels_; ++l) {
        levelOffset_[l] = offset;
        levelCount_[l] = count;
        offset += count;
        count *= fanout_;
    }
    totalNodes_ = offset;
}

mem::Addr
ObjectTree::nodeAddr(unsigned level, std::uint64_t index) const
{
    sim_assert(level < levels_, "tree level out of range");
    sim_assert(index < levelCount_[level], "tree index out of range");
    return base_ + (levelOffset_[level] + index) * nodeBytes_;
}

mem::Addr
ObjectTree::fillDescentTiered(exec::Burst &burst, sim::Rng &rng,
                              bool write_leaf,
                              std::uint64_t hot_leaves, double p_hot,
                              std::uint64_t warm_leaves, double p_warm)
    const
{
    const std::uint64_t leaves = levelCount_[levels_ - 1];
    hot_leaves = std::min(std::max<std::uint64_t>(hot_leaves, 1),
                          leaves);
    warm_leaves = std::min(std::max(warm_leaves, hot_leaves), leaves);
    const double u = rng.real();
    std::uint64_t leaf_index;
    if (u < p_hot) {
        leaf_index = rng.uniform(hot_leaves);
    } else if (u < p_hot + p_warm && warm_leaves > hot_leaves) {
        // Warm draws are exclusive of the hot prefix.
        leaf_index = hot_leaves +
                     rng.uniform(warm_leaves - hot_leaves);
    } else {
        leaf_index = rng.uniform(leaves);
    }
    return descendTo(burst, leaf_index, write_leaf);
}

mem::Addr
ObjectTree::descendTo(exec::Burst &burst, std::uint64_t leaf_index,
                      bool write_leaf) const
{

    mem::Addr leaf = base_;
    // divisor = fanout^(levels-2): extracts the level-1 digit of the
    // leaf's path first.
    std::uint64_t divisor = 1;
    for (unsigned l = 2; l < levels_; ++l)
        divisor *= fanout_;
    std::uint64_t index = 0;
    for (unsigned l = 0; l < levels_; ++l) {
        leaf = nodeAddr(l, index);
        burst.load(leaf);
        if (l + 1 < levels_) {
            const std::uint64_t child = leaf_index / divisor % fanout_;
            index = index * fanout_ + child;
            if (divisor >= fanout_)
                divisor /= fanout_;
        }
    }
    sim_assert(levels_ == 1 || index == leaf_index,
               "descent path does not reach the drawn leaf");
    // Nodes span two cache lines (128-byte objects): field access
    // touches the second line of the leaf as well.
    if (nodeBytes_ > 64)
        burst.load(leaf + 64);
    if (write_leaf)
        burst.store(leaf);
    return leaf;
}

void
ObjectTree::fillLeafScan(exec::Burst &burst, sim::Rng &rng,
                         unsigned count) const
{
    const unsigned leaf_level = levels_ - 1;
    const std::uint64_t leaves = levelCount_[leaf_level];
    std::uint64_t start = rng.uniform(leaves);
    for (unsigned i = 0; i < count; ++i) {
        burst.load(nodeAddr(leaf_level, (start + i) % leaves));
    }
}

} // namespace middlesim::workload
