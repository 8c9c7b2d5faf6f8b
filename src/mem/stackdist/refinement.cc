#include "mem/stackdist/refinement.hh"

#include "sim/log.hh"

namespace middlesim::mem::stackdist
{

namespace
{

bool
isPow2(std::uint64_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

} // namespace

bool
RefinementSweep::suitable(const std::vector<sim::CacheParams> &configs)
{
    if (configs.empty())
        return false;
    const unsigned block = configs.front().blockBytes;
    if (!isPow2(block))
        return false;
    for (const sim::CacheParams &p : configs) {
        if (p.blockBytes != block || !isPow2(p.numSets()) ||
            p.assoc == 0 || p.assoc > kMaxAssoc) {
            return false;
        }
    }
    return true;
}

RefinementSweep::RefinementSweep(
    const std::vector<sim::CacheParams> &configs)
{
    if (!suitable(configs)) {
        fatal("sweep: cache geometries need one power-of-two block "
              "size, power-of-two set counts and associativity <= ",
              kMaxAssoc);
    }
    unsigned shift = 0;
    while ((1u << shift) <
           static_cast<unsigned>(configs.front().blockBytes))
        ++shift;
    blockShift_ = shift;
    levels_.reserve(configs.size());
    for (const sim::CacheParams &p : configs) {
        Level level;
        level.setMask = p.numSets() - 1;
        level.assoc = p.assoc;
        level.ways.assign(p.numSets() * p.assoc, kEmpty);
        levels_.push_back(std::move(level));
    }
    misses_.assign(configs.size(), 0);
}

void
RefinementSweep::access(Addr addr, bool count_miss)
{
    ++accesses_;
    const std::uint64_t block = addr >> blockShift_;
    if (block == lastBlock_) {
        // The previous reference left this block MRU in every
        // geometry: a guaranteed hit everywhere with no recency
        // movement needed.
        return;
    }
    lastBlock_ = block;

    for (std::size_t k = 0; k < levels_.size(); ++k) {
        Level &level = levels_[k];
        std::uint64_t *row =
            level.ways.data() + (block & level.setMask) * level.assoc;
        unsigned pos = level.assoc;
        for (unsigned w = 0; w < level.assoc; ++w) {
            if (row[w] == block) {
                pos = w;
                break;
            }
        }
        if (pos == level.assoc) {
            // Miss: evict the LRU entry (last in the row).
            if (count_miss)
                ++misses_[k];
            pos = level.assoc - 1;
        }
        // Move-to-front within the recency row.
        for (unsigned w = pos; w > 0; --w)
            row[w] = row[w - 1];
        row[0] = block;
    }
}

void
RefinementSweep::resetCounters()
{
    accesses_ = 0;
    misses_.assign(misses_.size(), 0);
}

} // namespace middlesim::mem::stackdist
