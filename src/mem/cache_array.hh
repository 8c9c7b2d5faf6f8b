/**
 * @file
 * Generic set-associative cache array with true-LRU replacement.
 *
 * This is pure tag/state bookkeeping: it knows nothing about
 * coherence protocols or latencies. The coherent L2 controller and
 * the uniprocessor sweep simulator are both built on it.
 */

#ifndef MEM_CACHE_ARRAY_HH
#define MEM_CACHE_ARRAY_HH

#include <cstdint>
#include <vector>

#include "mem/coherence.hh"
#include "mem/memref.hh"
#include "sim/config.hh"
#include "sim/log.hh"

namespace middlesim::mem
{

/**
 * One cache line's bookkeeping in 16 bytes: the block address, which
 * carries the coherence state in its low 3 bits (a block is at least
 * sim::kMinBlockBytes, so those bits of its address are zero), and
 * the LRU stamp. An invalidated line keeps its tag.
 */
class CacheLine
{
  public:
    /** The state's bits of the tag word. */
    static constexpr Addr kStateMask = 7;

    /** LRU stamp; larger = more recently used. */
    std::uint64_t lru = 0;

    /** Block-aligned address of the cached block. */
    Addr tag() const { return tagState_ & ~kStateMask; }

    CoherenceState
    state() const
    {
        return static_cast<CoherenceState>(tagState_ & kStateMask);
    }

    void
    setState(CoherenceState s)
    {
        tagState_ = tag() | static_cast<Addr>(s);
    }

    bool valid() const { return (tagState_ & kStateMask) != 0; }

    /** Valid and caching `block` (block-aligned): one compare. */
    bool
    holds(Addr block) const
    {
        // Equal tags leave only the state bits, nonzero when valid.
        return (tagState_ ^ block) - 1 < kStateMask;
    }

  private:
    friend class CacheArray;

    Addr tagState_ = 0;
};

static_assert(sizeof(CacheLine) == 16, "a cache line is two words");
static_assert(CacheLine::kStateMask < sim::kMinBlockBytes &&
                  static_cast<Addr>(CoherenceState::Exclusive) <=
                      CacheLine::kStateMask,
              "every state fits below the smallest block's offset bits");

/** Set-associative tag array. */
class CacheArray
{
  public:
    explicit CacheArray(const sim::CacheParams &params);

    /** Block-aligned address of a full address. */
    Addr blockAddr(Addr a) const { return a & ~blockMask_; }

    /**
     * Find the line caching `addr`, or nullptr. Does not update LRU;
     * call touch() on a hit. Defined inline — this is the single
     * hottest function of the whole simulator (hundreds of millions
     * of calls per measured figure point). A per-set MRU-way hint
     * short-circuits the tag scan for the common repeated-hit case;
     * the hint only changes which compare happens first, never the
     * result (tags are unique within a set).
     */
    CacheLine *
    find(Addr addr)
    {
        const Addr block = blockAddr(addr);
        const std::uint64_t set = setIndex(addr);
        const std::uint64_t base = set * params_.assoc;
        CacheLine &hinted = lines_[base + mruWay_[set]];
        if (hinted.holds(block))
            return &hinted;
        for (unsigned w = 0; w < params_.assoc; ++w) {
            CacheLine &line = lines_[base + w];
            if (line.holds(block)) {
                mruWay_[set] = static_cast<std::uint8_t>(w);
                return &line;
            }
        }
        return nullptr;
    }

    const CacheLine *
    find(Addr addr) const
    {
        return const_cast<CacheArray *>(this)->find(addr);
    }

    /** Mark a line most recently used. */
    void touch(CacheLine &line) { line.lru = ++lruClock_; }

    /**
     * Choose the victim frame for `addr`: an invalid frame if one
     * exists, else the LRU line of the set. The caller is responsible
     * for handling the victim's writeback before overwriting it.
     */
    CacheLine &
    victim(Addr addr)
    {
        const std::uint64_t base = setIndex(addr) * params_.assoc;
        CacheLine *lru = &lines_[base];
        for (unsigned w = 0; w < params_.assoc; ++w) {
            CacheLine &line = lines_[base + w];
            if (!line.valid())
                return line;
            if (line.lru < lru->lru)
                lru = &line;
        }
        return *lru;
    }

    /**
     * Install `addr` into a frame (which must be the result of
     * victim()) with the given state, and make it MRU.
     */
    void
    install(CacheLine &frame, Addr addr, CoherenceState state)
    {
        sim_assert(state != CoherenceState::Invalid,
                   "installing an invalid line");
        frame.tagState_ = blockAddr(addr) | static_cast<Addr>(state);
        rememberWay(addr, frame);
        touch(frame);
    }

    /**
     * Install at the LRU position (streaming insertion): used for
     * block-initializing stores, whose lines are typically displaced
     * before reuse. Keeps allocation waves from flushing the working
     * set.
     */
    void
    installStreaming(CacheLine &frame, Addr addr, CoherenceState state)
    {
        sim_assert(state != CoherenceState::Invalid,
                   "installing an invalid line");
        frame.tagState_ = blockAddr(addr) | static_cast<Addr>(state);
        frame.lru = 0;
    }

    /** Invalidate every line (e.g. between experiment phases). */
    void invalidateAll();

    /** Number of valid lines currently held. */
    std::uint64_t validCount() const;

    /** Iterate lines of the set containing addr (for snoops/tests). */
    std::pair<const CacheLine *, const CacheLine *> setOf(Addr addr) const;

    /** Visit every valid line (checker audits; order unspecified). */
    template <typename F>
    void
    forEach(F &&fn) const
    {
        for (const CacheLine &line : lines_) {
            if (line.valid())
                fn(line);
        }
    }

  private:
    std::uint64_t
    setIndex(Addr addr) const
    {
        return (addr >> setShift_) & (numSets_ - 1);
    }

    /** Point the set's MRU hint at a freshly installed frame. */
    void
    rememberWay(Addr addr, const CacheLine &frame)
    {
        const std::uint64_t set = setIndex(addr);
        mruWay_[set] = static_cast<std::uint8_t>(
            &frame - &lines_[set * params_.assoc]);
    }

    sim::CacheParams params_;
    Addr blockMask_;
    std::uint64_t setShift_;
    std::uint64_t numSets_;
    std::vector<CacheLine> lines_;
    /** Way of the most recent hit/install per set (scan hint only). */
    std::vector<std::uint8_t> mruWay_;
    std::uint64_t lruClock_ = 0;
};

} // namespace middlesim::mem

#endif // MEM_CACHE_ARRAY_HH
