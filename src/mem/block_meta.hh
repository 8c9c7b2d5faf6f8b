/**
 * @file
 * The hierarchy's per-block table: one inline record per block.
 *
 * The coherent hierarchy keeps one record per 64-byte block it has
 * ever seen. A record holds the block's removal-cause vectors for
 * miss classification, the set of L2 groups holding it now (so snoops
 * probe only caches that can answer), a touched flag for communication
 * tracking and, under the directory protocol, the home's directory
 * state: sharer vector, owner and transient window. Every L2 miss,
 * upgrade and eviction finds the whole state of its block in one slot.
 *
 * Slots are fixed-size runs of 64-bit words in one flat array, probed
 * linearly (power-of-two capacity, doubling at 70% load). Every
 * vector is ceil(groups / 64) words, fixed when the table is built:
 *
 *   word 0         ~block (the complement, so an all-zero slot is empty)
 *   word 1         touched flag (low half), owner + 1 (high half)
 *   words 2..      everCached, invalidated, presence   (W words each)
 *   directory only sharers (W words), transientUntil   (1 word)
 *
 * A 16-group snooping record is 40 B; a 128-group directory record is
 * 88 B. A new record is all zero apart from its key, so creating one
 * copies nothing and no record owns heap memory.
 *
 * Keys are block-aligned addresses. Records are never individually
 * erased (blocks keep their cold/coherence history for the lifetime
 * of the run); the whole table is cleared only on invalidateAll().
 */

#ifndef MEM_BLOCK_META_HH
#define MEM_BLOCK_META_HH

#include <cstdint>
#include <cstring>
#include <type_traits>
#include <vector>

#include "mem/memref.hh"
#include "mem/sharer_set.hh"
#include "sim/log.hh"
#include "sim/ticks.hh"

namespace middlesim::mem
{

/** Widest sharer vector a record carries: 1024 groups. */
inline constexpr unsigned kMaxGroupWords = 16;

/**
 * A stack copy of one of a record's vectors, for walking the vector
 * while the walk changes the record.
 */
class GroupBitsCopy
{
  public:
    explicit GroupBitsCopy(ConstGroupBits src) : n_(src.words())
    {
        std::memcpy(w_, src.data(), n_ * sizeof(std::uint64_t));
    }

    ConstGroupBits bits() const { return {w_, n_}; }

  private:
    std::uint64_t w_[kMaxGroupWords];
    unsigned n_;
};

/**
 * View of one block's record inside a BlockMetaTable; null when the
 * table has no record for the block. `Word` is std::uint64_t for a
 * mutable view and const std::uint64_t for a read-only one. A view is
 * valid until the next insertion into its table. The directory fields
 * (sharers, owner, transientUntil) exist only in a table built for
 * the directory protocol.
 */
template <typename Word>
class LineMetaRef
{
    static constexpr bool kMutable = !std::is_const_v<Word>;
    using Bits = GroupBitsRef<Word>;

  public:
    LineMetaRef() = default;
    LineMetaRef(Word *slot, unsigned vector_words)
        : slot_(slot), w_(vector_words)
    {}

    /** A mutable view converts to a read-only one. */
    operator LineMetaRef<const std::uint64_t>() const { return {slot_, w_}; }

    explicit operator bool() const { return slot_ != nullptr; }

    /** Groups that cached the block at some point (cold-miss filter). */
    Bits everCached() const { return {slot_ + 2, w_}; }
    /** Groups whose copy was last removed by an invalidation. */
    Bits invalidated() const { return {slot_ + 2 + w_, w_}; }
    /** Groups holding a valid copy right now (snoop filter). */
    Bits presence() const { return {slot_ + 2 + 2 * w_, w_}; }

    /** Referenced since communication tracking was last reset. */
    bool touched() const { return slot_[1] & kTouched; }

    void
    setTouched(bool on) const requires kMutable
    {
        slot_[1] = on ? slot_[1] | kTouched : slot_[1] & ~kTouched;
    }

    /** Directory: L2 groups the home believes hold a copy. */
    Bits sharers() const { return {slot_ + 2 + 3 * w_, w_}; }

    /** Directory: group holding the block E/M; -1 when none. */
    std::int32_t
    owner() const
    {
        return static_cast<std::int32_t>(slot_[1] >> 32) - 1;
    }

    void
    setOwner(std::int32_t group) const requires kMutable
    {
        slot_[1] = (slot_[1] & kTouched) |
                   (static_cast<std::uint64_t>(group + 1) << 32);
    }

    /**
     * Directory: end of the home-side transient window of the last
     * transaction on this block (0 = quiescent or contention plane
     * disabled). Requests landing inside the window are NACKed.
     */
    sim::Tick transientUntil() const { return slot_[2 + 4 * w_]; }

    void
    setTransientUntil(sim::Tick t) const requires kMutable
    {
        slot_[2 + 4 * w_] = t;
    }

  private:
    static constexpr std::uint64_t kTouched = 1;

    Word *slot_ = nullptr;
    unsigned w_ = 0;
};

using LineMeta = LineMetaRef<std::uint64_t>;
using ConstLineMeta = LineMetaRef<const std::uint64_t>;

/** Open-addressed block -> record table (linear probing). */
class BlockMetaTable
{
  public:
    /** Starting capacity: building a machine touches almost nothing. */
    static constexpr std::size_t kInitialSlots = 1024;

    /**
     * @param num_groups sharer groups; fixes every vector's width
     * @param directory  whether records carry the directory fields
     */
    BlockMetaTable(unsigned num_groups, bool directory,
                   std::size_t initial_slots = kInitialSlots)
        : w_((num_groups + 63) / 64),
          slotWords_(2 + 3 * w_ + (directory ? w_ + 1 : 0))
    {
        sim_assert(num_groups > 0 && w_ <= kMaxGroupWords,
                   "block records hold 1 to 64 * kMaxGroupWords groups");
        std::size_t cap = 16;
        while (cap < initial_slots)
            cap <<= 1;
        words_.assign(cap * slotWords_, 0);
        mask_ = cap - 1;
    }

    /** Find-or-insert; the view is valid until the next insert. */
    LineMeta
    operator[](Addr block)
    {
        std::uint64_t *slot = probe(block);
        if (*slot == 0) [[unlikely]]
            slot = insert(block, slot);
        return {slot, w_};
    }

    /** Lookup without insertion; a null view when absent. */
    LineMeta
    find(Addr block)
    {
        std::uint64_t *slot = probe(block);
        return *slot == 0 ? LineMeta() : LineMeta(slot, w_);
    }

    ConstLineMeta
    find(Addr block) const
    {
        return const_cast<BlockMetaTable *>(this)->find(block);
    }

    /** Number of blocks with a record. */
    std::size_t size() const { return size_; }

    /** Slots allocated (a power of two). */
    std::size_t capacity() const { return mask_ + 1; }

    /** Bytes per slot (record plus key). */
    std::size_t
    slotBytes() const
    {
        return slotWords_ * sizeof(std::uint64_t);
    }

    /** Drop every record (the capacity stays). */
    void
    clear()
    {
        std::memset(words_.data(), 0, words_.size() * sizeof(std::uint64_t));
        size_ = 0;
    }

    /** Visit every record in slot order: fn(block, view). */
    template <typename F>
    void
    forEach(F &&fn)
    {
        for (std::size_t i = 0; i < words_.size(); i += slotWords_) {
            if (words_[i] != 0)
                fn(~words_[i], LineMeta(&words_[i], w_));
        }
    }

    template <typename F>
    void
    forEach(F &&fn) const
    {
        for (std::size_t i = 0; i < words_.size(); i += slotWords_) {
            if (words_[i] != 0)
                fn(~words_[i], ConstLineMeta(&words_[i], w_));
        }
    }

  private:
    /** Claim the empty `slot` for `block`, growing first if full. */
    std::uint64_t *
    insert(Addr block, std::uint64_t *slot)
    {
        if (size_ + 1 > (capacity() * 7) / 10) {
            grow();
            slot = probe(block);
        }
        *slot = ~block;
        ++size_;
        return slot;
    }

    static std::size_t
    hash(Addr block)
    {
        // Fibonacci hashing over the block number (low 6 bits are 0).
        return static_cast<std::size_t>(
            (block >> 6) * 0x9E3779B97F4A7C15ULL);
    }

    /** The block's slot, or the empty slot where it would go. */
    std::uint64_t *
    probe(Addr block)
    {
        const std::uint64_t key = ~block;
        std::size_t i = hash(block) & mask_;
        for (;;) {
            std::uint64_t *slot = &words_[i * slotWords_];
            if (*slot == key || *slot == 0)
                return slot;
            i = (i + 1) & mask_;
        }
    }

    void
    grow()
    {
        std::vector<std::uint64_t> old(2 * words_.size(), 0);
        old.swap(words_);
        mask_ = 2 * mask_ + 1;
        for (std::size_t i = 0; i < old.size(); i += slotWords_) {
            if (old[i] == 0)
                continue;
            std::uint64_t *slot = probe(~old[i]);
            std::memcpy(slot, &old[i], slotWords_ * sizeof(std::uint64_t));
        }
    }

    /** Words per sharer vector. */
    unsigned w_;
    /** Words per slot: key, flags/owner, vectors, directory fields. */
    unsigned slotWords_;
    std::vector<std::uint64_t> words_;
    std::size_t mask_ = 0;
    std::size_t size_ = 0;
};

} // namespace middlesim::mem

#endif // MEM_BLOCK_META_HH
