/**
 * @file
 * Sharer-group bit vectors: word views and an owning set.
 *
 * Each per-block record carries several vectors with one bit per L2
 * group (ever cached, invalidated, present, and the directory's
 * sharers). Their width is fixed when the machine is built:
 * ceil(groups / 64) words. The records store those words inline (see
 * block_meta.hh), and code reaches them through GroupBits, a view of
 * `n` words with no storage of its own. ConstGroupBits is the
 * read-only view.
 *
 * SharerSet owns its words in a vector sized ceil(groups / 64). It
 * is the checker's shadow state and a convenience for tests; the
 * simulated machine never allocates one.
 */

#ifndef MEM_SHARER_SET_HH
#define MEM_SHARER_SET_HH

#include <bit>
#include <cstdint>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace middlesim::mem
{

/**
 * View of `n` 64-bit words holding one bit per sharer group: group g
 * is bit g % 64 of word g / 64. Group indices must be below 64 * n.
 * `Word` is std::uint64_t for a mutable view and const std::uint64_t
 * for a read-only one.
 */
template <typename Word>
class GroupBitsRef
{
    static constexpr bool kMutable = !std::is_const_v<Word>;

  public:
    GroupBitsRef(Word *words, unsigned n) : w_(words), n_(n) {}

    /** A mutable view converts to a read-only one. */
    operator GroupBitsRef<const std::uint64_t>() const { return {w_, n_}; }

    /** Number of 64-bit words in the vector. */
    unsigned words() const { return n_; }

    /** The i-th word (0 when past the end). */
    std::uint64_t word(unsigned i) const { return i < n_ ? w_[i] : 0; }

    Word *data() const { return w_; }

    bool test(unsigned g) const { return (w_[g / 64] >> (g % 64)) & 1u; }

    void
    set(unsigned g) const requires kMutable
    {
        w_[g / 64] |= std::uint64_t{1} << (g % 64);
    }

    void
    clear(unsigned g) const requires kMutable
    {
        w_[g / 64] &= ~(std::uint64_t{1} << (g % 64));
    }

    bool
    none() const
    {
        for (unsigned i = 0; i < n_; ++i) {
            if (w_[i])
                return false;
        }
        return true;
    }

    bool any() const { return !none(); }

    unsigned
    count() const
    {
        unsigned c = 0;
        for (unsigned i = 0; i < n_; ++i)
            c += static_cast<unsigned>(std::popcount(w_[i]));
        return c;
    }

    /**
     * Call fn(group) for every set bit, ascending. Each word is read
     * once, before its bits are visited.
     */
    template <typename F>
    void
    forEachSet(F &&fn) const
    {
        for (unsigned i = 0; i < n_; ++i) {
            for (std::uint64_t m = w_[i]; m; m &= m - 1)
                fn(i * 64u + static_cast<unsigned>(std::countr_zero(m)));
        }
    }

    /** forEachSet skipping one group (snoop "everyone but me"). */
    template <typename F>
    void
    forEachSetExcept(unsigned skip, F &&fn) const
    {
        forEachSet([&](unsigned g) {
            if (g != skip)
                fn(g);
        });
    }

    /** Hex rendering of the words, most-significant first. */
    std::string
    toHex() const
    {
        static const char *digits = "0123456789abcdef";
        std::string out = "0x";
        bool started = false;
        for (unsigned i = n_; i-- > 0;) {
            for (int nib = 15; nib >= 0; --nib) {
                const unsigned d =
                    static_cast<unsigned>((w_[i] >> (nib * 4)) & 0xf);
                if (!started && d == 0 && !(i == 0 && nib == 0))
                    continue;
                started = true;
                out += digits[d];
            }
        }
        return out;
    }

  private:
    Word *w_;
    unsigned n_;
};

using GroupBits = GroupBitsRef<std::uint64_t>;
using ConstGroupBits = GroupBitsRef<const std::uint64_t>;

/** Equal sets; the narrower vector reads as zero-extended. */
inline bool
operator==(ConstGroupBits a, ConstGroupBits b)
{
    const unsigned n = a.words() > b.words() ? a.words() : b.words();
    for (unsigned i = 0; i < n; ++i) {
        if (a.word(i) != b.word(i))
            return false;
    }
    return true;
}

/** Owning sharer-group set (checker shadow state, tests). */
class SharerSet
{
  public:
    SharerSet() = default;

    /** A set sized for `num_groups` groups, all bits clear. */
    explicit SharerSet(unsigned num_groups) : w_((num_groups + 63) / 64)
    {
    }

    GroupBits bits() { return {w_.data(), words()}; }
    ConstGroupBits bits() const { return {w_.data(), words()}; }

    unsigned words() const { return static_cast<unsigned>(w_.size()); }
    bool test(unsigned g) const { return g < 64 * words() && bits().test(g); }
    void set(unsigned g) { bits().set(g); }
    void clear(unsigned g) { bits().clear(g); }
    bool none() const { return bits().none(); }
    unsigned count() const { return bits().count(); }
    std::string toHex() const { return bits().toHex(); }

    template <typename F>
    void
    forEachSet(F &&fn) const
    {
        bits().forEachSet(std::forward<F>(fn));
    }

    template <typename F>
    void
    forEachSetExcept(unsigned skip, F &&fn) const
    {
        bits().forEachSetExcept(skip, std::forward<F>(fn));
    }

  private:
    std::vector<std::uint64_t> w_;
};

} // namespace middlesim::mem

#endif // MEM_SHARER_SET_HH
