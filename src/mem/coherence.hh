/**
 * @file
 * Coherence states (the MOSI and MESI subsets) and their helpers.
 *
 * The E6000's Gigaplane bus implements an ownership-based snooping
 * protocol; a processor holding a line in Modified or Owned state
 * supplies it to a requester with a "snoop copyback" — the
 * cache-to-cache transfer the paper measures via cpustat. We model a
 * MOSI protocol at the L2 level (L1s are write-through and subordinate
 * to their L2); the many-core directory protocol uses MESI.
 */

#ifndef MEM_COHERENCE_HH
#define MEM_COHERENCE_HH

#include <cstdint>

namespace middlesim::mem
{

/**
 * Stable coherence states, encoded to fit cache line metadata. The
 * snooping bus uses the MOSI subset (Owned is a degraded Modified
 * that keeps supplying data); the directory protocol uses the MESI
 * subset (Exclusive is a clean sole copy granted when the directory
 * sees no other sharer, enabling silent E->M write upgrades). No
 * protocol produces both Owned and Exclusive.
 */
enum class CoherenceState : std::uint8_t
{
    Invalid = 0,
    Shared = 1,
    Owned = 2,
    Modified = 3,
    Exclusive = 4,
};

/**
 * True if the state grants write permission without any coherence
 * transaction. Exclusive is excluded on purpose: a store to E
 * upgrades silently to M (no message), but the state change must
 * still be recorded, so the access path handles E explicitly.
 */
constexpr bool
canWrite(CoherenceState s)
{
    return s == CoherenceState::Modified;
}

/** True if this cache must respond with data to a snoop (M or O). */
constexpr bool
isOwner(CoherenceState s)
{
    return s == CoherenceState::Modified || s == CoherenceState::Owned;
}

/**
 * True if a directory forward to this cache yields a cache-to-cache
 * transfer: the sole-copy states (the directory never forwards to a
 * mere sharer — the home supplies data instead).
 */
constexpr bool
suppliesDataOnForward(CoherenceState s)
{
    return s == CoherenceState::Modified ||
           s == CoherenceState::Exclusive;
}

/** True if eviction of a line in this state requires a writeback. */
constexpr bool
needsWriteback(CoherenceState s)
{
    return isOwner(s);
}

/**
 * State of a snooping peer after observing a remote GetS.
 * Owners degrade to Owned (they keep supplying data); sharers remain.
 */
constexpr CoherenceState
peerAfterGetS(CoherenceState s)
{
    return s == CoherenceState::Modified ? CoherenceState::Owned : s;
}

/** Human-readable state name. */
constexpr const char *
toString(CoherenceState s)
{
    switch (s) {
      case CoherenceState::Invalid: return "I";
      case CoherenceState::Shared: return "S";
      case CoherenceState::Owned: return "O";
      case CoherenceState::Modified: return "M";
      case CoherenceState::Exclusive: return "E";
    }
    return "?";
}

} // namespace middlesim::mem

#endif // MEM_COHERENCE_HH
