/**
 * @file
 * Deterministic coherence-fault injection for checker validation.
 *
 * A FaultPlan makes the hierarchy deliberately mis-handle a selected
 * subset of blocks so that tests and the stress driver can prove the
 * invariant checkers actually catch protocol bugs. No production code
 * path installs a plan; the pointer is nullptr outside tests.
 *
 * Matching is purely state-based — a hash of the block address
 * against `period`/`salt`, plus a victim-group mask — never
 * event-count-based. This matters for trace shrinking: removing
 * records from a failing reference stream must not change which
 * accesses trigger the fault, or the minimized repro would no longer
 * reproduce.
 */

#ifndef MEM_FAULT_HH
#define MEM_FAULT_HH

#include <cstdint>
#include <string>

#include "mem/memref.hh"

namespace middlesim::mem
{

/** A seeded protocol defect to inject into the hierarchy. */
struct FaultPlan
{
    enum class Kind : std::uint8_t
    {
        None = 0,
        /**
         * A remote write fails to invalidate the matched group's L2
         * copy: stale Shared/Owned/Modified copies survive a GetM.
         */
        DropInvalidate,
        /**
         * A snooped owner fails to degrade Modified -> Owned on a
         * remote GetS, leaving M coexisting with the requester's S.
         */
        KeepOwnerOnSnoop,
        /**
         * An L2 removal fails to back-invalidate the matched group's
         * L1 copies, breaking L1 subset inclusion.
         */
        SkipL1BackInvalidate,
        /**
         * Directory only: an invalidation is delivered (the sharer's
         * copy really dies) but its ack never reaches the home, so
         * the directory's sharer vector keeps a stale bit — the
         * classic lost-ack/stale-sharer-vector defect.
         */
        DropInvalAck,
        /**
         * Directory only, contended homes only: the home NACKs every
         * request from the matched group for the matched block
         * unconditionally, so the requester's bounded retry loop
         * exhausts its budget — the classic starvation/livelock
         * defect a NACK-based protocol must prove itself against.
         * Surfaces as the `dir.livelock` invariant.
         */
        NackStorm,
    };

    Kind kind = Kind::None;
    /** Match every block whose hashed index is 0 mod `period`. */
    std::uint64_t period = 4;
    /** Perturbs which blocks match (varied by the stress driver). */
    std::uint64_t salt = 0;
    /**
     * L2 groups whose copy the fault affects. Group indices wrap at
     * 64 so wide directory geometries still select victims.
     */
    std::uint64_t groupMask = ~std::uint64_t{0};

    /** True if the fault fires for (block, victim group). */
    bool
    matches(Addr block, unsigned group) const
    {
        if (kind == Kind::None || period == 0)
            return false;
        if (!((groupMask >> (group & 63u)) & 1u))
            return false;
        return ((block >> 6) + salt) % period == 0;
    }
};

/** Stable display name of a fault kind (stress driver / tests). */
inline const char *
toString(FaultPlan::Kind k)
{
    switch (k) {
      case FaultPlan::Kind::None:                 return "none";
      case FaultPlan::Kind::DropInvalidate:       return "drop-invalidate";
      case FaultPlan::Kind::KeepOwnerOnSnoop:     return "keep-owner";
      case FaultPlan::Kind::SkipL1BackInvalidate: return "skip-l1-back-inval";
      case FaultPlan::Kind::DropInvalAck:         return "drop-ack";
      case FaultPlan::Kind::NackStorm:            return "nack-storm";
    }
    return "?";
}

/** The names parseFaultKind() accepts, for usage errors. */
inline constexpr const char *faultKindNames =
    "none, drop-invalidate, keep-owner, skip-l1, drop-ack or nack-storm";

/**
 * Parse a fault-kind name: every toString() value plus the short
 * aliases "skip-l1" and "drop-inval-ack". @return false on an unknown
 * name (`out` is left untouched).
 */
inline bool
parseFaultKind(const std::string &name, FaultPlan::Kind &out)
{
    if (name == "none")
        out = FaultPlan::Kind::None;
    else if (name == "drop-invalidate")
        out = FaultPlan::Kind::DropInvalidate;
    else if (name == "keep-owner")
        out = FaultPlan::Kind::KeepOwnerOnSnoop;
    else if (name == "skip-l1" || name == "skip-l1-back-inval")
        out = FaultPlan::Kind::SkipL1BackInvalidate;
    else if (name == "drop-ack" || name == "drop-inval-ack")
        out = FaultPlan::Kind::DropInvalAck;
    else if (name == "nack-storm")
        out = FaultPlan::Kind::NackStorm;
    else
        return false;
    return true;
}

} // namespace middlesim::mem

#endif // MEM_FAULT_HH
