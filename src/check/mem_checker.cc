#include "check/mem_checker.hh"

#include <algorithm>

#include "mem/coherence.hh"

namespace middlesim::check
{

using mem::CoherenceState;
using mem::SharerSet;
using sim::formatMessage;

namespace
{

const char *
stateName(CoherenceState s)
{
    return mem::toString(s);
}

} // namespace

MemChecker::MemChecker(const mem::Hierarchy &hierarchy,
                       CheckReport &report)
    : h_(hierarchy), report_(report), groups_(hierarchy.numGroups()),
      cpus_(hierarchy.config().totalCpus), dir_(hierarchy.directory())
{
    preState_.resize(groups_);
    preEver_ = SharerSet(groups_);
    preInval_ = SharerSet(groups_);
}

mem::Addr
MemChecker::blockOf(mem::Addr addr) const
{
    return h_.l2Array(0).blockAddr(addr);
}

MemChecker::Shadow &
MemChecker::shadowFor(mem::Addr block)
{
    Shadow &sh = shadow_[block];
    if (sh.state.empty()) {
        sh.everCached = SharerSet(groups_);
        sh.lastInval = SharerSet(groups_);
        sh.state.assign(groups_, 0);
        sh.value.assign(groups_, 0);
    }
    return sh;
}

mem::CoherenceState
MemChecker::actualState(unsigned group, mem::Addr block) const
{
    const mem::CacheLine *line = h_.l2Array(group).find(block);
    return line ? line->state : CoherenceState::Invalid;
}

void
MemChecker::checkDirectoryBlock(mem::Addr block,
                                const SharerSet &valid_set,
                                sim::Tick now, const char *ctx)
{
    const mem::ConstLineMeta meta = h_.peekMeta(block);
    const bool sharers_ok =
        meta ? meta.sharers() == valid_set.bits() : valid_set.none();
    if (!sharers_ok) {
        report_.violate("dir.sharer-desync",
            formatMessage(ctx, "block 0x", std::hex, block, std::dec,
                          " directory sharer vector ",
                          meta ? meta.sharers().toHex() : "0x0",
                          " but valid copies ", valid_set.toHex()),
            now);
    }

    // The owner field must name exactly the group holding the block
    // Exclusive or Modified, and be clear when no such copy exists.
    std::int32_t actual_owner = -1;
    for (unsigned g = 0; g < groups_; ++g) {
        const CoherenceState s = actualState(g, block);
        if (mem::suppliesDataOnForward(s)) {
            actual_owner = static_cast<std::int32_t>(g);
            break;
        }
    }
    const std::int32_t dir_owner = meta ? meta.owner() : -1;
    if (dir_owner != actual_owner) {
        report_.violate("dir.owner-desync",
            formatMessage(ctx, "block 0x", std::hex, block, std::dec,
                          " directory owner ", dir_owner,
                          " but actual E/M holder ", actual_owner),
            now);
    }
}

void
MemChecker::preAccess(const mem::MemRef &ref, sim::Tick now)
{
    report_.refIndex = report_.refsChecked;
    ++report_.refsChecked;

    const mem::Addr block = blockOf(ref.addr);
    Shadow &sh = shadowFor(block);

    // 1. Reconcile shadow vs actual per-group L2 state. Between two
    //    accesses to a block the only legal change is a silent
    //    eviction (valid -> Invalid); a replacement also clears the
    //    invalidation removal cause, mirroring evictLine().
    SharerSet validSet(groups_);
    unsigned modifiedCount = 0;
    unsigned ownerCount = 0;
    unsigned validCount = 0;
    unsigned soleCount = 0; // M or E copies: must be truly alone.
    for (unsigned g = 0; g < groups_; ++g) {
        const CoherenceState actual = actualState(g, block);
        preState_[g] = static_cast<std::uint8_t>(actual);
        const auto expect = static_cast<CoherenceState>(sh.state[g]);
        if (actual != expect) {
            if (actual == CoherenceState::Invalid) {
                sh.lastInval.clear(g);
            } else {
                report_.violate("mosi.silent-transition",
                    formatMessage("block 0x", std::hex, block, std::dec,
                                  " group ", g, " changed ",
                                  stateName(expect), " -> ",
                                  stateName(actual),
                                  " without an access"),
                    now);
                // Adopt the data too, so one protocol bug does not
                // cascade into a stale-copy report on every access.
                sh.value[g] = sh.golden;
            }
            sh.state[g] = static_cast<std::uint8_t>(actual);
        }
        // Each protocol must stay inside its own state alphabet.
        if ((dir_ && actual == CoherenceState::Owned) ||
            (!dir_ && actual == CoherenceState::Exclusive)) {
            report_.violate("proto.foreign-state",
                formatMessage("block 0x", std::hex, block, std::dec,
                              " group ", g, " holds ",
                              stateName(actual), " under the ",
                              dir_ ? "directory" : "snooping",
                              " protocol"),
                now);
        }
        if (actual != CoherenceState::Invalid) {
            validSet.set(g);
            ++validCount;
            if (actual == CoherenceState::Modified)
                ++modifiedCount;
            if (mem::isOwner(actual))
                ++ownerCount;
            if (mem::suppliesDataOnForward(actual))
                ++soleCount;
        }
    }

    // 2. Single-writer / single-owner. Under MESI, Exclusive is as
    //    exclusive as Modified.
    const unsigned exclusiveCopies = dir_ ? soleCount : modifiedCount;
    if (exclusiveCopies > 0 && validCount > 1) {
        report_.violate("mosi.modified-not-exclusive",
            formatMessage("block 0x", std::hex, block, std::dec,
                          " has a sole-copy (M/E) state alongside ",
                          validCount - 1, " other valid copies"),
            now);
    }
    if ((dir_ ? soleCount : ownerCount) > 1) {
        report_.violate("mosi.multiple-owners",
            formatMessage("block 0x", std::hex, block, std::dec,
                          " has ", dir_ ? soleCount : ownerCount,
                          " owner copies"),
            now);
    }

    // 3. Data-value consistency: every valid copy holds the latest
    //    write (copies that survive a remote write are stale).
    for (unsigned g = 0; g < groups_; ++g) {
        if (validSet.test(g) && sh.value[g] != sh.golden) {
            report_.violate("value.stale-copy",
                formatMessage("block 0x", std::hex, block, std::dec,
                              " group ", g, " holds write #",
                              sh.value[g], " but latest is #",
                              sh.golden),
                now);
        }
    }

    // 4. L1 inclusion for this block.
    for (unsigned c = 0; c < cpus_; ++c) {
        if (validSet.test(h_.groupOf(c)))
            continue;
        if (h_.l1iArray(c).find(block) || h_.l1dArray(c).find(block)) {
            report_.violate("incl.l1-without-l2",
                formatMessage("cpu ", c, " L1 caches block 0x",
                              std::hex, block, std::dec,
                              " absent from its L2 group ",
                              h_.groupOf(c)),
                now);
        }
    }

    // 5. Snoop-filter consistency.
    const mem::ConstLineMeta meta = h_.peekMeta(block);
    const bool presence_ok =
        meta ? meta.presence() == validSet.bits() : validSet.none();
    if (!presence_ok) {
        report_.violate("meta.presence-desync",
            formatMessage("block 0x", std::hex, block, std::dec,
                          " presence mask ",
                          meta ? meta.presence().toHex() : "0x0",
                          " but valid copies ", validSet.toHex()),
            now);
    }

    // 5b. Directory lockstep: sharer vector and owner field.
    if (dir_)
        checkDirectoryBlock(block, validSet, now, "");

    // 6. Snapshot for postAccess.
    const unsigned reqGroup = h_.groupOf(ref.cpu);
    preL2State_ = static_cast<CoherenceState>(preState_[reqGroup]);
    preOwnerElsewhere_ = false;
    for (unsigned g = 0; g < groups_; ++g) {
        if (g == reqGroup)
            continue;
        const auto s = static_cast<CoherenceState>(preState_[g]);
        // Who supplies data to a miss: the snooping bus' M/O owner,
        // or the directory's forwarded E/M sole copy.
        const bool supplies =
            dir_ ? mem::suppliesDataOnForward(s) : mem::isOwner(s);
        if (supplies)
            preOwnerElsewhere_ = true;
    }
    preL1Hit_ = false;
    if (ref.type == mem::AccessType::IFetch)
        preL1Hit_ = h_.l1iArray(ref.cpu).find(block) != nullptr;
    else if (ref.type == mem::AccessType::Load)
        preL1Hit_ = h_.l1dArray(ref.cpu).find(block) != nullptr;
    preEver_ = sh.everCached;
    preInval_ = sh.lastInval;
    if (dir_)
        preLivelockBreaks_ = dir_->stats().livelockBreaks;

    // 7. Stop-the-world window invariants.
    if (gcWindow_) {
        if (ref.cpu != gcCpu_ && ref.addr >= youngBase_ &&
            ref.addr < youngLimit_) {
            report_.violate("gc.app-ref-during-safepoint",
                formatMessage("cpu ", ref.cpu,
                              " referenced young-generation address 0x",
                              std::hex, ref.addr, std::dec,
                              " during a stop-the-world collection"),
                now);
        }
        if (ref.type == mem::AccessType::BlockStore &&
            ref.addr >= toBase_ && ref.addr < toLimit_) {
            if (++copyCounts_[block] > 1) {
                report_.violate("gc.double-copy",
                    formatMessage("to-space line 0x", std::hex, block,
                                  std::dec,
                                  " copied more than once in one "
                                  "collection"),
                    now);
            }
        }
    }

    const std::uint64_t period = report_.options().auditPeriod;
    if (period != 0 && report_.refsChecked % period == 0)
        auditFull(now);
}

void
MemChecker::postAccess(const mem::MemRef &ref,
                       const mem::AccessResult &res, sim::Tick now)
{
    const mem::Addr block = blockOf(ref.addr);
    const unsigned reqGroup = h_.groupOf(ref.cpu);
    Shadow &sh = shadowFor(block);

    // Predict where the access should have been served from, and
    // whether it was an L2 fetch miss, from the pre-access snapshot.
    mem::ServedBy expected = mem::ServedBy::L2;
    bool fetchMiss = false;
    switch (ref.type) {
      case mem::AccessType::IFetch:
      case mem::AccessType::Load:
        if (preL1Hit_) {
            expected = mem::ServedBy::L1;
        } else if (preL2State_ != CoherenceState::Invalid) {
            expected = mem::ServedBy::L2;
        } else {
            expected = preOwnerElsewhere_ ? mem::ServedBy::Peer
                                          : mem::ServedBy::Memory;
            fetchMiss = true;
        }
        break;
      case mem::AccessType::Store:
      case mem::AccessType::Atomic:
        if (preL2State_ == CoherenceState::Modified ||
            (dir_ && preL2State_ == CoherenceState::Exclusive)) {
            // A store hit in M, or the directory's silent E->M
            // upgrade: served by the L2 with no message traffic.
            expected = mem::ServedBy::L2;
        } else if (preL2State_ != CoherenceState::Invalid) {
            expected = mem::ServedBy::UpgradeOnly;
        } else {
            expected = preOwnerElsewhere_ ? mem::ServedBy::Peer
                                          : mem::ServedBy::Memory;
            fetchMiss = true;
        }
        break;
      case mem::AccessType::BlockStore:
        expected = mem::ServedBy::L2;
        break;
    }
    if (res.servedBy != expected) {
        report_.violate("check.servedby-mismatch",
            formatMessage("block 0x", std::hex, block, std::dec,
                          " cpu ", ref.cpu, ": served by ",
                          static_cast<int>(res.servedBy),
                          " but shadow model expected ",
                          static_cast<int>(expected)),
            now);
    }

    // Miss classification must match the shadow removal-cause masks.
    if (fetchMiss) {
        mem::MissClass expectClass;
        if (!preEver_.test(reqGroup))
            expectClass = mem::MissClass::Cold;
        else if (preInval_.test(reqGroup))
            expectClass = mem::MissClass::Coherence;
        else
            expectClass = mem::MissClass::CapacityConflict;
        if (res.missClass != expectClass) {
            report_.violate("classify.mismatch",
                formatMessage("block 0x", std::hex, block, std::dec,
                              " group ", reqGroup, ": classified ",
                              static_cast<int>(res.missClass),
                              " but shadow history says ",
                              static_cast<int>(expectClass)),
                now);
        }
    } else if (res.missClass != mem::MissClass::None) {
        report_.violate("classify.mismatch",
            formatMessage("block 0x", std::hex, block, std::dec,
                          " hit carries a miss classification"),
            now);
    }

    const bool write = mem::isWrite(ref.type);
    if (write) {
        // A completed write leaves the writer Modified and every
        // other group's copy (L2 and L1s) gone.
        if (actualState(reqGroup, block) != CoherenceState::Modified) {
            report_.violate("mosi.requester-not-exclusive",
                formatMessage("block 0x", std::hex, block, std::dec,
                              " group ", reqGroup, " is ",
                              stateName(actualState(reqGroup, block)),
                              " after a write"),
                now);
        }
        for (unsigned g = 0; g < groups_; ++g) {
            if (g == reqGroup)
                continue;
            const CoherenceState post = actualState(g, block);
            if (post != CoherenceState::Invalid) {
                report_.violate("mosi.peer-not-invalidated",
                    formatMessage("block 0x", std::hex, block, std::dec,
                                  " group ", g, " still ",
                                  stateName(post),
                                  " after a remote write"),
                    now);
            }
        }
        for (unsigned c = 0; c < cpus_; ++c) {
            if (h_.groupOf(c) == reqGroup)
                continue;
            if (h_.l1iArray(c).find(block) ||
                h_.l1dArray(c).find(block)) {
                report_.violate("incl.l1-stale-after-write",
                    formatMessage("cpu ", c,
                                  " L1 kept block 0x", std::hex, block,
                                  std::dec, " across a remote write"),
                    now);
            }
        }
    } else if (fetchMiss) {
        // A read miss degrades the previous sole-copy holder: to
        // Owned under the snooping bus (it keeps supplying data), to
        // Shared under the directory (the home now serves the block).
        for (unsigned g = 0; g < groups_; ++g) {
            if (g == reqGroup)
                continue;
            const auto pre = static_cast<CoherenceState>(preState_[g]);
            const CoherenceState post = actualState(g, block);
            if (!dir_) {
                if (pre == CoherenceState::Modified &&
                    post != CoherenceState::Owned) {
                    report_.violate("mosi.snoop-degrade",
                        formatMessage("block 0x", std::hex, block,
                                      std::dec, " group ", g,
                                      " stayed ", stateName(post),
                                      " across a remote read snoop"),
                        now);
                }
            } else if (mem::suppliesDataOnForward(pre) &&
                       post != CoherenceState::Shared) {
                report_.violate("dir.forward-degrade",
                    formatMessage("block 0x", std::hex, block, std::dec,
                                  " group ", g, " stayed ",
                                  stateName(post),
                                  " across a forwarded GetS"),
                    now);
            }
        }
    }

    // Directory ack accounting: every invalidation must have been
    // acknowledged by the time its transaction retires. Report only
    // when the outstanding delta changes, so one lost ack is one
    // violation rather than one per subsequent access.
    if (dir_) {
        const std::uint64_t sent = dir_->stats().invalidationsSent;
        const std::uint64_t acked = dir_->stats().acksReceived;
        const std::uint64_t delta = sent - acked;
        if (delta != lastAckDelta_) {
            if (delta > lastAckDelta_) {
                report_.violate("dir.ack-mismatch",
                    formatMessage("block 0x", std::hex, block, std::dec,
                                  ": directory sent ", sent,
                                  " invalidations but received ", acked,
                                  " acks"),
                    now);
            }
            lastAckDelta_ = delta;
        }

        // Starvation accounting: the access path fails a transaction
        // forward after kDirRetryBound NACKed attempts and bumps the
        // livelock-break counter; a break during this access is a
        // livelock the bounded-backoff argument (DESIGN.md §3.14)
        // says cannot happen on an honest contended home. Comparing
        // against the count before the access holds across a stats
        // reset, which never lands inside one.
        const std::uint64_t breaks = dir_->stats().livelockBreaks;
        if (breaks > preLivelockBreaks_) {
            report_.violate("dir.livelock",
                formatMessage("block 0x", std::hex, block, std::dec,
                              ": home NACKed ",
                              mem::kDirRetryBound,
                              " consecutive attempts; requester "
                              "failed forward (", breaks,
                              " break(s) total)"),
                now);
        }
    }

    // Shadow bookkeeping, mirroring classifyMiss() and the
    // block-store claim path.
    if (fetchMiss ||
        (ref.type == mem::AccessType::BlockStore &&
         preL2State_ == CoherenceState::Invalid)) {
        sh.everCached.set(reqGroup);
        sh.lastInval.clear(reqGroup);
    }
    if (write) {
        for (unsigned g = 0; g < groups_; ++g) {
            if (g == reqGroup)
                continue;
            const auto pre = static_cast<CoherenceState>(preState_[g]);
            if (pre != CoherenceState::Invalid &&
                actualState(g, block) == CoherenceState::Invalid)
                sh.lastInval.set(g);
        }
        sh.golden = ++writeSeq_;
    }
    for (unsigned g = 0; g < groups_; ++g)
        sh.state[g] = static_cast<std::uint8_t>(actualState(g, block));
    // The requester's copy now holds the latest data: a write just
    // produced it, and a fill came from the owner or from memory.
    if (sh.state[reqGroup] !=
        static_cast<std::uint8_t>(CoherenceState::Invalid))
        sh.value[reqGroup] = sh.golden;
}

void
MemChecker::onInvalidateAll()
{
    shadow_.clear();
    copyCounts_.clear();
}

void
MemChecker::beginGcWindow(mem::Addr young_base, mem::Addr young_limit,
                          mem::Addr to_base, mem::Addr to_limit,
                          unsigned gc_cpu)
{
    gcWindow_ = true;
    youngBase_ = young_base;
    youngLimit_ = young_limit;
    toBase_ = to_base;
    toLimit_ = to_limit;
    gcCpu_ = gc_cpu;
    copyCounts_.clear();
}

void
MemChecker::endGcWindow()
{
    gcWindow_ = false;
    copyCounts_.clear();
}

void
MemChecker::auditFull(sim::Tick now)
{
    struct Agg
    {
        SharerSet valid;
        unsigned owners = 0;
        unsigned soles = 0; // M or E copies.
        bool modified = false;
    };
    std::unordered_map<mem::Addr, Agg> blocks;
    for (unsigned g = 0; g < groups_; ++g) {
        h_.l2Array(g).forEach([&](const mem::CacheLine &line) {
            const auto [it, fresh] = blocks.try_emplace(line.tag);
            Agg &a = it->second;
            if (fresh)
                a.valid = SharerSet(groups_);
            a.valid.set(g);
            if (mem::isOwner(line.state))
                ++a.owners;
            if (mem::suppliesDataOnForward(line.state))
                ++a.soles;
            if (line.state == CoherenceState::Modified)
                a.modified = true;
        });
    }

    for (const auto &[block, a] : blocks) {
        const bool sole = dir_ ? a.soles > 0 : a.modified;
        if (sole && a.valid.count() > 1) {
            report_.violate("mosi.modified-not-exclusive",
                formatMessage("audit: block 0x", std::hex, block,
                              std::dec, " sole-copy state with valid ",
                              a.valid.toHex()),
                now);
        }
        if ((dir_ ? a.soles : a.owners) > 1) {
            report_.violate("mosi.multiple-owners",
                formatMessage("audit: block 0x", std::hex, block,
                              std::dec, " has ",
                              dir_ ? a.soles : a.owners,
                              " owner copies"),
                now);
        }
        const mem::ConstLineMeta meta = h_.peekMeta(block);
        const bool presence_ok =
            meta ? meta.presence() == a.valid.bits() : a.valid.none();
        if (!presence_ok) {
            report_.violate("meta.presence-desync",
                formatMessage("audit: block 0x", std::hex, block,
                              std::dec, " presence ",
                              meta ? meta.presence().toHex() : "0x0",
                              " but valid ", a.valid.toHex()),
                now);
        }
        if (dir_)
            checkDirectoryBlock(block, a.valid, now, "audit: ");
    }

    // Blocks no L2 holds whose record claims a copy, in address order
    // so the report does not depend on the table's slot layout.
    const auto orphans = [&](auto &&claims_copy) {
        std::vector<mem::Addr> found;
        h_.forEachMeta([&](mem::Addr block, mem::ConstLineMeta meta) {
            if (claims_copy(meta) && !blocks.count(block))
                found.push_back(block);
        });
        std::sort(found.begin(), found.end());
        return found;
    };

    // Presence bits claiming blocks no L2 actually holds.
    for (const mem::Addr block : orphans([](mem::ConstLineMeta meta) {
             return meta.presence().any();
         })) {
        report_.violate("meta.presence-desync",
            formatMessage("audit: block 0x", std::hex, block, std::dec,
                          " presence ",
                          h_.peekMeta(block).presence().toHex(),
                          " but no valid L2 copy exists"),
            now);
    }

    // Directory state claiming sharers for blocks no L2 holds.
    if (dir_) {
        for (const mem::Addr block : orphans([](mem::ConstLineMeta meta) {
                 return meta.sharers().any() || meta.owner() >= 0;
             })) {
            const mem::ConstLineMeta meta = h_.peekMeta(block);
            report_.violate("dir.sharer-desync",
                formatMessage("audit: block 0x", std::hex, block,
                              std::dec, " directory records sharers ",
                              meta.sharers().toHex(), " owner ",
                              meta.owner(),
                              " but no valid L2 copy exists"),
                now);
        }
    }

    // Full L1 inclusion.
    for (unsigned c = 0; c < cpus_; ++c) {
        const unsigned g = h_.groupOf(c);
        const auto checkL1 = [&](const mem::CacheArray &l1,
                                 const char *which) {
            l1.forEach([&](const mem::CacheLine &line) {
                if (!h_.l2Array(g).find(line.tag)) {
                    report_.violate("incl.l1-without-l2",
                        formatMessage("audit: cpu ", c, " ", which,
                                      " caches block 0x", std::hex,
                                      line.tag, std::dec,
                                      " absent from L2 group ", g),
                        now);
                }
            });
        };
        checkL1(h_.l1iArray(c), "l1i");
        checkL1(h_.l1dArray(c), "l1d");
    }
}

} // namespace middlesim::check
