#include "cpu/core.hh"

#include <cmath>

#include "sim/log.hh"

namespace middlesim::cpu
{

InOrderCore::InOrderCore(unsigned cpu_id, mem::Hierarchy &mem,
                         const CoreParams &params, sim::Rng rng)
    : cpuId_(cpu_id), mem_(mem), params_(params), rng_(rng),
      storeBuffer_(params.storeBufferDepth)
{
}

void
InOrderCore::advanceTo(sim::Tick t)
{
    if (t > now_)
        now_ = t;
}

void
InOrderCore::fetchThroughHierarchy(mem::Addr addr)
{
    const mem::AccessResult res =
        mem_.access({addr, mem::AccessType::IFetch, cpuId_}, now_);
    if (res.servedBy == mem::ServedBy::L1)
        return; // hit latency is covered by the base CPI
    cpi_.iStall += res.latency;
    now_ += res.latency;
}

void
InOrderCore::load(mem::Addr addr)
{
    if (params_.rawProbability > 0.0 &&
        rng_.chance(params_.rawProbability)) {
        cpi_.dsRaw += params_.rawPenalty;
        now_ += params_.rawPenalty;
    }
    const mem::AccessResult res =
        mem_.access({addr, mem::AccessType::Load, cpuId_}, now_);
    if (res.servedBy == mem::ServedBy::L1)
        return; // hit latency is covered by the base CPI
    chargeData(res);
}

void
InOrderCore::store(mem::Addr addr)
{
    // The coherence action happens at issue time; the latency it
    // reports is the drain occupancy of this store in the buffer.
    const mem::AccessResult res =
        mem_.access({addr, mem::AccessType::Store, cpuId_}, now_);
    const sim::Tick stall = storeBuffer_.issue(now_, res.latency);
    if (stall > 0) {
        cpi_.dsStoreBuf += stall;
        now_ += stall;
    }
}

void
InOrderCore::blockStore(mem::Addr addr)
{
    const mem::AccessResult res =
        mem_.access({addr, mem::AccessType::BlockStore, cpuId_}, now_);
    const sim::Tick stall = storeBuffer_.issue(now_, res.latency);
    if (stall > 0) {
        cpi_.dsStoreBuf += stall;
        now_ += stall;
    }
}

void
InOrderCore::atomic(mem::Addr addr)
{
    const mem::AccessResult res =
        mem_.access({addr, mem::AccessType::Atomic, cpuId_}, now_);
    chargeData(res);
}

void
InOrderCore::chargeData(const mem::AccessResult &res)
{
    switch (res.servedBy) {
      case mem::ServedBy::L1:
        return;
      case mem::ServedBy::L2:
        cpi_.dsL2Hit += res.latency;
        break;
      case mem::ServedBy::Peer:
        cpi_.dsC2C += res.latency;
        break;
      case mem::ServedBy::Memory:
        cpi_.dsMemory += res.latency;
        break;
      case mem::ServedBy::UpgradeOnly:
        cpi_.dsOther += res.latency;
        break;
    }
    now_ += res.latency;
}

void
InOrderCore::resetStats()
{
    cpi_ = CpiBreakdown();
}

} // namespace middlesim::cpu
