#include "jvm/heap.hh"

#include "sim/log.hh"

namespace middlesim::jvm
{

Heap::Heap(const HeapParams &params) : params_(params)
{
    if (params_.newGenBytes + params_.overshootBytes > params_.heapBytes)
        fatal("heap: new generation larger than the heap");
    if (params_.tlabBytes == 0 || params_.tlabBytes % 64 != 0)
        fatal("heap: TLAB size must be a positive multiple of 64");
}

mem::Addr
Heap::takeTlab()
{
    sim_assert(youngUsed_ + params_.tlabBytes <=
                   params_.newGenBytes + params_.overshootBytes,
               "young generation overshoot exhausted; safepoint overdue");
    const mem::Addr tlab = newGenBase() + youngUsed_;
    youngUsed_ += params_.tlabBytes;
    return tlab;
}

bool
Heap::gcNeeded() const
{
    return youngUsed_ >= params_.newGenBytes;
}

void
Heap::resetYoung()
{
    youngUsed_ = 0;
}

mem::Addr
Heap::allocateOld(std::uint64_t bytes)
{
    bytes = (bytes + 63) & ~std::uint64_t{63};
    sim_assert(oldUsed_ + bytes <= oldGenCapacity(),
               "old generation exhausted");
    const mem::Addr addr = oldGenBase() + oldUsed_;
    oldUsed_ += bytes;
    return addr;
}

void
Heap::compactOld(std::uint64_t live_bytes)
{
    if (live_bytes < oldFloor_)
        live_bytes = oldFloor_;
    if (live_bytes < oldUsed_)
        oldUsed_ = live_bytes;
}

} // namespace middlesim::jvm
