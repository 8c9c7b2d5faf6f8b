#include "mem/block_meta.hh"

#include <new>

#include <sys/mman.h>
#include <unistd.h>

namespace middlesim::mem
{

TableWords::TableWords(std::size_t words, bool mapped)
    : n_(words), mapped_(mapped)
{
    if (!mapped_) {
        p_ = new std::uint64_t[words]();
        return;
    }
    // Anonymous mappings read as zero.
    void *p = mmap(nullptr, words * sizeof(std::uint64_t),
                   PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED)
        throw std::bad_alloc();
    p_ = static_cast<std::uint64_t *>(p);
}

void
TableWords::releaseFront(std::size_t words)
{
    if (!mapped_)
        return;
    static const std::size_t page =
        static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
    const std::size_t end = words * sizeof(std::uint64_t) / page * page;
    if (end <= released_)
        return;
    // Advice only: pages it fails to drop go with the whole mapping.
    madvise(reinterpret_cast<char *>(p_) + released_, end - released_,
            MADV_DONTNEED);
    released_ = end;
}

TableWords::~TableWords()
{
    if (mapped_)
        munmap(p_, n_ * sizeof(std::uint64_t));
    else
        delete[] p_;
}

} // namespace middlesim::mem
