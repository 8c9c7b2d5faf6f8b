#include "mem/block_meta.hh"

#include <cstdlib>
#include <new>

#include <sys/mman.h>

namespace middlesim::mem
{

TableWords::TableWords(std::size_t words)
    : p_(static_cast<std::uint64_t *>(
          std::calloc(words, sizeof(std::uint64_t)))),
      n_(words)
{
    if (!p_)
        throw std::bad_alloc();
}

void
TableWords::grow()
{
    const std::size_t bytes = n_ * sizeof(std::uint64_t);
    void *p;
    if (mapped_) {
        // The kernel moves the pages; the grown tail reads as zero.
        p = mremap(p_, bytes, 2 * bytes, MREMAP_MAYMOVE);
        if (p == MAP_FAILED)
            throw std::bad_alloc();
    } else {
        p = std::realloc(p_, 2 * bytes);
        if (!p)
            throw std::bad_alloc();
        std::memset(static_cast<char *>(p) + bytes, 0, bytes);
    }
    p_ = static_cast<std::uint64_t *>(p);
    n_ *= 2;
}

void
TableWords::map()
{
    if (mapped_)
        return;
    const std::size_t bytes = n_ * sizeof(std::uint64_t);
    void *p = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED)
        throw std::bad_alloc();
    std::memcpy(p, p_, bytes);
    std::free(p_);
    p_ = static_cast<std::uint64_t *>(p);
    mapped_ = true;
}

TableWords::~TableWords()
{
    if (mapped_)
        munmap(p_, n_ * sizeof(std::uint64_t));
    else
        std::free(p_);
}

} // namespace middlesim::mem
