#include "sim/serialize.hh"

#include <unistd.h>

#include <atomic>

namespace middlesim::sim
{

std::uint64_t
fnv1a64(std::string_view data)
{
    return fnv1a64Step(fnv1a64Init, data);
}

std::string
hashHex(std::uint64_t h)
{
    static const char digits[] = "0123456789abcdef";
    std::string s(16, '0');
    for (int i = 15; i >= 0; --i) {
        s[i] = digits[h & 0xf];
        h >>= 4;
    }
    return s;
}

std::string
tempPathFor(const std::string &final_path)
{
    static std::atomic<std::uint64_t> seq{0};
    return final_path + ".tmp" + std::to_string(::getpid()) + "." +
           std::to_string(seq.fetch_add(1));
}

} // namespace middlesim::sim
