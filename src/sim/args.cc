#include "sim/args.hh"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>

#include "sim/log.hh"

namespace middlesim::sim
{

namespace
{

/** Text after the first '=' of `arg` ("" when there is none). */
std::string
flagValue(const std::string &arg)
{
    const std::size_t eq = arg.find('=');
    return eq == std::string::npos ? std::string() : arg.substr(eq + 1);
}

/**
 * strtoull/strtod skip leading blanks and accept a sign ("-1" wraps
 * to 2^64 - 1), so a value must start with a digit before either
 * sees it.
 */
bool
startsWithDigit(const std::string &text)
{
    return !text.empty() &&
           std::isdigit(static_cast<unsigned char>(text.front()));
}

} // namespace

std::uint64_t
parseUintFlag(const char *tool, const std::string &arg, std::uint64_t lo,
              std::uint64_t hi)
{
    const std::string text = flagValue(arg);
    if (startsWithDigit(text)) {
        char *end = nullptr;
        errno = 0;
        const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
        if (*end == '\0' && errno != ERANGE && v >= lo && v <= hi)
            return v;
    }
    fatal(tool, ": bad flag '", arg, "' (want an integer in [", lo, ", ",
          hi, "])");
}

double
parseSecondsFlag(const char *tool, const std::string &arg)
{
    std::string text = flagValue(arg);
    if (!text.empty() && text.back() == 's')
        text.pop_back();
    if (startsWithDigit(text)) {
        char *end = nullptr;
        const double v = std::strtod(text.c_str(), &end);
        if (*end == '\0' && std::isfinite(v))
            return v;
    }
    fatal(tool, ": bad flag '", arg, "' (want seconds, e.g. 60 or 60s)");
}

} // namespace middlesim::sim
