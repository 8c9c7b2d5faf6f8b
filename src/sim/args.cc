#include "sim/args.hh"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string_view>

#include "sim/log.hh"

namespace middlesim::sim
{

namespace
{

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

/** A whole base-10 integer in [lo, hi], nothing else. */
bool
parseInteger(const std::string &text, std::uint64_t lo, std::uint64_t hi,
             std::uint64_t &out)
{
    if (!startsWithDigit(text))
        return false;
    char *end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
    if (*end != '\0' || errno == ERANGE || v < lo || v > hi)
        return false;
    out = v;
    return true;
}

/** A whole, finite, non-negative decimal number. */
bool
parseDecimal(const std::string &text, double &out)
{
    if (!startsWithDigit(text))
        return false;
    char *end = nullptr;
    const double v = std::strtod(text.c_str(), &end);
    if (*end != '\0' || !std::isfinite(v))
        return false;
    out = v;
    return true;
}

std::string
rangeWant(std::uint64_t lo, std::uint64_t hi)
{
    return "an integer in [" + std::to_string(lo) + ", " +
           std::to_string(hi) + "]";
}

/** "--jobs=N", "--check", or "" for an environment-only row. */
std::string
flagText(const Option &row)
{
    if (row.flag.empty() || row.value.empty())
        return row.flag;
    return row.flag + "=" + row.value;
}

/** "MIDDLESIM_RUNS=N", "MIDDLESIM_CHECK=0|1", or "MIDDLESIM_JOBS"
 *  when the flag column already shows the value. */
std::string
envText(const Option &row)
{
    if (row.env.empty() || (!row.flag.empty() && !row.value.empty()))
        return row.env;
    return row.env + "=" + (row.value.empty() ? "0|1" : row.value);
}

/** `text` padded to a column `width` wide plus a gap; "" if unused. */
std::string
column(std::string text, std::size_t width)
{
    if (width > 0)
        text.resize(width + 2, ' ');
    return text;
}

} // namespace

OptionSetter
setUint(unsigned &dst, unsigned lo, unsigned hi)
{
    return [&dst, lo, hi](const std::string &v) {
        std::uint64_t n = 0;
        if (!parseInteger(v, lo, hi, n))
            return rangeWant(lo, hi);
        dst = static_cast<unsigned>(n);
        return std::string();
    };
}

OptionSetter
setU64(std::uint64_t &dst, std::uint64_t hi)
{
    return [&dst, hi](const std::string &v) {
        return parseInteger(v, 0, hi, dst) ? std::string()
                                           : rangeWant(0, hi);
    };
}

OptionSetter
setSeconds(double &dst)
{
    return [&dst](const std::string &v) {
        const bool suffix = !v.empty() && v.back() == 's';
        return parseDecimal(suffix ? v.substr(0, v.size() - 1) : v, dst)
                   ? std::string()
                   : std::string("seconds, e.g. 60 or 60s");
    };
}

OptionSetter
setPositive(double &dst)
{
    return [&dst](const std::string &v) {
        double x = 0.0;
        if (!parseDecimal(v, x) || x <= 0.0)
            return std::string("a positive number");
        dst = x;
        return std::string();
    };
}

OptionSetter
setText(std::string &dst)
{
    return [&dst](const std::string &v) {
        if (v.empty())
            return std::string("a non-empty value");
        dst = v;
        return std::string();
    };
}

OptionSetter
setSwitch(bool &dst)
{
    return [&dst](const std::string &v) {
        if (v != "0" && v != "1")
            return std::string("0 or 1");
        dst = v == "1";
        return std::string();
    };
}

std::string
optionsHelp(const OptionTable &table)
{
    std::size_t flag_w = 0;
    std::size_t env_w = 0;
    for (const Option &row : table) {
        flag_w = std::max(flag_w, flagText(row).size());
        env_w = std::max(env_w, envText(row).size());
    }
    std::string text;
    for (const Option &row : table) {
        text += "  " + column(flagText(row), flag_w) +
                column(envText(row), env_w) + row.help + "\n";
    }
    return text;
}

void
parseOptions(const char *tool, const OptionTable &table, int argc,
             char **argv, int first)
{
    // Help comes first: a bad environment must not hide it.
    for (int i = first; i < argc; ++i) {
        if (std::string_view(argv[i]) == "--help") {
            std::printf("usage: %s [options]\n%s", tool,
                        optionsHelp(table).c_str());
            std::exit(0);
        }
    }
    for (const Option &row : table) {
        const char *v =
            row.env.empty() ? nullptr : std::getenv(row.env.c_str());
        if (v == nullptr || *v == '\0')
            continue;
        const std::string want = row.set(v);
        if (!want.empty())
            fatal(tool, ": bad environment variable ", row.env, "='", v,
                  "' (want ", want, ")");
    }
    for (int i = first; i < argc; ++i) {
        const std::string arg = argv[i];
        const std::size_t eq = arg.find('=');
        const std::string name = arg.substr(0, eq);
        const auto row =
            std::find_if(table.begin(), table.end(), [&](const Option &r) {
                return !r.flag.empty() && r.flag == name;
            });
        if (row == table.end()) {
            std::string flags;
            for (const Option &r : table)
                flags += r.flag.empty() ? "" : flagText(r) + ", ";
            fatal(tool, ": unknown flag '", arg, "' (supported: ", flags,
                  "--help)");
        }
        const bool is_switch = row->value.empty();
        if (is_switch != (eq == std::string::npos))
            fatal(tool, ": bad flag '", arg, "' (want ", flagText(*row),
                  ")");
        const std::string want =
            row->set(is_switch ? "1" : arg.substr(eq + 1));
        if (!want.empty())
            fatal(tool, ": bad flag '", arg, "' (want ", want, ")");
    }
}

} // namespace middlesim::sim
