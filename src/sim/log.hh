/**
 * @file
 * gem5-style status and error reporting.
 *
 * panic()  — an internal simulator invariant was violated (a bug in
 *            middlesim itself); aborts so a core dump is available.
 * fatal()  — the simulation cannot continue because of user input
 *            (bad configuration, impossible parameters); exits with
 *            status 1.
 * warn()   — something is modeled approximately; the run continues.
 * inform() — plain status output.
 */

#ifndef SIM_LOG_HH
#define SIM_LOG_HH

#include <sstream>
#include <string>

namespace middlesim::sim
{

[[noreturn]] void panicImpl(const char *file, int line,
                            const std::string &msg);
[[noreturn]] void fatalImpl(const char *file, int line,
                            const std::string &msg);
void warnImpl(const std::string &msg);
void informImpl(const std::string &msg);

/** Format a parameter pack into a string via operator<<. */
template <typename... Args>
std::string
formatMessage(Args &&...args)
{
    std::ostringstream os;
    ((os << std::forward<Args>(args)), ...);
    return os.str();
}

} // namespace middlesim::sim

#define panic(...)                                                     \
    ::middlesim::sim::panicImpl(__FILE__, __LINE__,                    \
        ::middlesim::sim::formatMessage(__VA_ARGS__))

#define fatal(...)                                                     \
    ::middlesim::sim::fatalImpl(__FILE__, __LINE__,                    \
        ::middlesim::sim::formatMessage(__VA_ARGS__))

#define warn(...)                                                      \
    ::middlesim::sim::warnImpl(                                        \
        ::middlesim::sim::formatMessage(__VA_ARGS__))

#define inform(...)                                                    \
    ::middlesim::sim::informImpl(                                      \
        ::middlesim::sim::formatMessage(__VA_ARGS__))

/** Invariant check that survives NDEBUG; use for protocol invariants. */
#define sim_assert(cond, ...)                                          \
    do {                                                               \
        if (!(cond)) {                                                 \
            ::middlesim::sim::panicImpl(__FILE__, __LINE__,            \
                ::middlesim::sim::formatMessage(                       \
                    "assertion failed: " #cond " ", ##__VA_ARGS__));   \
        }                                                              \
    } while (0)

#endif // SIM_LOG_HH
