/**
 * @file
 * Error/status reporting in the spirit of gem5's base/logging.hh.
 *
 * panic()  — a simulator bug: something that must never happen regardless of
 *            user input. Aborts (throws PanicError so tests can catch it).
 * fatal()  — the user's fault (bad configuration, invalid arguments). Throws
 *            FatalError.
 * warn()   — suspicious but survivable condition.
 * inform() — plain status output.
 */

#ifndef LWSP_COMMON_LOGGING_HH
#define LWSP_COMMON_LOGGING_HH

#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>

namespace lwsp {

/** Thrown by panic(): an internal invariant was violated. */
class PanicError : public std::logic_error
{
  public:
    explicit PanicError(const std::string &msg) : std::logic_error(msg) {}
};

/** Thrown by fatal(): the simulation cannot continue due to user error. */
class FatalError : public std::runtime_error
{
  public:
    explicit FatalError(const std::string &msg) : std::runtime_error(msg) {}
};

namespace detail {

void emitLog(const char *level, const std::string &msg);

template <typename... Args>
std::string
formatMessage(Args &&...args)
{
    std::ostringstream os;
    (os << ... << args);
    return os.str();
}

} // namespace detail

/** Report an internal simulator bug and abort via exception. */
template <typename... Args>
[[noreturn]] void
panic(Args &&...args)
{
    std::string msg = detail::formatMessage(std::forward<Args>(args)...);
    detail::emitLog("panic", msg);
    throw PanicError(msg);
}

/** Report an unrecoverable user error and abort via exception. */
template <typename... Args>
[[noreturn]] void
fatal(Args &&...args)
{
    std::string msg = detail::formatMessage(std::forward<Args>(args)...);
    detail::emitLog("fatal", msg);
    throw FatalError(msg);
}

/** Report a survivable but suspicious condition. */
template <typename... Args>
void
warn(Args &&...args)
{
    detail::emitLog("warn",
                    detail::formatMessage(std::forward<Args>(args)...));
}

/** Report plain status. */
template <typename... Args>
void
inform(Args &&...args)
{
    detail::emitLog("info",
                    detail::formatMessage(std::forward<Args>(args)...));
}

/** Silence or re-enable warn()/inform() output (panic/fatal always print). */
void setLogQuiet(bool quiet);

/** warn() calls quiet mode has suppressed since the process started. */
std::uint64_t suppressedWarnings();

/**
 * A debug switch read from the environment (LWSP_VERIFY_EACH,
 * LWSP_VERIFY_WAKEUPS): on when @p name is set to anything but the empty
 * string or "0".
 */
bool envSwitch(const char *name);

/** panic() unless @p cond holds. */
#define LWSP_ASSERT(cond, ...)                                              \
    do {                                                                    \
        if (!(cond)) {                                                      \
            ::lwsp::panic("assertion failed: ", #cond, " ", __FILE__, ":",  \
                          __LINE__, " ", ##__VA_ARGS__);                    \
        }                                                                   \
    } while (0)

} // namespace lwsp

#endif // LWSP_COMMON_LOGGING_HH
