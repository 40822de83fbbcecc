/**
 * @file
 * Logging and error-reporting helpers.
 *
 * Follows the gem5 convention: fatal() aborts on user error (bad
 * configuration, invalid arguments), panic() aborts on internal
 * invariant violation (a bug in avscope itself), warn()/inform()
 * report non-fatal conditions.
 */

#ifndef AVSCOPE_UTIL_LOGGING_HH
#define AVSCOPE_UTIL_LOGGING_HH

#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>
#include <string_view>

namespace av::util {

/** Severity of a log record. */
enum class LogLevel {
    Debug,
    Info,
    Warn,
    Error,
};

/** Set the global log threshold; records below it are suppressed.
 *  Defaults to Info. */
void setLogThreshold(LogLevel level);

/** Emit one log record to stderr if @p level passes the threshold. */
void logRecord(LogLevel level, std::string_view msg);

namespace detail {

template <typename... Args>
std::string
format(Args &&...args)
{
    std::ostringstream os;
    (os << ... << std::forward<Args>(args));
    return os.str();
}

} // namespace detail

/** Informational message; normal operating status. */
template <typename... Args>
void
inform(Args &&...args)
{
    logRecord(LogLevel::Info, detail::format(std::forward<Args>(args)...));
}

/** Debug message; suppressed unless the threshold is lowered. */
template <typename... Args>
void
debug(Args &&...args)
{
    logRecord(LogLevel::Debug, detail::format(std::forward<Args>(args)...));
}

/** Something is off but the run can continue. */
template <typename... Args>
void
warn(Args &&...args)
{
    logRecord(LogLevel::Warn, detail::format(std::forward<Args>(args)...));
}

/**
 * Unrecoverable *user* error (bad config, invalid argument).
 * Exits with status 1.
 */
template <typename... Args>
[[noreturn]] void
fatal(Args &&...args)
{
    logRecord(LogLevel::Error,
              "fatal: " + detail::format(std::forward<Args>(args)...));
    std::exit(1);
}

/**
 * Unrecoverable *internal* error (avscope bug). Calls abort() so a
 * core dump / debugger can catch it.
 */
template <typename... Args>
[[noreturn]] void
panic(Args &&...args)
{
    logRecord(LogLevel::Error,
              "panic: " + detail::format(std::forward<Args>(args)...));
    std::abort();
}

/** panic() if @p cond is false. Cheap enough to keep in release builds. */
#define AV_ASSERT(cond, ...)                                            \
    do {                                                                \
        if (!(cond)) {                                                  \
            ::av::util::panic("assertion failed: " #cond " "            \
                              __VA_OPT__(, ) __VA_ARGS__);              \
        }                                                               \
    } while (0)

} // namespace av::util

#endif // AVSCOPE_UTIL_LOGGING_HH
