#include "util/logging.hh"

#include <atomic>
#include <mutex>

namespace av::util {

namespace {

// The logger is the one deliberately shared service of the process:
// experiment worker threads (src/exp) log concurrently, so the
// threshold is atomic and emission is serialized by a mutex. Neither
// feeds back into any measurement, so determinism is unaffected.
// avlint: allow(mutable-global)
std::atomic<LogLevel> gThreshold{LogLevel::Info};
// avlint: allow(mutable-global)
std::mutex gLogMutex;

const char *
levelName(LogLevel level)
{
    switch (level) {
      case LogLevel::Debug: return "debug";
      case LogLevel::Info:  return "info";
      case LogLevel::Warn:  return "warn";
      case LogLevel::Error: return "error";
    }
    return "?";
}

} // namespace

void
setLogThreshold(LogLevel level)
{
    gThreshold.store(level, std::memory_order_relaxed);
}

void
logRecord(LogLevel level, std::string_view msg)
{
    if (level < gThreshold.load(std::memory_order_relaxed))
        return;
    std::lock_guard<std::mutex> lock(gLogMutex);
    std::cerr << "[" << levelName(level) << "] " << msg << "\n";
}

} // namespace av::util
