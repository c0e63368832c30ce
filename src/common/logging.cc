#include "logging.hh"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <string_view>

namespace lwsp {

namespace {

// Worker threads of a parallel sweep toggle/read quietness and emit
// warnings concurrently; the flag is atomic and emission is serialized
// so interleaved messages never shear mid-line. Quiet mode counts the
// warnings it suppresses.
std::atomic<bool> logQuiet{false};
std::atomic<std::uint64_t> quietWarnings{0};
std::mutex logMutex;

} // namespace

void
setLogQuiet(bool quiet)
{
    logQuiet.store(quiet, std::memory_order_relaxed);
}

std::uint64_t
suppressedWarnings()
{
    return quietWarnings.load(std::memory_order_relaxed);
}

bool
envSwitch(const char *name)
{
    const char *v = std::getenv(name);
    return v != nullptr && std::string_view(v) != "" &&
           std::string_view(v) != "0";
}

namespace detail {

void
emitLog(const char *level, const std::string &msg)
{
    bool severe = (level[0] == 'p' || level[0] == 'f');
    if (logQuiet.load(std::memory_order_relaxed) && !severe) {
        if (level[0] == 'w')
            quietWarnings.fetch_add(1, std::memory_order_relaxed);
        return;
    }
    std::lock_guard<std::mutex> lock(logMutex);
    std::fprintf(stderr, "[%s] %s\n", level, msg.c_str());
}

} // namespace detail
} // namespace lwsp
