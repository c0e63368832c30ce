/**
 * @file
 * lwsp_trace — inspect, filter and convert binary simulator traces.
 *
 *   lwsp_trace info    run.lwsptrc
 *   lwsp_trace dump    run.lwsptrc [--category wpq ...]
 *   lwsp_trace convert run.lwsptrc run.json [--category ...]
 *   lwsp_trace filter  run.lwsptrc out.lwsptrc [--category region ...]
 *
 * `convert` writes Chrome/Perfetto trace_event JSON loadable at
 * https://ui.perfetto.dev. `--category` may repeat; when present only
 * the named categories survive.
 */

#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "common/flags.hh"
#include "trace/export.hh"

namespace {

using namespace lwsp;
using namespace lwsp::trace;

bool
load(const char *path, std::vector<Event> &events)
{
    std::string err;
    if (!readBinaryFile(path, events, err)) {
        std::fprintf(stderr, "lwsp_trace: %s: %s\n", path, err.c_str());
        return false;
    }
    return true;
}

int
cmdInfo(const char *path)
{
    std::vector<Event> events;
    if (!load(path, events))
        return 1;
    TraceSummary s = summarize(events);
    std::printf("file:    %s\n", path);
    std::printf("events:  %zu\n", s.events);
    std::printf("ticks:   [%llu, %llu]\n",
                static_cast<unsigned long long>(s.firstTick),
                static_cast<unsigned long long>(s.lastTick));
    std::printf("cores:   %u\n", s.numCores);
    std::printf("mcs:     %u\n", s.numMcs);
    for (std::uint8_t t = 0; t < numEventTypes; ++t) {
        if (s.perType[t] == 0)
            continue;
        const EventInfo &row = eventInfo(static_cast<EventType>(t));
        std::printf("  %-16s %10zu  (%s)\n", row.name, s.perType[t],
                    categoryName(row.category));
    }
    return 0;
}

int
cmdDump(const char *path, std::uint32_t mask)
{
    std::vector<Event> events;
    if (!load(path, events))
        return 1;
    writeText(std::cout, filterByMask(events, mask));
    return 0;
}

int
cmdConvert(const char *path, const char *out, std::uint32_t mask)
{
    std::vector<Event> events;
    if (!load(path, events))
        return 1;
    if (!writePerfettoFile(out, filterByMask(events, mask))) {
        std::fprintf(stderr, "lwsp_trace: cannot write %s\n", out);
        return 1;
    }
    std::printf("wrote %s (%zu events) — load at https://ui.perfetto.dev\n",
                out, events.size());
    return 0;
}

int
cmdFilter(const char *path, const char *out, std::uint32_t mask)
{
    std::vector<Event> events;
    if (!load(path, events))
        return 1;
    std::vector<Event> kept = filterByMask(events, mask);
    if (!writeBinaryFile(out, kept)) {
        std::fprintf(stderr, "lwsp_trace: cannot write %s\n", out);
        return 1;
    }
    std::printf("wrote %s (%zu of %zu events)\n", out, kept.size(),
                events.size());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string in, out;
    std::uint32_t mask = 0;  // none listed: keep every category

    const std::string names = cli::joinNames(categoryNames);
    const cli::Flag inArg =
        cli::text("<in.lwsptrc>", "", "binary trace to read", in);
    const cli::Flag category{
        "--category", "C", "keep only the listed categories: " + names,
        [&](std::string_view v, std::string &why) {
            why = "want " + names;
            const std::uint32_t bit = parseCategory(std::string(v).c_str());
            mask |= bit;
            return bit != 0;
        },
        /*repeats=*/true};
    auto kept = [&] { return mask ? mask : allCategories; };
    const cli::Command commands[] = {
        {"info", "summary: counts, tick range, units", {inArg},
         [&] { return cmdInfo(in.c_str()); }},
        {"dump", "one line per event", {inArg, category},
         [&] { return cmdDump(in.c_str(), kept()); }},
        {"convert", "Perfetto trace_event JSON",
         {inArg,
          cli::text("<out.json>", "", "JSON file to write", out),
          category},
         [&] { return cmdConvert(in.c_str(), out.c_str(), kept()); }},
        {"filter", "keep only the listed categories",
         {inArg,
          cli::text("<out.lwsptrc>", "", "binary trace to write", out),
          category},
         [&] { return cmdFilter(in.c_str(), out.c_str(), kept()); }},
    };
    return cli::parseOrExit(argc, argv, commands).run();
}
