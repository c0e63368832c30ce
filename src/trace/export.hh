/**
 * @file
 * Trace exporters: compact binary format and Chrome/Perfetto
 * trace_event JSON.
 *
 * Binary (`.lwsptrc`): an 8-byte magic, a version word and a record
 * count, followed by fixed 56-byte little-endian records — written and
 * read field by field so the file is independent of host struct
 * padding. This is what `--trace-out` flags produce and what the
 * `lwsp_trace` CLI inspects, filters and converts.
 *
 * Perfetto JSON: the trace_event format (the object form, with a
 * `traceEvents` array) that https://ui.perfetto.dev and
 * chrome://tracing load directly. The mapping:
 *   - regions become B/E duration spans on one track per core;
 *   - WPQ occupancy becomes one counter track per MC (from the
 *     occupancy carried by enqueue/release events);
 *   - boundary/commit/power events become instant events on the
 *     emitting unit's track;
 *   - simulated cycles map 1:1 onto trace_event microseconds (the
 *     viewer's "us" axis reads as cycles).
 */

#ifndef LWSP_TRACE_EXPORT_HH
#define LWSP_TRACE_EXPORT_HH

#include <iosfwd>
#include <string>
#include <vector>

#include "trace/events.hh"

namespace lwsp {
namespace trace {

/** Binary-format magic (first 8 bytes of every trace file). */
constexpr char binaryMagic[8] = {'L', 'W', 'S', 'P',
                                 'T', 'R', 'C', '1'};

/** Serialize @p events; @return false on I/O failure. */
bool writeBinary(std::ostream &os, const std::vector<Event> &events);
bool writeBinaryFile(const std::string &path,
                     const std::vector<Event> &events);

/**
 * Parse a binary trace. @return false (with @p err set) on bad magic,
 * version mismatch or truncation.
 */
bool readBinary(std::istream &is, std::vector<Event> &out,
                std::string &err);
bool readBinaryFile(const std::string &path, std::vector<Event> &out,
                    std::string &err);

/** Keep only events whose category is in @p mask. */
std::vector<Event> filterByMask(const std::vector<Event> &events,
                                std::uint32_t mask);

/** Emit trace_event JSON for @p events (core/MC counts are derived). */
void writePerfetto(std::ostream &os, const std::vector<Event> &events);
bool writePerfettoFile(const std::string &path,
                       const std::vector<Event> &events);

/** One human-readable line per event (the `lwsp_trace dump` format). */
void writeText(std::ostream &os, const std::vector<Event> &events);

/** Per-category counts, tick range, unit counts (`lwsp_trace info`). */
struct TraceSummary
{
    std::size_t events = 0;
    Tick firstTick = 0;
    Tick lastTick = 0;
    unsigned numCores = 0;  ///< distinct core-scoped units seen
    unsigned numMcs = 0;    ///< distinct MC-scoped units seen
    std::size_t perType[numEventTypes] = {};
};

TraceSummary summarize(const std::vector<Event> &events);

} // namespace trace
} // namespace lwsp

#endif // LWSP_TRACE_EXPORT_HH
