#include "trace/export.hh"

#include <algorithm>
#include <array>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <map>
#include <ostream>
#include <sstream>

namespace lwsp {
namespace trace {

// ---- Binary format ---------------------------------------------------------

namespace {

constexpr std::uint32_t binaryVersion = 1;
constexpr std::size_t recordBytes = 56;

void
putU32(char *p, std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        p[i] = static_cast<char>((v >> (8 * i)) & 0xff);
}

void
putU64(char *p, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        p[i] = static_cast<char>((v >> (8 * i)) & 0xff);
}

std::uint32_t
getU32(const char *p)
{
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
        v |= static_cast<std::uint32_t>(static_cast<unsigned char>(p[i]))
             << (8 * i);
    return v;
}

std::uint64_t
getU64(const char *p)
{
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<std::uint64_t>(static_cast<unsigned char>(p[i]))
             << (8 * i);
    return v;
}

void
packRecord(char *rec, const Event &e)
{
    std::memset(rec, 0, recordBytes);
    putU64(rec + 0, e.tick);
    rec[8] = static_cast<char>(e.type);
    putU32(rec + 12, static_cast<std::uint32_t>(e.unit));
    putU32(rec + 16, e.thread);
    putU64(rec + 24, e.region);
    putU64(rec + 32, e.addr);
    putU64(rec + 40, e.value);
    putU64(rec + 48, e.aux);
}

bool
unpackRecord(const char *rec, Event &e)
{
    auto raw_type = static_cast<std::uint8_t>(rec[8]);
    if (raw_type >= numEventTypes)
        return false;
    e.tick = getU64(rec + 0);
    e.type = static_cast<EventType>(raw_type);
    e.unit = static_cast<std::int32_t>(getU32(rec + 12));
    e.thread = getU32(rec + 16);
    e.region = getU64(rec + 24);
    e.addr = getU64(rec + 32);
    e.value = getU64(rec + 40);
    e.aux = getU64(rec + 48);
    return true;
}

} // namespace

bool
writeBinary(std::ostream &os, const std::vector<Event> &events)
{
    char header[24];
    std::memcpy(header, binaryMagic, 8);
    putU32(header + 8, binaryVersion);
    putU32(header + 12, 0);
    putU64(header + 16, events.size());
    os.write(header, sizeof(header));

    char rec[recordBytes];
    for (const Event &e : events) {
        packRecord(rec, e);
        os.write(rec, recordBytes);
    }
    os.flush();
    return static_cast<bool>(os);
}

bool
writeBinaryFile(const std::string &path, const std::vector<Event> &events)
{
    std::ofstream os(path, std::ios::binary);
    return os && writeBinary(os, events);
}

bool
readBinary(std::istream &is, std::vector<Event> &out, std::string &err)
{
    char header[24];
    if (!is.read(header, sizeof(header))) {
        err = "truncated header";
        return false;
    }
    if (std::memcmp(header, binaryMagic, 8) != 0) {
        err = "bad magic (not an lwsp trace file)";
        return false;
    }
    std::uint32_t version = getU32(header + 8);
    if (version != binaryVersion) {
        err = "unsupported trace version " + std::to_string(version);
        return false;
    }
    std::uint64_t count = getU64(header + 16);

    out.clear();
    out.reserve(static_cast<std::size_t>(count));
    char rec[recordBytes];
    for (std::uint64_t i = 0; i < count; ++i) {
        if (!is.read(rec, recordBytes)) {
            err = "truncated at record " + std::to_string(i) + " of " +
                  std::to_string(count);
            return false;
        }
        Event e;
        if (!unpackRecord(rec, e)) {
            err = "unknown event type in record " + std::to_string(i);
            return false;
        }
        out.push_back(e);
    }
    err.clear();
    return true;
}

bool
readBinaryFile(const std::string &path, std::vector<Event> &out,
               std::string &err)
{
    std::ifstream is(path, std::ios::binary);
    if (!is) {
        err = "cannot open " + path;
        return false;
    }
    return readBinary(is, out, err);
}

std::vector<Event>
filterByMask(const std::vector<Event> &events, std::uint32_t mask)
{
    std::vector<Event> out;
    out.reserve(events.size());
    for (const Event &e : events) {
        if (mask & categoryBit(categoryOf(e.type)))
            out.push_back(e);
    }
    return out;
}

// ---- Summary ---------------------------------------------------------------

namespace {

/** Is the event's unit a core index (vs an MC index)? */
bool
coreScoped(EventType t)
{
    switch (t) {
      case EventType::RegionBegin:
      case EventType::RegionClose:
      case EventType::BoundaryBcastSend:
      case EventType::CacheWriteback:
      case EventType::CheckpointStore:
      case EventType::CtxSwitch:
      case EventType::ServeMark:
        return true;
      default:
        return false;
    }
}

bool
mcScoped(EventType t)
{
    switch (t) {
      case EventType::RegionPersist:
      case EventType::BoundaryBcastRecv:
      case EventType::BoundaryAck:
      case EventType::WpqEnqueue:
      case EventType::WpqRelease:
      case EventType::WpqDrainDone:
      case EventType::FaultInjected:  // unit = damaged/stalled MC (or -1)
        return true;
      default:
        return false;
    }
}

} // namespace

TraceSummary
summarize(const std::vector<Event> &events)
{
    TraceSummary s;
    s.events = events.size();
    bool first = true;
    for (const Event &e : events) {
        if (first || e.tick < s.firstTick)
            s.firstTick = e.tick;
        if (first || e.tick > s.lastTick)
            s.lastTick = e.tick;
        first = false;
        ++s.perType[static_cast<std::uint8_t>(e.type)];
        if (e.unit >= 0) {
            auto u = static_cast<unsigned>(e.unit) + 1;
            if (coreScoped(e.type))
                s.numCores = std::max(s.numCores, u);
            else if (mcScoped(e.type))
                s.numMcs = std::max(s.numMcs, u);
        }
    }
    return s;
}

// ---- Perfetto JSON ---------------------------------------------------------

namespace {

class EventWriter
{
  public:
    explicit EventWriter(std::ostream &os) : os_(os) {}

    /** Start one trace_event object ({"ph":..,"pid":1,...). */
    std::ostream &
    open(char ph, Tick ts, int tid)
    {
        if (!first_)
            os_ << ",\n";
        first_ = false;
        os_ << "{\"ph\":\"" << ph << "\",\"pid\":1,\"tid\":" << tid
            << ",\"ts\":" << ts;
        return os_;
    }

    void close() { os_ << "}"; }

  private:
    std::ostream &os_;
    bool first_ = true;
};

} // namespace

void
writePerfetto(std::ostream &os, const std::vector<Event> &events)
{
    TraceSummary sum = summarize(events);
    const int sysTid =
        static_cast<int>(sum.numCores) + static_cast<int>(sum.numMcs);
    auto trackOf = [&](const Event &e) {
        if (e.unit < 0)
            return sysTid;
        return mcScoped(e.type) ? static_cast<int>(sum.numCores) + e.unit
                                : e.unit;
    };

    os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
    EventWriter w(os);

    // Metadata: process and track names.
    w.open('M', 0, 0);
    os << ",\"name\":\"process_name\",\"args\":{\"name\":\"lwsp\"}";
    w.close();
    for (unsigned c = 0; c < sum.numCores; ++c) {
        w.open('M', 0, static_cast<int>(c));
        os << ",\"name\":\"thread_name\",\"args\":{\"name\":\"core" << c
           << "\"}";
        w.close();
    }
    for (unsigned m = 0; m < sum.numMcs; ++m) {
        w.open('M', 0, static_cast<int>(sum.numCores + m));
        os << ",\"name\":\"thread_name\",\"args\":{\"name\":\"mc" << m
           << "\"}";
        w.close();
    }
    w.open('M', 0, sysTid);
    os << ",\"name\":\"thread_name\",\"args\":{\"name\":\"system\"}";
    w.close();

    // Per-core span depth: a trace that starts mid-run (ring wrap) can
    // open with an unmatched close; drop those so B/E stay balanced.
    std::map<int, unsigned> depth;
    // Previous ServeMark tick per core: each mark closes one request
    // span stretching back to the preceding mark.
    std::map<int, Tick> lastMark;

    for (const Event &e : events) {
        int tid = trackOf(e);
        const char *cat = categoryName(categoryOf(e.type));
        switch (e.type) {
          case EventType::RegionBegin:
            ++depth[tid];
            w.open('B', e.tick, tid);
            os << ",\"name\":\"region " << e.region << "\",\"cat\":\""
               << cat << "\",\"args\":{\"thread\":" << e.thread << "}";
            w.close();
            break;
          case EventType::RegionClose: {
            auto it = depth.find(tid);
            if (it == depth.end() || it->second == 0)
                break;  // wrap artifact: close without matching open
            --it->second;
            w.open('E', e.tick, tid);
            w.close();
            break;
          }
          case EventType::WpqEnqueue:
          case EventType::WpqRelease: {
            std::uint64_t occ = e.type == EventType::WpqRelease
                                    ? releaseOccupancy(e.aux)
                                    : e.aux;
            w.open('C', e.tick, tid);
            os << ",\"name\":\"mc" << e.unit
               << ".wpq_occupancy\",\"cat\":\"" << cat
               << "\",\"args\":{\"entries\":" << occ << "}";
            w.close();
            break;
          }
          case EventType::ServeMark: {
            // Complete span per served op: previous mark on this core
            // (first mark: trace start) to this retirement tick.
            Tick start = 0;
            auto it = lastMark.find(tid);
            if (it != lastMark.end())
                start = it->second;
            w.open('X', start, tid);
            os << ",\"dur\":" << (e.tick - start) << ",\"name\":\"serve op "
               << e.value << "\",\"cat\":\"" << cat
               << "\",\"args\":{\"served\":" << e.value
               << ",\"bdry_stall_cum\":" << e.aux << "}";
            w.close();
            lastMark[tid] = e.tick;
            break;
          }
          default:
            w.open('i', e.tick, tid);
            os << ",\"name\":\"" << eventTypeName(e.type)
               << (e.region != invalidRegion
                       ? " r" + std::to_string(e.region)
                       : std::string())
               << "\",\"s\":\"t\",\"cat\":\"" << cat << "\"";
            w.close();
            break;
        }
    }
    os << "\n]}\n";
}

bool
writePerfettoFile(const std::string &path,
                  const std::vector<Event> &events)
{
    std::ofstream os(path);
    if (!os)
        return false;
    writePerfetto(os, events);
    os.flush();
    return static_cast<bool>(os);
}

// ---- Text dump -------------------------------------------------------------

void
writeText(std::ostream &os, const std::vector<Event> &events)
{
    for (const Event &e : events) {
        os << std::setw(10) << e.tick << ' ' << std::left << std::setw(16)
           << eventTypeName(e.type) << std::right << " unit=" << e.unit
           << " thr=" << e.thread;
        if (e.region != invalidRegion)
            os << " region=" << e.region;
        if (e.addr != 0)
            os << " addr=0x" << std::hex << e.addr << std::dec;
        if (e.type == EventType::WpqRelease) {
            os << " occ=" << releaseOccupancy(e.aux)
               << " kind=" << releaseKind(e.aux);
        } else if (e.aux != 0) {
            os << " aux=" << e.aux;
        }
        os << '\n';
    }
}

} // namespace trace
} // namespace lwsp
