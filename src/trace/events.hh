/**
 * @file
 * Typed simulator events: the vocabulary of the telemetry subsystem.
 *
 * Every figure in the paper is a projection of these events — region
 * lifetimes (tab VG3), WPQ occupancy over time (figs 11/18), boundary
 * broadcast latency (fig 7's LRPO stalls) — so they are first-class:
 * fixed-size PODs a component can emit in a couple of stores, cheap
 * enough to leave compiled in and gate at run time (the LRPO-oracle
 * discipline), yet carrying enough identity (unit, thread, region,
 * address) for the exporters to rebuild per-core span tracks and
 * per-MC counter tracks without any component-specific knowledge.
 *
 * Categories are bit flags. The run-time sink mask filters which
 * categories a trace keeps; it defaults to everything.
 */

#ifndef LWSP_TRACE_EVENTS_HH
#define LWSP_TRACE_EVENTS_HH

#include <cstdint>
#include <iterator>

#include "common/types.hh"

namespace lwsp {
namespace trace {

/** Event categories (bit flags; combine with |). */
enum class Category : std::uint32_t
{
    Region     = 1u << 0,  ///< region begin/close/persist lifecycle
    Boundary   = 1u << 1,  ///< boundary broadcast send/arrive/ack
    Wpq        = 1u << 2,  ///< WPQ enqueue/release/drain
    Cache      = 1u << 3,  ///< cache writebacks
    Checkpoint = 1u << 4,  ///< compiler checkpoint stores reaching PM path
    Power      = 1u << 5,  ///< power failure, crash drain, recovery
    Sched      = 1u << 6,  ///< context switches
    Serve      = 1u << 7,  ///< service-workload request markers
};

constexpr std::uint32_t allCategories = 0xffu;

/** Category names, indexed by bit position (the lwsp_trace spelling). */
inline constexpr const char *categoryNames[] = {
    "region", "boundary", "wpq", "cache", "checkpoint", "power", "sched",
    "serve",
};

constexpr std::uint32_t
categoryBit(Category c)
{
    return static_cast<std::uint32_t>(c);
}

/** Concrete event types (each belongs to exactly one Category). */
enum class EventType : std::uint8_t
{
    // Category::Region
    RegionBegin,      ///< thread enters a fresh region (unit=core)
    RegionClose,      ///< boundary retired, region closed (unit=core)
    RegionPersist,    ///< region committed: MC flush-ID advance (unit=mc)

    // Category::Boundary
    BoundaryBcastSend,  ///< boundary exited a core's persist path
    BoundaryBcastRecv,  ///< broadcast delivered at an MC (unit=mc)
    BoundaryAck,        ///< peer bdry-ACK received (unit=mc, aux=from)

    // Category::Wpq
    WpqEnqueue,       ///< entry accepted (unit=mc, aux=occupancy after)
    WpqRelease,       ///< entry released to PM (aux packs occupancy/kind)
    WpqDrainDone,     ///< local flush of a region finished (unit=mc)

    // Category::Cache
    CacheWriteback,   ///< dirty line displaced (unit=core, -1 for L2)

    // Category::Checkpoint
    CheckpointStore,  ///< CkptStore retired (unit=core, addr=slot)

    // Category::Power
    PowerFailure,     ///< power lost; §IV-F crash drain starts
    CrashDrainEnd,    ///< crash drain reached quiescence
    Recovery,         ///< successor system built from the PM image

    // Category::Sched
    CtxSwitch,        ///< core switched threads (unit=core)

    // Appended after the fault-injection subsystem landed; new types go
    // at the end so the binary trace format stays bit-compatible.

    // Category::Boundary
    BcastRetry,       ///< router re-sent a lost broadcast (aux=attempt)

    // Category::Power
    FaultInjected,    ///< fault layer acted (value=axis, aux=detail)
    RecoveryVerdict,  ///< recovery classified (value=RecoveryOutcome)

    // Category::Serve (appended with the serve subsystem; end of enum
    // for binary-format compatibility)
    ServeMark,        ///< served-counter store retired (unit=core,
                      ///< value=served count, aux=cumulative
                      ///< boundary-stall cycles on that core)
};

constexpr std::uint8_t numEventTypes =
    static_cast<std::uint8_t>(EventType::ServeMark) + 1;

/** Which unit an event's `unit` field numbers. */
enum class UnitScope : std::uint8_t
{
    None,  ///< no unit (or -1)
    Core,  ///< a core index
    Mc,    ///< a memory-controller index
};

/** One row of the event vocabulary. */
struct EventInfo
{
    EventType type;
    const char *name;    ///< the lwsp_trace / Perfetto spelling
    Category category;   ///< what the sink mask filters on
    UnitScope unit;      ///< what `unit` numbers (Perfetto track layout)
};

namespace detail {

using enum EventType;
using enum UnitScope;
using C = Category;

inline constexpr EventInfo eventTable[] = {
    {RegionBegin, "region-begin", C::Region, Core},
    {RegionClose, "region-close", C::Region, Core},
    {RegionPersist, "region-persist", C::Region, Mc},
    {BoundaryBcastSend, "bdry-send", C::Boundary, Core},
    {BoundaryBcastRecv, "bdry-recv", C::Boundary, Mc},
    {BoundaryAck, "bdry-ack", C::Boundary, Mc},
    {WpqEnqueue, "wpq-enqueue", C::Wpq, Mc},
    {WpqRelease, "wpq-release", C::Wpq, Mc},
    {WpqDrainDone, "wpq-drain-done", C::Wpq, Mc},
    {CacheWriteback, "cache-writeback", C::Cache, Core},
    {CheckpointStore, "ckpt-store", C::Checkpoint, Core},
    {PowerFailure, "power-failure", C::Power, None},
    {CrashDrainEnd, "crash-drain-end", C::Power, None},
    {Recovery, "recovery", C::Power, None},
    {CtxSwitch, "ctx-switch", C::Sched, Core},
    {BcastRetry, "bcast-retry", C::Boundary, None},
    {FaultInjected, "fault-injected", C::Power, Mc},  // damaged/stalled MC
    {RecoveryVerdict, "recovery-verdict", C::Power, None},
    {ServeMark, "serve-mark", C::Serve, Core},
};

static_assert(std::size(eventTable) == numEventTypes,
              "one vocabulary row per EventType");
static_assert([] {
    for (unsigned i = 0; i < numEventTypes; ++i) {
        if (eventTable[i].type != static_cast<EventType>(i))
            return false;
    }
    return true;
}(), "vocabulary rows follow the EventType enum's order");

} // namespace detail

/** The vocabulary row of @p t. */
constexpr const EventInfo &
eventInfo(EventType t)
{
    return detail::eventTable[static_cast<std::uint8_t>(t)];
}

const char *categoryName(Category c);

/** Parse "region", "wpq", ... (case-sensitive); 0 on failure. */
std::uint32_t parseCategory(const char *name);

/**
 * One telemetry event. Fixed layout, no pointers: the binary format
 * serializes these field by field and the ring buffer stores them by
 * value. `unit` is the emitting core or MC index (the event type
 * disambiguates which), -1 when not applicable.
 */
struct Event
{
    Tick tick = 0;
    EventType type = EventType::RegionBegin;
    std::int32_t unit = -1;
    ThreadId thread = 0;
    RegionId region = invalidRegion;
    Addr addr = 0;
    std::uint64_t value = 0;
    /**
     * Type-specific payload: WPQ occupancy after enqueue/release (the
     * counter-track source), release kind in the high byte for
     * WpqRelease (0 normal, 1 fallback, 2 shadow-absorbed, 3 undo
     * restore), sender MC for BoundaryAck, incoming thread for
     * CtxSwitch.
     */
    std::uint64_t aux = 0;
};

/** Pack/unpack the WpqRelease aux field (occupancy + release kind). */
constexpr std::uint64_t
packReleaseAux(std::size_t occupancy, int kind)
{
    return (static_cast<std::uint64_t>(kind) << 56) |
           (static_cast<std::uint64_t>(occupancy) & 0x00ff'ffff'ffff'ffffull);
}

constexpr int
releaseKind(std::uint64_t aux)
{
    return static_cast<int>(aux >> 56);
}

constexpr std::uint64_t
releaseOccupancy(std::uint64_t aux)
{
    return aux & 0x00ff'ffff'ffff'ffffull;
}

} // namespace trace
} // namespace lwsp

#endif // LWSP_TRACE_EVENTS_HH
