/**
 * @file
 * Persist-path payloads and memory-controller control messages.
 *
 * Every store leaving a store buffer is tagged with its thread's current
 * region ID (paper §IV-B). Boundary PC-stores additionally trigger a
 * broadcast of that ID to all MCs when they exit the core's FIFO persist
 * path, which is how MCs learn the execution order of regions.
 */

#ifndef LWSP_MEM_PERSIST_HH
#define LWSP_MEM_PERSIST_HH

#include <cstdint>

#include "common/types.hh"

namespace lwsp {
namespace mem {

/** One 8-byte store travelling the non-temporal persist path. */
struct PersistEntry
{
    Addr addr = 0;
    std::uint64_t value = 0;
    RegionId region = invalidRegion;  ///< gating tag of this store
    ThreadId thread = 0;
    bool isBoundary = false;       ///< ends a region when exiting the path
    /**
     * Region broadcast when this boundary exits the persist path. Equals
     * `region` for compiler boundaries; for fused synchronization
     * boundaries (atomics/locks/fences) it is the *previous* region —
     * the sync op's own store already belongs to the freshly allocated
     * one, which is how racing atomics acquire coherence-ordered IDs.
     */
    RegionId broadcastRegion = invalidRegion;
    std::uint32_t site = 0;        ///< boundary site id (when applicable)
    /**
     * ECC state of the queued entry. Nonzero only when the fault layer
     * damaged it at crash time: 1 = detected bit flip, 2 = torn write.
     * A damaged entry must never be applied to PM; the crash drain
     * truncates to the epoch before the lowest damaged region instead.
     */
    std::uint8_t ecc = 0;
};

/** MC-to-MC (and router-to-MC) control messages of the LRPO protocol. */
struct McMsg
{
    enum class Type : std::uint8_t
    {
        BdryArrival,   ///< boundary broadcast reaching this MC
        BdryAck,       ///< "I have received boundary <region>"
        FlushAck,      ///< "I have flushed all my entries of <region>"
        /**
         * Tree-fabric root announcements (see noc/noc.hh): every MC's
         * BdryAck/FlushAck for <region> has aggregated to the root,
         * which sends the completed round back down. An MC reads one as
         * every peer's ACK of that type at once.
         */
        BdryAllAcked,
        FlushAllAcked,
    };

    Type type = Type::BdryArrival;
    RegionId region = invalidRegion;
    McId from = 0;
    /**
     * Nonzero only for BdryArrival copies sent while fault injection is
     * armed: identifies the broadcast so the router can observe delivery
     * and retry copies that a faulty link dropped.
     */
    std::uint64_t bcastId = 0;
};

/** Delivery target registered with the NoC. */
class McEndpoint
{
  public:
    virtual ~McEndpoint() = default;
    virtual void receive(const McMsg &msg, Tick now) = 0;
};

} // namespace mem
} // namespace lwsp

#endif // LWSP_MEM_PERSIST_HH
