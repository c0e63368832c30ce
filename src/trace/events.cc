#include "trace/events.hh"

#include <bit>

#include "common/parse.hh"

namespace lwsp {
namespace trace {

const char *
eventTypeName(EventType t)
{
    switch (t) {
      case EventType::RegionBegin: return "region-begin";
      case EventType::RegionClose: return "region-close";
      case EventType::RegionPersist: return "region-persist";
      case EventType::BoundaryBcastSend: return "bdry-send";
      case EventType::BoundaryBcastRecv: return "bdry-recv";
      case EventType::BoundaryAck: return "bdry-ack";
      case EventType::WpqEnqueue: return "wpq-enqueue";
      case EventType::WpqRelease: return "wpq-release";
      case EventType::WpqDrainDone: return "wpq-drain-done";
      case EventType::CacheWriteback: return "cache-writeback";
      case EventType::CheckpointStore: return "ckpt-store";
      case EventType::PowerFailure: return "power-failure";
      case EventType::CrashDrainEnd: return "crash-drain-end";
      case EventType::Recovery: return "recovery";
      case EventType::CtxSwitch: return "ctx-switch";
      case EventType::BcastRetry: return "bcast-retry";
      case EventType::FaultInjected: return "fault-injected";
      case EventType::RecoveryVerdict: return "recovery-verdict";
      case EventType::ServeMark: return "serve-mark";
    }
    return "<bad>";
}

const char *
categoryName(Category c)
{
    return spec::enumName(categoryNames, std::countr_zero(categoryBit(c)));
}

std::uint32_t
parseCategory(const char *name)
{
    unsigned bit = 0;
    return spec::enumFromName(categoryNames, name, bit) ? 1u << bit : 0;
}

} // namespace trace
} // namespace lwsp
