#include "fault/storm.hh"

#include <cstdio>

#include "common/parse.hh"
#include "common/random.hh"

namespace lwsp {
namespace fault {

const char *
failurePhaseName(FailurePhase p)
{
    switch (p) {
      case FailurePhase::Drain: return "drain";
      case FailurePhase::Recovery: return "recovery";
      case FailurePhase::Exec: return "exec";
    }
    return "<bad>";
}

std::vector<unsigned>
FailureSchedule::drainsFrom(std::size_t first) const
{
    std::vector<unsigned> iters;
    for (std::size_t i = first;
         i < events.size() && events[i].phase == FailurePhase::Drain; ++i)
        iters.push_back(static_cast<unsigned>(events[i].at));
    return iters;
}

std::string
FailureSchedule::toString() const
{
    std::string s;
    for (const FailureEvent &e : events) {
        if (!s.empty())
            s += '+';
        switch (e.phase) {
          case FailurePhase::Drain:
          case FailurePhase::Exec: {
            char buf[32];
            std::snprintf(buf, sizeof(buf), "%c%llu",
                          e.phase == FailurePhase::Drain ? 'd' : 'x',
                          static_cast<unsigned long long>(e.at));
            s += buf;
            break;
          }
          case FailurePhase::Recovery:
            s += 'r';  // no parameter: PM is untouched either way
            break;
        }
    }
    return s;
}

bool
FailureSchedule::parse(const std::string &s, FailureSchedule &out,
                       std::string &err)
{
    std::vector<std::string_view> toks;
    if (!spec::split(s, '+', "storm", toks, err))
        return false;
    FailureSchedule sched;
    for (std::string_view tok : toks) {
        FailureEvent e;
        switch (tok[0]) {
          case 'd': e.phase = FailurePhase::Drain; break;
          case 'r': e.phase = FailurePhase::Recovery; break;
          case 'x': e.phase = FailurePhase::Exec; break;
          default:
            err = "bad storm event '" + std::string(tok) +
                  "' (want d<N>|r|x<N>)";
            return false;
        }
        std::string_view num = tok.substr(1);
        if (e.phase == FailurePhase::Recovery) {
            if (!num.empty()) {
                err = "storm event '" + std::string(tok) +
                      "' takes no parameter (want plain 'r')";
                return false;
            }
        } else {
            if (!parseUnsigned(num, e.at)) {
                err = "bad storm event value in '" + std::string(tok) + "'";
                return false;
            }
        }
        sched.events.push_back(e);
    }
    out = std::move(sched);
    err.clear();
    return true;
}

FailureSchedule
FailureSchedule::random(std::uint64_t seed, unsigned n, Tick max_exec_gap)
{
    Rng rng(seed ^ 0x73746f726dull); // "storm"
    if (max_exec_gap < 2)
        max_exec_gap = 2;
    FailureSchedule s;
    for (unsigned i = 0; i < n; ++i) {
        FailureEvent e;
        std::uint64_t roll = rng.below(10);
        if (roll < 3) {
            e.phase = FailurePhase::Drain;
            e.at = rng.below(4);
        } else if (roll < 5) {
            e.phase = FailurePhase::Recovery;
        } else {
            e.phase = FailurePhase::Exec;
            e.at = 1 + rng.below(max_exec_gap);
        }
        s.events.push_back(e);
    }
    return s;
}

} // namespace fault
} // namespace lwsp
