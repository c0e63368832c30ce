#include "runner.hh"

#include <sstream>

#include "common/flags.hh"
#include "compiler/compiler.hh"

namespace lwsp {
namespace harness {

using core::Scheme;

namespace {

/** The compiler's store threshold: the override, else half the WPQ; 0
 *  for a scheme that runs the uncompiled binary and never consults it. */
unsigned
storeThreshold(const RunSpec &spec)
{
    if (!core::schemeUsesCompiledBinary(spec.scheme))
        return 0;
    return spec.storeThreshold.value_or(spec.wpqEntries / 2);
}

} // namespace

cli::Flag
engineFlag()
{
    const std::string names = cli::joinNames(simEngineNames);
    return {"--engine", names,
            "simulator core (default event; results are bit-identical)",
            [names](std::string_view v, std::string &why) {
                SimEngine e = SimEngine::Event;
                why = "want " + names;
                const bool ok = spec::enumFromName(simEngineNames, v, e);
                if (ok)
                    lwsp::setDefaultSimEngine(e);
                return ok;
            }};
}

core::SystemConfig
makeConfig(const workloads::WorkloadProfile &profile, const RunSpec &spec)
{
    core::SystemConfig cfg;
    cfg.scheme = spec.scheme;

    cfg.core.branchMissRate = profile.branchMissRate;
    cfg.core.hwRegionStores = profile.hwRegionStores;

    cfg.mc.wpqEntries = spec.wpqEntries;
    // The front-end buffer follows the WPQ size (§IV-E).
    cfg.core.febEntries = spec.wpqEntries;
    cfg.core.pathCyclesPerEntry =
        bandwidthToCyclesPerGranule(spec.persistPathGBps);
    cfg.mc.pmReadCycles = spec.pmReadCycles;
    cfg.mc.pmWriteCycles = spec.pmWriteCycles;
    cfg.core.pathLatency += spec.extraPathLatency;
    cfg.mc.drainInterval = spec.drainInterval;
    if (spec.victimPolicy)
        cfg.victimPolicy = *spec.victimPolicy;
    cfg.mc.strictFlushAcks = spec.strictFlushAcks;
    cfg.numMcs = spec.numMcs;
    cfg.topology = spec.topology;

    cfg.applySchemeDefaults();
    return cfg;
}

compiler::CompiledProgram
prepareProgram(workloads::Workload &&workload, const RunSpec &spec)
{
    if (!core::schemeUsesCompiledBinary(spec.scheme))
        return compiler::makeUncompiled(std::move(workload.module));

    compiler::CompilerConfig ccfg;
    ccfg.storeThreshold = storeThreshold(spec);
    if (spec.scheme == Scheme::Cwsp)
        ccfg.insertCheckpointStores = false;

    compiler::LightWspCompiler comp(ccfg);
    return comp.compile(std::move(workload.module));
}

PreparedPoint
preparePoint(const RunSpec &spec)
{
    const auto &profile = workloads::profileByName(spec.workload);
    workloads::Workload w = workloads::generate(profile);

    PreparedPoint pt;
    pt.threads = spec.threads.value_or(profile.threads);
    pt.cfg = makeConfig(profile, spec);
    // Warm the caches (stand-in for the paper's 10B-instruction
    // fast-forward): measure only the last ~65% of the run.
    pt.cfg.warmupInsts =
        w.estimatedInstsPerThread * pt.threads * 35 / 100;
    pt.prog = prepareProgram(std::move(w), spec);
    return pt;
}

core::RunResult
runToCompletion(core::System &sys, const RunSpec &spec)
{
    core::RunResult res = sys.run();
    LWSP_ASSERT(res.completed, "run hit the cycle cap at cycle ",
                sys.now(), ": ", specKey(spec));
    return res;
}

RunOutcome
Runner::runUncached(const RunSpec &spec)
{
    PreparedPoint pt = preparePoint(spec);
    RunOutcome out;
    out.threads = pt.threads;
    out.compileStats = pt.prog.stats;

    core::System sys(pt.cfg, pt.prog, pt.threads);
    out.result = runToCompletion(sys, spec);
    return out;
}

RunOutcome
Runner::run(const RunSpec &spec)
{
    std::string key = specKey(spec);
    std::promise<RunOutcome> promise;
    std::shared_future<RunOutcome> future;
    bool owner = false;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = memo_.find(key);
        if (it == memo_.end()) {
            future = promise.get_future().share();
            memo_.emplace(key, future);
            owner = true;
        } else {
            future = it->second;
        }
    }
    if (owner) {
        // Simulate outside the lock so other points proceed in parallel;
        // same-key requesters block on the shared future instead of
        // re-simulating.
        try {
            promise.set_value(runUncached(spec));
        } catch (...) {
            promise.set_exception(std::current_exception());
        }
    }
    return future.get();
}

std::string
specKey(const RunSpec &spec)
{
    const auto &profile = workloads::profileByName(spec.workload);
    std::ostringstream os;
    os << spec.workload << '/' << static_cast<int>(spec.scheme) << '/'
       << spec.wpqEntries << '/' << storeThreshold(spec) << '/'
       << (spec.victimPolicy ? static_cast<int>(*spec.victimPolicy) : -1)
       << '/' << spec.persistPathGBps << '/'
       << spec.threads.value_or(profile.threads) << '/'
       << spec.pmReadCycles << '/' << spec.pmWriteCycles << '/'
       << spec.extraPathLatency << '/' << spec.drainInterval << '/'
       << spec.strictFlushAcks << '/' << simEngineName(defaultSimEngine())
       << '/' << spec.numMcs << '/' << spec.topology.toString();
    return os.str();
}

RunSpec
Runner::baselineSpec(const RunSpec &spec)
{
    // The paper normalizes within each memory configuration: the
    // baseline keeps the workload, thread count, CXL media latencies and
    // fabric shape; every persist-side override reverts to Table I.
    return {.workload = spec.workload,
            .scheme = Scheme::Baseline,
            .threads = spec.threads,
            .pmReadCycles = spec.pmReadCycles,
            .pmWriteCycles = spec.pmWriteCycles,
            .numMcs = spec.numMcs,
            .topology = spec.topology};
}

double
Runner::slowdownVsBaseline(const RunSpec &spec)
{
    Tick base_cycles = run(baselineSpec(spec)).result.cycles;
    Tick scheme_cycles = run(spec).result.cycles;
    return static_cast<double>(scheme_cycles) /
           static_cast<double>(base_cycles);
}

double
persistenceEfficiency(const core::RunResult &r,
                      const core::SystemConfig &cfg)
{
    if (r.boundaries == 0)
        return 100.0;

    // Unoptimized persistence latency: every region pays the full path
    // latency, a banked PM write per entry (the write latency amortized
    // over the iMC's internal banking), and one ACK round trip, fully
    // serialized with execution.
    constexpr double pmWriteBanking = 16.0;
    double entries_per_region =
        r.boundaries
            ? static_cast<double>(std::max<std::uint64_t>(
                  r.wpqFlushedEntries, r.storesRetired)) /
                  static_cast<double>(r.boundaries)
            : 0.0;
    double tp = static_cast<double>(r.boundaries) *
                (static_cast<double>(cfg.core.pathLatency) +
                 entries_per_region *
                     static_cast<double>(cfg.mc.pmWriteCycles) /
                     pmWriteBanking +
                 2.0 * static_cast<double>(core::nocHopLatency));

    double twait = static_cast<double>(r.boundaryWaitCycles) +
                   static_cast<double>(r.sbFullCycles) +
                   static_cast<double>(r.febFullCycles);

    if (tp <= 0)
        return 100.0;
    double eff = (tp - twait) / tp * 100.0;
    return std::max(0.0, std::min(100.0, eff));
}

} // namespace harness
} // namespace lwsp
