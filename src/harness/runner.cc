#include "runner.hh"

#include <atomic>
#include <sstream>

#include "compiler/compiler.hh"

namespace lwsp {
namespace harness {

using core::Scheme;

namespace {
std::atomic<SimEngine> gDefaultEngine{SimEngine::Event};
} // namespace

SimEngine
defaultSimEngine()
{
    return gDefaultEngine.load(std::memory_order_relaxed);
}

void
setDefaultSimEngine(SimEngine e)
{
    gDefaultEngine.store(e, std::memory_order_relaxed);
}

core::SystemConfig
makeConfig(const workloads::WorkloadProfile &profile, const RunSpec &spec)
{
    core::SystemConfig cfg;
    cfg.scheme = spec.scheme;
    cfg.engine = spec.engine.value_or(defaultSimEngine());

    cfg.core.branchMissRate = profile.branchMissRate;
    cfg.core.hwRegionStores = profile.hwRegionStores;

    unsigned wpq = spec.wpqEntries.value_or(64);
    cfg.mc.wpqEntries = wpq;
    cfg.core.febEntries = wpq;  // front-end buffer follows WPQ size (§IV-E)

    double gbps = spec.persistPathGBps.value_or(4.0);
    cfg.core.pathCyclesPerEntry = bandwidthToCyclesPerGranule(gbps);

    if (spec.pmReadCycles)
        cfg.mc.pmReadCycles = *spec.pmReadCycles;
    if (spec.pmWriteCycles)
        cfg.mc.pmWriteCycles = *spec.pmWriteCycles;
    if (spec.extraPathLatency)
        cfg.core.pathLatency += *spec.extraPathLatency;
    if (spec.drainInterval)
        cfg.mc.drainInterval = *spec.drainInterval;
    if (spec.victimPolicy)
        cfg.victimPolicy = *spec.victimPolicy;
    if (spec.strictFlushAcks)
        cfg.mc.strictFlushAcks = *spec.strictFlushAcks;
    if (spec.numMcs)
        cfg.numMcs = *spec.numMcs;
    if (spec.topology)
        cfg.topology = *spec.topology;

    cfg.applySchemeDefaults();
    return cfg;
}

compiler::CompiledProgram
prepareProgram(workloads::Workload &&workload, const RunSpec &spec)
{
    if (!core::schemeUsesCompiledBinary(spec.scheme))
        return compiler::makeUncompiled(std::move(workload.module));

    compiler::CompilerConfig ccfg;
    unsigned wpq = spec.wpqEntries.value_or(64);
    ccfg.storeThreshold = spec.storeThreshold.value_or(wpq / 2);
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

RunOutcome
Runner::runUncached(const RunSpec &spec)
{
    PreparedPoint pt = preparePoint(spec);
    RunOutcome out;
    out.threads = pt.threads;
    out.compileStats = pt.prog.stats;

    core::System sys(pt.cfg, pt.prog, pt.threads);
    out.result = sys.run();
    if (!out.result.completed)
        warn("run did not complete: ", spec.workload, " on ",
             core::schemeName(spec.scheme));
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
    // Fold each optional to the value the config/compile path derives
    // from an unset field (see makeConfig/prepareProgram), so explicit
    // defaults share the unset point's cache entry.
    const auto &profile = workloads::profileByName(spec.workload);
    unsigned wpq = spec.wpqEntries.value_or(64);
    unsigned threshold =
        core::schemeUsesCompiledBinary(spec.scheme)
            ? spec.storeThreshold.value_or(wpq / 2)
            : 0;  // uncompiled schemes never consult the threshold
    std::ostringstream os;
    os << spec.workload << '/' << static_cast<int>(spec.scheme) << '/'
       << wpq << '/' << threshold << '/'
       << (spec.victimPolicy ? static_cast<int>(*spec.victimPolicy) : -1)
       << '/' << spec.persistPathGBps.value_or(4.0) << '/'
       << spec.threads.value_or(profile.threads) << '/'
       << spec.pmReadCycles.value_or(350) << '/'
       << spec.pmWriteCycles.value_or(180) << '/'
       << spec.extraPathLatency.value_or(0) << '/'
       << spec.drainInterval.value_or(1) << '/'
       << spec.strictFlushAcks.value_or(false) << '/'
       << simEngineName(spec.engine.value_or(defaultSimEngine())) << '/'
       << spec.numMcs.value_or(2) << '/'
       << spec.topology.value_or(noc::TopologyConfig{}).toString();
    return os.str();
}

RunSpec
Runner::baselineSpec(const RunSpec &spec)
{
    RunSpec base = spec;
    base.scheme = Scheme::Baseline;
    // The baseline keeps Table I memory parameters; CXL media-latency
    // overrides apply to it as well (the paper normalizes within each
    // configuration).
    base.wpqEntries.reset();
    base.storeThreshold.reset();
    base.victimPolicy.reset();
    base.persistPathGBps.reset();
    base.extraPathLatency.reset();
    base.drainInterval.reset();
    base.strictFlushAcks.reset();
    return base;
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
                 2.0 * static_cast<double>(cfg.nocHopLatency));

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
