#include "suites.hh"

#include <algorithm>
#include <sstream>

#include "common/random.hh"
#include "common/stats.hh"
#include "core/system.hh"
#include "fault/storm.hh"
#include "harness/runner.hh"
#include "measure.hh"
#include "pds/pds.hh"
#include "reference.hh"
#include "serve/serve.hh"
#include "spans.hh"
#include "trace/events.hh"
#include "workloads/generator.hh"

using namespace lwsp;

namespace perfbench {

std::uint64_t
deriveSeed(std::uint64_t seed, std::uint64_t tag, std::uint64_t reference)
{
    if (seed == kDefaultSeed)
        return reference;
    Rng rng(seed * 0x9e3779b97f4a7c15ull ^ tag);
    return rng.next() >> 32;
}

namespace {

/** Canonical text of every RunResult field (what digests hash). */
std::string
describe(const core::RunResult &r)
{
    std::ostringstream os;
    os.precision(17);
    os << r.cycles << ' ' << r.completed << ' ' << r.instsRetired << ' '
       << r.storesRetired << ' ' << r.boundaries << ' ' << r.ipc << ' '
       << r.boundaryWaitCycles << ' ' << r.sbFullCycles << ' '
       << r.febFullCycles << ' ' << r.snoopBlockedCycles << ' '
       << r.lockBlockedCycles << ' ' << r.l1Hits << ' ' << r.l1Misses
       << ' ' << r.staleLoads << ' ' << r.bufferConflicts << ' '
       << r.divertedVictims << ' ' << r.wpqLoadHits << ' '
       << r.wpqFlushedEntries << ' ' << r.wpqFallbackFlushes << ' '
       << r.wpqOverflowEvents << ' ' << r.maxWpqOccupancy << ' '
       << r.regionsCommitted << ' ' << r.nocMessages << ' '
       << r.bcastRetries << ' ' << r.bcastLatencyAvg << ' '
       << r.bcastLatencyMax << ' ' << r.avgRegionInsts << ' '
       << r.avgRegionStores;
    return os.str();
}

} // namespace

void
LayerCounts::absorb(const core::System &sys, const core::RunResult &last)
{
    stats::Registry reg;
    sys.registerStats(reg);
    const core::SystemConfig &cfg = sys.config();
    for (unsigned c = 0; c < cfg.numCores; ++c) {
        const std::string core = "core" + std::to_string(c);
        const stats::StatGroup &g = reg.group(core);
        cpuInsts += g.funcValue("instsRetired");
        boundaryWaitCycles += g.funcValue("boundaryWaitCycles");
        bufferFullCycles +=
            g.funcValue("sbFullCycles") + g.funcValue("febFullCycles");
        const stats::StatGroup &l1 = reg.group(core + ".l1d");
        l1Hits += l1.funcValue("hits");
        l1Misses += l1.funcValue("misses");
    }
    for (unsigned m = 0; m < cfg.numMcs; ++m) {
        const std::string mc = "mc" + std::to_string(m);
        const stats::StatGroup &g = reg.group(mc);
        fallbackFlushes += g.funcValue("fallbackFlushes");
        maxWpqOccupancy =
            std::max(maxWpqOccupancy, g.funcValue("maxWpqOccupancy"));
        const stats::StatGroup &w = reg.group(mc + ".wpq");
        wpqPushes += w.funcValue("pushes");
        wpqSearches += w.funcValue("searches");
        wpqSearchHits += w.funcValue("searchHits");
    }
    const stats::StatGroup &noc = reg.group("noc");
    nocMessages += noc.funcValue("messagesSent");
    nocBoundaries += noc.funcValue("boundariesBroadcast");
    traceEvents += reg.group("system").funcValue("traceEvents");
    bcastRetries += static_cast<double>(last.bcastRetries);
}

namespace {

void
countCompile(LayerCounts *counts, const compiler::CompiledProgram &prog)
{
    if (!counts)
        return;
    counts->compileOutputInsts += static_cast<double>(prog.stats.outputInsts);
    counts->compileBoundaries += static_cast<double>(prog.stats.boundaries);
    counts->compileFixpointIters +=
        static_cast<double>(prog.stats.fixpointIterations);
}

/** System::run under a core.run span, counting the cycles it advanced. */
core::RunResult
timedRun(core::System &sys, int point, LayerCounts *counts)
{
    Tick before = sys.now();
    core::RunResult r;
    {
        Span s("core.run", point);
        r = sys.run();
    }
    if (counts)
        counts->runCycles += static_cast<double>(sys.now() - before);
    return r;
}

std::unique_ptr<core::System>
construct(const core::SystemConfig &cfg,
          const compiler::CompiledProgram &prog, unsigned threads, int point)
{
    Span s("core.construct", point);
    return std::make_unique<core::System>(cfg, prog, threads);
}

// ---- paper-apps ----------------------------------------------------------

/** fig07's quick roster: one representative app per suite. */
const char *const kPaperApps[] = {"lbm", "xz", "intruder", "is", "radix",
                                  "rb"};

/** Baseline first, so each scheme point divides by its app's baseline. */
constexpr core::Scheme kPaperSchemes[] = {
    core::Scheme::Baseline, core::Scheme::Capri, core::Scheme::Ppa,
    core::Scheme::LightWsp};

/** The fig07 CSV column of @p s. */
const char *
fig07Column(core::Scheme s)
{
    switch (s) {
      case core::Scheme::Capri:    return "capri";
      case core::Scheme::Ppa:      return "ppa";
      case core::Scheme::LightWsp: return "lightwsp";
      default:                     return "baseline";
    }
}

class PaperApps : public Suite
{
  public:
    void
    setup(const Options &opt) override
    {
        ref_.reset();
        if (opt.seed == kDefaultSeed)
            ref_ = std::make_unique<ReferenceTable>(ReferenceTable::load(
                opt.resultsDir + "/fig07_slowdown.csv"));
    }

    std::size_t size() const override { return std::size(kPaperApps) * 4; }

    std::string
    pointName(std::size_t i) const override
    {
        return std::string(kPaperApps[i / 4]) + "/" +
               core::schemeName(kPaperSchemes[i % 4]);
    }

    PointResult
    run(std::size_t i, LayerCounts *counts) override
    {
        const int pt = static_cast<int>(i);
        const std::string app = kPaperApps[i / 4];
        const std::size_t a = i / 4;
        harness::RunSpec spec;
        spec.workload = app;
        spec.scheme = kPaperSchemes[i % 4];

        const auto &profile = workloads::profileByName(app);
        workloads::Workload w;
        {
            Span s("workloads.generate", pt);
            w = workloads::generate(profile);
        }
        const unsigned threads = profile.threads;
        core::SystemConfig cfg = harness::makeConfig(profile, spec);
        cfg.warmupInsts = w.estimatedInstsPerThread * threads * 35 / 100;
        compiler::CompiledProgram prog;
        {
            Span s("compiler.compile", pt);
            prog = harness::prepareProgram(std::move(w), spec);
        }
        countCompile(counts, prog);

        auto sys = construct(cfg, prog, threads, pt);
        core::RunResult r = timedRun(*sys, pt, counts);
        if (counts)
            counts->absorb(*sys, r);

        PointResult out;
        out.cycles = static_cast<double>(sys->now());
        out.insts = static_cast<double>(r.instsRetired);
        out.digest = fnv1a(describe(r));
        if (!r.completed) {
            out.error = "did not complete (cycle cap)";
            return out;
        }
        if (spec.scheme == core::Scheme::Baseline) {
            baseCycles_[a] = r.cycles;
            return out;
        }
        if (baseCycles_[a] == 0) {
            out.error = "baseline point has not run";
            return out;
        }
        double slowdown = static_cast<double>(r.cycles) /
                          static_cast<double>(baseCycles_[a]);
        if (spec.scheme == core::Scheme::LightWsp)
            lightwspSlowdown_[a] = slowdown;
        if (ref_)
            out.error = ref_->checkCell(app, fig07Column(spec.scheme),
                                        csvNumber(slowdown));
        return out;
    }

    std::map<std::string, double>
    outcomes() const override
    {
        std::vector<double> v;
        for (double s : lightwspSlowdown_) {
            if (s > 0)
                v.push_back(s);
        }
        if (v.empty())
            return {};
        return {{"sim_slowdown", stats::geomean(v)}};
    }

  private:
    std::unique_ptr<ReferenceTable> ref_;
    Tick baseCycles_[std::size(kPaperApps)] = {};
    double lightwspSlowdown_[std::size(kPaperApps)] = {};
};

// ---- scaleout -------------------------------------------------------------

/** One row of the fig23 grid, with its index there (fault seeds use it). */
struct ScaleRow
{
    std::size_t gridRow = 0;
    noc::TopologyConfig topo;
    unsigned mcs = 0;
    bool serveRow = false;
    bool lossy = false;

    std::string
    name() const
    {
        return topo.toString() + "/" + std::to_string(mcs) +
               (serveRow ? "/serve/varnish" : "/rb/t8") +
               (lossy ? "/loss100" : "");
    }
};

/**
 * The slice of fig23 the benchmark runs: the serve/varnish rows of both
 * fabrics at 8 and 64 MCs, fault-free and lossy, plus the fault-free
 * tree4 64-MC rb/t8 row. The other rb/t8 rows are left out: the flat
 * 64-MC ones take 10-15 host seconds each, and the four 8-MC ones would
 * almost double a pass, halving how often each point is sampled in a run.
 * The cheapest row comes first, because the driver warms up on point 0.
 */
const char *const kScaleSlice[] = {
    "flat/8/serve/varnish",       "flat/8/serve/varnish/loss100",
    "flat/64/serve/varnish",      "flat/64/serve/varnish/loss100",
    "tree4/8/serve/varnish",      "tree4/8/serve/varnish/loss100",
    "tree4/64/serve/varnish",     "tree4/64/serve/varnish/loss100",
    "tree4/64/rb/t8",
};

/**
 * The slice's rows. Each keeps its index in fig23's own grid order
 * ({flat, tree4} x {4, 8, 16, 64} x {none, loss} x {rb, serve}), which
 * its fault seed is drawn from.
 */
std::vector<ScaleRow>
scaleRows()
{
    noc::TopologyConfig tree4;
    tree4.kind = noc::TopologyConfig::Kind::Tree;
    tree4.radix = 4;
    std::map<std::string, ScaleRow> grid;
    std::size_t index = 0;
    for (const auto &topo : {noc::TopologyConfig{}, tree4}) {
        for (unsigned mcs : {4u, 8u, 16u, 64u}) {
            for (bool lossy : {false, true}) {
                for (bool serveRow : {false, true}) {
                    ScaleRow r{index++, topo, mcs, serveRow, lossy};
                    grid.emplace(r.name(), r);
                }
            }
        }
    }
    std::vector<ScaleRow> rows;
    for (const char *name : kScaleSlice)
        rows.push_back(grid.at(name));
    return rows;
}

class Scaleout : public Suite
{
  public:
    Scaleout() : rows_(scaleRows()), bcastLat_(rows_.size(), -1.0) {}

    void
    setup(const Options &opt) override
    {
        ref_.reset();
        if (opt.seed == kDefaultSeed)
            ref_ = std::make_unique<ReferenceTable>(ReferenceTable::load(
                opt.resultsDir + "/fig23_scaleout.csv"));
        // fig23's fixed tape, like the fixed rb program, and fig23's own
        // fault seeds: the seed changes nothing here, because the cycles a
        // lossy row runs swing by tens of percent with its fault seed,
        // which would swamp the host-speed metrics.
        Span s("serve.build");
        serve::ServeSpec spec;
        spec.profile = serve::Profile::Varnish;
        spec.sizeClass = 1;
        spec.numRequests = 64;
        spec.seed = 11;
        tape_ = serve::buildWorkload(spec);
    }

    std::size_t size() const override { return rows_.size(); }
    std::string pointName(std::size_t i) const override
    {
        return rows_[i].name();
    }

    PointResult
    run(std::size_t i, LayerCounts *counts) override
    {
        const ScaleRow &row = rows_[i];
        const int pt = static_cast<int>(i);
        fault::FaultConfig faults;
        if (row.lossy) {
            faults.enabled = true;
            faults.seed =
                0xf23u + 7919u * static_cast<std::uint64_t>(row.gridRow);
            faults.bcastLossPm = 100;
        }

        core::SystemConfig cfg;
        compiler::CompiledProgram prog;
        unsigned threads = 1;
        if (row.serveRow) {
            cfg = pds::makePdsConfig(pds::PdsScheme::LightWsp,
                                     pds::PdsRunMode::Perf);
            cfg.engine = harness::defaultSimEngine();
            Span s("compiler.compile", pt);
            prog = pds::preparePdsProgram(tape_.pdsSpec, tape_.ops,
                                          pds::PdsScheme::LightWsp,
                                          pds::PdsRunMode::Perf);
        } else {
            const auto &profile = workloads::profileByName("rb");
            harness::RunSpec spec;
            spec.workload = "rb";
            spec.scheme = core::Scheme::LightWsp;
            threads = 8;
            spec.threads = threads;
            spec.numMcs = row.mcs;
            spec.topology = row.topo;
            workloads::Workload w;
            {
                Span s("workloads.generate", pt);
                w = workloads::generate(profile);
            }
            cfg = harness::makeConfig(profile, spec);
            cfg.warmupInsts = w.estimatedInstsPerThread * threads * 35 / 100;
            Span s("compiler.compile", pt);
            prog = harness::prepareProgram(std::move(w), spec);
        }
        cfg.numMcs = row.mcs;
        cfg.topology = row.topo;
        cfg.faults = faults;
        countCompile(counts, prog);

        auto sys = construct(cfg, prog, threads, pt);
        core::RunResult r = timedRun(*sys, pt, counts);
        if (counts)
            counts->absorb(*sys, r);

        std::ostringstream line;
        line << row.name() << ',' << row.topo.toString() << ',' << row.mcs
             << ',' << (row.serveRow ? "serve/varnish" : "rb/t8") << ','
             << (row.lossy ? "loss100" : "none") << ',' << r.cycles << ','
             << r.boundaries << ',' << csvNumber(r.bcastLatencyAvg) << ','
             << csvNumber(r.bcastLatencyMax) << ',' << r.maxWpqOccupancy
             << ',' << r.nocMessages << ',' << r.bcastRetries;

        PointResult out;
        out.cycles = static_cast<double>(sys->now());
        out.insts = static_cast<double>(r.instsRetired);
        out.digest = fnv1a(describe(r), fnv1a(line.str()));
        if (!r.completed)
            out.error = "did not complete (cycle cap)";
        else if (ref_)
            out.error = ref_->checkRow(line.str());
        if (!row.lossy)
            bcastLat_[i] = r.bcastLatencyAvg;
        return out;
    }

    std::map<std::string, double>
    outcomes() const override
    {
        double sum = 0;
        unsigned n = 0;
        for (double v : bcastLat_) {
            if (v >= 0) {
                sum += v;
                ++n;
            }
        }
        if (n == 0)
            return {};
        return {{"sim_bcast_lat", sum / n}};
    }

  private:
    std::vector<ScaleRow> rows_;
    std::vector<double> bcastLat_;  ///< -1 for lossy or not-yet-run rows
    std::unique_ptr<ReferenceTable> ref_;
    serve::ServeWorkload tape_;
};

// ---- serve-crash ------------------------------------------------------------

constexpr pds::PdsScheme kServeSchemes[] = {
    pds::PdsScheme::LightWsp, pds::PdsScheme::Capri, pds::PdsScheme::Ppa,
    pds::PdsScheme::Cwsp,     pds::PdsScheme::Pmtx,
};
constexpr serve::Profile kServeProfiles[] = {serve::Profile::Varnish,
                                             serve::Profile::Horde};
constexpr unsigned kMeanIas[] = {2000, 1000, 500};  ///< fig21 arrival rates
constexpr unsigned kBursts[] = {0, 2};              ///< none / heavy
constexpr unsigned kStormEvents = 3;                ///< fig22

/** A service tape with what its runs need precomputed. */
struct Tape
{
    serve::ServeWorkload wl;
    pds::PdsParams params;
    /** Arrival times per fig21 cell, kMeanIas-major; empty for fig22. */
    std::vector<std::vector<Tick>> arrivals;
};

class ServeCrash : public Suite
{
  public:
    static constexpr std::size_t kSims =
        std::size(kServeProfiles) * std::size(kServeSchemes);

    void
    setup(const Options &opt) override
    {
        seed_ = opt.seed;
        fig21_.reset();
        fig22_.reset();
        if (opt.seed == kDefaultSeed) {
            fig21_ = std::make_unique<ReferenceTable>(ReferenceTable::load(
                opt.resultsDir + "/fig21_service.csv"));
            fig22_ = std::make_unique<ReferenceTable>(ReferenceTable::load(
                opt.resultsDir + "/fig22_availability.csv"));
        }
        // The traced service tapes are fig21's on every seed: a re-drawn
        // 1,200-request tape moved the slowest point (horde under pmtx)
        // by up to 60% between seeds, which would swamp the host-speed
        // metrics. The seed re-draws the storm tapes, schedules and fault
        // seeds.
        Span s("serve.build");
        for (std::size_t p = 0; p < std::size(kServeProfiles); ++p) {
            serve::ServeSpec spec;
            spec.profile = kServeProfiles[p];
            spec.sizeClass = 1;
            spec.seed = 11;
            spec.numRequests = 1200;
            traced_[p] = makeTape(spec, true);
            spec.seed = deriveSeed(seed_, 0x21a, 11);
            spec.numRequests = 96;
            stormTape_[p] = makeTape(spec, false);
        }
    }

    std::size_t size() const override { return 2 * kSims; }

    std::string
    pointName(std::size_t i) const override
    {
        std::size_t k = i % kSims;
        return std::string(i < kSims ? "service/" : "storm/") +
               serve::profileName(kServeProfiles[k / 5]) + "/" +
               pds::pdsSchemeName(kServeSchemes[k % 5]);
    }

    PointResult
    run(std::size_t i, LayerCounts *counts) override
    {
        return i < kSims ? runService(i, counts) : runStorm(i, counts);
    }

    std::map<std::string, double>
    outcomes() const override
    {
        std::map<std::string, double> out;
        double p99 = 0;
        for (double v : lightwspHeavyP99_)
            p99 = std::max(p99, v);
        if (p99 > 0)
            out["sim_p99_cycles"] = p99;
        Tick sum = 0;
        unsigned n = 0;
        for (std::size_t p = 0; p < std::size(kServeProfiles); ++p) {
            sum += lightwspMttrSum_[p];
            n += lightwspMttrSamples_[p];
        }
        if (n)
            out["sim_mttr_cycles"] =
                static_cast<double>(sum) / static_cast<double>(n);
        return out;
    }

  private:
    static Tape
    makeTape(const serve::ServeSpec &spec, bool withArrivals)
    {
        Tape t;
        t.wl = serve::buildWorkload(spec);
        t.params = pds::PdsModel(t.wl.pdsSpec, t.wl.ops).params();
        if (withArrivals) {
            for (unsigned ia : kMeanIas) {
                for (unsigned b : kBursts) {
                    serve::ServeSpec a = t.wl.spec;
                    a.meanIa = ia;
                    a.burst = b;
                    t.arrivals.push_back(serve::arrivalTimes(a));
                }
            }
        }
        return t;
    }

    /** fig21: one traced run, folded over every arrival cell. */
    PointResult
    runService(std::size_t i, LayerCounts *counts)
    {
        const int pt = static_cast<int>(i);
        const std::size_t p = i / 5;
        const pds::PdsScheme scheme = kServeSchemes[i % 5];
        const Tape &tape = traced_[p];

        auto cfg = pds::makePdsConfig(scheme, pds::PdsRunMode::Perf);
        cfg.engine = harness::defaultSimEngine();
        cfg.traceEnabled = true;
        cfg.traceMask = trace::categoryBit(trace::Category::Serve) |
                        trace::categoryBit(trace::Category::Wpq);
        // Must hold every Serve+Wpq event of the run (see fig21).
        cfg.traceBufferEvents = std::size_t(1) << 18;
        cfg.core.serveMarkAddr = tape.params.served;
        compiler::CompiledProgram prog;
        {
            Span s("compiler.compile", pt);
            prog = pds::preparePdsProgram(tape.wl.pdsSpec, tape.wl.ops,
                                          scheme, pds::PdsRunMode::Perf);
        }
        countCompile(counts, prog);
        auto sys = construct(cfg, prog, 1, pt);
        core::RunResult r = timedRun(*sys, pt, counts);
        if (counts)
            counts->absorb(*sys, r);

        PointResult out;
        out.cycles = static_cast<double>(sys->now());
        out.insts = static_cast<double>(r.instsRetired);
        out.digest = fnv1a(describe(r));
        if (!r.completed) {
            out.error = "did not complete (cycle cap)";
            return out;
        }
        {
            Span s("pds.oracle", pt);
            out.error = pds::checkSemantics(tape.wl.pdsSpec, tape.wl.ops,
                                            sys->execImage());
        }
        if (counts)
            ++counts->oracleChecks;
        if (!out.error.empty())
            return out;

        serve::OpMarks marks;
        {
            Span s("serve.marks", pt);
            marks = serve::LatencyRecorder::extractMarks(
                tape.wl, sys->traceSink()->snapshot());
        }
        Span fold("serve.fold", pt);
        std::size_t cell = 0;
        for (unsigned ia : kMeanIas) {
            for (unsigned b : kBursts) {
                auto rep = serve::LatencyRecorder::fold(
                    tape.wl, marks, tape.arrivals[cell++]);
                std::ostringstream line;
                line << serve::profileName(kServeProfiles[p]) << '/'
                     << pds::pdsSchemeName(scheme) << "/ia=" << ia
                     << "/b=" << b << ',' << pds::pdsSchemeName(scheme)
                     << ',' << csvNumber(rep.p50) << ','
                     << csvNumber(rep.p99) << ',' << csvNumber(rep.p999)
                     << ',' << csvNumber(rep.max) << ','
                     << csvNumber(rep.stallAtP99) << ',' << rep.wpqOccAtP99;
                out.digest = fnv1a(line.str(), out.digest);
                if (out.error.empty() && fig21_)
                    out.error = fig21_->checkRow(line.str());
                if (scheme == pds::PdsScheme::LightWsp && ia == 500 &&
                    b == 2)
                    lightwspHeavyP99_[p] = rep.p99;
            }
        }
        return out;
    }

    /** fig22: a stormed service lifetime, every boot checked. */
    PointResult
    runStorm(std::size_t i, LayerCounts *counts)
    {
        const int pt = static_cast<int>(i);
        const std::size_t k = i - kSims;  // fig22 grid index
        const std::size_t p = k / 5;
        const pds::PdsScheme scheme = kServeSchemes[k % 5];
        const Tape &tape = stormTape_[p];
        const auto &wl = tape.wl;
        PointResult out;

        auto cfg = pds::makePdsConfig(scheme, pds::PdsRunMode::Recovery);
        cfg.engine = harness::defaultSimEngine();
        compiler::CompiledProgram prog;
        {
            Span s("compiler.compile", pt);
            prog = pds::preparePdsProgram(wl.pdsSpec, wl.ops, scheme,
                                          pds::PdsRunMode::Recovery);
        }
        countCompile(counts, prog);

        auto golden = construct(cfg, prog, 1, pt);
        core::RunResult gres = timedRun(*golden, pt, counts);
        out.cycles += static_cast<double>(golden->now());
        out.insts += static_cast<double>(gres.instsRetired);
        if (counts)
            counts->absorb(*golden, gres);
        if (!gres.completed) {
            out.error = "golden run did not complete";
            return out;
        }

        fault::FailureSchedule storm = fault::FailureSchedule::random(
            deriveSeed(seed_, 0x22a, 0xf22u) +
                7919u * static_cast<std::uint64_t>(k),
            kStormEvents, gres.cycles / 4 + 1);
        std::size_t next = 0;
        auto takeDrains = [&storm, &next] {
            std::vector<unsigned> iters;
            while (next < storm.events.size() &&
                   storm.events[next].phase == fault::FailurePhase::Drain)
                iters.push_back(
                    static_cast<unsigned>(storm.events[next++].at));
            return iters;
        };

        unsigned failures = 0, boots = 0, mttrSamples = 0;
        Tick mttrSum = 0, mttrMax = 0, wallCycles = 0;
        auto finishSystem = [&](const core::System &sys,
                                const core::RunResult &last) {
            out.cycles += static_cast<double>(sys.now());
            out.insts += static_cast<double>(last.instsRetired);
            if (counts)
                counts->absorb(sys, last);
        };

        auto victim = construct(cfg, prog, 1, pt);
        core::RunResult vr;
        {
            Span s("core.crash", pt);
            vr = victim->runWithFailureStorm(gres.cycles * 6 / 10,
                                             takeDrains());
        }
        if (vr.completed) {
            out.error = "victim outran its failure";
            return out;
        }
        wallCycles += vr.cycles;
        failures = 1 + static_cast<unsigned>(next);

        auto recoverChecked = [&](const core::System &from) {
            Span s("core.recover", pt);
            auto res = core::System::recoverChecked(
                cfg, prog, 1, from.pmImage(), {}, &from.crashReport());
            ++boots;
            if (counts) {
                ++counts->recoveries;
                if (res.outcome == core::RecoveryOutcome::RecoveredDegraded)
                    ++counts->recoveriesDegraded;
            }
            return res;
        };

        // Loop-head invariant: *cur is a crashed machine whose PM image
        // is the one to recover from (the victim, then hold).
        const core::System *cur = victim.get();
        core::RunResult curLast = vr;
        std::unique_ptr<core::System> hold;
        while (true) {
            auto recres = recoverChecked(*cur);
            while (next < storm.events.size() &&
                   storm.events[next].phase == fault::FailurePhase::Recovery) {
                ++next;
                ++failures;
                auto retry = recoverChecked(*cur);
                if (retry.outcome != recres.outcome) {
                    out.error = std::string("recovery re-entry changed "
                                            "verdict: ") +
                                core::recoveryOutcomeName(recres.outcome) +
                                " -> " +
                                core::recoveryOutcomeName(retry.outcome);
                    return out;
                }
                recres = std::move(retry);
            }
            if (recres.outcome ==
                core::RecoveryOutcome::DetectedUnrecoverable) {
                out.error = "fault-free image classified unrecoverable: " +
                            recres.detail;
                return out;
            }

            // MTTR probe on a throwaway replica of the same image.
            std::unique_ptr<core::System> probeSys;
            {
                Span s("core.recover", pt);
                probeSys = core::System::recover(cfg, prog, 1,
                                                 cur->pmImage(), {});
            }
            std::uint64_t servedAtBoot =
                probeSys->execImage().read(tape.params.served);
            core::ServeProbe probe;
            {
                Span s("core.probe", pt);
                probe = probeSys->runUntilWordChanges(tape.params.served,
                                                      servedAtBoot);
            }
            finishSystem(*probeSys, probe.result);
            if (probe.served) {
                ++mttrSamples;
                mttrSum += probe.serveTick;
                mttrMax = std::max(mttrMax, probe.serveTick);
            }

            // All uses of *cur are done; the move below may destroy it.
            finishSystem(*cur, curLast);
            hold = std::move(recres.sys);
            cur = nullptr;
            if (next < storm.events.size()) {
                Tick gap = storm.events[next++].at;
                ++failures;
                core::RunResult er;
                {
                    Span s("core.crash", pt);
                    er = hold->runWithFailureStorm(gap, takeDrains());
                }
                wallCycles += er.cycles;
                if (er.completed) {
                    // Finished before the failure landed; the schedule
                    // tail is moot.
                    failures = 1 + static_cast<unsigned>(next);
                    finishSystem(*hold, er);
                    break;
                }
                if (!hold->crashed()) {
                    out.error = "exec round neither completed nor crashed";
                    return out;
                }
                cur = hold.get();
                curLast = er;
                continue;
            }
            core::RunResult fr = timedRun(*hold, pt, counts);
            wallCycles += fr.cycles;
            finishSystem(*hold, fr);
            if (!fr.completed) {
                out.error = "final boot did not complete";
                return out;
            }
            break;
        }
        {
            Span s("pds.oracle", pt);
            out.error = pds::checkSemantics(wl.pdsSpec, wl.ops,
                                            hold->execImage());
        }
        if (counts) {
            ++counts->oracleChecks;
            counts->failuresFired += failures;
            counts->boots += boots;
        }

        double mean = mttrSamples ? static_cast<double>(mttrSum) /
                                        static_cast<double>(mttrSamples)
                                  : 0.0;
        double avail = static_cast<double>(gres.cycles) /
                       static_cast<double>(wallCycles);
        std::ostringstream line;
        line << serve::profileName(kServeProfiles[p]) << '/'
             << pds::pdsSchemeName(scheme) << ','
             << pds::pdsSchemeName(scheme) << ',' << failures << ','
             << boots << ',' << csvNumber(mean) << ',' << mttrMax << ','
             << gres.cycles << ',' << wallCycles << ',' << csvNumber(avail);
        out.digest = fnv1a(line.str(), fnv1a(describe(gres)));
        if (out.error.empty() && fig22_)
            out.error = fig22_->checkRow(line.str());
        if (scheme == pds::PdsScheme::LightWsp) {
            lightwspMttrSum_[p] = mttrSum;
            lightwspMttrSamples_[p] = mttrSamples;
        }
        return out;
    }

    std::uint64_t seed_ = kDefaultSeed;
    std::unique_ptr<ReferenceTable> fig21_;
    std::unique_ptr<ReferenceTable> fig22_;
    Tape traced_[std::size(kServeProfiles)];
    Tape stormTape_[std::size(kServeProfiles)];
    double lightwspHeavyP99_[std::size(kServeProfiles)] = {};
    Tick lightwspMttrSum_[std::size(kServeProfiles)] = {};
    unsigned lightwspMttrSamples_[std::size(kServeProfiles)] = {};
};

} // namespace

std::unique_ptr<Suite>
makeSuite(const std::string &name)
{
    if (name == "paper-apps")
        return std::make_unique<PaperApps>();
    if (name == "scaleout")
        return std::make_unique<Scaleout>();
    if (name == "serve-crash")
        return std::make_unique<ServeCrash>();
    return nullptr;
}

} // namespace perfbench
