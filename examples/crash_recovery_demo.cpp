/**
 * @file
 * A guided tour of the recovery machinery (paper §IV-F): run a
 * multi-threaded workload, cut power mid-flight, show what the battery-
 * backed drain protocol commits and discards, where each thread's
 * recovery point lands, and survive a second failure during recovery.
 */

#include <cstdio>

#include "compiler/compiler.hh"
#include "core/system.hh"
#include "workloads/generator.hh"

using namespace lwsp;

int
main()
{
    setLogQuiet(true);

    workloads::WorkloadProfile p;
    p.name = "demo";
    p.suite = "DEMO";
    p.threads = 4;
    p.footprintBytes = 64 * 1024;
    p.hotBytes = 16 * 1024;
    p.locality = 0.6;
    p.branchMissRate = 0.0;
    workloads::PhaseSpec ph;
    ph.pattern = workloads::PhaseSpec::Pattern::Random;
    ph.loads = 2;
    ph.stores = 2;
    ph.alus = 6;
    ph.trip = 128;
    ph.reps = 4;
    ph.lockedRmw = true;
    p.phases.push_back(ph);

    auto w = workloads::generate(p);
    auto lock_addrs = w.lockAddrs;
    compiler::LightWspCompiler comp;
    auto prog = comp.compile(std::move(w.module));
    std::printf("compiled: %zu boundary sites, %zu checkpoint stores\n",
                prog.stats.boundaries, prog.stats.checkpointStores);

    core::SystemConfig cfg;
    cfg.scheme = core::Scheme::LightWsp;
    cfg.numCores = 4;
    cfg.applySchemeDefaults();

    core::System golden(cfg, prog, 4);
    auto gr = golden.run();
    std::printf("golden run: %llu cycles\n\n",
                static_cast<unsigned long long>(gr.cycles));

    // ---- First power failure ------------------------------------------
    core::System victim(cfg, prog, 4);
    victim.runWithPowerFailure(gr.cycles / 2);
    std::printf("power failure at cycle %llu\n",
                static_cast<unsigned long long>(gr.cycles / 2));
    for (McId m = 0; m < 2; ++m) {
        std::printf("  MC%u: flush-ID %llu, %llu entries persisted, "
                    "%llu fallback flushes\n",
                    m,
                    static_cast<unsigned long long>(
                        victim.mcAt(m).flushId()),
                    static_cast<unsigned long long>(
                        victim.mcAt(m).counters().flushedEntries),
                    static_cast<unsigned long long>(
                        victim.mcAt(m).counters().fallbackFlushes));
    }
    for (ThreadId t = 0; t < 4; ++t) {
        std::uint64_t site =
            victim.pmImage().read(prog.layout.pcSlot(t));
        if (site == core::noSiteSentinel) {
            std::printf("  thread %u: no boundary persisted yet -> "
                        "restarts from scratch\n", t);
        } else if (site == cpu::haltSite) {
            std::printf("  thread %u: already halted\n", t);
        } else {
            const auto &s = prog.site(static_cast<std::uint32_t>(site));
            std::printf("  thread %u: resumes after boundary %llu "
                        "(%s in @%s)\n",
                        t, static_cast<unsigned long long>(site),
                        compiler::boundaryKindName(s.kind),
                        prog.module->function(s.func).name().c_str());
        }
    }

    // ---- Recovery, with a second failure in the middle of it -----------
    auto rec1 = core::System::recover(cfg, prog, 4, victim.pmImage(),
                                      lock_addrs);
    auto r1 = rec1->runWithPowerFailure(gr.cycles / 4);
    std::unique_ptr<core::System> final_sys;
    if (!r1.completed) {
        std::printf("\nsecond power failure during recovery — "
                    "recovering again\n");
        final_sys = core::System::recover(cfg, prog, 4, rec1->pmImage(),
                                          lock_addrs);
        final_sys->run();
    } else {
        final_sys = std::move(rec1);
    }

    bool ok = workloads::diffAppState(final_sys->pmImage(),
                                      golden.pmImage(), 4, p.footprintBytes)
                  .empty();
    std::printf("\nfinal persistent state %s the crash-free run\n",
                ok ? "MATCHES" : "DIFFERS FROM");
    return ok ? 0 : 1;
}
