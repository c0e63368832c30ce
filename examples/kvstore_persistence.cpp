/**
 * @file
 * Transparent persistence for an unmodified "application": a WHISPER-
 * style key-value update workload runs with NO persistence annotations —
 * no transactions, no pmalloc, no clwb/sfence — yet survives a power
 * failure because the whole system is persistent.
 *
 * The example crash-sweeps ten failure points and verifies that after
 * each recovery the store's contents equal a crash-free run — and prints
 * the run-time overhead LightWSP paid for that guarantee.
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

    // The "rb" profile models WHISPER's red-black-tree workload: 8
    // threads doing random reads/updates with lock-protected shared
    // transactions.
    const auto &profile = workloads::profileByName("rb");
    auto w = workloads::generate(profile);
    auto lock_addrs = w.lockAddrs;

    compiler::LightWspCompiler comp;
    auto prog = comp.compile(std::move(w.module));

    core::SystemConfig cfg;
    cfg.scheme = core::Scheme::LightWsp;
    cfg.applySchemeDefaults();

    std::printf("running 8-thread kv-update workload under LightWSP...\n");
    core::System golden(cfg, prog, profile.threads);
    auto gr = golden.run();
    std::printf("golden: %llu cycles, %llu instructions, "
                "%llu WPQ entries persisted\n",
                static_cast<unsigned long long>(gr.cycles),
                static_cast<unsigned long long>(gr.instsRetired),
                static_cast<unsigned long long>(gr.wpqFlushedEntries));

    // Overhead vs the non-persistent baseline (original binary).
    auto w2 = workloads::generate(profile);
    auto base_prog = compiler::makeUncompiled(std::move(w2.module));
    core::SystemConfig base_cfg;
    base_cfg.scheme = core::Scheme::Baseline;
    base_cfg.applySchemeDefaults();
    core::System base(base_cfg, base_prog, profile.threads);
    auto br = base.run();
    std::printf("persistence overhead vs baseline: %.1f%%\n",
                100.0 * (static_cast<double>(gr.cycles) /
                             static_cast<double>(br.cycles) -
                         1.0));

    // Crash sweep.
    int ok = 0, total = 10;
    for (int i = 1; i <= total; ++i) {
        Tick fail_at = gr.cycles * i / (total + 1);
        core::System victim(cfg, prog, profile.threads);
        auto vr = victim.runWithPowerFailure(fail_at);
        if (vr.completed) {
            ++ok;
            continue;
        }
        auto rec = core::System::recover(cfg, prog, profile.threads,
                                         victim.pmImage(), lock_addrs);
        auto rr = rec->run();
        bool state_ok =
            rr.completed &&
            workloads::diffAppState(rec->pmImage(), golden.pmImage(),
                                    profile.threads, profile.footprintBytes)
                .empty();
        if (state_ok)
            ++ok;
        std::printf("  crash @ %3d%%: %s\n", 100 * i / (total + 1),
                    state_ok ? "recovered, state matches"
                             : "STATE MISMATCH");
    }
    std::printf("%d/%d crash points recovered to the golden state\n", ok,
                total);
    return ok == total ? 0 : 1;
}
