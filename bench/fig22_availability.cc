/**
 * @file
 * Figure 22 (extension): service availability under failure storms —
 * MTTR (power-on to first served request) and the useful-work fraction
 * of a stormed service lifetime, per persistence scheme.
 *
 * Each row puts a fig21 service tape (96 requests, Zipf keys) through a
 * seeded fault::FailureSchedule: an initial power failure at 60% of the
 * crash-free run, then the schedule's drain interrupts, recovery
 * re-entries and post-recovery exec failures, walked by
 * core::walkLifetime exactly as the fuzz storm campaign replays them.
 * Every boot is recovered with System::recoverChecked (a fault-free
 * image must never be classified unrecoverable) and probed for MTTR on
 * a throwaway replica — System::recover + runUntilWordChanges on the
 * serve counter, the fig20 measurement — while the real lineage machine
 * runs on into the next failure. Availability is goldenCycles /
 * wallCycles: the crash-free run's cycle count over the powered cycles
 * the stormed lifetime needed to finish the same tape (re-execution
 * waste + drain/recovery overhead push it below 1).
 *
 * The `failures` column (and the report's failures_survived) counts the
 * initial failure, its drain interrupts, recovery re-entries and exec
 * failures, but not the drain interrupts that follow an exec failure:
 * the reference CSV was recorded that way. `boots` counts every
 * recoverChecked call, re-entries included.
 *
 * Recovery mode substitutes the LightWSP gated-commit binary for
 * capri/ppa/cwsp's hardware checkpoints (DESIGN.md §13); pmtx rides its
 * own undo-log path, so a storm that lands mid-undo-replay exercises
 * the rollback's own crash consistency. Output-indexed result slots and
 * per-row seeds keep the CSV byte-identical at any --jobs count and
 * either --engine; quick mode runs the identical (already small) grid.
 */

#include <algorithm>

#include "core/lifetime.hh"
#include "fault/storm.hh"
#include "pds_point.hh"
#include "serve/serve.hh"

using namespace lwsp;

namespace {

constexpr serve::Profile kProfiles[] = {serve::Profile::Varnish,
                                        serve::Profile::Horde};
constexpr unsigned kStormEvents = 3; ///< extra failures per lifetime

struct Point
{
    serve::Profile profile = serve::Profile::Varnish;
    pds::PdsScheme scheme = pds::PdsScheme::LightWsp;
    fault::FailureSchedule storm{};
    unsigned failures = 0;  ///< see the file comment
    unsigned boots = 0;     ///< recoveries (incl. re-entered preambles)
    unsigned mttrSamples = 0;
    Tick mttrSum = 0;
    Tick mttrMax = 0;
    Tick goldenCycles = 0;
    Tick wallCycles = 0;    ///< powered cycles across the whole lifetime
};

} // namespace

int
main(int argc, char **argv)
{
    auto args = bench::parseArgs(argc, argv);
    bench::Driver driver(args);

    std::vector<Point> points;
    for (auto prof : kProfiles) {
        for (auto s : pds::allSchemes)
            points.push_back({.profile = prof, .scheme = s});
    }

    // A point's record is the boot that finished the tape, stamped with
    // the storm's lineage.
    driver.runPoints(points.size(), [&](std::size_t i) {
        Point &p = points[i];
        auto wl = serve::buildWorkload({.profile = p.profile,
                                        .sizeClass = 1,
                                        .numRequests = 96,
                                        .seed = 11});
        bench::PdsPoint pt = bench::pdsPoint(wl.pdsSpec, std::move(wl.ops),
                                             p.scheme,
                                             pds::PdsRunMode::Recovery);
        pt.workload = wl.spec.toString();

        core::System golden(pt.cfg, pt.prog, 1);
        auto gres = golden.run();
        LWSP_ASSERT(gres.completed, "fig22 golden did not complete: ",
                    pt.workload);
        p.goldenCycles = gres.cycles;

        // The row's storm is deterministic in its grid index, so the
        // CSV never depends on scheduling.
        p.storm = fault::FailureSchedule::random(
            0xf22u + 7919u * static_cast<std::uint64_t>(i), kStormEvents,
            gres.cycles / 4 + 1);
        core::System victim(pt.cfg, pt.prog, 1);
        auto vr = victim.runWithFailureStorm(gres.cycles * 6 / 10,
                                             p.storm.drainsFrom(0));
        LWSP_ASSERT(!vr.completed, "fig22 victim outran its failure: ",
                    pt.workload);
        p.wallCycles += vr.cycles;

        core::LifetimeHooks hooks;
        // MTTR probe on a throwaway replica recovered from the same
        // image. Late crashes may leave nothing to serve; then there is
        // no sample (MTTR of a finished tape is not defined).
        hooks.beforeRecovery = [&](const core::System &crashed) {
            const core::ServeProbe probe =
                pt.probeMttr(crashed.pmImage()).second;
            if (probe.served) {
                ++p.mttrSamples;
                p.mttrSum += probe.serveTick;
                p.mttrMax = std::max(p.mttrMax, probe.serveTick);
            }
        };
        hooks.afterSegment = [&p](const core::System &,
                                  const core::RunResult &r) {
            p.wallCycles += r.cycles;
            return std::string();
        };
        core::Lifetime lt = core::walkLifetime(victim, p.storm, pt.cfg,
                                               pt.prog, 1, {}, hooks);
        LWSP_ASSERT(lt.error.empty(), "fig22 storm: ", lt.error);
        LWSP_ASSERT(lt.sys, "fig22 fault-free image unrecoverable: ",
                    lt.detail);

        // The reference definition of `failures` (file comment), not
        // lt.failures(), which also counts the drain interrupts that
        // follow an exec failure.
        p.boots = lt.boots;
        p.failures = 1 +
                     static_cast<unsigned>(p.storm.drainsFrom(0).size()) +
                     lt.reentries + lt.execFailures;
        lt.sys->setRecoveryLineage(lt.verdict, p.failures);
        harness::PointRun run = pt.checkedRun(*lt.sys, lt.last);
        run.record.key += "/storm=" + p.storm.toString();
        run.simulatedCycles = p.goldenCycles + p.wallCycles;
        return run;
    });

    harness::ResultTable table(
        "Fig 22: availability under failure storms (96-request service "
        "tapes; initial crash at 60% + 3 scheduled failures). MTTR = "
        "power-on to first served request; avail = crash-free cycles / "
        "powered cycles");
    table.nameKeyColumns("workload", "scheme");
    for (const char *c : {"failures", "boots"})
        table.addColumn(c, harness::Shown::CsvOnly);
    for (const char *c : {"mttr_mean", "mttr_max"})
        table.addColumn(c);
    table.addColumn("avail_pct", harness::Shown::ConsoleOnly);
    for (const char *c : {"golden_cycles", "wall_cycles", "availability"})
        table.addColumn(c, harness::Shown::CsvOnly);

    for (const Point &p : points) {
        double mean = p.mttrSamples
                          ? static_cast<double>(p.mttrSum) /
                                static_cast<double>(p.mttrSamples)
                          : 0.0;
        double avail = static_cast<double>(p.goldenCycles) /
                       static_cast<double>(p.wallCycles);
        std::string name =
            std::string(serve::profileName(p.profile)) + "/" +
            pds::pdsSchemeName(p.scheme);
        table.addRow(name, pds::pdsSchemeName(p.scheme),
                     {p.failures, p.boots, mean, p.mttrMax, 100.0 * avail,
                      p.goldenCycles, p.wallCycles, avail});
    }

    driver.finish(table);
    return 0;
}
