/**
 * @file
 * The structure-program point of the extension figures (Figs 19-23):
 * one (structure spec, op tape, scheme, run mode) built into a machine
 * config and a binary, the checked record of a finished run, and the
 * MTTR probe that times power-on to first served op on a recovered
 * machine.
 */

#ifndef LWSP_BENCH_PDS_POINT_HH
#define LWSP_BENCH_PDS_POINT_HH

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.hh"
#include "pds/pds.hh"

namespace lwsp {
namespace bench {

/**
 * One structure program under one scheme, run on one thread.
 * `workload` and `scheme` label its run record, keyed
 * "<workload>/<scheme>".
 */
struct PdsPoint
{
    std::string workload;
    std::string scheme;
    pds::PdsSpec spec;
    std::vector<pds::PdsOp> ops;
    core::SystemConfig cfg;
    compiler::CompiledProgram prog;
    Addr served = 0;  ///< the exec-level served-op counter

    /**
     * The record of @p sys's run @p res of this point, checked: the run
     * completed and left the structure the tape's shadow model expects.
     * Counts res.cycles as the point's simulated cycles.
     */
    harness::PointRun
    checkedRun(const core::System &sys, const core::RunResult &res) const
    {
        LWSP_ASSERT(res.completed, "point did not complete: ", workload,
                    " scheme ", scheme);
        std::string err = pds::checkSemantics(spec, ops, sys.execImage());
        LWSP_ASSERT(err.empty(), "semantic check failed: ", workload,
                    " scheme ", scheme, ": ", err);
        return {{workload + "/" + scheme, workload, scheme,
                 outcomeOf(sys, res, prog.stats)},
                res.cycles};
    }

    /** A machine recovered from @p pm, run until the served counter
     *  moves: power-on to first served op. */
    std::pair<std::unique_ptr<core::System>, core::ServeProbe>
    probeMttr(const mem::MemImage &pm) const
    {
        auto sys = core::System::recover(cfg, prog, 1, pm, {});
        const std::uint64_t at_boot = sys->execImage().read(served);
        auto probe = sys->runUntilWordChanges(served, at_boot);
        return {std::move(sys), std::move(probe)};
    }
};

/** @p ops on @p spec's structure under @p scheme in @p mode;
 *  storeThreshold as for pds::preparePdsProgram. */
inline PdsPoint
pdsPoint(const pds::PdsSpec &spec, std::vector<pds::PdsOp> ops,
         pds::PdsScheme scheme, pds::PdsRunMode mode,
         unsigned storeThreshold = 0)
{
    PdsPoint pt{spec.toString(), pds::pdsSchemeName(scheme), spec,
                std::move(ops), pds::makePdsConfig(scheme, mode), {},
                pds::pdsGeometry(spec).served};
    pt.prog =
        pds::preparePdsProgram(spec, pt.ops, scheme, mode, storeThreshold);
    return pt;
}

} // namespace bench
} // namespace lwsp

#endif // LWSP_BENCH_PDS_POINT_HH
