/**
 * @file
 * Scheme/configuration plumbing for running pds programs: which binary
 * each scheme executes, on what machine, in perf vs recovery mode.
 */

#include "pds/pds.hh"

#include "common/logging.hh"
#include "common/parse.hh"

namespace lwsp {
namespace pds {

const char *
pdsSchemeName(PdsScheme s)
{
    return spec::enumName(pdsSchemeNames, s);
}

namespace {

core::Scheme
machineScheme(PdsScheme s)
{
    switch (s) {
      case PdsScheme::LightWsp: return core::Scheme::LightWsp;
      case PdsScheme::Capri:    return core::Scheme::Capri;
      case PdsScheme::Ppa:      return core::Scheme::Ppa;
      case PdsScheme::Cwsp:     return core::Scheme::Cwsp;
      // pmtx persists through its own fences; the machine that honours
      // them as durability points is the stall-at-barrier config.
      case PdsScheme::Pmtx:     return core::Scheme::NaiveSfence;
    }
    return core::Scheme::LightWsp;
}

} // namespace

core::SystemConfig
makePdsConfig(PdsScheme s, PdsRunMode mode)
{
    core::SystemConfig cfg;
    cfg.scheme = machineScheme(s);
    cfg.numCores = 1;
    cfg.maxCycles = 400'000'000;
    cfg.applySchemeDefaults();
    if (mode == PdsRunMode::Recovery &&
        (s == PdsScheme::Capri || s == PdsScheme::Ppa ||
         s == PdsScheme::Cwsp)) {
        // Recovery mode substitutes the gated WPQ + compiled boundaries
        // for the schemes' (unmodelled) hardware checkpoint readers so
        // the recovered image is exact, while keeping each scheme's
        // timing knobs (drain derating, traffic amplification). The
        // boundary policy must move off HwImplicit with it: an implicit
        // region end waits for a full WPQ drain, which a gate held by
        // the current compiled region's open boundary can never grant.
        cfg.mc.gatingEnabled = true;
        cfg.core.boundaryPolicy = cpu::CoreConfig::BoundaryPolicy::Lazy;
    }
    return cfg;
}

core::SystemConfig
makePdsBaselineConfig()
{
    core::SystemConfig cfg;
    cfg.scheme = core::Scheme::Baseline;
    cfg.numCores = 1;
    cfg.maxCycles = 400'000'000;
    cfg.applySchemeDefaults();
    return cfg;
}

compiler::CompiledProgram
preparePdsProgram(const PdsSpec &spec, const std::vector<PdsOp> &ops,
                  PdsScheme s, PdsRunMode mode, unsigned storeThreshold)
{
    const bool pmtx = s == PdsScheme::Pmtx;
    PdsProgram prog = buildPdsProgram(spec, ops, pmtx);
    if (pmtx)
        return compiler::makeUncompiled(std::move(prog.module));

    const bool compiled =
        mode == PdsRunMode::Recovery || s == PdsScheme::LightWsp ||
        s == PdsScheme::Cwsp;
    if (!compiled) {
        // Perf mode for PPA/Capri: the original binary; regions are
        // implicit in hardware.
        return compiler::makeUncompiled(std::move(prog.module));
    }

    compiler::CompilerConfig ccfg;
    if (storeThreshold != 0)
        ccfg.storeThreshold = storeThreshold;
    if (mode == PdsRunMode::Perf && s == PdsScheme::Cwsp)
        ccfg.insertCheckpointStores = false;  // recovers by re-execution
    compiler::LightWspCompiler comp(ccfg);
    return comp.compile(std::move(prog.module));
}

} // namespace pds
} // namespace lwsp
