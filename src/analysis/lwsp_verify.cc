/**
 * @file
 * lwsp_verify — run the static WSP-invariant checker over compiled
 * programs without simulating them.
 *
 *   lwsp_verify <app|file.lir> [--threshold N] [--no-prune] [--no-unroll]
 *   lwsp_verify --all [--fuzz N] [--base-seed S]
 *
 * The first form compiles one built-in workload (by profile name) or a
 * LightIR text file and checks the result. The second sweeps every
 * built-in workload under three compiler configurations (default,
 * pruning disabled, unrolling disabled) and optionally N seeded fuzz
 * cases compiled exactly as fuzz_crash compiles them (fuzz::staticCheck:
 * the same program draw and compiler configuration), alternating
 * workload/IR sources like `fuzz_crash --mode mixed`. `--help` prints
 * every flag.
 *
 * Exit codes: 0 all checks passed, 1 violations found, 2 usage or
 * input error.
 */

#include <iostream>
#include <memory>
#include <string>

#include "analysis/wsp_checker.hh"
#include "common/flags.hh"
#include "compiler/compiler.hh"
#include "fuzz/campaign.hh"
#include "ir/text_io.hh"
#include "workloads/generator.hh"

namespace {

using namespace lwsp;

bool dumpOnFail = false;

/** Compile @p m under @p cfg and run the full checker. */
bool
checkOne(std::unique_ptr<ir::Module> m,
         const compiler::CompilerConfig &cfg, const std::string &label,
         bool verbose)
{
    compiler::LightWspCompiler comp(cfg);
    compiler::CompiledProgram prog = comp.compile(std::move(m));
    analysis::CheckReport rep = analysis::checkCompiledProgram(prog, cfg);
    if (!rep.ok()) {
        std::cout << label << ": FAIL\n" << rep.describe() << "\n";
        if (dumpOnFail)
            std::cout << ir::moduleToString(*prog.module);
        return false;
    }
    if (verbose)
        std::cout << label << ": " << rep.describe() << "\n";
    return true;
}

/** The three compiler configurations --all sweeps per workload. */
struct NamedConfig
{
    const char *name;
    compiler::CompilerConfig cfg;
};

std::vector<NamedConfig>
sweepConfigs(unsigned threshold)
{
    std::vector<NamedConfig> out(3);
    out[0].name = "default";
    out[1].name = "no-prune";
    out[1].cfg.pruneCheckpoints = false;
    out[2].name = "no-unroll";
    out[2].cfg.unrollLoops = false;
    for (auto &nc : out)
        nc.cfg.storeThreshold = threshold;
    return out;
}

int
runAll(unsigned fuzzCount, std::uint64_t baseSeed, bool verbose)
{
    unsigned checked = 0, failed = 0;

    for (const auto &profile : workloads::paperProfiles()) {
        workloads::Workload base = workloads::generate(profile);
        std::string text = ir::moduleToString(*base.module);
        for (const auto &nc : sweepConfigs(32)) {
            // Re-parse per config: compile() consumes the module.
            auto m = ir::parseModule(text);
            ++checked;
            if (!checkOne(std::move(m), nc.cfg,
                          profile.name + " [" + nc.name + "]", verbose))
                ++failed;
        }
    }

    for (unsigned i = 0; i < fuzzCount; ++i) {
        fuzz::CaseSpec spec;
        spec.seed = baseSeed + i;
        spec.source = i % 2 == 1 ? fuzz::CaseSpec::Source::Ir
                                 : fuzz::CaseSpec::Source::Workload;
        fuzz::StaticCheckResult sc = fuzz::staticCheck(spec);
        std::string label = spec.toString() + " (" + sc.summary + ")";
        ++checked;
        if (!sc.ok) {
            std::cout << label << ": FAIL\n" << sc.report << "\n";
            ++failed;
        } else if (verbose) {
            std::cout << label << ": " << sc.report << "\n";
        }
    }

    std::cout << checked << " program(s) checked, " << failed
              << " with violations\n";
    return failed ? 1 : 0;
}

} // namespace

int
main(int argc, char **argv)
{
    bool all = false, quiet = false;
    unsigned fuzzCount = 0;
    std::uint64_t baseSeed = 1;
    compiler::CompilerConfig cfg;
    std::string target;
    const cli::Command tool{
        nullptr,
        "",
        {cli::text("[app|file.lir]", "", "a workload or a LightIR text file",
                   target),
         cli::number("--threshold", "N", "store threshold (default 32)",
                     cfg.storeThreshold, 1u),
         cli::toggle("--no-prune", "disable checkpoint pruning",
                     cfg.pruneCheckpoints, false),
         cli::toggle("--no-unroll", "disable loop unrolling",
                     cfg.unrollLoops, false),
         cli::toggle("--all", "sweep all workloads x 3 configurations", all),
         cli::number("--fuzz", "N", "with --all: also check N fuzz cases",
                     fuzzCount),
         cli::number("--base-seed", "S", "first fuzz seed (default 1)",
                     baseSeed),
         cli::toggle("--quiet", "print only failures and the summary",
                     quiet),
         cli::toggle("-q", "same as --quiet", quiet),
         cli::toggle("--dump", "print a failing compiled module",
                     dumpOnFail)}};
    cli::parseOrExit(argc, argv, std::span(&tool, 1));
    if (!all && target.empty()) {
        std::cerr << cli::usage("lwsp_verify", std::span(&tool, 1));
        return 2;
    }
    if (all && !target.empty()) {
        std::cerr << "--all takes no target\n";
        return 2;
    }
    try {
        if (all)
            return runAll(fuzzCount, baseSeed, !quiet);
        return checkOne(workloads::loadModule(target), cfg, target, !quiet)
                   ? 0
                   : 1;
    } catch (const std::exception &e) {
        std::cerr << "error: " << e.what() << "\n";
        return 2;
    }
}
