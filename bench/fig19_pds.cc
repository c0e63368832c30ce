/**
 * @file
 * Figure 19 (extension): per-operation slowdown of the persistent
 * data-structure library (src/pds) under every persistence scheme.
 *
 * Rows are the three structures (append-only log, chained hash table,
 * free-list allocator); columns are LightWSP, Capri, PPA, cWSP and the
 * pmtx software undo-log-transaction baseline. Each cell is
 * cycles(scheme, Perf mode) / cycles(same program, persistence-free
 * baseline machine) — the same normalization as fig07, but over real
 * crash-consistent structures instead of the paper's synthetic kernels.
 * Quick mode runs the identical (already small) grid.
 */

#include "bench_util.hh"
#include "pds/pds.hh"

using namespace lwsp;

namespace {

constexpr pds::Kind kKinds[] = {pds::Kind::Log, pds::Kind::Hash,
                                pds::Kind::Alloc};

pds::PdsSpec
specFor(pds::Kind k)
{
    pds::PdsSpec spec;
    spec.kind = k;
    spec.sizeClass = 1;
    spec.numOps = 192;
    spec.mix = 0;
    spec.seed = 7;
    return spec;
}

struct Point
{
    pds::PdsSpec spec;
    bool baseline = false;
    pds::PdsScheme scheme = pds::PdsScheme::LightWsp;
};

} // namespace

int
main(int argc, char **argv)
{
    auto args = bench::parseArgs(argc, argv);
    harness::SweepExecutor exec(args.jobs);

    // Row-major grid plus one trailing baseline point per structure.
    std::vector<Point> points;
    for (auto k : kKinds) {
        for (auto s : pds::allSchemes)
            points.push_back({specFor(k), false, s});
        points.push_back({specFor(k), true, pds::PdsScheme::LightWsp});
    }

    auto recs = exec.runPoints(points.size(), [&](std::size_t i) {
        const Point &p = points[i];
        core::SystemConfig cfg =
            p.baseline ? pds::makePdsBaselineConfig()
                       : pds::makePdsConfig(p.scheme, pds::PdsRunMode::Perf);
        cfg.engine = harness::defaultSimEngine(); // honour --engine A/B
        const auto ops = pds::generateTape(p.spec);
        compiler::CompiledProgram prog =
            p.baseline
                ? compiler::makeUncompiled(
                      pds::buildPdsProgram(p.spec, ops, false).module)
                : pds::preparePdsProgram(p.spec, ops, p.scheme,
                                         pds::PdsRunMode::Perf);
        core::System sys(cfg, prog, 1);
        auto res = sys.run();
        LWSP_ASSERT(res.completed, "fig19 point did not complete: ",
                    p.spec.toString());
        std::string err = pds::checkSemantics(p.spec, ops, sys.execImage());
        LWSP_ASSERT(err.empty(), "fig19 semantic check failed: ", err);
        std::string wl = p.spec.toString();
        std::string scheme =
            p.baseline ? "baseline" : pds::pdsSchemeName(p.scheme);
        return harness::PointRun{
            {wl + "/" + scheme, wl, scheme,
             bench::outcomeOf(sys, res, prog.stats)},
            res.cycles};
    });

    harness::ResultTable table(
        "Fig 19: pds per-op slowdown vs persistence-free baseline "
        "(sz=1, 192 ops, mix 0)");
    for (auto s : pds::allSchemes)
        table.addColumn(pds::pdsSchemeName(s));

    constexpr std::size_t stride = std::size(pds::allSchemes) + 1;
    for (std::size_t k = 0; k < 3; ++k) {
        auto cycles = [&](std::size_t s) {
            return static_cast<double>(
                recs[k * stride + s].outcome.result.cycles);
        };
        std::vector<double> row;
        for (std::size_t s = 0; s + 1 < stride; ++s)
            row.push_back(cycles(s) / cycles(stride - 1));
        table.addRow(pds::kindName(kKinds[k]), "pds", row);
    }

    bench::finish(table, args, exec);
    return 0;
}
