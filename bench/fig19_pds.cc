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

#include "pds_point.hh"

using namespace lwsp;

namespace {

constexpr pds::Kind kKinds[] = {pds::Kind::Log, pds::Kind::Hash,
                                pds::Kind::Alloc};
/** Per structure: every scheme, then the baseline. */
constexpr std::size_t kStride = std::size(pds::allSchemes) + 1;

/** The same program uncompiled on the persistence-free machine. */
bench::PdsPoint
baselinePoint(const pds::PdsSpec &spec, std::vector<pds::PdsOp> ops)
{
    bench::PdsPoint pt{spec.toString(), "baseline", spec, std::move(ops),
                       pds::makePdsBaselineConfig(), {},
                       pds::pdsGeometry(spec).served};
    pt.prog = compiler::makeUncompiled(
        pds::buildPdsProgram(spec, pt.ops, false).module);
    return pt;
}

} // namespace

int
main(int argc, char **argv)
{
    auto args = bench::parseArgs(argc, argv);
    bench::Driver driver(args);

    auto recs = driver.runPoints(
        std::size(kKinds) * kStride, [](std::size_t i) {
            const pds::PdsSpec spec{.kind = kKinds[i / kStride],
                                    .sizeClass = 1,
                                    .numOps = 192,
                                    .mix = 0,
                                    .seed = 7};
            const std::size_t s = i % kStride;
            auto ops = pds::generateTape(spec);
            const bench::PdsPoint pt =
                s + 1 == kStride
                    ? baselinePoint(spec, std::move(ops))
                    : bench::pdsPoint(spec, std::move(ops),
                                      pds::allSchemes[s],
                                      pds::PdsRunMode::Perf);
            core::System sys(pt.cfg, pt.prog, 1);
            return pt.checkedRun(sys, sys.run());
        });

    harness::ResultTable table(
        "Fig 19: pds per-op slowdown vs persistence-free baseline "
        "(sz=1, 192 ops, mix 0)");
    for (auto s : pds::allSchemes)
        table.addColumn(pds::pdsSchemeName(s));

    for (std::size_t k = 0; k < std::size(kKinds); ++k) {
        auto cycles = [&](std::size_t s) {
            return static_cast<double>(
                recs[k * kStride + s].outcome.result.cycles);
        };
        std::vector<harness::Cell> row;
        for (std::size_t s = 0; s + 1 < kStride; ++s)
            row.push_back(cycles(s) / cycles(kStride - 1));
        table.addRow(pds::kindName(kKinds[k]), "pds", row);
    }

    driver.finish(table);
    return 0;
}
