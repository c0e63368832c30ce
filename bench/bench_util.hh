/**
 * @file
 * Shared plumbing for the figure/table reproduction binaries.
 *
 * Every bench accepts the flags parseArgs() declares (--quick, --csv,
 * --jobs, --sweep-json, --report, --engine); a bad flag prints their
 * usage. Tables and CSVs are bit-identical under either --engine.
 *
 * Each bench owns one Driver: one Runner and one SweepExecutor for all
 * of its sweeps, and the one place its outputs are written. The
 * paper-profile figures (Figs 7-18, Table II, §V-G3, the commit
 * ablation) declare a Grid: a title, one row per app profile and one
 * Column per point run on every row (a header plus the RunSpec
 * override it applies); cells are the slowdown vs Baseline unless the
 * grid supplies a function over one row's outcomes. Figs 19-23 over
 * generated programs hand a per-point callback to Driver::runPoints
 * (structure points come from pds_point.hh) and fill their own table.
 * Either way results come back indexed by input order, so tables and
 * CSVs are byte-identical at any job count.
 */

#ifndef LWSP_BENCH_BENCH_UTIL_HH
#define LWSP_BENCH_BENCH_UTIL_HH

#include <fstream>
#include <functional>
#include <iostream>
#include <span>
#include <string>
#include <vector>

#include "common/flags.hh"
#include "common/logging.hh"
#include "harness/report.hh"
#include "harness/runner.hh"
#include "harness/sweep.hh"
#include "workloads/profile.hh"

namespace lwsp {
namespace bench {

struct BenchArgs
{
    bool quick = false;
    std::string csvPath;
    unsigned jobs = 0;          ///< 0 = hardware concurrency
    std::string sweepJsonPath;  ///< empty = no telemetry file
    std::string reportPath;     ///< empty = no run report
    std::string benchName;      ///< the program's name, for telemetry
};

inline BenchArgs
parseArgs(int argc, char **argv)
{
    BenchArgs args;
    args.benchName = cli::parseOrExit(
        argc, argv,
        {cli::toggle("--quick", "run a representative subset of apps",
                     args.quick),
         cli::text("--csv", "FILE", "also write the table as CSV",
                   args.csvPath),
         cli::jobs(args.jobs),
         cli::text("--sweep-json", "FILE",
                   "write the sweep's wall-clock/throughput telemetry",
                   args.sweepJsonPath),
         cli::text("--report", "FILE",
                   "write a JSON run report (one record per point)",
                   args.reportPath),
         harness::engineFlag()});
    setLogQuiet(true);
    return args;
}

/** A grid's rows: one app profile each, in table order. */
using Rows = std::vector<const workloads::WorkloadProfile *>;

/** The profiles called @p names, in that order (a fixed roster). */
inline Rows
namedProfiles(const std::vector<std::string> &names)
{
    Rows out;
    for (const auto &name : names)
        out.push_back(&workloads::profileByName(name));
    return out;
}

/** The apps to sweep: all 38, or one representative per suite in quick
 *  mode. */
inline Rows
selectedProfiles(const BenchArgs &args)
{
    if (args.quick)
        return namedProfiles({"lbm", "xz", "intruder", "is", "radix", "rb"});
    Rows out;
    for (const auto &p : workloads::paperProfiles())
        out.push_back(&p);
    return out;
}

/**
 * The report outcome of a run of @p sys that produced @p res: thread
 * count and recovery lineage come from the system itself.
 */
inline harness::RunOutcome
outcomeOf(const core::System &sys, const core::RunResult &res,
          const compiler::CompileStats &compile)
{
    return {res, compile, sys.numThreads(), sys.recovered(),
            sys.bootOutcome(), sys.failuresSurvived()};
}

/**
 * One grid column: its header and the RunSpec it runs on every row. The
 * spec's workload is left empty; the driver sets it per row.
 */
struct Column
{
    std::string header;
    harness::RunSpec spec;
};

/** One row's points as a Cells function sees them: specs[i] ran to
 *  outcomes[i], one per column. */
struct RowRuns
{
    const workloads::WorkloadProfile &profile;
    std::span<const harness::RunSpec> specs;
    std::span<const harness::RunOutcome> outcomes;
};

/** The table cells of one row, computed from its outcomes. */
using Cells = std::function<std::vector<double>(const RowRuns &)>;

/** Cells applying @p metric to each column's RunResult. */
inline Cells
perResult(std::function<double(const core::RunResult &)> metric)
{
    return [metric = std::move(metric)](const RowRuns &row) {
        std::vector<double> cells;
        for (const auto &o : row.outcomes)
            cells.push_back(metric(o.result));
        return cells;
    };
}

/** A paper-profile table: every column run on every row. */
struct Grid
{
    std::string title{};
    /** Table headers; empty = one per column, the column's header. */
    std::vector<std::string> headers{};
    Rows rows{};
    std::vector<Column> columns{};
    /** Empty: each cell is its point's slowdown vs Baseline. */
    Cells cells{};
    /** Print every row (else only the per-suite geomeans). */
    bool perApp = false;
};

/**
 * A bench's sweeps: Grids and point lists run through one memoizing
 * Runner and one SweepExecutor, so a bench with several sweeps writes
 * one run report and one telemetry record covering all of them.
 */
class Driver
{
  public:
    explicit Driver(const BenchArgs &args) : args_(args), exec_(args.jobs)
    {
    }

    /** Run every point of @p grid and tabulate it (row-major order). */
    harness::ResultTable
    run(const Grid &grid)
    {
        harness::ResultTable table(grid.title);
        if (grid.headers.empty()) {
            for (const auto &c : grid.columns)
                table.addColumn(c.header);
        } else {
            for (const auto &h : grid.headers)
                table.addColumn(h);
        }

        std::vector<harness::RunSpec> specs;
        for (const auto *p : grid.rows) {
            for (const auto &c : grid.columns) {
                specs.push_back(c.spec);
                specs.back().workload = p->name;
            }
        }

        std::vector<double> slow;
        std::vector<harness::RunOutcome> outcomes;
        if (grid.cells)
            outcomes = exec_.runAll(runner_, specs);
        else
            slow = exec_.slowdowns(runner_, specs);

        const std::size_t width = grid.columns.size();
        for (std::size_t r = 0; r < grid.rows.size(); ++r) {
            const auto &p = *grid.rows[r];
            const std::size_t first = r * width;
            const std::vector<double> row =
                grid.cells
                    ? grid.cells({p, std::span(specs).subspan(first, width),
                                  std::span(outcomes).subspan(first, width)})
                    : std::vector<double>(slow.begin() + first,
                                          slow.begin() + first + width);
            table.addRow(p.name, p.suite, {row.begin(), row.end()});
        }
        return table;
    }

    /** Run @p n points that are not paper-profile RunSpecs
     *  (SweepExecutor::runPoints); records come back in input order. */
    std::vector<harness::RunRecord>
    runPoints(std::size_t n,
              const std::function<harness::PointRun(std::size_t)> &point)
    {
        return exec_.runPoints(n, point);
    }

    /** Print @p table (every row, or the per-suite geomeans) and write
     *  what the flags asked for, covering every sweep run here. */
    void
    finish(const harness::ResultTable &table, bool per_app = true) const
    {
        if (per_app)
            table.print(std::cout);
        else
            table.printSuiteSummary(std::cout);
        if (!args_.csvPath.empty()) {
            std::ofstream os(args_.csvPath);
            table.writeCsv(os);
            std::cout << "csv written to " << args_.csvPath << '\n';
        }
        if (!args_.sweepJsonPath.empty()) {
            harness::writeSweepJson(args_.sweepJsonPath, args_.benchName,
                                    exec_.totalStats());
        }
        if (!args_.reportPath.empty()) {
            harness::writeRunReports(args_.reportPath, args_.benchName,
                                     exec_.runRecords(),
                                     exec_.totalStats());
            std::cout << "run report written to " << args_.reportPath
                      << '\n';
        }
    }

  private:
    BenchArgs args_;
    harness::Runner runner_;
    harness::SweepExecutor exec_;
};

/** Run one grid, print it and write what the flags asked for. */
inline void
runGrid(const BenchArgs &args, const Grid &grid)
{
    Driver driver(args);
    driver.finish(driver.run(grid), grid.perApp);
}

} // namespace bench
} // namespace lwsp

#endif // LWSP_BENCH_BENCH_UTIL_HH
