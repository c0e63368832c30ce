/**
 * @file
 * Shared plumbing for the figure/table reproduction binaries.
 *
 * Every bench accepts:
 *   --quick           run a representative subset of apps (fast smoke mode)
 *   --csv FILE        additionally dump the table as CSV
 *   --jobs N          sweep worker threads (0/default = all hardware threads)
 *   --sweep-json FILE write the sweep's wall-clock/throughput telemetry
 *   --report FILE     write a versioned JSON run report (one record per
 *                     distinct simulation point, full RunResult)
 *   --engine E        simulator core: event (default) or cycle. Tables
 *                     and CSVs are bit-identical either way; the flag
 *                     exists for A/B verification and perf comparison.
 *
 * The paper-profile figures (Figs 7-18, Table II, §V-G3, the commit
 * ablation) declare a Grid: a title, one row per app profile and one
 * Column per point run on every row (a header plus the RunSpec
 * override it applies). GridDriver builds the row-major spec list,
 * runs it through one SweepExecutor, slices it back into rows and fills
 * the ResultTable; cells are the slowdown vs Baseline unless the grid
 * supplies a function over one row's outcomes. Benches over generated
 * programs (pds structures, service tapes, storms) hand a per-point
 * callback to SweepExecutor::runPoints() instead. Either way results
 * come back indexed by input order, so tables and CSVs are
 * byte-identical at any job count.
 */

#ifndef LWSP_BENCH_BENCH_UTIL_HH
#define LWSP_BENCH_BENCH_UTIL_HH

#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <span>
#include <string>
#include <vector>

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
    std::string benchName;      ///< argv[0] basename, for telemetry
};

inline BenchArgs
parseArgs(int argc, char **argv)
{
    BenchArgs args;
    std::string prog = argv[0];
    std::size_t slash = prog.find_last_of('/');
    args.benchName =
        slash == std::string::npos ? prog : prog.substr(slash + 1);
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (a == "--quick") {
            args.quick = true;
        } else if (a == "--csv" && i + 1 < argc) {
            args.csvPath = argv[++i];
        } else if (a == "--jobs" && i + 1 < argc) {
            args.jobs = static_cast<unsigned>(
                std::strtoul(argv[++i], nullptr, 10));
        } else if (a == "--sweep-json" && i + 1 < argc) {
            args.sweepJsonPath = argv[++i];
        } else if (a == "--report" && i + 1 < argc) {
            args.reportPath = argv[++i];
        } else if (a == "--engine" && i + 1 < argc) {
            std::string e = argv[++i];
            SimEngine engine = SimEngine::Event;
            if (!parseSimEngine(e, engine)) {
                std::cerr << "unknown engine '" << e
                          << "' (want event|cycle)\n";
                std::exit(2);
            }
            harness::setDefaultSimEngine(engine);
        } else {
            std::cerr << "usage: " << argv[0]
                      << " [--quick] [--csv FILE] [--jobs N]"
                         " [--sweep-json FILE] [--report FILE]"
                         " [--engine event|cycle]\n";
            std::exit(2);
        }
    }
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
 * Print @p table and write whatever --csv/--sweep-json/--report asked
 * for. @p csv, when non-empty, is written instead of the table's own CSV
 * (benches whose CSV carries columns the console table cannot).
 */
inline void
finish(const harness::ResultTable &table, const BenchArgs &args,
       const harness::SweepExecutor &exec, bool per_app = true,
       const std::string &csv = "")
{
    if (per_app)
        table.print(std::cout);
    else
        table.printSuiteSummary(std::cout);
    if (!args.csvPath.empty()) {
        std::ofstream os(args.csvPath);
        if (csv.empty())
            table.writeCsv(os);
        else
            os << csv;
        std::cout << "csv written to " << args.csvPath << '\n';
    }
    if (!args.sweepJsonPath.empty()) {
        harness::writeSweepJson(args.sweepJsonPath, args.benchName,
                                exec.totalStats());
    }
    if (!args.reportPath.empty()) {
        harness::writeRunReports(args.reportPath, args.benchName,
                                 exec.runRecords(), exec.totalStats());
        std::cout << "run report written to " << args.reportPath << '\n';
    }
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
 * Runs Grids through one memoizing Runner and one SweepExecutor, so a
 * bench with several grids writes one run report and one telemetry
 * record covering all of them.
 */
class GridDriver
{
  public:
    explicit GridDriver(const BenchArgs &args)
        : args_(args), exec_(args.jobs)
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
            table.addRow(
                p.name, p.suite,
                grid.cells
                    ? grid.cells({p, std::span(specs).subspan(first, width),
                                  std::span(outcomes).subspan(first, width)})
                    : std::vector<double>(slow.begin() + first,
                                          slow.begin() + first + width));
        }
        return table;
    }

    /** bench::finish over this driver's sweeps. */
    void
    finish(const harness::ResultTable &table, bool per_app) const
    {
        bench::finish(table, args_, exec_, per_app);
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
    GridDriver driver(args);
    driver.finish(driver.run(grid), grid.perApp);
}

} // namespace bench
} // namespace lwsp

#endif // LWSP_BENCH_BENCH_UTIL_HH
