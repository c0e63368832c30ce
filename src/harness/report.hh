/**
 * @file
 * Figure/table formatting: fixed-width console tables matching the
 * paper's figure structure (per-app rows, per-suite geomeans) plus CSV
 * emission for plotting. Only console columns get geomean rows, so
 * counters that can be 0 and text cells belong in CSV-only columns.
 */

#ifndef LWSP_HARNESS_REPORT_HH
#define LWSP_HARNESS_REPORT_HH

#include <concepts>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "common/stats.hh"

namespace lwsp {
namespace harness {

/** Where a column is written. */
enum class Shown : std::uint8_t { Everywhere, CsvOnly, ConsoleOnly };

/** One table cell: a number, or text written verbatim (CSV-only). */
struct Cell
{
    Cell(double v) : number(v) {}
    template <std::integral T>
    Cell(T v) : number(static_cast<double>(v)) {}
    Cell(std::string s) : text(std::move(s)), isText(true) {}
    Cell(const char *s) : Cell(std::string(s)) {}

    double number = 0.0;
    std::string text;
    bool isText = false;
};

/** A rectangular result table: rows = workloads, columns = series. */
class ResultTable
{
  public:
    explicit ResultTable(std::string title) : title_(std::move(title)) {}

    void
    addColumn(const std::string &name, Shown shown = Shown::Everywhere)
    {
        columns_.push_back({name, shown});
    }

    /** CSV headers of the two leading columns (workload,suite by
     *  default); the console keeps its own. */
    void
    nameKeyColumns(const std::string &workload, const std::string &suite)
    {
        keyHeaders_ = workload + ',' + suite;
    }

    /** One cell per column, in addColumn order. */
    void addRow(const std::string &workload, const std::string &suite,
                std::vector<Cell> cells);

    /**
     * Print per-row values, a geomean row per suite, and an overall
     * geomean — the structure of the paper's bar charts.
     */
    void print(std::ostream &os, unsigned precision = 3) const;

    /** Print only the per-suite geomeans (Figs 8/10-17 granularity). */
    void printSuiteSummary(std::ostream &os, unsigned precision = 3) const;

    void writeCsv(std::ostream &os) const;

    /** Geomean of one column over every row. */
    double overallGeomean(std::size_t column) const;

    /** Geomean of one column over rows of @p suite. */
    double suiteGeomean(const std::string &suite,
                        std::size_t column) const;

    /** Suites in first-appearance order. */
    std::vector<std::string> suites() const;

  private:
    struct Column
    {
        std::string name;
        Shown shown;
    };

    struct Row
    {
        std::string workload;
        std::string suite;
        std::vector<Cell> cells;
    };

    /** One line: @p label, @p suite, then @p value(c) per console column. */
    template <typename Fn>
    void printLine(std::ostream &os, const std::string &label,
                   const std::string &suite, Fn &&value) const;

    std::string title_;
    std::string keyHeaders_ = "workload,suite";
    std::vector<Column> columns_;
    std::vector<Row> rows_;
};

} // namespace harness
} // namespace lwsp

#endif // LWSP_HARNESS_REPORT_HH
