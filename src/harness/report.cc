#include "report.hh"

#include <algorithm>
#include <iomanip>

namespace lwsp {
namespace harness {

void
ResultTable::addRow(const std::string &workload, const std::string &suite,
                    std::vector<Cell> cells)
{
    LWSP_ASSERT(cells.size() == columns_.size(),
                "row width mismatch in table ", title_);
    for (std::size_t c = 0; c < cells.size(); ++c) {
        LWSP_ASSERT(!cells[c].isText || columns_[c].shown == Shown::CsvOnly,
                    "text cell in console column ", columns_[c].name);
    }
    rows_.push_back({workload, suite, std::move(cells)});
}

std::vector<std::string>
ResultTable::suites() const
{
    std::vector<std::string> out;
    for (const auto &row : rows_) {
        if (std::find(out.begin(), out.end(), row.suite) == out.end())
            out.push_back(row.suite);
    }
    return out;
}

double
ResultTable::overallGeomean(std::size_t column) const
{
    std::vector<double> v;
    for (const auto &row : rows_)
        v.push_back(row.cells.at(column).number);
    return stats::geomean(v);
}

double
ResultTable::suiteGeomean(const std::string &suite,
                          std::size_t column) const
{
    std::vector<double> v;
    for (const auto &row : rows_) {
        if (row.suite == suite)
            v.push_back(row.cells.at(column).number);
    }
    return stats::geomean(v);
}

template <typename Fn>
void
ResultTable::printLine(std::ostream &os, const std::string &label,
                       const std::string &suite, Fn &&value) const
{
    os << std::left << std::setw(14) << label << std::setw(10) << suite;
    for (std::size_t c = 0; c < columns_.size(); ++c) {
        if (columns_[c].shown != Shown::CsvOnly)
            os << std::right << std::setw(14) << value(c);
    }
    os << '\n';
}

void
ResultTable::print(std::ostream &os, unsigned precision) const
{
    os << "== " << title_ << " ==\n";
    printLine(os, "workload", "suite",
              [&](std::size_t c) { return columns_[c].name; });
    os << std::fixed << std::setprecision(precision);

    auto suiteGeomeans = [&](const std::string &suite) {
        printLine(os, "geomean", suite, [&](std::size_t c) {
            return suiteGeomean(suite, c);
        });
    };
    std::string current_suite;
    for (const auto &row : rows_) {
        if (!current_suite.empty() && row.suite != current_suite)
            suiteGeomeans(current_suite);
        current_suite = row.suite;
        printLine(os, row.workload, row.suite,
                  [&](std::size_t c) { return row.cells[c].number; });
    }
    if (!rows_.empty()) {
        suiteGeomeans(current_suite);
        printLine(os, "geomean(all)", "-",
                  [&](std::size_t c) { return overallGeomean(c); });
    }
    os.unsetf(std::ios::fixed);
}

void
ResultTable::printSuiteSummary(std::ostream &os, unsigned precision) const
{
    os << "== " << title_ << " ==\n";
    printLine(os, "workload", "suite",
              [&](std::size_t c) { return columns_[c].name; });
    os << std::fixed << std::setprecision(precision);
    for (const auto &suite : suites()) {
        printLine(os, suite, "", [&](std::size_t c) {
            return suiteGeomean(suite, c);
        });
    }
    if (!rows_.empty()) {
        printLine(os, "geomean(all)", "",
                  [&](std::size_t c) { return overallGeomean(c); });
    }
    os.unsetf(std::ios::fixed);
}

void
ResultTable::writeCsv(std::ostream &os) const
{
    os << keyHeaders_;
    for (const auto &c : columns_) {
        if (c.shown != Shown::ConsoleOnly)
            os << ',' << c.name;
    }
    os << '\n';
    for (const auto &row : rows_) {
        os << row.workload << ',' << row.suite;
        for (std::size_t c = 0; c < columns_.size(); ++c) {
            if (columns_[c].shown == Shown::ConsoleOnly)
                continue;
            const Cell &cell = row.cells[c];
            os << ',';
            if (cell.isText)
                os << cell.text;
            else
                os << std::setprecision(10) << cell.number;
        }
        os << '\n';
    }
}

} // namespace harness
} // namespace lwsp
