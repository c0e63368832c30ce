/**
 * @file
 * Committed reference rows (the figure CSVs under results/) and the
 * exact-match check the driver applies to every point on the default
 * seed.
 *
 * Rows are keyed by their first column, which every figure CSV keeps
 * unique. A point's numbers are formatted exactly as its figure bench
 * writes them, so a match is a byte comparison of the text.
 */

#ifndef LWSP_PERFBENCH_REFERENCE_HH
#define LWSP_PERFBENCH_REFERENCE_HH

#include <map>
#include <string>
#include <vector>

namespace perfbench {

class ReferenceTable
{
  public:
    /** Parse CSV text (first line is the header). */
    static ReferenceTable parse(const std::string &name,
                                const std::string &text);

    /** Load @p path; an unreadable file panics. */
    static ReferenceTable load(const std::string &path);

    /** "" when @p line equals the committed row with its key. */
    std::string checkRow(const std::string &line) const;

    /** "" when column @p column of row @p key reads exactly @p text. */
    std::string checkCell(const std::string &key, const std::string &column,
                          const std::string &text) const;

    std::size_t rows() const { return rows_.size(); }

  private:
    std::string name_;
    std::vector<std::string> header_;
    std::map<std::string, std::string> rows_;  ///< key -> whole line
};

/** Split one CSV line on commas (the figure CSVs quote nothing). */
std::vector<std::string> splitCsv(const std::string &line);

/** @p v printed the way the figure benches print CSV doubles. */
std::string csvNumber(double v);

} // namespace perfbench

#endif // LWSP_PERFBENCH_REFERENCE_HH
