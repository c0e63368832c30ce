#include "reference.hh"

#include <fstream>
#include <iomanip>
#include <sstream>

#include "common/logging.hh"

namespace perfbench {

std::vector<std::string>
splitCsv(const std::string &line)
{
    std::vector<std::string> out;
    std::string field;
    std::istringstream is(line);
    while (std::getline(is, field, ','))
        out.push_back(field);
    if (!line.empty() && line.back() == ',')
        out.emplace_back();
    return out;
}

std::string
csvNumber(double v)
{
    std::ostringstream os;
    os << std::setprecision(10) << v;
    return os.str();
}

ReferenceTable
ReferenceTable::parse(const std::string &name, const std::string &text)
{
    ReferenceTable t;
    t.name_ = name;
    std::istringstream is(text);
    std::string line;
    bool header = true;
    while (std::getline(is, line)) {
        if (line.empty())
            continue;
        if (header) {
            t.header_ = splitCsv(line);
            header = false;
            continue;
        }
        std::string key = line.substr(0, line.find(','));
        t.rows_[key] = line;
    }
    return t;
}

ReferenceTable
ReferenceTable::load(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        lwsp::panic("cannot read reference table ", path);
    std::ostringstream text;
    text << in.rdbuf();
    return parse(path, text.str());
}

std::string
ReferenceTable::checkRow(const std::string &line) const
{
    std::string key = line.substr(0, line.find(','));
    auto it = rows_.find(key);
    if (it == rows_.end())
        return name_ + ": no reference row '" + key + "'";
    if (it->second != line)
        return name_ + ": row '" + key + "' is '" + line +
               "', reference '" + it->second + "'";
    return "";
}

std::string
ReferenceTable::checkCell(const std::string &key, const std::string &column,
                          const std::string &text) const
{
    auto it = rows_.find(key);
    if (it == rows_.end())
        return name_ + ": no reference row '" + key + "'";
    std::vector<std::string> cells = splitCsv(it->second);
    for (std::size_t c = 0; c < header_.size() && c < cells.size(); ++c) {
        if (header_[c] != column)
            continue;
        if (cells[c] != text)
            return name_ + ": " + key + "." + column + " is " + text +
                   ", reference " + cells[c];
        return "";
    }
    return name_ + ": no column '" + column + "'";
}

} // namespace perfbench
