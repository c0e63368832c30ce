#include "spans.hh"

namespace perfbench {

std::int64_t
SpanRecorder::nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

std::size_t
SpanRecorder::open(const char *name, int point)
{
    Record r;
    r.name = name;
    r.point = point;
    r.parent = stack_.empty() ? -1 : static_cast<int>(stack_.back());
    r.startNs = nowNs();
    records_.push_back(r);
    stack_.push_back(records_.size() - 1);
    return records_.size() - 1;
}

void
SpanRecorder::close(std::size_t index)
{
    records_[index].endNs = nowNs();
    // Guards close in reverse order of opening.
    if (!stack_.empty() && stack_.back() == index)
        stack_.pop_back();
}

std::map<std::string, double>
SpanRecorder::selfSeconds(std::size_t from, std::size_t to) const
{
    std::vector<std::int64_t> self(to - from);
    for (std::size_t i = from; i < to; ++i) {
        const Record &r = records_[i];
        std::int64_t dur = r.endNs - r.startNs;
        self[i - from] += dur;
        if (r.parent >= static_cast<int>(from))
            self[static_cast<std::size_t>(r.parent) - from] -= dur;
    }
    std::map<std::string, double> out;
    for (std::size_t i = from; i < to; ++i)
        out[records_[i].name] += static_cast<double>(self[i - from]) * 1e-9;
    return out;
}

void
SpanRecorder::writeJsonLines(std::ostream &os) const
{
    for (std::size_t i = 0; i < records_.size(); ++i) {
        const Record &r = records_[i];
        os << "{\"id\":" << i << ",\"name\":\"" << r.name
           << "\",\"parent\":" << r.parent << ",\"point\":" << r.point
           << ",\"start_ns\":" << r.startNs << ",\"end_ns\":" << r.endNs
           << "}\n";
    }
}

SpanRecorder &
recorder()
{
    static SpanRecorder r;
    return r;
}

} // namespace perfbench
