/**
 * @file
 * Host-time spans around the driver's calls into the simulator's layers.
 *
 * A span records a name, start and end on the steady clock, the span
 * that was open when it began (its parent) and the benchmark point it
 * belongs to. Spans stay in memory while the benchmark runs and are
 * written out once at exit. A layer's self time is the span's duration
 * minus the time covered by its direct children.
 *
 * Recording is off unless enable() was called; a disabled Span guard
 * costs one branch, so untimed and traced runs execute the same code.
 * The recorder is single-threaded, like the driver that uses it.
 */

#ifndef LWSP_PERFBENCH_SPANS_HH
#define LWSP_PERFBENCH_SPANS_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

class SpanRecorder
{
  public:
    struct Record
    {
        const char *name = "";
        int point = -1;       ///< benchmark point index; -1 outside points
        int parent = -1;      ///< index of the enclosing span; -1 at top
        std::int64_t startNs = 0;
        std::int64_t endNs = 0;
    };

    void enable(bool on) { enabled_ = on; }
    bool enabled() const { return enabled_; }

    /** Open a span; @return its index for close(). */
    std::size_t open(const char *name, int point);
    void close(std::size_t index);

    const std::vector<Record> &records() const { return records_; }
    std::size_t size() const { return records_.size(); }

    /**
     * Self seconds per span name over records [@p from, @p to), which
     * must hold whole subtrees (close every span opened in between).
     */
    std::map<std::string, double> selfSeconds(std::size_t from,
                                              std::size_t to) const;

    /** One JSON object per span, in opening order. */
    void writeJsonLines(std::ostream &os) const;

  private:
    static std::int64_t nowNs();

    bool enabled_ = false;
    std::vector<Record> records_;
    std::vector<std::size_t> stack_;
};

/** The process's recorder. */
SpanRecorder &recorder();

/** RAII span on recorder(); a no-op while recording is off. */
class Span
{
  public:
    explicit Span(const char *name, int point = -1)
    {
        SpanRecorder &r = recorder();
        if (r.enabled()) {
            active_ = true;
            index_ = r.open(name, point);
        }
    }

    ~Span()
    {
        if (active_)
            recorder().close(index_);
    }

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    bool active_ = false;
    std::size_t index_ = 0;
};

/** Host seconds on the steady clock since an arbitrary epoch. */
inline double
hostSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

} // namespace perfbench

#endif // LWSP_PERFBENCH_SPANS_HH
