#include "sweep.hh"

#include "common/stats.hh"

#include <atomic>
#include <chrono>
#include <exception>
#include <fstream>
#include <iostream>
#include <thread>
#include <variant>

namespace lwsp {
namespace harness {

void
parallelFor(unsigned jobs, std::size_t n,
            const std::function<void(std::size_t)> &fn)
{
    if (n == 0)
        return;
    if (jobs == 0)
        jobs = std::max(1u, std::thread::hardware_concurrency());
    jobs = static_cast<unsigned>(
        std::min<std::size_t>(jobs, n));

    if (jobs <= 1) {
        for (std::size_t i = 0; i < n; ++i)
            fn(i);
        return;
    }

    std::atomic<std::size_t> next{0};
    std::atomic<bool> failed{false};
    std::exception_ptr first_error;
    std::mutex error_mutex;

    auto worker = [&]() {
        while (true) {
            std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
            if (i >= n || failed.load(std::memory_order_relaxed))
                return;
            try {
                fn(i);
            } catch (...) {
                std::lock_guard<std::mutex> lock(error_mutex);
                if (!first_error)
                    first_error = std::current_exception();
                failed.store(true, std::memory_order_relaxed);
                return;
            }
        }
    };

    std::vector<std::thread> pool;
    pool.reserve(jobs);
    for (unsigned t = 0; t < jobs; ++t)
        pool.emplace_back(worker);
    for (auto &t : pool)
        t.join();
    if (first_error)
        std::rethrow_exception(first_error);
}

SweepExecutor::SweepExecutor(unsigned jobs)
    : jobs_(jobs ? jobs : std::max(1u, std::thread::hardware_concurrency()))
{
}

std::vector<RunRecord>
SweepExecutor::runPoints(std::size_t n,
                         const std::function<PointRun(std::size_t)> &point)
{
    std::vector<PointRun> runs(n);
    auto start = std::chrono::steady_clock::now();
    parallelFor(jobs_, n, [&](std::size_t i) { runs[i] = point(i); });
    double secs = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - start)
                      .count();
    last_ = {jobs_, n, secs, 0};
    std::vector<RunRecord> out;
    out.reserve(n);
    for (PointRun &r : runs) {
        last_.simulatedCycles += r.simulatedCycles;
        // Serial insertion in input order keeps the record order (and
        // so the report file) independent of worker scheduling.
        if (recordedKeys_.insert(r.record.key).second)
            records_.push_back(r.record);
        out.push_back(std::move(r.record));
    }
    total_.jobs = jobs_;
    total_.points += n;
    total_.wallSeconds += secs;
    total_.simulatedCycles += last_.simulatedCycles;
    return out;
}

namespace {

/** Run @p spec through the Runner memo as one sweep point. */
PointRun
specPoint(Runner &runner, const RunSpec &spec)
{
    RunOutcome o = runner.run(spec);
    std::uint64_t cycles = o.result.cycles;
    return {{specKey(spec), spec.workload, core::schemeName(spec.scheme),
             std::move(o)},
            cycles};
}

} // namespace

std::vector<RunOutcome>
SweepExecutor::runAll(Runner &runner, const std::vector<RunSpec> &specs)
{
    std::vector<RunOutcome> out;
    out.reserve(specs.size());
    for (RunRecord &r : runPoints(specs.size(), [&](std::size_t i) {
             return specPoint(runner, specs[i]);
         }))
        out.push_back(std::move(r.outcome));
    return out;
}

std::vector<double>
SweepExecutor::slowdowns(Runner &runner, const std::vector<RunSpec> &specs)
{
    // Phase the baselines in as explicit points: the memo dedupes them,
    // and claiming them up front lets distinct baselines simulate
    // concurrently instead of each hiding behind its first scheme point.
    const std::size_t n = specs.size();
    std::vector<RunRecord> runs =
        runPoints(2 * n, [&](std::size_t i) {
            return specPoint(runner, i < n ? Runner::baselineSpec(specs[i])
                                           : specs[i - n]);
        });
    std::vector<double> out(n);
    for (std::size_t p = 0; p < n; ++p)
        out[p] = static_cast<double>(runs[n + p].outcome.result.cycles) /
                 static_cast<double>(runs[p].outcome.result.cycles);
    return out;
}

void
writeSweepJson(const std::string &path, const std::string &bench,
               const SweepStats &stats)
{
    std::ofstream os(path);
    if (!os) {
        // Not warn(): benches run with setLogQuiet(true), and a silently
        // dropped telemetry file defeats the flag's purpose.
        std::cerr << "error: cannot write sweep telemetry to " << path
                  << '\n';
        return;
    }
    os << "{\"bench\":\"" << bench << "\",\"jobs\":" << stats.jobs
       << ",\"points\":" << stats.points << ",\"wall_seconds\":"
       << stats.wallSeconds << ",\"points_per_second\":"
       << stats.pointsPerSecond() << ",\"simulated_cycles\":"
       << stats.simulatedCycles << ",\"simulated_cycles_per_second\":"
       << stats.cyclesPerSecond() << ",\"suppressed_warnings\":"
       << suppressedWarnings() << "}\n";
}

void
writeRunReports(const std::string &path, const std::string &bench,
                const std::vector<RunRecord> &records,
                const SweepStats &stats)
{
    std::ofstream os(path);
    if (!os) {
        std::cerr << "error: cannot write run report to " << path << '\n';
        return;
    }
    // v1.1: adds the "cycles_percentiles" footer (stats::Percentiles
    // over per-run cycle counts). v1.2: adds per-run "recovery_outcome"
    // ("none" for fresh boots) and "failures_survived". v1.3: "result"
    // walks core::resultFields, adding the four fabric counters. Fields
    // are additive; v1 consumers that ignore unknown keys keep working.
    os << std::boolalpha << "{\"schema\":\"lwsp-run-report-v1.3\",\"bench\":\""
       << bench << "\",\"jobs\":" << stats.jobs << ",\"wall_seconds\":"
       << stats.wallSeconds << ",\"runs\":[";
    bool first = true;
    for (const auto &rec : records) {
        const auto &r = rec.outcome.result;
        const auto &c = rec.outcome.compileStats;
        os << (first ? "\n" : ",\n") << " {\"key\":\"" << rec.key
           << "\",\"workload\":\"" << rec.workload
           << "\",\"scheme\":\"" << rec.scheme << "\",\"threads\":"
           << rec.outcome.threads
           << ",\"compile\":{\"input_insts\":" << c.inputInsts
           << ",\"output_insts\":" << c.outputInsts
           << ",\"boundaries\":" << c.boundaries
           << ",\"ckpt_stores\":" << c.checkpointStores
           << ",\"pruned_ckpts\":" << c.prunedCheckpoints
           << ",\"unrolled_loops\":" << c.unrolledLoops
           << ",\"fixpoint_iters\":" << c.fixpointIterations
           << "},\"result\":{";
        const char *sep = "";
        for (const core::ResultField &f : core::resultFields()) {
            os << sep << '"' << f.key << "\":";
            std::visit([&](auto m) { os << r.*m; }, f.member);
            sep = ",";
        }
        os << "},\"recovery_outcome\":\""
           << (rec.outcome.recovered
                   ? core::recoveryOutcomeName(rec.outcome.recoveryOutcome)
                   : "none")
           << "\",\"failures_survived\":"
           << rec.outcome.failuresSurvived << "}";
        first = false;
    }
    stats::Percentiles cyc;
    for (const auto &rec : records)
        cyc.sample(static_cast<double>(rec.outcome.result.cycles));
    os << "\n],\"cycles_percentiles\":{\"p50\":" << cyc.p50()
       << ",\"p90\":" << cyc.p90() << ",\"p99\":" << cyc.p99()
       << ",\"p999\":" << cyc.p999() << ",\"max\":" << cyc.max()
       << ",\"count\":" << cyc.count() << "}}\n";
}

} // namespace harness
} // namespace lwsp
