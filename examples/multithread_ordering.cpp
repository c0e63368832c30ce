/**
 * @file
 * The paper's Fig. 4 walkthrough: three threads pass through a critical
 * section; their stores' region IDs must follow the lock's happens-before
 * order, and the WPQs must release them to PM in exactly that order.
 *
 * The example traces both memory controllers' WPQ releases and prints
 * each flush of the shared counter with its region ID, then checks the
 * persist order was monotone.
 */

#include <cstdio>
#include <vector>

#include "compiler/compiler.hh"
#include "core/system.hh"
#include "ir/program.hh"
#include "trace/sink.hh"

using namespace lwsp;
using namespace lwsp::ir;

namespace {

constexpr Addr lockAddr = 0x6000'0000'0000ull;
constexpr Addr counterAddr = lockAddr + 8;

/** Each thread: acquire, counter += tid+1 three times, release. */
std::unique_ptr<Module>
buildProgram()
{
    auto m = std::make_unique<Module>();
    Function &f = m->addFunction("main");
    BasicBlock &b = f.addBlock();
    constexpr Reg shared = 2, tmp = 8, inc = 9;

    b.append(Instruction::movi(shared,
                               static_cast<std::int64_t>(lockAddr)));
    b.append(Instruction::aluImm(Opcode::AddI, inc, 0, 1));  // tid + 1
    b.append(Instruction::lockOp(Opcode::LockAcq, shared, 0));
    for (int i = 0; i < 3; ++i) {
        b.append(Instruction::load(tmp, shared, 8));
        b.append(Instruction::alu(Opcode::Add, tmp, tmp, inc));
        b.append(Instruction::store(shared, 8, tmp));
    }
    b.append(Instruction::lockOp(Opcode::LockRel, shared, 0));
    b.append(Instruction::simple(Opcode::Halt));
    return m;
}

} // namespace

int
main()
{
    setLogQuiet(true);

    compiler::LightWspCompiler comp;
    auto prog = comp.compile(buildProgram());

    core::SystemConfig cfg;
    cfg.scheme = core::Scheme::LightWsp;
    cfg.numCores = 3;
    cfg.applySchemeDefaults();
    cfg.traceEnabled = true;
    cfg.traceMask = trace::categoryBit(trace::Category::Wpq);

    core::System sys(cfg, prog, /*threads=*/3);
    auto r = sys.run();

    const trace::TraceSink &sink = *sys.traceSink();
    if (sink.wrapped()) {
        std::fprintf(stderr, "trace ring wrapped: flushes lost\n");
        return 1;
    }

    struct Flush
    {
        std::uint64_t value;
        RegionId region;
    };
    std::vector<Flush> counter_flushes;
    for (const trace::Event &e : sink.snapshot()) {
        if (e.type == trace::EventType::WpqRelease &&
            trace::releaseKind(e.aux) == 0 && e.addr == counterAddr)
            counter_flushes.push_back({e.value, e.region});
    }

    std::printf("3 threads x 3 locked increments of (tid+1):\n");
    std::printf("final counter = %llu (expect 1*3 + 2*3 + 3*3 = 18)\n\n",
                static_cast<unsigned long long>(
                    sys.pmImage().read(counterAddr)));

    std::printf("%-22s %-10s %s\n", "counter value flushed", "region",
                "note");
    bool monotone_regions = true, monotone_values = true;
    for (std::size_t i = 0; i < counter_flushes.size(); ++i) {
        const auto &f = counter_flushes[i];
        const char *note = "";
        if (i > 0) {
            if (f.region < counter_flushes[i - 1].region) {
                monotone_regions = false;
                note = "REGION ORDER VIOLATION";
            }
            if (f.value < counter_flushes[i - 1].value) {
                monotone_values = false;
                note = "VALUE ORDER VIOLATION";
            }
        }
        std::printf("%-22llu %-10llu %s\n",
                    static_cast<unsigned long long>(f.value),
                    static_cast<unsigned long long>(f.region), note);
    }

    std::printf("\nregion IDs of the counter's flushes are %s; "
                "values are %s\n",
                monotone_regions ? "monotone (happens-before preserved)"
                                 : "OUT OF ORDER",
                monotone_values ? "monotone" : "OUT OF ORDER");

    bool ok = r.completed && monotone_regions && monotone_values &&
              sys.pmImage().read(counterAddr) == 18;
    return ok ? 0 : 1;
}
