/**
 * @file
 * Crash-consistency fuzzing campaigns.
 *
 * One campaign = one seeded random program (workload- or IR-sourced) run
 * crash-free once (the golden run, with the LRPO invariant oracle live),
 * then power-failed at a set of adversarially mined cycles — region-
 * boundary broadcast edges, WPQ drain steps and commit advances observed
 * by the oracle, plus jitter, endpoints and random filler — in single-
 * and double-failure variants. Every recovered execution must finish and
 * reproduce the golden application state exactly, and no run may trip an
 * invariant oracle. On failure the engine shrinks the (program,
 * crash-cycle) pair — first climbing the program-shrink ladder, then
 * minimizing the crash cycle — and reports a one-line seed-spec string
 * that `fuzz_crash --replay` turns back into the exact failing run.
 *
 * Matrix mode (CampaignOptions::recoveryStep != 0) crashes *recovery
 * itself*: the victim loses power once, at 60% of the golden run; a
 * reference recovery measures the recovered run's crash-free length R;
 * then every step-th cycle t in [0, R) is one point, the storm spec
 * `x<t>` walked from that same victim. recoveryMatrixCases() lists the
 * standard matrix, and a failing point reports a reproducer like any
 * other.
 */

#ifndef LWSP_FUZZ_CAMPAIGN_HH
#define LWSP_FUZZ_CAMPAIGN_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"
#include "fault/fault.hh"
#include "fault/storm.hh"
#include "noc/topology.hh"
#include "pds/pds.hh"
#include "serve/serve.hh"
#include "trace/events.hh"

namespace lwsp {
namespace fuzz {

/**
 * How power failure is injected when replaying a single point. Every
 * mode is a failure at crashAt followed by a fault::FailureSchedule,
 * walked by core::walkLifetime: the modes differ only in the schedule.
 */
enum class CrashMode : std::uint8_t
{
    None,           ///< full campaign: mine points, try them all
    Single,         ///< the empty schedule
    DoubleRecovery, ///< `x<crashAt2>`: fail the recovered run again
    DoubleDrain,    ///< `d<drainIters>`: fail again mid-§IV-F drain
    Storm,          ///< the `storm=` schedule
};

/**
 * A fully reproducible case: the seed regenerates the program and system
 * configuration, the shrink level sizes the program, and the crash
 * fields (when mode != None) pin one exact injection. Round-trips
 * through the `lwsp-fuzz:v1:...` spec string.
 */
struct CaseSpec
{
    enum class Source : std::uint8_t { Workload, Ir, Pds, Serve };

    Source source = Source::Workload;
    std::uint64_t seed = 1;
    unsigned shrink = 0;
    /**
     * Pds-sourced cases only: which persistent data structure program
     * to run (src/pds). Rides the spec string as a `pds=` token; the
     * structure-specific semantic + crash-prefix oracles check every
     * run on top of the generic golden-state diff.
     */
    pds::PdsSpec pds;
    /**
     * Serve-sourced cases only: the service workload (src/serve) whose
     * request stream is lowered onto the pds hash table and crash-tested
     * mid-stream. Rides the spec string as a `serve=` token; the same
     * structure oracles as pds cases run against the lowered op tape.
     */
    serve::ServeSpec serve;
    /**
     * Pds- and serve-sourced cases only: the persistence scheme the
     * structure program runs under, in pds::PdsRunMode::Recovery (the
     * pmtx undo-log baseline included). Rides the spec string as a
     * `scheme=` token, printed only when not lightwsp.
     */
    pds::PdsScheme scheme = pds::PdsScheme::LightWsp;

    CrashMode mode = CrashMode::None;
    Tick crashAt = 0;
    Tick crashAt2 = 0;        ///< DoubleRecovery second failure cycle
    unsigned drainIters = 0;  ///< DoubleDrain: quiescence iters completed
    /**
     * Storm mode: the failure schedule executed after the initial crash
     * at crashAt (fault/storm.hh). Rides the spec string as a `storm=`
     * token; an empty schedule makes Storm equivalent to Single.
     */
    fault::FailureSchedule storm;
    /** Enable the MC's test-only early-release fault on victim runs. */
    bool fault = false;
    /**
     * Hardware fault axes armed on the victim machine (fault/fault.hh).
     * When any axis is armed the victim runs with the fault layer live
     * and hardened checkpoints, and recovery goes through
     * System::recoverChecked — a DetectedUnrecoverable verdict passes
     * (the fault was reported); silent corruption fails.
     */
    fault::FaultConfig faults;

    /**
     * Machine-shape overrides for the scale-out axis (Fig 23). mcs = 0
     * keeps the seed-drawn MC count (1-4); a nonzero value pins it —
     * this is how the campaign reaches the sharded many-MC shapes
     * (including >= 64, the broadcast-mask regression surface). The
     * topology defaults to the flat fabric; a tree value switches the
     * victim to hierarchical boundary broadcast/ACK aggregation. Both
     * ride the spec string as `mcs=` / `topo=` tokens, emitted only
     * when non-default so existing spec strings round-trip unchanged.
     */
    unsigned mcs = 0;
    noc::TopologyConfig topo;

    std::string toString() const;
    /** Parse a spec string; on failure @p err explains why. */
    static bool parse(const std::string &s, CaseSpec &out,
                      std::string &err);
};

struct CampaignOptions
{
    /** Minimum injected crash points per campaign (mode == None). */
    unsigned minCrashPoints = 8;
    /** Also inject double failures (recovery-run and mid-drain). */
    bool doubleCrash = true;
    /**
     * Also inject seeded failure storms (fuzz_crash --storm): every
     * second mined point additionally runs under a random
     * fault::FailureSchedule derived from the campaign seed.
     */
    bool stormCrash = false;
    /** Run every system with the LRPO invariant oracle compiled in. */
    bool oracles = true;
    /** Shrink a failing case before reporting it. */
    bool shrinkOnFailure = true;
    /**
     * Replay path only: run the victim with the telemetry sink armed and
     * return its event trace (and the oracle's per-MC committed-prefix
     * view) in the CampaignResult, for `fuzz_crash --trace-out`.
     */
    bool captureTrace = false;
    /**
     * Nonzero: matrix mode (see the file comment) with this crash-point
     * stride over the recovered run, 1 = every cycle. mode == None only.
     */
    Tick recoveryStep = 0;
};

struct CampaignResult
{
    bool passed = true;
    std::string failure;     ///< first failure description (when !passed)
    CaseSpec reproducer;     ///< minimal failing point (when !passed)
    bool shrunk = false;     ///< reproducer is smaller than the original
    unsigned pointsTried = 0;
    unsigned runsExecuted = 0;
    std::uint64_t oracleChecks = 0;
    Tick goldenCycles = 0;
    Tick recoveryCycles = 0;  ///< matrix mode: crash-free recovered run

    // Hardened-recovery verdict tallies (fault-armed points only).
    unsigned recoveredExact = 0;
    unsigned recoveredDegraded = 0;
    unsigned detectedUnrecoverable = 0;
    /** Max power failures survived by any single point's final state. */
    unsigned failuresSurvived = 0;

    /** Victim-run event trace (replay path with captureTrace). */
    std::vector<trace::Event> victimTrace;
    /** Oracle's committed-prefix region per MC, same capture path. */
    std::vector<RegionId> victimLastCommit;
};

/**
 * Run the campaign described by @p spec. With spec.mode == None this is
 * a full mine-and-sweep campaign, or the recovery matrix over the case
 * when opt.recoveryStep != 0; with a concrete mode it replays that
 * single injection (the `--replay` path).
 */
CampaignResult runCampaign(const CaseSpec &spec,
                           const CampaignOptions &opt = {});

/**
 * The standard recovery matrix: the five schemes over each of the three
 * pds structures and a serve tape, a multi-threaded workload case, and
 * the hash case on 16-MC flat and tree fabrics.
 */
std::vector<CaseSpec> recoveryMatrixCases();

/** Outcome of the static WSP-invariant check on one case's compile. */
struct StaticCheckResult
{
    bool ok = true;
    std::string summary;  ///< one-line case description
    std::string report;   ///< analysis::CheckReport::describe()
};

/**
 * Compile the case exactly as runCampaign would (same program draw,
 * same compiler configuration) and run the static WSP-invariant
 * checker (src/analysis) on the result, without simulating anything.
 * A violation here means the compiler emitted an unsafe partition —
 * report it instead of hunting for the crash point that exposes it.
 */
StaticCheckResult staticCheck(const CaseSpec &spec);

} // namespace fuzz
} // namespace lwsp

#endif // LWSP_FUZZ_CAMPAIGN_HH
