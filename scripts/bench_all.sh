#!/usr/bin/env bash
# Run every figure/table reproduction through the parallel sweep engine,
# check the CSVs against the checked-in references, and aggregate the
# per-bench telemetry into one BENCH_sweep.json. Every bench also writes
# its lwsp-run-report-v1.3 run report to OUT_DIR/<bench>.report.json.
#
#   scripts/bench_all.sh [--quick] [--jobs N] [--build-dir DIR]
#                        [--out-dir DIR] [--speedup] [--fuzz] [--faults]
#                        [--trace] [--serve] [--storm]
#
#   --quick      one representative app per suite (fast smoke pass)
#   --jobs N     sweep worker threads per bench (default: all cores)
#   --build-dir  where the bench binaries live (default: ./build)
#   --out-dir    where CSVs/JSON land (default: BUILD_DIR/bench_out)
#   --trace      additionally run one traced simulation point
#                (lwsp_cli run --trace-out) and round it through the
#                lwsp_trace inspector and the Perfetto converter
#   --speedup    additionally run fig07 at --jobs 1 and --jobs $(nproc),
#                byte-diff the two CSVs and record the wall-clock ratio
#                in BENCH_sweep.json
#   --fuzz       additionally run the long crash-consistency fuzzing
#                campaign (the -DLWSP_FUZZ_TESTS=ON tier: hundreds of
#                seeds; budget tens of minutes)
#   --faults     additionally run the seeded hardware fault-injection
#                campaign (every fault axis in rotation, hardened
#                recovery; deterministic, finishes in seconds)
#   --serve      additionally run the serve-workload crash campaign
#                (open-loop request streams crash-injected mid-stream,
#                with the structure oracle replaying the lowered request
#                tape; deterministic, finishes in seconds)
#   --storm      additionally run the failure-storm gate: the seeded
#                storm campaign (drain interrupts, recovery re-entries,
#                post-recovery crashes, composed with the hardware fault
#                axes) plus the exhaustive crash-at-every-cycle-of-
#                recovery matrix (all 5 schemes x pds/serve/builtin
#                sources; budget several minutes)
#
# CSV checking: quick-mode rows are a subset of the full reference
# tables, so each emitted row is compared against the same-named row in
# results/<bench>.csv when that reference exists. Any mismatch fails the
# script — the sweep engine's whole promise is byte-identical output at
# any job count.

set -euo pipefail

QUICK=""
JOBS=0
SPEEDUP=0
FUZZ=0
FAULTS=0
TRACE=0
SERVE=0
STORM=0
ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD_DIR="$ROOT/build"
OUT_DIR=""

while [ $# -gt 0 ]; do
    case "$1" in
        --quick) QUICK="--quick" ;;
        --jobs) JOBS="$2"; shift ;;
        --build-dir) BUILD_DIR="$2"; shift ;;
        --out-dir) OUT_DIR="$2"; shift ;;
        --speedup) SPEEDUP=1 ;;
        --fuzz) FUZZ=1 ;;
        --faults) FAULTS=1 ;;
        --trace) TRACE=1 ;;
        --serve) SERVE=1 ;;
        --storm) STORM=1 ;;
        *) echo "usage: $0 [--quick] [--jobs N] [--build-dir DIR]" \
                "[--out-dir DIR] [--speedup] [--fuzz] [--faults]" \
                "[--trace] [--serve] [--storm]" >&2
           exit 2 ;;
    esac
    shift
done

BENCH_DIR="$BUILD_DIR/bench"
[ -n "$OUT_DIR" ] || OUT_DIR="$BUILD_DIR/bench_out"
mkdir -p "$OUT_DIR"
AGGREGATE="$OUT_DIR/BENCH_sweep.json"

[ -x "$BENCH_DIR/fig07_slowdown" ] || {
    echo "error: bench binaries not found under $BENCH_DIR" \
         "(build the repo first)" >&2
    exit 1
}

# Every sweep-engine bench. tab_vg2/tab_vg4 are analytic (no simulation)
# and micro_substrate is a google-benchmark binary; none take --jobs.
BENCHES="
fig07_slowdown
fig08_efficiency
fig09_psp_vs_wsp
fig10_cwsp
fig11_wpq_size
fig12_store_threshold
fig13_victim_policy
fig14_miss_rate
fig15_bandwidth
fig16_threads
fig17_cxl
fig18_wpq_hit
fig19_pds
fig20_recovery
fig21_service
fig22_availability
fig23_scaleout
tab02_conflict_rate
tab_vg3_region_stats
abl_commit_pipeline
"

check_csv() {
    # $1 = emitted csv, $2 = reference csv. Row-subset comparison keyed
    # on the first column; headers must match exactly.
    local got="$1" ref="$2"
    [ -f "$ref" ] || return 0
    if ! diff <(head -1 "$got") <(head -1 "$ref") >/dev/null; then
        echo "  HEADER MISMATCH vs $(basename "$ref")"
        return 1
    fi
    local bad=0
    while IFS= read -r line; do
        local key="${line%%,*}"
        local refline
        refline="$(grep "^$key," "$ref" || true)"
        [ -z "$refline" ] && continue  # row not in the reference subset
        if [ "$line" != "$refline" ]; then
            echo "  ROW MISMATCH [$key] vs $(basename "$ref")"
            echo "    ref: $refline"
            echo "    got: $line"
            bad=1
        fi
    done < <(tail -n +2 "$got")
    return $bad
}

FAILED=0
: > "$AGGREGATE.records"
for b in $BENCHES; do
    echo "== $b"
    csv="$OUT_DIR/$b.csv"
    json="$OUT_DIR/$b.sweep.json"
    if ! "$BENCH_DIR/$b" $QUICK --jobs "$JOBS" --csv "$csv" \
            --sweep-json "$json" --report "$OUT_DIR/$b.report.json" \
            > "$OUT_DIR/$b.txt"; then
        echo "  BENCH FAILED (exit $?)"
        FAILED=1
        continue
    fi
    cat "$json" >> "$AGGREGATE.records"
    if ! check_csv "$csv" "$ROOT/results/$b.csv"; then
        FAILED=1
    else
        echo "  csv ok ($(($(wc -l < "$csv") - 1)) rows)"
    fi
done

SPEEDUP_JSON=""
if [ "$SPEEDUP" = 1 ]; then
    NP="$(nproc)"
    echo "== speedup probe: fig07 --jobs 1 vs --jobs $NP"
    t0=$(date +%s.%N)
    "$BENCH_DIR/fig07_slowdown" $QUICK --jobs 1 \
        --csv "$OUT_DIR/fig07.serial.csv" \
        --sweep-json "$OUT_DIR/fig07.serial.sweep.json" > /dev/null
    t1=$(date +%s.%N)
    "$BENCH_DIR/fig07_slowdown" $QUICK --jobs "$NP" \
        --csv "$OUT_DIR/fig07.parallel.csv" \
        --sweep-json "$OUT_DIR/fig07.parallel.sweep.json" > /dev/null
    t2=$(date +%s.%N)
    if ! cmp -s "$OUT_DIR/fig07.serial.csv" "$OUT_DIR/fig07.parallel.csv"
    then
        echo "  PARALLEL CSV DIFFERS FROM SERIAL — determinism broken"
        FAILED=1
    else
        echo "  parallel csv byte-identical to serial"
    fi
    SERIAL=$(echo "$t1 $t0" | awk '{printf "%.3f", $1 - $2}')
    PARALLEL=$(echo "$t2 $t1" | awk '{printf "%.3f", $1 - $2}')
    RATIO=$(echo "$SERIAL $PARALLEL" | awk '{printf "%.3f", $1 / $2}')
    echo "  serial ${SERIAL}s, parallel(${NP}j) ${PARALLEL}s," \
         "speedup ${RATIO}x"
    SPEEDUP_JSON=",\"speedup\":{\"bench\":\"fig07_slowdown\",\
\"serial_seconds\":$SERIAL,\"parallel_jobs\":$NP,\
\"parallel_seconds\":$PARALLEL,\"ratio\":$RATIO}"
fi

if [ "$TRACE" = 1 ]; then
    CLI="$BUILD_DIR/examples/lwsp_cli"
    LT="$BUILD_DIR/src/trace/lwsp_trace"
    echo "== trace smoke: lwsp_cli run rb lightwsp --trace-out"
    if [ ! -x "$CLI" ] || [ ! -x "$LT" ]; then
        echo "error: lwsp_cli / lwsp_trace not found under $BUILD_DIR" >&2
        FAILED=1
    elif "$CLI" run rb lightwsp \
            --trace-out "$OUT_DIR/trace_smoke.trc" \
            --stats-json "$OUT_DIR/trace_smoke.stats.json" \
            > "$OUT_DIR/trace_smoke.txt" \
        && "$LT" info "$OUT_DIR/trace_smoke.trc" \
            >> "$OUT_DIR/trace_smoke.txt" \
        && "$LT" convert "$OUT_DIR/trace_smoke.trc" \
            "$OUT_DIR/trace_smoke.perfetto.json" \
            >> "$OUT_DIR/trace_smoke.txt" \
        && grep -q '"traceEvents"' "$OUT_DIR/trace_smoke.perfetto.json"
    then
        echo "  trace ok:" \
             "$(grep '^events:' "$OUT_DIR/trace_smoke.txt" \
                | awk '{print $2}') events," \
             "perfetto json $OUT_DIR/trace_smoke.perfetto.json"
    else
        echo "  TRACE SMOKE FAILED (log: $OUT_DIR/trace_smoke.txt)"
        FAILED=1
    fi
fi

# run_fuzz BANNER LOG TAIL OK FAILED ARGS...: run fuzz_crash with ARGS,
# keep its whole output in OUT_DIR/LOG and show the last TAIL lines.
# Prints OK on a clean exit, else FAILED plus the log path, and fails
# the script.
run_fuzz() {
    local banner="$1" log="$OUT_DIR/$2" lines="$3" ok="$4" failed="$5"
    shift 5
    local fc="$BUILD_DIR/src/fuzz/fuzz_crash"
    [ -x "$fc" ] || fc="$(find "$BUILD_DIR" -name fuzz_crash -type f \
                          -perm -u+x | head -1)"
    if [ -z "$fc" ] || [ ! -x "$fc" ]; then
        echo "error: fuzz_crash binary not found under $BUILD_DIR" >&2
        FAILED=1
        return
    fi
    echo "== $banner"
    if "$fc" "$@" | tee "$log" | tail -"$lines"; then
        echo "  $ok"
    else
        echo "  $failed (full log: $log)"
        FAILED=1
    fi
}

if [ "$FAULTS" = 1 ]; then
    run_fuzz "fault-injection campaign (6 seeds x all axes)" \
        fault_campaign.txt 4 \
        "fault campaign clean (no silent corruption)" \
        "FAULT CAMPAIGN FAILED, reproducer spec above" \
        --seeds 6 --base-seed 1 --crash-points 6 --faults
fi

if [ "$SERVE" = 1 ]; then
    run_fuzz "serve crash campaign (12 seeds, both profiles)" \
        serve_campaign.txt 3 \
        "serve campaign clean (no silent corruption)" \
        "SERVE CAMPAIGN FAILED, reproducer spec above" \
        --seeds 12 --base-seed 1 --mode serve --crash-points 8
fi

if [ "$STORM" = 1 ]; then
    run_fuzz "storm campaign (25 seeds, storms composed with faults)" \
        storm_campaign.txt 4 \
        "storm campaign clean (no silent corruption)" \
        "STORM CAMPAIGN FAILED, reproducer spec above" \
        --seeds 25 --base-seed 1 --mode storm --crash-points 8 --faults
    run_fuzz "recovery matrix (crash at every cycle of recovery)" \
        recovery_matrix.txt 3 \
        "recovery matrix clean (0 hangs, 0 corruption)" \
        "RECOVERY MATRIX FAILED" \
        --recovery-matrix
fi

if [ "$FUZZ" = 1 ]; then
    run_fuzz "long fuzz campaign (300 seeds, mixed sources)" \
        fuzz_long.txt 3 \
        "fuzz campaign clean" \
        "FUZZ CAMPAIGN FAILED, reproducer spec above" \
        --seeds 300 --base-seed 1000 --mode mixed --crash-points 16
fi

{
    printf '{"benches":['
    paste -sd, "$AGGREGATE.records"
    printf ']%s}\n' "$SPEEDUP_JSON"
} | tr -d '\n' > "$AGGREGATE"
echo >> "$AGGREGATE"
rm -f "$AGGREGATE.records"
echo "aggregate telemetry: $AGGREGATE"

exit $FAILED
