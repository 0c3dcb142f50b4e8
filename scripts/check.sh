#!/usr/bin/env bash
# Full verification pipeline: configure, build, run every test, then
# regenerate every paper table/figure through the sweep engine. Exits
# non-zero on the first failed shape check.
#
# Usage: check.sh [--jobs N] [--perf] [--asan] [--parallel] [--trace]
#                  [--hot] [--metrics]
#   --jobs N   worker threads per bench sweep (exported as
#              ATL_SWEEP_JOBS; default: all cores)
#   --perf     also run scripts/perf_gate.sh (hot-path throughput
#              against the committed baseline; fails on >10% regression,
#              or >2% telemetry overhead on the reference hot path)
#   --asan     build into build-asan/ with AddressSanitizer + UBSan
#              (-DATL_SANITIZE=ON) and run the full test suite — the
#              tier-1 tests plus the fault-injection suite — under the
#              sanitizers, then exit (benches are skipped)
#   --parallel build into build-tsan/ with ThreadSanitizer
#              (-DATL_SANITIZE=thread) and run the epoch-engine
#              equivalence suite (the Parallel* tests: all workloads x
#              policies x shard counts, telemetry byte-identity, config
#              normalisation) under TSan, then exit — the race check
#              for the sharded execution engine
#   --trace    build, then run the fig5 bench with ATL_TRACE_POLICY=all
#              and validate every exported Perfetto trace (well-formed
#              trace_event JSON, monotonic ts per track, non-negative
#              slice durations) plus the report's telemetry keys, then
#              exit (other benches are skipped)
#   --hot      the hot-path bundle: run the perf gate (which writes
#              results/BENCH_hotpath.json), validate that report and
#              the committed baseline against the v2 schema (host_cpus
#              + nested best rates), then run the memory-safety and
#              race checks that guard the hot-path data structures —
#              the full test suite under ASan/UBSan and the epoch
#              equivalence suite under TSan — and exit
#   --metrics  build, then run the observability overhead gate:
#              BM_HotPathRefThroughput with a metrics registry and the
#              phase profiler on must stay within 2% of the plain run
#              (self-relative, best-of-N, confirmed over a second round
#              before failing); then exit
set -euo pipefail
cd "$(dirname "$0")/.."

RUN_PERF=0
RUN_ASAN=0
RUN_PARALLEL=0
RUN_TRACE=0
RUN_HOT=0
RUN_METRICS=0

while [ $# -gt 0 ]; do
    case "$1" in
      --jobs)
        [ $# -ge 2 ] || { echo "--jobs needs an argument" >&2; exit 2; }
        export ATL_SWEEP_JOBS="$2"
        shift 2
        ;;
      --jobs=*)
        export ATL_SWEEP_JOBS="${1#--jobs=}"
        shift
        ;;
      --perf)
        RUN_PERF=1
        shift
        ;;
      --asan)
        RUN_ASAN=1
        shift
        ;;
      --parallel)
        RUN_PARALLEL=1
        shift
        ;;
      --trace)
        RUN_TRACE=1
        shift
        ;;
      --hot)
        RUN_HOT=1
        shift
        ;;
      --metrics)
        RUN_METRICS=1
        shift
        ;;
      *)
        echo "unknown argument: $1" >&2
        exit 2
        ;;
    esac
done

if [ "$RUN_HOT" -eq 1 ]; then
    cmake -B build -G Ninja
    cmake --build build

    echo "==== hot path: perf gate"
    scripts/perf_gate.sh

    echo "==== hot path: report + baseline schema validation"
    python3 - <<'PYEOF'
import json, sys

hot_benches = ("BM_HotPathMissHeavy", "BM_HotPathMonitoredMissHeavy",
               "BM_HotPathRefThroughput", "BM_HotPathRefThroughputTelemetry",
               "BM_HotPathScalarRefThroughput", "BM_MachineParallelSpeedup")

failed = 0

def check_rates(path, best):
    global failed
    if not isinstance(best, dict):
        print(f"{path}: 'best' is not an object", file=sys.stderr)
        failed = 1
        return
    for name in hot_benches:
        rate = best.get(name)
        if not isinstance(rate, (int, float)) or rate <= 0:
            print(f"{path}: best[{name!r}] is {rate!r}, expected a "
                  "positive rate", file=sys.stderr)
            failed = 1

path = "results/BENCH_hotpath.json"
doc = json.load(open(path))
for key in ("bench", "schema", "host_cpus", "repeats", "rounds",
            "statistic", "best"):
    if key not in doc:
        print(f"{path}: missing '{key}'", file=sys.stderr)
        failed = 1
if doc.get("bench") != "BENCH_hotpath":
    print(f"{path}: bench is {doc.get('bench')!r}", file=sys.stderr)
    failed = 1
if not isinstance(doc.get("host_cpus"), int) or doc.get("host_cpus", 0) < 1:
    print(f"{path}: host_cpus is {doc.get('host_cpus')!r}, expected a "
          "positive integer", file=sys.stderr)
    failed = 1
check_rates(path, doc.get("best"))

path = "scripts/perf_baseline.json"
doc = json.load(open(path))
for key in ("schema", "host_cpus", "best"):
    if key not in doc:
        print(f"{path}: missing '{key}' (v1 flat baseline? rerun "
              "perf_gate.sh --update-baseline)", file=sys.stderr)
        failed = 1
if failed == 0:
    check_rates(path, doc.get("best"))

if failed:
    sys.exit(1)
print("hotpath report + baseline schema OK")
PYEOF

    echo "==== hot path: full suite under ASan/UBSan"
    cmake -B build-asan -G Ninja -DATL_SANITIZE=ON
    cmake --build build-asan
    ctest --test-dir build-asan -j "$(nproc)" --output-on-failure

    echo "==== hot path: epoch equivalence under TSan"
    cmake -B build-tsan -G Ninja -DATL_SANITIZE=thread
    cmake --build build-tsan --target atl_runtime_tests
    TSAN_OPTIONS="halt_on_error=1 history_size=7" \
        ctest --test-dir build-tsan -R 'Parallel' --output-on-failure

    echo "HOT PATH CHECKS PASSED"
    exit 0
fi

if [ "$RUN_ASAN" -eq 1 ]; then
    cmake -B build-asan -G Ninja -DATL_SANITIZE=ON
    cmake --build build-asan
    ctest --test-dir build-asan -j "$(nproc)" --output-on-failure
    echo "ASAN/UBSAN CHECKS PASSED"
    exit 0
fi

if [ "$RUN_PARALLEL" -eq 1 ]; then
    cmake -B build-tsan -G Ninja -DATL_SANITIZE=thread
    cmake --build build-tsan --target atl_runtime_tests
    # The equivalence suite spawns real host worker threads through
    # every shard count; any unsynchronised cross-shard access trips
    # TSan (fiber switches are annotated, so fiber-local state does
    # not false-positive). history_size: the epoch protocol keeps many
    # threads with long quiescent spans alive.
    TSAN_OPTIONS="halt_on_error=1 history_size=7" \
        ctest --test-dir build-tsan -R 'Parallel' --output-on-failure
    echo "TSAN PARALLEL CHECKS PASSED"
    exit 0
fi

if [ "$RUN_TRACE" -eq 1 ]; then
    cmake -B build -G Ninja
    cmake --build build
    echo "==== trace validation: fig5 under ATL_TRACE_POLICY=all"
    ATL_TRACE_POLICY=all build/bench/bench_fig5_footprints > /dev/null
    python3 - <<'PYEOF'
import json, sys
from collections import defaultdict

failed = 0
for tag in ("fcfs", "lff", "crt"):
    path = f"results/trace_fig5_{tag}.json"
    try:
        doc = json.load(open(path))
    except (OSError, ValueError) as e:
        print(f"{path}: {e}", file=sys.stderr)
        failed = 1
        continue
    events = doc.get("traceEvents")
    if not isinstance(events, list) or not events:
        print(f"{path}: no traceEvents array", file=sys.stderr)
        failed = 1
        continue
    last = defaultdict(lambda: None)
    for e in events:
        ph = e.get("ph")
        if ph not in ("M", "X", "i", "C"):
            print(f"{path}: unexpected phase {ph!r}", file=sys.stderr)
            failed = 1
            break
        if ph == "M":
            continue  # metadata records carry no timestamp ordering
        track = (e.get("pid"), e.get("tid"))
        ts = e.get("ts")
        if not isinstance(ts, (int, float)):
            print(f"{path}: event without ts: {e}", file=sys.stderr)
            failed = 1
            break
        if last[track] is not None and ts < last[track]:
            print(f"{path}: ts went backwards on track {track}: "
                  f"{last[track]} -> {ts}", file=sys.stderr)
            failed = 1
            break
        last[track] = ts
        if ph == "X" and e.get("dur", 0) < 0:
            print(f"{path}: negative slice duration: {e}",
                  file=sys.stderr)
            failed = 1
            break
    else:
        print(f"{path}: OK ({len(events)} events)")

report = json.load(open("results/bench_fig5_footprints.json"))
if report.get("schema") != 9:
    print(f"fig5 report: schema is {report.get('schema')!r}, expected 9",
          file=sys.stderr)
    failed = 1
telemetry = report.get("telemetry")
if not isinstance(telemetry, dict):
    print("fig5 report: no 'telemetry' object", file=sys.stderr)
    failed = 1
else:
    for key in ("events", "counts", "residuals", "interval_cycles",
                "switch_cost_cycles", "fallback_timeline"):
        if key not in telemetry:
            print(f"fig5 report: telemetry is missing '{key}'",
                  file=sys.stderr)
            failed = 1
if failed:
    sys.exit(1)
print("trace validation OK")
PYEOF
    echo "TRACE CHECKS PASSED"
    exit 0
fi

if [ "$RUN_METRICS" -eq 1 ]; then
    cmake -B build -G Ninja
    cmake --build build

    echo "==== metrics: observability overhead gate (self-relative)"
    tmpdir=$(mktemp -d)
    trap 'rm -rf "$tmpdir"' EXIT
    run_overhead_round() {
        local round="$1"
        for i in 1 2 3; do
            build/bench/bench_micro_runtime \
                --benchmark_filter='BM_HotPathRefThroughput(Metrics)?/' \
                --benchmark_format=json \
                > "$tmpdir/overhead_r${round}_p${i}.json" 2>/dev/null
        done
    }
    check_overhead() {
        TMPDIR_JSON="$tmpdir" python3 - <<'PYEOF'
import glob, json, os, sys

best = {}
for path in glob.glob(
        os.path.join(os.environ["TMPDIR_JSON"], "overhead_*.json")):
    with open(path) as f:
        doc = json.load(f)
    for bench in doc.get("benchmarks", []):
        name = bench["name"].split("/")[0]
        rate = bench.get("refs_per_sec")
        if rate is not None:
            best[name] = max(best.get(name, 0.0), rate)

plain = best.get("BM_HotPathRefThroughput")
metered = best.get("BM_HotPathRefThroughputMetrics")
if plain is None or metered is None:
    print("overhead gate: benchmark pair missing from run",
          file=sys.stderr)
    sys.exit(2)
overhead = 1 - metered / plain
print(f"metrics+profiler overhead: {100 * overhead:+.1f}% "
      f"({metered / 1e6:.1f} vs {plain / 1e6:.1f} Mrefs/s, limit 2%)")
sys.exit(1 if metered < 0.98 * plain else 0)
PYEOF
    }
    run_overhead_round 1
    if ! check_overhead; then
        echo "metrics: first round exceeded 2%; confirming with a" \
             "second best-of-3 round" >&2
        run_overhead_round 2
        if ! check_overhead; then
            echo "metrics: observability overhead >2% confirmed over" \
                 "two rounds" >&2
            exit 1
        fi
    fi

    echo "METRICS CHECKS PASSED"
    exit 0
fi

cmake -B build -G Ninja
cmake --build build
# The results check runs once, after the bench loop below, when every
# bench's JSON report is there to compare against too.
ctest --test-dir build -j "$(nproc)" -LE results

# Each bench sweeps its runs on ATL_SWEEP_JOBS workers and drops a
# machine-readable report into results/.
declare -a names times
for b in build/bench/bench_*; do
    [ -f "$b" ] && [ -x "$b" ] || continue
    echo "==== $b"
    start=$(date +%s.%N)
    "$b"
    end=$(date +%s.%N)
    names+=("$(basename "$b")")
    times+=("$(echo "$end $start" | awk '{printf "%.1f", $1 - $2}')")
done

echo
echo "==== bench wall-clock (${ATL_SWEEP_JOBS:-$(nproc)} sweep worker(s))"
for i in "${!names[@]}"; do
    printf '  %-36s %6ss\n' "${names[$i]}" "${times[$i]}"
done

# Every bench must have produced a parseable JSON report.
missing=0
for b in build/bench/bench_*; do
    [ -f "$b" ] && [ -x "$b" ] || continue
    json="results/$(basename "$b").json"
    if [ ! -s "$json" ]; then
        echo "MISSING: $json" >&2
        missing=1
    elif command -v python3 >/dev/null 2>&1; then
        # Parse, and hold the report to schema 9: every RunMetrics
        # entry carries the host diagnostics and degradation counters,
        # failed_runs entries are {index, name, message}, and no key of
        # the retired crash-isolation / journal / fabric / checkpoint
        # stack appears. An incomplete sweep (lost runs) is a bench
        # failure even when the binary itself exited zero.
        if ! python3 - "$json" <<'PYEOF' >&2
import json, sys
doc = json.load(open(sys.argv[1]))
if "bench" not in doc:
    sys.exit(0)  # google-benchmark native format, not a BenchReport
if doc.get("schema") != 9:
    print(f"{sys.argv[1]}: schema is {doc.get('schema')!r}, expected 9")
    sys.exit(1)
retired = ("resumed_runs", "interrupted", "checkpoint_resumes",
           "checkpoint_cycles_saved", "workers", "stolen_runs",
           "worker_failures")
for key in retired:
    if key in doc:
        print(f"{sys.argv[1]}: retired key '{key}' in a schema-9 report")
        sys.exit(1)
for failure in doc.get("failed_runs", []):
    if set(failure) != {"index", "name", "message"}:
        print(f"{sys.argv[1]}: failed_runs entry has keys "
              f"{sorted(failure)}, expected index, name, message")
        sys.exit(1)
if doc.get("complete") is not True:
    print(f"{sys.argv[1]}: sweep incomplete, failed runs: "
          f"{doc.get('failed_runs')}")
    sys.exit(1)
required = ("workload", "policy", "num_cpus", "makespan", "e_misses",
            "e_refs", "instructions", "context_switches",
            "sched_overhead_cycles", "verified", "refs_issued",
            "ref_blocks", "refs_per_sec", "batch_occupancy",
            "fault_events", "implausible_samples", "torn_samples",
            "clamped_misses", "fallback_activations",
            "fallback_recoveries", "fallback_intervals", "dropped_hints")
for run in doc.get("runs", []):
    for key in required:
        if key not in run:
            print(f"{sys.argv[1]}: run is missing '{key}'")
            sys.exit(1)
PYEOF
        then
            echo "BAD REPORT: $json" >&2
            missing=1
        fi
    fi
done
[ "$missing" -eq 0 ] || { echo "bench reports incomplete" >&2; exit 1; }

# The committed captures (and the reports just written) must reproduce
# bit-for-bit: stdout against results/*.txt, JSON minus host keys.
echo "==== results reproduce"
scripts/regen_results.sh --check --build build

if [ "$RUN_PERF" -eq 1 ]; then
    scripts/perf_gate.sh
fi

echo "ALL CHECKS PASSED"
