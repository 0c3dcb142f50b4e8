#!/usr/bin/env bash
# Full verification pipeline: configure, build, run every test, then
# regenerate every paper table/figure through the sweep engine. Exits
# non-zero on the first failed shape check.
#
# Usage: check.sh [--jobs N] [--perf] [--asan] [--parallel] [--trace]
#                  [--crash] [--fabric] [--hot] [--metrics] [--checkpoint]
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
#              slice durations) plus the report's schema-4 telemetry
#              keys, then exit (other benches are skipped)
#   --hot      the hot-path bundle: run the perf gate (which writes
#              results/BENCH_hotpath.json), validate that report and
#              the committed baseline against the v2 schema (host_cpus
#              + nested best rates), then run the memory-safety and
#              race checks that guard the hot-path data structures —
#              the full test suite under ASan/UBSan and the epoch
#              equivalence suite under TSan — and exit
#   --crash    build, then exercise crash isolation end to end: run the
#              crash-fault matrix (forked attempts, SIGSEGV / abort /
#              silent _exit / spin faults) and require a complete
#              report; then SIGKILL the sweep halfway through, resume
#              it from the durable journal, and diff the resumed report
#              against the clean one (modulo host timing); then exit
#   --checkpoint
#              build, then exercise mid-cell checkpoint/restore end to
#              end: a clean run of the crash matrix must show the
#              checkpointed column resuming (schema-8
#              checkpoint_resumes / checkpoint_cycles_saved > 0 plus
#              sweep_checkpoints / sweep_ckpt_resumes telemetry
#              counts); then SIGKILL the sweep after 5 cells with
#              ATL_CKPT_CYCLES armed, resume from the journal, and the
#              resumed report must match the clean one cell for cell
#              (modulo host timing) with identical checkpoint
#              accounting; then exit
#   --fabric   build, then exercise the distributed sweep fabric end to
#              end: a clean multi-worker run, a chaos run (seeded worker
#              self-kills plus a deterministic SIGKILL at cell 5), and a
#              coordinator-crash + resume pair (SIGKILL the whole fabric
#              after 5 cells, rerun, recover the rest from the fsync'd
#              worker shards). Every report's runs must match the clean
#              one modulo host timing, carry the schema-8 fabric keys,
#              and the resumed run must leave no shards behind; then
#              exit
#   --metrics  build, then exercise the metrics layer end to end: a
#              fabric run under ATL_FABRIC_WORKERS with
#              ATL_FABRIC_STATUS=1 must stream "atl-fabric:" status
#              lines and embed a merged schema-8 "metrics" object
#              (counters / gauges / histograms) in its report; then the
#              observability overhead gate — BM_HotPathRefThroughput
#              with a metrics registry and the phase profiler on must
#              stay within 2% of the plain run (self-relative,
#              best-of-N, confirmed over a second round before
#              failing); then exit
set -euo pipefail
cd "$(dirname "$0")/.."

RUN_PERF=0
RUN_ASAN=0
RUN_PARALLEL=0
RUN_TRACE=0
RUN_CRASH=0
RUN_FABRIC=0
RUN_HOT=0
RUN_METRICS=0
RUN_CKPT=0

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
      --crash)
        RUN_CRASH=1
        shift
        ;;
      --fabric)
        RUN_FABRIC=1
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
      --checkpoint)
        RUN_CKPT=1
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
if report.get("schema") != 8:
    print(f"fig5 report: schema is {report.get('schema')!r}, expected 8",
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

if [ "$RUN_CRASH" -eq 1 ]; then
    cmake -B build -G Ninja
    cmake --build build

    report=results/bench_crash_matrix.json
    journal=results/bench_crash_matrix.journal.jsonl

    echo "==== crash containment: crash-fault matrix under isolation"
    rm -f "$journal"
    build/bench/bench_crash_matrix
    cp "$report" results/bench_crash_matrix.clean.json

    echo "==== journal resume: SIGKILL the sweep after 5 cells, rerun"
    rm -f "$journal"
    rc=0
    ATL_SWEEP_KILL_AFTER=5 build/bench/bench_crash_matrix || rc=$?
    if [ "$rc" -eq 0 ]; then
        echo "kill run: expected the sweep to die, but it exited 0" >&2
        exit 1
    fi
    echo "kill run: exited $rc as expected"
    if [ ! -s "$journal" ]; then
        echo "kill run: no journal survived at $journal" >&2
        exit 1
    fi
    build/bench/bench_crash_matrix

    python3 - "$report" results/bench_crash_matrix.clean.json <<'PYEOF'
import json, sys

resumed = json.load(open(sys.argv[1]))
clean = json.load(open(sys.argv[2]))

if resumed.get("resumed_runs", 0) < 1:
    print("resume run: report shows no resumed cells", file=sys.stderr)
    sys.exit(1)
for tag, doc in (("clean", clean), ("resumed", resumed)):
    if doc.get("complete") is not True:
        print(f"{tag} run: sweep incomplete: {doc.get('failed_runs')}",
              file=sys.stderr)
        sys.exit(1)

# The resumed sweep must reproduce the clean sweep cell for cell;
# only host-timing diagnostics may differ between the two machines'
# worth of wall clock.
host_keys = ("host_seconds", "refs_per_sec", "batch_occupancy",
             "refs_issued", "ref_blocks")
clean_runs = clean.get("runs", [])
resumed_runs = resumed.get("runs", [])
if len(clean_runs) != len(resumed_runs):
    print(f"run count differs: clean {len(clean_runs)} vs "
          f"resumed {len(resumed_runs)}", file=sys.stderr)
    sys.exit(1)
for i, (a, b) in enumerate(zip(clean_runs, resumed_runs)):
    a = {k: v for k, v in a.items() if k not in host_keys}
    b = {k: v for k, v in b.items() if k not in host_keys}
    if a != b:
        diff = {k for k in set(a) | set(b) if a.get(k) != b.get(k)}
        print(f"cell {i} differs after resume: {sorted(diff)}",
              file=sys.stderr)
        sys.exit(1)
print(f"resume run OK: {resumed['resumed_runs']} cell(s) replayed "
      f"from the journal, all {len(clean_runs)} cells match the "
      f"clean sweep")
PYEOF
    if [ -e "$journal" ]; then
        echo "resume run: journal was not removed after completion" >&2
        exit 1
    fi
    rm -f results/bench_crash_matrix.clean.json
    echo "CRASH CHECKS PASSED"
    exit 0
fi

if [ "$RUN_CKPT" -eq 1 ]; then
    cmake -B build -G Ninja
    cmake --build build

    report=results/bench_crash_matrix.json
    journal=results/bench_crash_matrix.journal.jsonl
    ckpt_journal=results/bench_crash_matrix_ckpt.journal.jsonl

    echo "==== checkpoint: clean run (mid-run chaos, calibrated cadence)"
    rm -f "$journal" "$ckpt_journal"
    build/bench/bench_crash_matrix
    cp "$report" results/bench_crash_matrix.clean.json

    python3 - "$report" <<'PYEOF'
import json, sys

doc = json.load(open(sys.argv[1]))
failed = 0
if doc.get("schema") != 8:
    print(f"checkpoint: schema is {doc.get('schema')!r}, expected 8",
          file=sys.stderr)
    failed = 1
for key in ("checkpoint_resumes", "checkpoint_cycles_saved"):
    if not isinstance(doc.get(key), int):
        print(f"checkpoint: report has no integer '{key}'",
              file=sys.stderr)
        failed = 1
# The checkpointed column's bar: mid-run deaths resumed from a COW
# holder instead of re-running, so simulated cycles were saved.
if doc.get("checkpoint_resumes", 0) < 1:
    print("checkpoint: report shows no mid-cell resumes",
          file=sys.stderr)
    failed = 1
if doc.get("checkpoint_cycles_saved", 0) < 1:
    print("checkpoint: resumes saved no simulated cycles",
          file=sys.stderr)
    failed = 1
counts = doc.get("telemetry", {}).get("counts", {})
for key in ("sweep_checkpoints", "sweep_ckpt_resumes"):
    if counts.get(key, 0) < 1:
        print(f"checkpoint: telemetry count '{key}' is "
              f"{counts.get(key)!r}, expected >= 1", file=sys.stderr)
        failed = 1
for failure in doc.get("failed_runs", []):
    for key in ("stalled", "checkpoint_resumes", "resumed_from_cycle"):
        if key not in failure:
            print(f"checkpoint: failed_runs entry is missing '{key}'",
                  file=sys.stderr)
            failed = 1
if failed:
    sys.exit(1)
print(f"clean run OK: {doc['checkpoint_resumes']} mid-cell resume(s), "
      f"{doc['checkpoint_cycles_saved']} simulated cycle(s) saved")
PYEOF

    echo "==== checkpoint: SIGKILL the sweep after 5 cells, then resume"
    rm -f "$journal" "$ckpt_journal"
    rc=0
    ATL_SWEEP_KILL_AFTER=5 ATL_CKPT_CYCLES=20000 \
        build/bench/bench_crash_matrix || rc=$?
    if [ "$rc" -eq 0 ]; then
        echo "kill run: expected the sweep to die, but it exited 0" >&2
        exit 1
    fi
    echo "kill run: exited $rc as expected"
    if [ ! -s "$journal" ]; then
        echo "kill run: no journal survived at $journal" >&2
        exit 1
    fi
    ATL_CKPT_CYCLES=20000 build/bench/bench_crash_matrix

    python3 - "$report" results/bench_crash_matrix.clean.json <<'PYEOF'
import json, sys

resumed = json.load(open(sys.argv[1]))
clean = json.load(open(sys.argv[2]))

if resumed.get("resumed_runs", 0) < 1:
    print("resume run: report shows no resumed cells", file=sys.stderr)
    sys.exit(1)
for tag, doc in (("clean", clean), ("resumed", resumed)):
    if doc.get("complete") is not True:
        print(f"{tag} run: sweep incomplete: {doc.get('failed_runs')}",
              file=sys.stderr)
        sys.exit(1)

# Mid-cell resume accounting is simulation-deterministic (seeded
# crashes, calibrated cadence), so the journal-resumed sweep must
# reproduce the clean sweep's totals exactly — the journal round-trips
# per-cell ckpt_resumes / ckpt_cycles_saved for replayed cells, and
# ATL_CKPT_CYCLES only arms holders on the classic column's healthy
# cells, which never resume.
for key in ("checkpoint_resumes", "checkpoint_cycles_saved"):
    if resumed.get(key) != clean.get(key):
        print(f"{key} diverged after resume: clean {clean.get(key)!r} "
              f"vs resumed {resumed.get(key)!r}", file=sys.stderr)
        sys.exit(1)

host_keys = ("host_seconds", "refs_per_sec", "batch_occupancy",
             "refs_issued", "ref_blocks")
clean_runs = clean.get("runs", [])
resumed_runs = resumed.get("runs", [])
if len(clean_runs) != len(resumed_runs):
    print(f"run count differs: clean {len(clean_runs)} vs "
          f"resumed {len(resumed_runs)}", file=sys.stderr)
    sys.exit(1)
for i, (a, b) in enumerate(zip(clean_runs, resumed_runs)):
    a = {k: v for k, v in a.items() if k not in host_keys}
    b = {k: v for k, v in b.items() if k not in host_keys}
    if a != b:
        diff = {k for k in set(a) | set(b) if a.get(k) != b.get(k)}
        print(f"cell {i} differs after resume: {sorted(diff)}",
              file=sys.stderr)
        sys.exit(1)
print(f"resume run OK: {resumed['resumed_runs']} cell(s) replayed from "
      f"the journal, checkpoint accounting identical "
      f"({resumed['checkpoint_resumes']} resume(s), "
      f"{resumed['checkpoint_cycles_saved']} cycle(s) saved)")
PYEOF
    for j in "$journal" "$ckpt_journal"; do
        if [ -e "$j" ]; then
            echo "resume run: journal $j was not removed after completion" >&2
            exit 1
        fi
    done
    rm -f results/bench_crash_matrix.clean.json
    echo "CHECKPOINT CHECKS PASSED"
    exit 0
fi

if [ "$RUN_FABRIC" -eq 1 ]; then
    cmake -B build -G Ninja
    cmake --build build

    report=results/bench_fabric_matrix.json
    shards='results/bench_fabric_matrix.fabric.w*.journal.jsonl'

    # Helper: diff two fabric reports cell for cell (modulo host-timing
    # diagnostics) and validate the schema-8 fabric keys of the first.
    fabric_diff() {
        python3 - "$1" "$2" "$3" "$4" <<'PYEOF'
import json, sys

doc = json.load(open(sys.argv[1]))
clean = json.load(open(sys.argv[2]))
tag = sys.argv[3]
want_deaths = sys.argv[4] == "deaths"

failed = 0
if doc.get("schema") != 8:
    print(f"{tag}: schema is {doc.get('schema')!r}, expected 8",
          file=sys.stderr)
    failed = 1
if not isinstance(doc.get("workers"), int) or doc["workers"] < 1:
    print(f"{tag}: 'workers' is {doc.get('workers')!r}, expected a "
          "positive count", file=sys.stderr)
    failed = 1
if not isinstance(doc.get("stolen_runs"), int):
    print(f"{tag}: no 'stolen_runs' count", file=sys.stderr)
    failed = 1
deaths = doc.get("worker_failures")
if not isinstance(deaths, list):
    print(f"{tag}: no 'worker_failures' list", file=sys.stderr)
    failed = 1
else:
    for d in deaths:
        for key in ("slot", "pid", "exit_signal", "exit_code",
                    "cells_lost"):
            if key not in d:
                print(f"{tag}: worker_failures entry missing '{key}'",
                      file=sys.stderr)
                failed = 1
    if want_deaths and not deaths:
        print(f"{tag}: chaos run recorded no worker deaths — the "
              "fabric's death path was not exercised", file=sys.stderr)
        failed = 1
if doc.get("complete") is not True:
    print(f"{tag}: sweep incomplete: {doc.get('failed_runs')}",
          file=sys.stderr)
    failed = 1

host_keys = ("host_seconds", "refs_per_sec", "batch_occupancy",
             "refs_issued", "ref_blocks")
a_runs = clean.get("runs", [])
b_runs = doc.get("runs", [])
if len(a_runs) != len(b_runs):
    print(f"{tag}: run count differs: clean {len(a_runs)} vs "
          f"{len(b_runs)}", file=sys.stderr)
    failed = 1
else:
    for i, (a, b) in enumerate(zip(a_runs, b_runs)):
        a = {k: v for k, v in a.items() if k not in host_keys}
        b = {k: v for k, v in b.items() if k not in host_keys}
        if a != b:
            diff = {k for k in set(a) | set(b) if a.get(k) != b.get(k)}
            print(f"{tag}: cell {i} diverged: {sorted(diff)}",
                  file=sys.stderr)
            failed = 1
if failed:
    sys.exit(1)
print(f"{tag}: OK — {len(b_runs)} cell(s), {doc['workers']} worker(s), "
      f"{doc['stolen_runs']} steal(s), {len(deaths)} worker death(s), "
      f"{doc.get('resumed_runs', 0)} resumed")
PYEOF
    }

    echo "==== fabric: clean 3-worker run"
    rm -f $shards
    ATL_FABRIC_WORKERS=3 build/bench/bench_fabric_matrix
    cp "$report" results/bench_fabric_matrix.clean.json
    fabric_diff "$report" results/bench_fabric_matrix.clean.json \
        "clean run" nodeaths

    echo "==== fabric: chaos run (seeded self-kills + SIGKILL at cell 5)"
    rm -f $shards
    ATL_FABRIC_WORKERS=4 ATL_FABRIC_CHAOS=1 ATL_FABRIC_KILL_AFTER=5 \
        build/bench/bench_fabric_matrix
    fabric_diff "$report" results/bench_fabric_matrix.clean.json \
        "chaos run" deaths

    echo "==== fabric: coordinator crash after 5 cells, then resume"
    rm -f $shards
    rc=0
    ATL_FABRIC_WORKERS=2 ATL_FABRIC_COORD_KILL_AFTER=5 \
        build/bench/bench_fabric_matrix || rc=$?
    if [ "$rc" -eq 0 ]; then
        echo "coordinator kill: expected the fabric to die, got exit 0" >&2
        exit 1
    fi
    echo "coordinator kill: exited $rc as expected"
    if ! ls $shards >/dev/null 2>&1; then
        echo "coordinator kill: no worker shards survived" >&2
        exit 1
    fi
    ATL_FABRIC_WORKERS=2 build/bench/bench_fabric_matrix
    fabric_diff "$report" results/bench_fabric_matrix.clean.json \
        "resumed run" nodeaths
    python3 - "$report" <<'PYEOF'
import json, sys
doc = json.load(open(sys.argv[1]))
if doc.get("resumed_runs", 0) < 1:
    print("resumed run: report shows no cells recovered from shards",
          file=sys.stderr)
    sys.exit(1)
PYEOF
    if ls $shards >/dev/null 2>&1; then
        echo "resumed run: shards were not removed after completion" >&2
        exit 1
    fi
    rm -f results/bench_fabric_matrix.clean.json
    echo "FABRIC CHECKS PASSED"
    exit 0
fi

if [ "$RUN_METRICS" -eq 1 ]; then
    cmake -B build -G Ninja
    cmake --build build

    report=results/bench_fabric_matrix.json
    shards='results/bench_fabric_matrix.fabric.w*.journal.jsonl'

    echo "==== metrics: fabric run with live status + merged registry"
    rm -f $shards
    status_log=$(mktemp)
    ATL_FABRIC_WORKERS=3 ATL_FABRIC_STATUS=1 ATL_PROF=1 \
        build/bench/bench_fabric_matrix 2> "$status_log"
    if ! grep -q "atl-fabric:" "$status_log"; then
        echo "metrics: no 'atl-fabric:' status lines on stderr" >&2
        cat "$status_log" >&2
        rm -f "$status_log"
        exit 1
    fi
    echo "live status: $(grep -c 'atl-fabric:' "$status_log") update line(s)"
    grep "atl-fabric:" "$status_log" | tail -n 1
    if ! grep -q "atl-prof" "$status_log"; then
        echo "metrics: ATL_PROF=1 produced no phase profile on stderr" >&2
        cat "$status_log" >&2
        rm -f "$status_log"
        exit 1
    fi
    rm -f "$status_log"

    python3 - "$report" <<'PYEOF'
import json, sys

doc = json.load(open(sys.argv[1]))
failed = 0
if doc.get("schema") != 8:
    print(f"fabric report: schema is {doc.get('schema')!r}, expected 8",
          file=sys.stderr)
    failed = 1
m = doc.get("metrics")
if not isinstance(m, dict):
    print("fabric report: no merged 'metrics' object", file=sys.stderr)
    sys.exit(1)
for kind in ("counters", "gauges", "histograms"):
    if not isinstance(m.get(kind), dict):
        print(f"fabric report: metrics.{kind} missing", file=sys.stderr)
        failed = 1
for name in ("machine.intervals", "machine.dispatch.heap",
             "machine.dispatch.global"):
    if name not in m.get("counters", {}):
        print(f"fabric report: metrics counter '{name}' missing",
              file=sys.stderr)
        failed = 1
if m.get("counters", {}).get("machine.intervals", 0) <= 0:
    print("fabric report: machine.intervals merged to zero",
          file=sys.stderr)
    failed = 1
for name in ("machine.interval_cycles", "machine.switch_cost_cycles"):
    h = m.get("histograms", {}).get(name)
    if not isinstance(h, dict) or not all(
            k in h for k in ("total", "sum", "buckets")):
        print(f"fabric report: histogram '{name}' malformed: {h!r}",
              file=sys.stderr)
        failed = 1
if failed:
    sys.exit(1)
print(f"merged metrics OK: {len(m['counters'])} counter(s), "
      f"{len(m['gauges'])} gauge(s), {len(m['histograms'])} "
      f"histogram(s), machine.intervals="
      f"{m['counters']['machine.intervals']}")
PYEOF

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
        # Parse, and hold every RunMetrics entry to the schema-8
        # contract (host diagnostics and degradation counters included;
        # the "telemetry" and "metrics" objects are optional per bench,
        # as are the fabric keys — validated when present). An incomplete
        # sweep (lost runs) is a bench failure even when the binary
        # itself exited zero, and any failed_runs entries must carry
        # the full crash attribution.
        if ! python3 - "$json" <<'PYEOF' >&2
import json, sys
doc = json.load(open(sys.argv[1]))
if "bench" not in doc:
    sys.exit(0)  # google-benchmark native format, not a BenchReport
if doc.get("schema") != 8:
    print(f"{sys.argv[1]}: schema is {doc.get('schema')!r}, expected 8")
    sys.exit(1)
if not isinstance(doc.get("resumed_runs"), int):
    print(f"{sys.argv[1]}: schema-8 report has no 'resumed_runs' count")
    sys.exit(1)
# Schema 8: mid-cell checkpoint/restore accounting rides on every
# report (zero when checkpointing was off).
for key in ("checkpoint_resumes", "checkpoint_cycles_saved"):
    if not isinstance(doc.get(key), int):
        print(f"{sys.argv[1]}: schema-8 report has no integer '{key}'")
        sys.exit(1)
if "metrics" in doc:
    # Optional schema-8 merged metrics object: counters / gauges /
    # histograms keyed by metric name.
    m = doc["metrics"]
    if not isinstance(m, dict) or not all(
            isinstance(m.get(k), dict)
            for k in ("counters", "gauges", "histograms")):
        print(f"{sys.argv[1]}: 'metrics' is not a "
              "{counters, gauges, histograms} object")
        sys.exit(1)
if "workers" in doc:
    # Fabric-produced report: validate the fabric keys (schema 6).
    if not isinstance(doc["workers"], int):
        print(f"{sys.argv[1]}: 'workers' is not an integer")
        sys.exit(1)
    if not isinstance(doc.get("stolen_runs"), int):
        print(f"{sys.argv[1]}: fabric report has no 'stolen_runs'")
        sys.exit(1)
    for d in doc.get("worker_failures", []):
        for key in ("slot", "pid", "exit_signal", "exit_code",
                    "cells_lost"):
            if key not in d:
                print(f"{sys.argv[1]}: worker_failures entry is "
                      f"missing '{key}'")
                sys.exit(1)
failure_keys = ("index", "name", "message", "attempts", "timed_out",
                "crashed", "exit_signal", "exit_code",
                "attempts_backoff_ms",
                # Schema 8: stall-watchdog and mid-cell resume
                # attribution.
                "stalled", "checkpoint_resumes", "resumed_from_cycle")
for failure in doc.get("failed_runs", []):
    for key in failure_keys:
        if key not in failure:
            print(f"{sys.argv[1]}: failed_runs entry is missing '{key}'")
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
            "fallback_recoveries", "fallback_intervals")
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
