#!/usr/bin/env bash
# Hot-path performance gate: run the BM_HotPath* micro benchmarks from
# bench_micro_runtime best-of-N (host timing on shared machines is very
# noisy; the max over several passes is the stable statistic), write the
# merged numbers to results/BENCH_hotpath.json, and fail when any bench
# regresses more than 10% against the committed baseline in
# scripts/perf_baseline.json.
#
# A first-round failure is not trusted: the gate re-runs the full
# best-of-N measurement once more and re-evaluates over the union of
# both rounds (best-of-2N), so a transient host stall has two chances to
# be out-raced before the gate calls a regression real.
#
# Also gates two self-relative (machine-independent) overhead bounds on
# the reference hot path:
#   - telemetry: BM_HotPathRefThroughputTelemetry (same stream, event
#     log attached) must stay within 2% of BM_HotPathRefThroughput.
#     Telemetry records only at scheduling points, so the per-reference
#     path may not slow down even with the feature enabled — which
#     bounds the disabled path (one null check per interval) from above.
#   - metrics + profiler: BM_HotPathRefThroughputMetrics (metrics
#     registry attached, phase profiler armed) must also stay within 2%
#     — metrics record at interval/switch boundaries only.
#
# Every evaluated run is appended to results/history/hotpath.jsonl
# ({sha, date, host_cpus, best}) via scripts/perf_history.py, which also
# reports drift against the recorded same-host history (informational;
# the committed baseline is what gates).
#
# Usage: perf_gate.sh [--repeats N] [--update-baseline] [--allow-regression]
#   --repeats N         passes per benchmark; best-of-N is kept (default 5)
#   --update-baseline   rewrite scripts/perf_baseline.json from this run
#   --allow-regression  report regressions but exit 0 (manual override;
#                       ATL_PERF_OVERRIDE=1 does the same)
set -euo pipefail
cd "$(dirname "$0")/.."

REPEATS=5
UPDATE=0
ALLOW="${ATL_PERF_OVERRIDE:-0}"
while [ $# -gt 0 ]; do
    case "$1" in
      --repeats)
        [ $# -ge 2 ] || { echo "--repeats needs an argument" >&2; exit 2; }
        REPEATS="$2"; shift 2 ;;
      --repeats=*)
        REPEATS="${1#--repeats=}"; shift ;;
      --update-baseline)
        UPDATE=1; shift ;;
      --allow-regression)
        ALLOW=1; shift ;;
      *)
        echo "unknown argument: $1" >&2; exit 2 ;;
    esac
done

BENCH=build/bench/bench_micro_runtime
if [ ! -x "$BENCH" ]; then
    echo "perf_gate: $BENCH is not built (run check.sh or cmake first)" >&2
    exit 2
fi

RESULTS="${ATL_RESULTS_DIR:-results}"
mkdir -p "$RESULTS"
tmpdir=$(mktemp -d)
trap 'rm -rf "$tmpdir"' EXIT

# Capture provenance for the report, the baseline and the history
# (schema v2: git_sha + date ride along with the rates).
GIT_SHA=$(git rev-parse HEAD 2>/dev/null || echo unknown)
CAPTURE_DATE=$(date -u +%Y-%m-%dT%H:%M:%SZ)

run_round() {
    local round="$1"
    mkdir -p "$tmpdir/round_$round"
    for i in $(seq 1 "$REPEATS"); do
        "$BENCH" --benchmark_filter='BM_HotPath|BM_MachineParallelSpeedup' \
            --benchmark_format=json \
            > "$tmpdir/round_$round/pass_$i.json" 2>/dev/null
    done
}

# Merge every pass of every round run so far, write the report, and
# evaluate against the baseline. Exit codes: 0 ok, 1 regression, 2 setup.
evaluate() {
    local rounds="$1"
    REPEATS="$REPEATS" UPDATE="$UPDATE" ALLOW="$ALLOW" ROUNDS="$rounds" \
    RESULTS="$RESULTS" TMPDIR_JSON="$tmpdir" \
    GIT_SHA="$GIT_SHA" CAPTURE_DATE="$CAPTURE_DATE" \
    python3 - <<'EOF'
import json, glob, os, sys

repeats = int(os.environ["REPEATS"])
rounds = int(os.environ["ROUNDS"])
best = {}
for path in glob.glob(
        os.path.join(os.environ["TMPDIR_JSON"], "round_*", "pass_*.json")):
    with open(path) as f:
        doc = json.load(f)
    for bench in doc.get("benchmarks", []):
        name = bench["name"].split("/")[0]
        rate = bench.get("refs_per_sec")
        if rate is None:
            continue
        best[name] = max(best.get(name, 0.0), rate)

if not best:
    print("perf_gate: no BM_HotPath benchmarks produced refs_per_sec",
          file=sys.stderr)
    sys.exit(2)

host_cpus = os.cpu_count() or 1
schema_note = ("refs_per_sec is best-of-N across rounds x repeats passes; "
               "rates are host-specific (host_cpus records the measuring "
               "host's core count) - compare only same-host runs, the "
               "telemetry gate is the machine-independent check")
out = {"bench": "BENCH_hotpath", "schema": schema_note,
       "host_cpus": host_cpus, "repeats": repeats, "rounds": rounds,
       "statistic": "best-of-N refs_per_sec", "best": best,
       "git_sha": os.environ.get("GIT_SHA", "unknown"),
       "date": os.environ.get("CAPTURE_DATE", "")}
out_path = os.path.join(os.environ["RESULTS"], "BENCH_hotpath.json")
with open(out_path, "w") as f:
    json.dump(out, f, indent=2, sort_keys=True)
    f.write("\n")
print(f"perf_gate: wrote {out_path} (round {rounds})")

baseline_path = "scripts/perf_baseline.json"
baseline = {}
if os.path.exists(baseline_path):
    with open(baseline_path) as f:
        doc = json.load(f)
    # v2 schema nests the rates under "best"; v1 was the bare mapping.
    baseline = doc.get("best", doc) if isinstance(doc, dict) else {}

for name in sorted(best):
    line = f"  {name:38s} {best[name] / 1e6:8.1f} Mrefs/s"
    floor = baseline.get(name)
    if floor:
        line += f"  ({100 * (best[name] / floor - 1):+6.1f}% vs baseline)"
    print(line)

if os.environ["UPDATE"] == "1":
    doc = {"schema": schema_note, "host_cpus": host_cpus, "best": best,
           "git_sha": os.environ.get("GIT_SHA", "unknown"),
           "date": os.environ.get("CAPTURE_DATE", "")}
    with open(baseline_path, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"perf_gate: baseline rewritten at {baseline_path}")
    sys.exit(0)

if not baseline:
    print(f"perf_gate: no baseline at {baseline_path}; "
          "run with --update-baseline to create one", file=sys.stderr)
    sys.exit(2)

failed = []
for name, floor in sorted(baseline.items()):
    got = best.get(name)
    if got is None:
        failed.append(f"{name}: benchmark missing from run")
        continue
    if got < 0.9 * floor:
        failed.append(f"{name}: {got / 1e6:.1f} Mrefs/s is "
                      f"{100 * (1 - got / floor):.0f}% below the "
                      f"baseline {floor / 1e6:.1f} Mrefs/s")

# Telemetry overhead gate: self-relative, best-of-N on both sides.
plain = best.get("BM_HotPathRefThroughput")
telem = best.get("BM_HotPathRefThroughputTelemetry")
if plain is None or telem is None:
    failed.append("telemetry gate: BM_HotPathRefThroughput{,Telemetry} "
                  "pair missing from run")
elif telem < 0.98 * plain:
    failed.append(f"telemetry overhead: {telem / 1e6:.1f} Mrefs/s with "
                  f"an event log attached is "
                  f"{100 * (1 - telem / plain):.1f}% below the plain "
                  f"hot path {plain / 1e6:.1f} Mrefs/s (limit 2%)")
else:
    print(f"perf_gate: telemetry overhead "
          f"{100 * (1 - telem / plain):+.1f}% on the ref hot path "
          "(limit 2%)")

# Metrics + profiler overhead gate: same bound, same statistic, with
# the registry attached and the phase profiler armed.
with_metrics = best.get("BM_HotPathRefThroughputMetrics")
if plain is None or with_metrics is None:
    failed.append("metrics gate: BM_HotPathRefThroughput{,Metrics} "
                  "pair missing from run")
elif with_metrics < 0.98 * plain:
    failed.append(f"metrics overhead: {with_metrics / 1e6:.1f} Mrefs/s "
                  f"with a metrics registry and the phase profiler on "
                  f"is {100 * (1 - with_metrics / plain):.1f}% below "
                  f"the plain hot path {plain / 1e6:.1f} Mrefs/s "
                  f"(limit 2%)")
else:
    print(f"perf_gate: metrics+profiler overhead "
          f"{100 * (1 - with_metrics / plain):+.1f}% on the ref hot "
          "path (limit 2%)")

if failed:
    print("perf_gate: REGRESSION (>10% below baseline, "
          "or telemetry/metrics overhead >2%)", file=sys.stderr)
    for line in failed:
        print(f"  {line}", file=sys.stderr)
    sys.exit(1)

print("perf_gate: OK (all benches within 10% of baseline)")
EOF
}

# Append the evaluated run to the perf history (informational drift
# report; the committed baseline is what gates).
record_history() {
    python3 scripts/perf_history.py append \
        --report "$RESULTS/BENCH_hotpath.json" \
        --history-dir "$RESULTS/history" || true
}

echo "perf_gate: $REPEATS passes of BM_HotPath* + BM_MachineParallelSpeedup"
run_round 1
status=0
evaluate 1 || status=$?
if [ "$status" -eq 0 ]; then
    record_history
    exit 0
elif [ "$status" -eq 2 ]; then
    exit 2
fi

if [ "$ALLOW" = "1" ]; then
    echo "perf_gate: override active, not failing" >&2
    exit 0
fi

echo "perf_gate: first round regressed; confirming with a fresh" \
     "best-of-$REPEATS round before failing" >&2
run_round 2
status=0
evaluate 2 || status=$?
if [ "$status" -eq 0 ]; then
    record_history
    exit 0
elif [ "$status" -eq 2 ]; then
    exit 2
fi
record_history
echo "perf_gate: regression confirmed over two rounds; rerun with" \
     "--allow-regression (or set ATL_PERF_OVERRIDE=1) to override, or" \
     "--update-baseline after an intentional change" >&2
exit 1
