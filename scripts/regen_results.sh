#!/usr/bin/env bash
# Regenerate the deterministic bench captures under results/, or check
# that the current build reproduces them exactly.
#
# Usage: scripts/regen_results.sh [--check] [--build DIR]
#   (default)    run every deterministic bench: its stdout becomes
#                results/<bench>.txt and its JSON report lands in results/
#   --check      run every bench into a temporary ATL_RESULTS_DIR and fail
#                on any difference: stdout against results/<bench>.txt,
#                the fig5 trace summary against its committed copy, and
#                each JSON report against the one of the same name in
#                results/ (the committed fig5 trace always; a bench report
#                when an earlier regeneration left one there, since reports
#                are gitignored), once the host keys below are stripped
#   --build DIR  take the bench binaries from DIR/bench (default: build)
#
# Host keys: wall-clock fields that differ on every run. Everything else
# in stdout and in the JSON is simulated and reproduces bit-for-bit.
HOST_KEYS="host_seconds refs_per_sec"
#
# Benches that print host timings (bench_micro_runtime,
# bench_parallel_scaling) and the fork-based sweeps (bench_crash_matrix,
# bench_fabric_matrix) are not listed. bench_table3_priority_cost runs
# with its google-benchmark timings filtered out: its stdout is the
# deterministic Table 3 either way.
set -euo pipefail
cd "$(dirname "$0")/.."

BENCHES=(
    bench_table1_config
    bench_fig4_random_walk
    bench_fig5_footprints
    bench_fig6_mpi
    bench_fig7_anomalies
    bench_fig8_uniprocessor
    bench_fig9_smp
    bench_table3_priority_cost
    bench_table5_summary
    bench_appendix_markov
    bench_ablation_annotations
    bench_ablation_associativity
    bench_ablation_placement
    bench_ablation_geometry
    bench_ablation_policy_divergence
    bench_fault_matrix
)

CHECK=0
BUILD=build
while [ $# -gt 0 ]; do
    case "$1" in
      --check) CHECK=1; shift ;;
      --build)
        [ $# -ge 2 ] || { echo "--build needs an argument" >&2; exit 2; }
        BUILD="$2"
        shift 2
        ;;
      *) echo "unknown argument: $1" >&2; exit 2 ;;
    esac
done

bench_args() {
    case "$1" in
      bench_table3_priority_cost)
        echo "--benchmark_filter=^\$ --benchmark_out=/dev/null" ;;
    esac
}

for b in "${BENCHES[@]}"; do
    [ -x "$BUILD/bench/$b" ] || {
        echo "regen_results: $BUILD/bench/$b is not built" >&2
        exit 2
    }
done

if [ "$CHECK" -eq 0 ]; then
    for b in "${BENCHES[@]}"; do
        echo "==== $b" >&2
        # shellcheck disable=SC2046
        ATL_RESULTS_DIR=results "$BUILD/bench/$b" $(bench_args "$b") \
            > "results/$b.txt"
    done
    exit 0
fi

out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT
failed=0
for b in "${BENCHES[@]}"; do
    # shellcheck disable=SC2046
    if ! ATL_RESULTS_DIR="$out" "$BUILD/bench/$b" $(bench_args "$b") \
            > "$out/$b.txt" 2> "$out/$b.err"; then
        echo "FAIL: $b exited non-zero" >&2
        cat "$out/$b.err" >&2
        failed=1
        continue
    fi
    if ! diff -u "results/$b.txt" "$out/$b.txt" >&2; then
        echo "FAIL: $b stdout differs from results/$b.txt" >&2
        failed=1
    fi
done

if ! diff -u results/trace_fig5_lff_summary.txt \
        "$out/trace_fig5_lff_summary.txt" >&2; then
    echo "FAIL: trace_fig5_lff_summary.txt differs" >&2
    failed=1
fi

# JSON: compare every fresh report that has a reference in results/.
python3 - "$out" "$HOST_KEYS" <<'PYEOF' || failed=1
import json, os, sys

out, host_keys = sys.argv[1], set(sys.argv[2].split())

def strip(node):
    if isinstance(node, dict):
        return {k: strip(v) for k, v in node.items() if k not in host_keys}
    if isinstance(node, list):
        return [strip(v) for v in node]
    return node

def first_diff(a, b, path="$"):
    if type(a) is not type(b):
        return path
    if isinstance(a, dict):
        for k in sorted(set(a) | set(b)):
            if k not in a or k not in b:
                return f"{path}.{k}"
            d = first_diff(a[k], b[k], f"{path}.{k}")
            if d:
                return d
        return None
    if isinstance(a, list):
        if len(a) != len(b):
            return f"{path} (length {len(a)} vs {len(b)})"
        for i, (x, y) in enumerate(zip(a, b)):
            d = first_diff(x, y, f"{path}[{i}]")
            if d:
                return d
        return None
    return None if a == b else path

bad = compared = 0
for name in sorted(os.listdir(out)):
    ref = os.path.join("results", name)
    if not name.endswith(".json") or not os.path.exists(ref):
        continue
    with open(ref) as f:
        want = json.load(f)
    with open(os.path.join(out, name)) as f:
        got = json.load(f)
    if "bench" not in got and "traceEvents" not in got:
        continue  # google-benchmark native format: host timings only
    compared += 1
    where = first_diff(strip(want), strip(got))
    if where:
        print(f"FAIL: {name} differs from {ref} at {where}",
              file=sys.stderr)
        bad += 1
print(f"regen_results: {compared} JSON report(s) compared, {bad} differ",
      file=sys.stderr)
sys.exit(1 if bad else 0)
PYEOF

if [ "$failed" -ne 0 ]; then
    echo "regen_results: results/ is NOT reproduced by $BUILD" >&2
    exit 1
fi
echo "regen_results: ${#BENCHES[@]} benches reproduce results/ exactly"
