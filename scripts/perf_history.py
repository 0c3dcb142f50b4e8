#!/usr/bin/env python3
"""Hot-path performance history: append-only JSONL of every perf_gate /
bench capture, plus a regression check against that history.

Each line of results/history/hotpath.jsonl is one capture:

    {"sha": "<git sha>", "date": "<ISO-8601 UTC>", "host_cpus": N,
     "best": {"BM_HotPathRefThroughput": <refs_per_sec>, ...}}

Rates are host-specific, so the regression check only compares entries
recorded with the same host_cpus as the current report — an imperfect
but honest proxy for "same class of host" that keeps a laptop capture
from tripping the gate on a CI box.

Bench names are not enumerated here: any benchmark perf_gate.sh folds
into "best" is tracked automatically, and a name with no history yet
simply has nothing to regress against.

Usage:
  perf_history.py append [--report R] [--history-dir D] [--strict]
      Check the report against the existing history, then append it.
  perf_history.py check  [--report R] [--history-dir D] [--strict]
      Check only; the history is left untouched.

Options:
  --report R       bench report to record (default results/BENCH_hotpath.json)
  --history-dir D  history directory (default: <report dir>/history)
  --window N       compare against the best of the last N same-host
                   entries (default 20)
  --tolerance F    regression threshold as a fraction (default 0.10)
  --strict         exit 1 on regression instead of warning

Exit codes: 0 ok (or non-strict regression warning), 1 strict
regression, 2 setup problem (missing/malformed report).
"""

import argparse
import datetime
import json
import os
import sys

HISTORY_FILE = "hotpath.jsonl"


def load_report(path):
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        print(f"perf_history: cannot read report {path}: {e}",
              file=sys.stderr)
        sys.exit(2)
    best = doc.get("best")
    if not isinstance(best, dict) or not best:
        print(f"perf_history: report {path} has no 'best' rates",
              file=sys.stderr)
        sys.exit(2)
    return doc


def load_history(path):
    entries = []
    if not os.path.exists(path):
        return entries
    with open(path) as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
            except ValueError:
                print(f"perf_history: skipping malformed line "
                      f"{lineno} of {path}", file=sys.stderr)
                continue
            if isinstance(entry, dict) and isinstance(
                    entry.get("best"), dict):
                entries.append(entry)
    return entries


def check(report, history, window, tolerance):
    """Compare the report against the best same-host history rates.
    Returns a list of regression strings (empty = ok)."""
    host_cpus = report.get("host_cpus")
    same_host = [e for e in history if e.get("host_cpus") == host_cpus]
    recent = same_host[-window:]
    if not recent:
        print("perf_history: no comparable history "
              f"(host_cpus={host_cpus}); nothing to check against")
        return []
    floors = {}
    for entry in recent:
        for name, rate in entry["best"].items():
            if isinstance(rate, (int, float)):
                floors[name] = max(floors.get(name, 0.0), rate)
    regressions = []
    for name in sorted(report["best"]):
        got = report["best"][name]
        floor = floors.get(name)
        if floor is None or not isinstance(got, (int, float)):
            continue
        if got < (1.0 - tolerance) * floor:
            regressions.append(
                f"{name}: {got / 1e6:.1f} Mrefs/s is "
                f"{100 * (1 - got / floor):.0f}% below the history "
                f"best {floor / 1e6:.1f} Mrefs/s "
                f"(last {len(recent)} same-host entries)")
        else:
            print(f"perf_history: {name:38s} {got / 1e6:8.1f} Mrefs/s "
                  f"({100 * (got / floor - 1):+5.1f}% vs history best)")
    return regressions


def main():
    parser = argparse.ArgumentParser(
        description="append/check hot-path perf history")
    parser.add_argument("command", choices=["append", "check"])
    parser.add_argument("--report", default="results/BENCH_hotpath.json")
    parser.add_argument("--history-dir", default=None)
    parser.add_argument("--window", type=int, default=20)
    parser.add_argument("--tolerance", type=float, default=0.10)
    parser.add_argument("--strict", action="store_true")
    args = parser.parse_args()

    report = load_report(args.report)
    history_dir = args.history_dir or os.path.join(
        os.path.dirname(args.report) or ".", "history")
    history_path = os.path.join(history_dir, HISTORY_FILE)
    history = load_history(history_path)

    regressions = check(report, history, args.window, args.tolerance)
    for line in regressions:
        print(f"perf_history: REGRESSION vs history: {line}",
              file=sys.stderr)

    if args.command == "append":
        entry = {
            "sha": report.get("git_sha", "unknown"),
            "date": report.get(
                "date",
                datetime.datetime.now(datetime.timezone.utc).strftime(
                    "%Y-%m-%dT%H:%M:%SZ")),
            "host_cpus": report.get("host_cpus"),
            "best": report["best"],
        }
        os.makedirs(history_dir, exist_ok=True)
        with open(history_path, "a") as f:
            json.dump(entry, f, sort_keys=True)
            f.write("\n")
        print(f"perf_history: appended {entry['sha']} to {history_path} "
              f"({len(history) + 1} entries)")

    if regressions and args.strict:
        sys.exit(1)


if __name__ == "__main__":
    main()
