"""Compare two checkouts on the end-to-end benchmark, pair by pair.

    python3 benchmarks/e2e/compare.py PARENT_DIR CHANGE_DIR
        [--workload NAME ...] [--seconds S] [--seed N] [--out results.json]

Each directory is a checkout holding ``BENCHMARK.json`` and its
benchmark.  For every workload the script runs ``PAIRS`` (10) pairs,
each pair on its own seed, alternating which side runs first, and applies
the rule of the choosing-metrics guide (section 8) to every end-to-end
metric:

* ``gain`` — the change wins at least 9 of every 10 pairs (ties count
  for neither side) and the medians differ by more than the parent's
  interquartile range;
* ``WORSE`` — the change's median is worse than the parent's by more
  than the metric's bound in ``BENCHMARK.json``;
* ``unresolved`` — the parent's own spread (IQR / median) is wider than
  the bound, so "no worse" cannot be shown, unless every change run is
  better than every parent run;
* ``same`` — none of the above.

It prints one row per workload and exits 1 if any metric is ``WORSE``
or any run failed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

#: Alternating parent/change pairs per workload: the fewest the rule of
#: 9 wins in 10 can be applied to.
PAIRS = 10


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in ``checkout``; its last-line JSON (or a failure)."""
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run_e2e.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True,
    )
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        result = {"correct": False, "metrics": {}}
    result["returncode"] = proc.returncode
    return result


def judge(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """The verdict for one metric on one workload."""
    sign = 1.0 if better == "lower" else -1.0  # sign * (a - b) > 0: a is worse
    p_q1, p_med, p_q3 = statistics.quantiles(parent, n=4)
    c_q1, c_med, c_q3 = statistics.quantiles(change, n=4)
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    worse_by = sign * (c_med - p_med) / p_med if p_med else 0.0
    spread = (p_q3 - p_q1) / p_med if p_med else 0.0
    all_better = all(sign * (p - c) > 0 for p in parent for c in change)
    if wins >= 0.9 * len(parent) and sign * (p_med - c_med) > p_q3 - p_q1:
        verdict = "gain"
    elif worse_by > bound:
        verdict = "WORSE"
    elif spread > bound and not all_better:
        verdict = "unresolved"
    else:
        verdict = "same"
    return {"verdict": verdict, "parent_quartiles": (p_q1, p_med, p_q3),
            "change_quartiles": (c_q1, c_med, c_q3), "worse_by": worse_by,
            "parent_spread": spread, "wins": wins, "pairs": len(parent)}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per run (default: run_seconds)")
    parser.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    parser.add_argument("--out", type=Path, help="write every run's result here")
    args = parser.parse_args(argv)

    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    runs: dict[str, dict[str, list[dict]]] = {}
    failed_runs = 0
    for workload in workloads:
        sides = {"parent": [], "change": []}
        for i in range(PAIRS):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                result = run_once(getattr(args, side), workload, args.seed + i, seconds)
                sides[side].append(result)
                if result["returncode"] != 0 or not result["correct"]:
                    failed_runs += 1
                    print(f"run failed: {workload} {side} pair {i}", file=sys.stderr)
        runs[workload] = sides

    metrics = spec["end_to_end"]
    verdicts: dict[str, dict[str, dict]] = {}
    for workload, sides in runs.items():
        verdicts[workload] = {}
        for m in metrics:
            parent = [r["metrics"][m["name"]]["value"] for r in sides["parent"]
                      if m["name"] in r["metrics"]]
            change = [r["metrics"][m["name"]]["value"] for r in sides["change"]
                      if m["name"] in r["metrics"]]
            if len(parent) == len(change) == PAIRS:
                verdicts[workload][m["name"]] = judge(parent, change, m["better"], m["bound"])

    names = [m["name"] for m in metrics]
    print("| workload | " + " | ".join(names) + " |")
    print("|---" * (len(names) + 1) + "|")
    for workload, row in verdicts.items():
        cells = [
            f"{row[n]['verdict']} {row[n]['worse_by']:+.1%} ({row[n]['wins']}/{row[n]['pairs']})"
            if n in row else "no data"
            for n in names
        ]
        print(f"| {workload} | " + " | ".join(cells) + " |")
    print("cell: verdict, change median vs parent (+ is worse), pairs the change won")
    for workload, row in verdicts.items():
        for name, v in row.items():
            parent, change = v["parent_quartiles"], v["change_quartiles"]
            print(f"{workload}.{name}: parent " + " / ".join(f"{q:.6g}" for q in parent)
                  + f" (spread {v['parent_spread']:.1%}), change "
                  + " / ".join(f"{q:.6g}" for q in change) + "  [q1 / median / q3]")
    if args.out is not None:
        args.out.write_text(json.dumps({"runs": runs, "verdicts": verdicts}, indent=1) + "\n")
    worse = any(v["verdict"] == "WORSE" for row in verdicts.values() for v in row.values())
    return 1 if worse or failed_runs else 0


if __name__ == "__main__":
    sys.exit(main())
