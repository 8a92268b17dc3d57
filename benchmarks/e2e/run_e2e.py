"""One end-to-end benchmark: four workloads, their metrics, a per-layer breakdown.

Run from the repository root (no install needed; ``src/`` is put on the
path)::

    python3 benchmarks/e2e/run_e2e.py --workload engine --seed 1996 --trace 0
    python3 benchmarks/e2e/run_e2e.py --seed 1996 --trace 1 --out e2e-trace.json

``--workload`` may be repeated; without it all four run in turn.  Each
workload is a closed loop with one client (see ``workloads.py``), and
every op's output is checked against a reference built during set-up.

``--trace 0`` measures with no tracing and reports the end-to-end
metrics of ``BENCHMARK.json``: set-up time from ``PROBES`` fresh
processes, then ``--seconds`` of whole rounds, each op kind's time
being the median of its ops, scaled to a nominal host speed
(``hostspeed.py``; the service's poll-timed ops are not scaled).
``--trace 1`` spends half of ``--seconds`` untraced and half with every
layer's public functions wrapped from outside (``tracer.py``), and
reports the per-layer metrics plus a breakdown table per workload.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 0
when every op was correct, 1 when any op failed, 2 when the program
cannot be found.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}

#: Fresh processes timed for ``setup_s`` in an untraced run.
PROBES = 5


def ensure_paths() -> bool:
    """Put the program (``src/``) and this directory on ``sys.path``."""
    if not (ROOT / "src" / "repro").is_dir():
        return False
    for path in (str(ROOT / "src"), str(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)
    return True


def _percentile(values, fraction: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, min(len(ordered) - 1, math.ceil(fraction * len(ordered)) - 1))]


def _metric(name: str, value: float) -> dict:
    return {"value": value, "unit": UNITS[name]}


class Phase:
    """Rounds of one workload, traced or not, with their op outcomes."""

    def __init__(self) -> None:
        #: kind -> seconds of every measured op, scaled to the nominal
        #: host speed unless the workload's ops are timer-bound
        self.samples: dict[str, list[float]] = {}
        #: kind -> seconds of every measured op, as measured
        self.raw: dict[str, list[float]] = {}
        #: wall seconds of each measured round, kernel samples left out
        self.round_s: list[float] = []
        #: host-speed scale of each measured round and probe
        self.scales: list[float] = []
        #: (set-up s, first op s, correct) per fresh-process probe, scaled
        self.probes: list[tuple[float, float, bool]] = []
        self.attempted = 0
        self.failed = 0

    def record(self, ops, scale: float, measured: bool = True) -> None:
        """Check a round's ops; keep their times unless it is a warm-up."""
        for kind, seconds, check in ops:
            self.attempted += 1
            if not check():
                self.failed += 1
            if measured:
                self.raw.setdefault(kind, []).append(seconds)
                self.samples.setdefault(kind, []).append(seconds * scale)

    def record_probe(self, probe: tuple[float, float, bool], scale: float) -> None:
        setup_s, first_s, ok = probe
        self.probes.append((setup_s * scale, first_s * scale, ok))
        self.scales.append(scale)
        self.attempted += 1
        self.failed += not ok


def run_phase(workload, seconds: float, traced: bool, probes: int = 0) -> tuple[Phase, object]:
    """A warm-up round, then whole rounds for ``seconds``.

    The ``probes`` fresh-process set-up probes are spread evenly over
    the measured time (their own time is not counted), so one burst of
    load from outside cannot land on most of them.  Each round's op
    times, and each probe's, are scaled by the host speed measured
    around them (``hostspeed.py``).
    """
    from tracer import Tracer

    max_rounds = 50 * int(seconds) + 16
    phase = Phase()
    speed = workload.speed
    workload.begin_phase(traced, max_rounds)
    tracer = None
    try:
        ops = workload.round(None)
        phase.record(ops, speed.factor()[0], measured=False)
        workload.after_round()
        if traced:
            workload.start_tracing()
            workload.reset_notes()
            tracer = Tracer(workload.seams())
        measured = 0.0
        while not phase.round_s or len(phase.probes) < probes or (
            measured < seconds and len(phase.round_s) < max_rounds
        ):
            if len(phase.probes) < probes and (
                measured * probes >= len(phase.probes) * seconds
                or len(phase.round_s) >= max_rounds
            ):
                speed.sample()
                probe = workload.probe(str(len(phase.probes)))
                speed.sample()
                phase.record_probe(probe, speed.factor()[0])
                continue
            start = time.perf_counter()
            with tracer if tracer is not None else contextlib.nullcontext():
                ops = workload.round(tracer)
            elapsed = time.perf_counter() - start
            scale, kernel_s = speed.factor()
            phase.round_s.append(elapsed - kernel_s)
            phase.scales.append(scale)
            phase.record(ops, 1.0 if workload.timer_bound else scale)
            workload.after_round()
            measured += time.perf_counter() - start
    finally:
        workload.end_phase()
    return phase, tracer


def end_to_end(workload, phase: Phase) -> dict:
    from workloads import COLD, WARM

    values = {
        "setup_s": statistics.median(p[0] for p in phase.probes),
        "cold_ms": statistics.median(phase.samples[COLD]) * 1e3,
        "warm_ms": statistics.median(phase.samples[WARM]) * 1e3,
        "peak_rss_mb": workload.peak_rss_mb(),
    }
    return {m["name"]: _metric(m["name"], values[m["name"]]) for m in SPEC["end_to_end"]}


def per_layer(workload, untraced: Phase, traced: Phase, tracer) -> tuple[dict, dict, list]:
    """(driver metrics, every per-layer number, breakdown rows)."""
    from workloads import LAYER_ROWS

    stats = {k: list(v) for k, v in tracer.stats.items()}
    stats.update(workload.server_stats().get("stats", {}))
    rounds = len(traced.round_s)
    per_round_ms = 1e3 / rounds
    values: dict[str, float] = {
        f"{name}.calls": v[0] / rounds for name, v in stats.items()
    }
    values["suite.builder.calls"] = sum(
        v[0] for k, v in stats.items() if k.startswith("suite.builder.")) / rounds
    # Means, not medians: every other number in the table is a per-round
    # mean, and the rows must add up to the wall time they are shares of.
    wall_s = statistics.fmean(traced.round_s)
    untraced_wall_s = statistics.fmean(untraced.round_s)
    unattributed_s = workload.unattributed_s(stats)

    def scaled_wall_s(phase: Phase) -> float:  # the two halves may meet different host speeds
        if workload.timer_bound:
            return statistics.fmean(phase.round_s)
        return statistics.fmean(r * s for r, s in zip(phase.round_s, phase.scales))

    values.update({
        "floor_ms": workload.floor_s(stats) * per_round_ms,
        "io_ms": sum(stats.get(n, (0, 0.0, 0.0))[2] for n in workload.io_names())
        * per_round_ms,
        "unattributed_ms": unattributed_s * per_round_ms,
        "trace_overhead_frac": scaled_wall_s(traced) / scaled_wall_s(untraced) - 1.0,
        "wall_ms": wall_s * 1e3,
        "untraced_wall_ms": untraced_wall_s * 1e3,
    })
    values.update(workload.layer_metrics(stats, rounds, untraced.raw))

    self_s = {name: v[2] for name, v in stats.items()}
    self_s.update(workload.derived_self_s(stats))
    rows = [
        (name, self_s[name] * per_round_ms, stats.get(name, (0,))[0] / rounds, what)
        for name, what in LAYER_ROWS
        if self_s.get(name)
    ]
    rows.append(("unattributed", unattributed_s * per_round_ms, 0,
                 "op time outside every wrapped layer"))
    metrics = {
        m["name"]: _metric(m["name"], values.get(m["name"], 0.0)) for m in SPEC["per_layer"]
    }
    return metrics, values, rows


def render_breakdown(name: str, values: dict, rows: list, rounds: int) -> str:
    """The per-workload table: compute floor, layers, unattributed, overhead."""
    wall = values["wall_ms"]
    floor_what = {
        "sweep": "grid kernel (machine.grid.cost)",
        "service": "builders of cold jobs, in the server's pool worker",
        "regen": "experiment builders of the warm passes (cold passes run in a fresh process)",
    }.get(name, "experiment builders")
    lines = [
        f"== {name}: per-layer breakdown, {rounds} traced rounds, ms per round ==",
        f"pure-compute floor: {values['floor_ms']:.3f} ms/round "
        f"({values['floor_ms'] / wall:.1%} of wall) - {floor_what}",
        "",
        f"| {'Layer':<32} | {'self ms':>10} | {'% wall':>7} | {'calls':>9} | What |",
        f"|{'-' * 34}|{'-' * 12}|{'-' * 9}|{'-' * 11}|------|",
    ]
    for layer, ms, calls, what in rows:
        calls_text = f"{calls:9.2f}" if calls else " " * 9
        lines.append(f"| {layer:<32} | {ms:10.3f} | {ms / wall:7.1%} | {calls_text} | {what} |")
    lines.append(f"| {'total wall (traced)':<32} | {wall:10.3f} | {1:7.1%} | {'':9} | |")
    lines.append(
        f"tracing overhead: {values['trace_overhead_frac']:+.1%} "
        f"{'as measured' if name == 'service' else 'at equal host speed'} "
        f"(measured: traced {wall:.3f} ms/round vs untraced {values['untraced_wall_ms']:.3f})"
    )
    if name == "service":
        lines.append("server rows run inside the client's round trips and poll sleeps; "
                     "they overlap the client rows and do not add up to wall time.")
    return "\n".join(lines)


def kind_summary(phase: Phase) -> dict:
    return {
        kind: {"p50_ms": statistics.median(v) * 1e3, "p90_ms": _percentile(v, 0.90) * 1e3,
               "n": len(v), "measured_p50_ms": statistics.median(phase.raw[kind]) * 1e3}
        for kind, v in sorted(phase.samples.items())
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 probes: int = PROBES) -> dict:
    """Run one workload; returns its result and full report."""
    from workloads import WORKLOADS

    work = ROOT / ".e2e_work" / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    workload = WORKLOADS[name](ROOT, work, seed)
    report: dict = {}
    try:
        workload.setup()
        if trace:
            untraced, _ = run_phase(workload, seconds / 2, traced=False)
            traced, tracer = run_phase(workload, seconds / 2, traced=True)
            metrics, values, rows = per_layer(workload, untraced, traced, tracer)
            phases = (untraced, traced)
            report.update(layers=values, hits=tracer.hits | workload.server_stats().get("hits", {}),
                          kinds=kind_summary(untraced))
            report["table"] = render_breakdown(name, values, rows, len(traced.round_s))
        else:
            phase, _ = run_phase(workload, seconds, traced=False, probes=probes)
            metrics = end_to_end(workload, phase)
            phases = (phase,)
            report.update(kinds=kind_summary(phase),
                          probes=[{"setup_s": s, "first_op_s": f, "ok": ok}
                                  for s, f, ok in phase.probes])
        report["host_scale"] = statistics.median(phases[0].scales)
        attempted = sum(p.attempted for p in phases)
        failed = sum(p.failed for p in phases) + workload.late_failures
    finally:
        workload.teardown()
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # only when no other run is using it
    return {"attempted": attempted, "failed": failed, "metrics": metrics, "report": report}


def _print_workload(name: str, result: dict, trace: bool) -> None:
    report = result["report"]
    print(f"== {name} ({'traced' if trace else 'untraced'}) ==")
    for metric, entry in result["metrics"].items():
        print(f"  {metric:<40} {entry['value']:14.6f} {entry['unit']}")
    for kind, summary in report["kinds"].items():
        print(f"  op {kind:<12} p50 {summary['p50_ms']:10.3f} ms  "
              f"p90 {summary['p90_ms']:10.3f} ms  n={summary['n']}  "
              f"(measured p50 {summary['measured_p50_ms']:.3f} ms)")
    print(f"  host speed scale: {report['host_scale']:.4f} (median; 1 = nominal, "
          "< 1 = slower host)")
    print(f"  ops: {result['attempted']} attempted, {result['failed']} failed")
    if trace:
        print(report["table"])


def _probe_main(args) -> int:
    """Fresh-process half of a set-up probe (see ``Workload.probe``)."""
    from workloads import WORKLOADS

    workload = WORKLOADS[args.probe](ROOT, Path(args.work), args.seed)
    workload.child_ready()
    print("READY", flush=True)
    start = time.perf_counter()
    digest = workload.child_first_op()
    print(json.dumps({"first_op_s": time.perf_counter() - start, "digest": digest}), flush=True)
    return 0


def main(argv: list[str] | None = None) -> int:
    names = [w["name"] for w in SPEC["workloads"]]
    parser = argparse.ArgumentParser(description="End-to-end benchmark (see module docstring).")
    parser.add_argument("--workload", action="append", choices=names,
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=1996)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"],
                        help="measured seconds per workload (default: %(default)s)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="write the full JSON report here")
    parser.add_argument("--probe", choices=names, help=argparse.SUPPRESS)
    parser.add_argument("--work", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not ensure_paths():
        print(f"error: the program is not here: no {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    from workloads import stop_resource_tracker

    try:
        return _probe_main(args) if args.probe else _run(args, names)
    finally:
        stop_resource_tracker()


def _run(args, names: list[str]) -> int:
    selected = args.workload or names
    results = {}
    for name in selected:
        results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
        _print_workload(name, results[name], bool(args.trace))
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    if len(selected) == 1:
        metrics = results[selected[0]]["metrics"]
    else:
        metrics = {f"{name}.{metric}": entry for name, r in results.items()
                   for metric, entry in r["metrics"].items()}
    if args.out is not None:
        args.out.write_text(json.dumps(
            {"seed": args.seed, "seconds": args.seconds, "trace": args.trace,
             "workloads": results}, indent=1, sort_keys=True) + "\n")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
