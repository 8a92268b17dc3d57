"""Grid-costing throughput: one NumPy pass vs a per-machine loop.

The workload is the explore engine's reason to exist: cost the full
registered trace suite against a ~1000-machine parameter sweep anchored
at the calibrated SX-4 (clock x pipes x banks), with the six canonical
presets embedded as the parity anchor.  The grid path prices all
machines in one broadcasted pass per trace; the loop baseline
materializes each grid row as a :class:`Processor` and executes the
suite per machine through ``Processor.execute`` — the best the repo
could do before :mod:`repro.machine.grid`.

The parity gate runs first and is exact: every canonical preset's
embedded grid column must equal the per-op oracle bit-for-bit on every
trace and field.  The oracle (``math.fsum`` of
``Processor.per_op_cycles``) walks the components' per-op methods and
shares no code with the columnar model that both the grid and
``Processor.execute`` evaluate, so the gate compares two independent
implementations.  Results land in ``BENCH_explore.json`` (same shape
conventions as ``BENCH_engine.json``).

Standalone (writes the JSON report, exit 1 on parity drift)::

    python benchmarks/bench_explore_grid.py --points 1000

Under pytest the parity gate runs as an ordinary test::

    PYTHONPATH=src python -m pytest benchmarks/bench_explore_grid.py
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

from repro.analysis.traces import TRACE_BUILDERS, build_registered_trace
from repro.explore.engine import cost_suite_grid
from repro.explore.sweep import ParameterSweep, linear_axis, log_axis
from repro.machine.grid import MachineGrid, cost_trace_grid
from repro.machine.presets import CANONICAL_PRESET_IDS, canonical_machines
from repro.machine.processor import ExecutionReport

__all__ = [
    "build_sweep",
    "oracle_report",
    "check_grid_parity",
    "measure_grid",
    "measure_loop",
    "run_benchmark",
    "main",
]

#: Exactly-compared quantities: ExecutionReport attributes and the
#: GridTraceCost columns of the same name.
PARITY_FIELDS = ("cycles", "seconds", "mflops", "bandwidth_bytes_per_s")

#: Grid rows the loop baseline materializes and executes (timing the
#: full thousand serially would dominate the benchmark's own runtime;
#: per-machine cost is flat, so a slice extrapolates honestly).
LOOP_SAMPLE_MACHINES = 64


def build_sweep(points: int) -> ParameterSweep:
    """A 3-axis SX-4-anchored sweep of ~``points`` machines + presets."""
    banks_steps = 5
    pipes_steps = 8
    clock_steps = max(1, round(points / (banks_steps * pipes_steps)))
    return ParameterSweep(
        anchor="sx4",
        axes=(
            linear_axis("clock.period_ns", 4.0, 16.0, clock_steps),
            linear_axis("vector.pipes", 2, 16, pipes_steps),
            log_axis("memory.banks", 128, 2048, banks_steps),
        ),
        include_presets=True,
    )


def oracle_report(processor, trace) -> ExecutionReport:
    """The per-op oracle's report: cycles are the ``math.fsum`` of
    ``Processor.per_op_cycles``, seconds that total through the clock,
    and the rates follow from the trace's own per-op aggregates."""
    cycles = math.fsum(processor.per_op_cycles(trace))
    return ExecutionReport(
        machine=processor.name,
        trace_name=trace.name,
        cycles=cycles,
        seconds=processor.clock.seconds(cycles),
        raw_flops=trace.raw_flops,
        flop_equivalents=trace.flop_equivalents,
        words_moved=trace.words_moved,
    )


def check_grid_parity(grid: MachineGrid) -> list[str]:
    """Exact grid-vs-oracle comparison on the embedded canonical presets.

    The presets occupy the first rows of an ``include_presets`` grid;
    each must match the per-op oracle bit-for-bit on every registered
    trace.
    """
    machines = canonical_machines()
    mismatches = [
        f"grid row {j} is {grid.names[j]!r}, expected preset {name!r}"
        for j, name in enumerate(machines)
        if grid.names[j] != name
    ]
    if mismatches:
        return mismatches
    for trace_id in TRACE_BUILDERS:
        trace = build_registered_trace(trace_id)
        cost = cost_trace_grid(trace, grid)
        for j, (name, processor) in enumerate(machines.items()):
            oracle = oracle_report(processor, trace)
            for field in PARITY_FIELDS:
                lhs, rhs = getattr(oracle, field), float(getattr(cost, field)[j])
                if lhs != rhs:
                    mismatches.append(
                        f"{name} / {trace_id}: {field} oracle={lhs!r} grid={rhs!r}"
                    )
    return mismatches


def measure_grid(sweep: ParameterSweep, rounds: int = 3) -> tuple[float, int]:
    """Best-of-``rounds`` seconds for one cold full-suite grid costing.

    Each round builds the grid afresh — the honest "price a new design
    space" number.
    """
    best = float("inf")
    n_machines = 0
    for _ in range(rounds):
        grid = sweep.build()
        n_machines = grid.n_machines
        start = time.perf_counter()
        cost_suite_grid(grid)
        best = min(best, time.perf_counter() - start)
    return best, n_machines


def measure_loop(grid: MachineGrid, sample: int = LOOP_SAMPLE_MACHINES) -> tuple[float, int]:
    """Seconds per machine for the per-machine compiled-loop baseline.

    Materializes ``sample`` grid rows and executes the full suite on
    each; returns (seconds per machine, machines actually timed).
    """
    sample = min(sample, grid.n_machines)
    suite = [build_registered_trace(trace_id) for trace_id in TRACE_BUILDERS]
    processors = [grid.materialize(i) for i in range(sample)]
    start = time.perf_counter()
    for processor in processors:
        for trace in suite:
            processor.execute(trace)
    elapsed = time.perf_counter() - start
    return elapsed / sample, sample


def run_benchmark(points: int = 1000, rounds: int = 3) -> dict:
    """Parity gate + timing; returns the BENCH_explore.json payload."""
    sweep = build_sweep(points)
    grid = sweep.build()
    mismatches = check_grid_parity(grid)

    grid_s, n_machines = measure_grid(sweep, rounds)
    loop_s_per_machine, loop_sample = measure_loop(grid)
    loop_s_projected = loop_s_per_machine * n_machines

    suite_size = len(TRACE_BUILDERS)
    ops = sum(len(build_registered_trace(t)) for t in TRACE_BUILDERS)
    return {
        "schema_version": 1,
        "benchmark": "explore_grid_throughput",
        "anchor": "sx4",
        "workload": (
            "cost all registered traces against a clock x pipes x banks "
            "sweep (cold grid, presets embedded)"
        ),
        "machines": n_machines,
        "sweep_points": sweep.n_points,
        "traces": suite_size,
        "ops": ops,
        "rounds": rounds,
        "grid_s_per_sweep": grid_s,
        "machines_per_s_grid": n_machines / grid_s if grid_s > 0 else float("inf"),
        "loop_s_per_machine": loop_s_per_machine,
        "loop_sample_machines": loop_sample,
        "loop_s_projected": loop_s_projected,
        "speedup": loop_s_projected / grid_s if grid_s > 0 else float("inf"),
        "parity": {
            "fields": list(PARITY_FIELDS),
            "oracle": "math.fsum of Processor.per_op_cycles",
            "machines_checked": len(CANONICAL_PRESET_IDS),
            "traces_checked": suite_size,
            "exact": not mismatches,
            "mismatches": mismatches,
        },
    }


def test_grid_matches_the_per_op_oracle_on_embedded_presets():
    """Pytest face of the parity gate: zero drift on the canonical rows."""
    assert check_grid_parity(build_sweep(50).build()) == []


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Benchmark grid vs per-machine suite costing; write BENCH_explore.json."
    )
    parser.add_argument("--points", type=int, default=1000,
                        help="approximate sweep size (default: 1000)")
    parser.add_argument("--rounds", type=int, default=3,
                        help="timing rounds (best is kept)")
    parser.add_argument("--out", default=str(Path(__file__).resolve().parent.parent
                                             / "BENCH_explore.json"),
                        help="report path (default: repo-root BENCH_explore.json)")
    parser.add_argument("--min-speedup", type=float, default=None, metavar="X",
                        help="fail unless the grid is at least X times faster")
    args = parser.parse_args(argv if argv is not None else sys.argv[1:])

    payload = run_benchmark(points=args.points, rounds=args.rounds)
    Path(args.out).write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")

    parity = payload["parity"]
    print(f"sweep: {payload['machines']} machines x {payload['traces']} traces "
          f"({payload['ops']} ops each suite)")
    print(f"grid:  {payload['grid_s_per_sweep'] * 1e3:9.3f} ms / sweep "
          f"({payload['machines_per_s_grid']:.0f} machines/s)")
    print(f"loop:  {payload['loop_s_projected'] * 1e3:9.3f} ms projected "
          f"({payload['loop_s_per_machine'] * 1e3:.3f} ms/machine over "
          f"{payload['loop_sample_machines']} sampled)")
    print(f"speedup: {payload['speedup']:.1f}x")
    print(f"parity:  {'exact' if parity['exact'] else 'DRIFT'} over "
          f"{parity['machines_checked']} presets x {parity['traces_checked']} traces")
    print(f"report:  {args.out}")

    if not parity["exact"]:
        for line in parity["mismatches"][:20]:
            print(f"  parity drift: {line}", file=sys.stderr)
        return 1
    if args.min_speedup is not None and payload["speedup"] < args.min_speedup:
        print(f"error: speedup {payload['speedup']:.1f}x below required "
              f"{args.min_speedup:g}x", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
