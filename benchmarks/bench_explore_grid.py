"""Grid-costing throughput: one NumPy pass vs a per-machine loop.

The workload is the explore engine's reason to exist: cost the full
registered trace suite against ~1000-machine parameter sweeps anchored
at the calibrated SX-4, with the six canonical presets embedded as the
parity anchor.  ``cost_suite_grid`` prices the sweep's distinct rows —
those that differ in more than the clock — in one broadcasted pass and
re-clocks them to every row; the loop baseline materializes each grid
row as a :class:`Processor` and executes the suite per machine through
``Processor.execute`` — the best the repo could do before
:mod:`repro.machine.grid`.

Two sweeps show where the distinct-row saving applies:

* ``clock_pipes_banks`` (25 clocks x 8 pipe counts x 5 bank counts, the
  end-to-end benchmark's sweep) has 44 distinct rows in 1006, so it
  costs ~23x fewer rows than it reports;
* ``pipes_banks_startup`` (25 vector startup costs x 8 pipe counts x 5
  bank counts) has no clock axis: 1004 of its 1006 rows are distinct
  (the two SX-4 presets repeat one sweep point), so its machines/s is
  the grid kernel's own throughput.

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
    "SWEEPS",
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


#: Timed sweeps: name -> (description, third axis (parameter, start,
#: stop)).  Each crosses 8 pipe counts and 5 bank counts with ~``points``
#: / 40 steps of its third axis.
SWEEPS = {
    "clock_pipes_banks": (
        "clock x pipes x banks: rows differing only in clock are costed once",
        ("clock.period_ns", 4.0, 16.0),
    ),
    "pipes_banks_startup": (
        "pipes x banks x vector startup: no clock axis, nearly every row distinct",
        ("vector.startup_cycles", 0.0, 96.0),
    ),
}


def build_sweep(points: int, name: str = "clock_pipes_banks") -> ParameterSweep:
    """A 3-axis SX-4-anchored sweep of ~``points`` machines + presets."""
    parameter, start, stop = SWEEPS[name][1]
    banks_steps = 5
    pipes_steps = 8
    steps = max(1, round(points / (banks_steps * pipes_steps)))
    return ParameterSweep(
        anchor="sx4",
        axes=(
            linear_axis(parameter, start, stop, steps),
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


def measure_grid(sweep: ParameterSweep, rounds: int = 3) -> tuple[float, int, int]:
    """Best-of-``rounds`` seconds for one cold full-suite grid costing.

    Each round builds the grid afresh — the honest "price a new design
    space" number.  Returns (seconds, machines, distinct machines).
    """
    best = float("inf")
    n_machines = n_distinct = 0
    for _ in range(rounds):
        grid = sweep.build()
        start = time.perf_counter()
        result = cost_suite_grid(grid)
        best = min(best, time.perf_counter() - start)
        n_machines, n_distinct = result.n_machines, result.distinct_machines
    return best, n_machines, n_distinct


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
    grid = build_sweep(points).build()
    mismatches = check_grid_parity(grid)
    loop_s_per_machine, loop_sample = measure_loop(grid)

    sweeps = {}
    for name, (workload, _) in SWEEPS.items():
        sweep = build_sweep(points, name)
        grid_s, n_machines, n_distinct = measure_grid(sweep, rounds)
        loop_s_projected = loop_s_per_machine * n_machines
        sweeps[name] = {
            "workload": workload,
            "machines": n_machines,
            "distinct_machines": n_distinct,
            "sweep_points": sweep.n_points,
            "grid_s_per_sweep": grid_s,
            "machines_per_s_grid": n_machines / grid_s if grid_s > 0 else float("inf"),
            "loop_s_projected": loop_s_projected,
            "speedup": loop_s_projected / grid_s if grid_s > 0 else float("inf"),
        }

    suite_size = len(TRACE_BUILDERS)
    ops = sum(len(build_registered_trace(t)) for t in TRACE_BUILDERS)
    return {
        "schema_version": 2,
        "benchmark": "explore_grid_throughput",
        "anchor": "sx4",
        "workload": (
            "cost all registered traces against ~1000-point SX-4 sweeps "
            "(cold grid, presets embedded), with and without a clock axis"
        ),
        "traces": suite_size,
        "ops": ops,
        "rounds": rounds,
        "sweeps": sweeps,
        "loop_s_per_machine": loop_s_per_machine,
        "loop_sample_machines": loop_sample,
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
                        help="fail unless the grid is at least X times faster on every sweep")
    args = parser.parse_args(argv if argv is not None else sys.argv[1:])

    payload = run_benchmark(points=args.points, rounds=args.rounds)
    Path(args.out).write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")

    parity = payload["parity"]
    print(f"suite: {payload['traces']} traces ({payload['ops']} ops)")
    for name, sweep in payload["sweeps"].items():
        print(f"{name}: {sweep['machines']} machines ({sweep['distinct_machines']} distinct)")
        print(f"  grid:  {sweep['grid_s_per_sweep'] * 1e3:9.3f} ms / sweep "
              f"({sweep['machines_per_s_grid']:.0f} machines/s)")
        print(f"  loop:  {sweep['loop_s_projected'] * 1e3:9.3f} ms projected "
              f"({payload['loop_s_per_machine'] * 1e3:.3f} ms/machine over "
              f"{payload['loop_sample_machines']} sampled)")
        print(f"  speedup: {sweep['speedup']:.1f}x")
    print(f"parity:  {'exact' if parity['exact'] else 'DRIFT'} over "
          f"{parity['machines_checked']} presets x {parity['traces_checked']} traces")
    print(f"report:  {args.out}")

    if not parity["exact"]:
        for line in parity["mismatches"][:20]:
            print(f"  parity drift: {line}", file=sys.stderr)
        return 1
    slowest = min(sweep["speedup"] for sweep in payload["sweeps"].values())
    if args.min_speedup is not None and slowest < args.min_speedup:
        print(f"error: speedup {slowest:.1f}x below required "
              f"{args.min_speedup:g}x", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
