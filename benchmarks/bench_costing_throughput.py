"""Costing throughput of ``Processor.execute``, gated on per-op parity.

The workload: cost every registered trace — the 13 NCAR kernels plus
the three applications — on the calibrated SX-4.
``Processor.execute`` has one costing path: it lowers each trace to
structure-of-arrays columns and costs every op in a handful of NumPy
expressions over those columns.  Nothing is cached between calls, so
every timed pass pays what each workload pays per trace: the lowering
and the costing.  This is a diagnostic with no timing gate: the
end-to-end numbers, and CI's timed gate, come from ``benchmarks/e2e``.

Before timing, the benchmark asserts that ``execute`` agrees *exactly*
with the per-op oracle (the ``math.fsum`` of
``Processor.per_op_cycles``) on every canonical machine, then records
the result in ``BENCH_engine.json``.

Standalone (writes the JSON report, exit 1 on parity drift)::

    python benchmarks/bench_costing_throughput.py

Under pytest the parity gate runs as an ordinary test::

    PYTHONPATH=src python -m pytest benchmarks/bench_costing_throughput.py
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

from repro.analysis.traces import TRACE_BUILDERS, build_registered_trace
from repro.machine.operations import Trace
from repro.machine.presets import canonical_machines, sx4_processor
from repro.machine.processor import Processor

__all__ = [
    "build_suite",
    "parity_machines",
    "check_parity",
    "measure_execute",
    "run_benchmark",
    "main",
]

#: Exactly-compared quantities: the oracle defines cycles, and seconds
#: follow through the machine's clock.
PARITY_FIELDS = ("cycles", "seconds")


def build_suite() -> list[tuple[str, Trace]]:
    """Every registered trace, in registry (paper) order."""
    return [(trace_id, build_registered_trace(trace_id)) for trace_id in TRACE_BUILDERS]


def parity_machines() -> list[Processor]:
    """The machines parity is asserted on: Table 1 plus both SX-4 clocks."""
    return list(canonical_machines().values())


def check_parity(
    suite: list[tuple[str, Trace]],
    machines: list[Processor],
    dilations: tuple[float, ...] = (1.0, 1.37),
) -> list[str]:
    """``execute`` vs the per-op oracle; returns mismatch descriptions.

    Every field is compared with ``==``, never a tolerance.
    """
    mismatches: list[str] = []
    for processor in machines:
        for dilation in dilations:
            for trace_id, trace in suite:
                report = processor.execute(trace, dilation)
                cycles = math.fsum(processor.per_op_cycles(trace, dilation))
                oracle = {"cycles": cycles, "seconds": processor.clock.seconds(cycles)}
                for field in PARITY_FIELDS:
                    got = getattr(report, field)
                    if got != oracle[field]:
                        mismatches.append(
                            f"{processor.name} / {trace_id} / dilation {dilation}: "
                            f"{field} execute={got!r} oracle={oracle[field]!r}"
                        )
    return mismatches


def _cost_suite(processor: Processor, suite: list[tuple[str, Trace]]) -> float:
    total = 0.0
    for _, trace in suite:
        total += processor.execute(trace).seconds
    return total


def measure_execute(
    processor: Processor,
    suite: list[tuple[str, Trace]],
    rounds: int = 5,
    repeats: int = 20,
) -> float:
    """Best-of-``rounds`` seconds for one full-suite lowering and costing.

    One untimed pass first warms the interpreter and NumPy, so the timed
    passes measure the lowering, the column expressions and the reports.
    """
    _cost_suite(processor, suite)
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        for _ in range(repeats):
            _cost_suite(processor, suite)
        best = min(best, (time.perf_counter() - start) / repeats)
    return best


def run_benchmark(rounds: int = 5, repeats: int = 20) -> dict:
    """Parity gate + timing; returns the BENCH_engine.json payload."""
    suite = build_suite()
    mismatches = check_parity(suite, parity_machines())
    processor = sx4_processor()
    return {
        "schema_version": 4,
        "benchmark": "costing_throughput",
        "machine": processor.name,
        "workload": "lower and cost all registered traces once",
        "traces": len(suite),
        "ops": sum(len(trace) for _, trace in suite),
        "rounds": rounds,
        "repeats": repeats,
        "execute_s_per_suite": measure_execute(processor, suite, rounds, repeats),
        "parity": {
            "fields": list(PARITY_FIELDS),
            "oracle": "math.fsum of Processor.per_op_cycles",
            "machines_checked": len(parity_machines()),
            "traces_checked": len(suite),
            "exact": not mismatches,
            "mismatches": mismatches,
        },
    }


def test_execute_matches_the_per_op_oracle():
    """Pytest face of the parity gate: zero drift on every machine/trace."""
    assert check_parity(build_suite(), parity_machines()) == []


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Benchmark Processor.execute trace costing; write BENCH_engine.json."
    )
    parser.add_argument("--rounds", type=int, default=5,
                        help="timing rounds (best is kept)")
    parser.add_argument("--repeats", type=int, default=20,
                        help="suite costings per round")
    parser.add_argument("--out", default=str(Path(__file__).resolve().parent.parent
                                             / "BENCH_engine.json"),
                        help="report path (default: repo-root BENCH_engine.json)")
    args = parser.parse_args(argv if argv is not None else sys.argv[1:])

    payload = run_benchmark(rounds=args.rounds, repeats=args.repeats)
    Path(args.out).write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")

    parity = payload["parity"]
    print(f"traces: {payload['traces']} ({payload['ops']} ops) on {payload['machine']}")
    print(f"execute:  {payload['execute_s_per_suite'] * 1e3:8.3f} ms / suite "
          "(lowering and costing)")
    print(f"parity:   {'exact' if parity['exact'] else 'DRIFT'} vs the per-op "
          f"oracle over {parity['machines_checked']} machines x "
          f"{parity['traces_checked']} traces")
    print(f"report:   {args.out}")

    if not parity["exact"]:
        for line in parity["mismatches"][:20]:
            print(f"  parity drift: {line}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
