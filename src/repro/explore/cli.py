"""Command-line interface for design-space exploration.

Usage::

    python -m repro.explore sweep  [--anchor ID] [axis options]
                                   [--traces a,b] [--dilation X]
                                   [--include-presets] [--store DIR]
                                   [--chunk-machines N]
                                   [--format json|csv] [--out FILE]
    python -m repro.explore pareto [same options]
    python -m repro.explore ranks  [same options] [--trace-a T]
                                   [--trace-b T] [--reference NAME]

Axis options, each repeatable (applied in command-line order)::

    --axis PARAM=START:STOP:STEPS       linear spacing
    --log-axis PARAM=START:STOP:STEPS   geometric spacing
    --values PARAM=V1,V2,...            explicit values

Output is a deterministic function of the arguments and the source
tree: payloads carry no timestamps or timings (run twice, ``diff``
clean — CI's explore-smoke job does exactly that), and JSON keys are
sorted.  Progress/summary lines go to stderr.  Exit codes: 0 success,
2 invalid request (unknown parameter, trace, anchor, ...).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

from repro.engine.store import ChunkStore
from repro.explore.engine import GridSuiteResult, cost_suite_grid
from repro.explore.pareto import cost_proxy, pareto_points
from repro.explore.ranks import (
    DEFAULT_REFERENCE,
    DEFAULT_TRACE_PAIR,
    rank_inversion_map,
)
from repro.explore.sweep import (
    Axis,
    ParameterSweep,
    explicit_axis,
    linear_axis,
    log_axis,
)
from repro.machine.grid import MachineGrid
from repro.machine.presets import PRESET_FACTORIES

__all__ = ["main", "build_parser", "parse_axis_specs"]


def _parse_range_spec(kind: str, spec: str) -> tuple[str, float, float, int]:
    """``PARAM=START:STOP:STEPS`` for --axis/--log-axis."""
    parameter, _, rest = spec.partition("=")
    pieces = rest.split(":")
    if not parameter or len(pieces) != 3:
        raise ValueError(
            f"--{kind} expects PARAM=START:STOP:STEPS, got {spec!r}"
        )
    try:
        start, stop = float(pieces[0]), float(pieces[1])
        steps = int(pieces[2])
    except ValueError:
        raise ValueError(
            f"--{kind} expects numeric START:STOP and integer STEPS, got {spec!r}"
        ) from None
    return parameter, start, stop, steps


def parse_axis_specs(specs: list[tuple[str, str]]) -> tuple[Axis, ...]:
    """Axes from (kind, spec) pairs in command-line order."""
    axes = []
    for kind, spec in specs:
        if kind == "values":
            parameter, _, rest = spec.partition("=")
            if not parameter or not rest:
                raise ValueError(f"--values expects PARAM=V1,V2,..., got {spec!r}")
            try:
                values = [float(v) for v in rest.split(",")]
            except ValueError:
                raise ValueError(f"--values expects numeric values, got {spec!r}") from None
            axes.append(explicit_axis(parameter, values))
        else:
            parameter, start, stop, steps = _parse_range_spec(kind, spec)
            builder = linear_axis if kind == "axis" else log_axis
            axes.append(builder(parameter, start, stop, steps))
    return tuple(axes)


class _AxisAction(argparse.Action):
    """Collect --axis/--log-axis/--values into one ordered list."""

    def __call__(self, parser, namespace, value, option_string=None):
        namespace.axis_specs.append((option_string.lstrip("-"), value))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.explore",
        description="Design-space exploration over the benchmark suite.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    def add_shared(sub: argparse.ArgumentParser, presets_default: bool) -> None:
        sub.add_argument(
            "--anchor",
            default="sx4",
            choices=sorted(PRESET_FACTORIES),
            help="preset the sweep is anchored at (default: sx4)",
        )
        sub.add_argument(
            "--axis", action=_AxisAction, dest="axis_specs", default=[],
            metavar="PARAM=START:STOP:STEPS", help="linear axis (repeatable)",
        )
        sub.add_argument(
            "--log-axis", action=_AxisAction, dest="axis_specs",
            metavar="PARAM=START:STOP:STEPS", help="geometric axis (repeatable)",
        )
        sub.add_argument(
            "--values", action=_AxisAction, dest="axis_specs",
            metavar="PARAM=V1,V2,...", help="explicit axis (repeatable)",
        )
        sub.add_argument(
            "--traces", default=None, metavar="A,B,...",
            help="trace ids to cost (default: the full registered suite)",
        )
        sub.add_argument(
            "--dilation", type=float, default=1.0,
            help="memory dilation factor (default: 1.0)",
        )
        if presets_default:
            sub.add_argument(
                "--include-presets", action="store_true", default=True,
                help=argparse.SUPPRESS,  # ranks always embeds the presets
            )
        else:
            sub.add_argument(
                "--include-presets", action="store_true",
                help="prepend the six canonical preset machines to the grid",
            )
        sub.add_argument(
            "--store", default=None, metavar="DIR",
            help="cache grid chunks content-addressed under DIR",
        )
        sub.add_argument(
            "--chunk-machines", type=int, default=256,
            help="distinct machines per chunk (default: 256)",
        )
        sub.add_argument(
            "--format", choices=("json", "csv"), default="json",
            help="output format (default: json)",
        )
        sub.add_argument(
            "--out", default=None, metavar="FILE",
            help="write output to FILE (default: stdout)",
        )

    sweep = subparsers.add_parser("sweep", help="cost every sweep point")
    add_shared(sweep, presets_default=False)

    pareto = subparsers.add_parser(
        "pareto", help="extract the Mflops/bandwidth/cost Pareto frontier"
    )
    add_shared(pareto, presets_default=False)

    ranks = subparsers.add_parser(
        "ranks", help="map rank inversions between two traces"
    )
    add_shared(ranks, presets_default=True)
    ranks.add_argument(
        "--trace-a", default=DEFAULT_TRACE_PAIR[0],
        help=f"first trace of the pair (default: {DEFAULT_TRACE_PAIR[0]})",
    )
    ranks.add_argument(
        "--trace-b", default=DEFAULT_TRACE_PAIR[1],
        help=f"second trace of the pair (default: {DEFAULT_TRACE_PAIR[1]})",
    )
    ranks.add_argument(
        "--reference", default=DEFAULT_REFERENCE,
        help=f"reference machine name (default: {DEFAULT_REFERENCE!r})",
    )
    return parser


def _build_and_cost(args) -> tuple[MachineGrid, GridSuiteResult]:
    axes = parse_axis_specs(args.axis_specs)
    sweep = ParameterSweep(
        anchor=args.anchor, axes=axes, include_presets=args.include_presets
    )
    grid = sweep.build()
    trace_ids = tuple(args.traces.split(",")) if args.traces else None
    store = ChunkStore(root=args.store) if args.store else None
    result = cost_suite_grid(
        grid,
        trace_ids=trace_ids,
        memory_dilation=args.dilation,
        store=store,
        chunk_machines=args.chunk_machines,
    )
    return grid, result


def _sweep_payload(grid: MachineGrid, result: GridSuiteResult) -> dict:
    return {
        "command": "sweep",
        "n_machines": result.n_machines,
        "trace_ids": list(result.trace_ids),
        "machines": [
            {
                "name": result.machine_names[i],
                "suite_seconds": float(result.suite_seconds[i]),
                "suite_mflops": float(result.suite_mflops[i]),
                "suite_bandwidth_bytes_per_s": float(
                    result.suite_bandwidth_bytes_per_s[i]
                ),
                "traces": {
                    trace_id: {
                        "cycles": float(result.traces[trace_id].cycles[i]),
                        "seconds": float(result.traces[trace_id].seconds[i]),
                        "mflops": float(result.traces[trace_id].mflops[i]),
                        "bandwidth_bytes_per_s": float(
                            result.traces[trace_id].bandwidth_bytes_per_s[i]
                        ),
                    }
                    for trace_id in result.trace_ids
                },
            }
            for i in range(result.n_machines)
        ],
    }


def _sweep_rows(grid: MachineGrid, result: GridSuiteResult) -> tuple[list[str], list[list]]:
    header = ["machine", "suite_seconds", "suite_mflops", "suite_bandwidth_bytes_per_s"]
    for trace_id in result.trace_ids:
        header.append(f"{trace_id}_mflops")
    rows = []
    for i in range(result.n_machines):
        row = [
            result.machine_names[i],
            repr(float(result.suite_seconds[i])),
            repr(float(result.suite_mflops[i])),
            repr(float(result.suite_bandwidth_bytes_per_s[i])),
        ]
        row.extend(
            repr(float(result.traces[t].mflops[i])) for t in result.trace_ids
        )
        rows.append(row)
    return header, rows


def _pareto_payload(grid: MachineGrid, result: GridSuiteResult) -> dict:
    points = pareto_points(result, grid)
    proxy = cost_proxy(grid)
    return {
        "command": "pareto",
        "n_machines": result.n_machines,
        "n_frontier": len(points),
        "objectives": {
            "suite_mflops": "max",
            "suite_bandwidth_bytes_per_s": "max",
            "cost_proxy": "min",
        },
        "frontier": [
            {
                "index": p.index,
                "machine": p.machine,
                "suite_mflops": p.mflops,
                "suite_bandwidth_bytes_per_s": p.bandwidth_bytes_per_s,
                "cost_proxy": p.cost_proxy,
            }
            for p in points
        ],
        "cost_proxy": {
            result.machine_names[i]: float(proxy[i]) for i in range(result.n_machines)
        },
    }


def _pareto_rows(grid: MachineGrid, result: GridSuiteResult) -> tuple[list[str], list[list]]:
    points = pareto_points(result, grid)
    header = ["index", "machine", "suite_mflops", "suite_bandwidth_bytes_per_s", "cost_proxy"]
    rows = [
        [p.index, p.machine, repr(p.mflops), repr(p.bandwidth_bytes_per_s), repr(p.cost_proxy)]
        for p in points
    ]
    return header, rows


def _ranks_payload(args, grid: MachineGrid, result: GridSuiteResult) -> dict:
    inversion = rank_inversion_map(
        result, trace_a=args.trace_a, trace_b=args.trace_b, reference=args.reference
    )
    return {
        "command": "ranks",
        "trace_a": inversion.trace_a,
        "trace_b": inversion.trace_b,
        "reference": inversion.reference,
        "n_machines": inversion.n_machines,
        "n_inverted": inversion.n_inverted,
        "machines": [
            {
                "name": name,
                "beats_reference_a": bool(inversion.beats_reference_a[i]),
                "beats_reference_b": bool(inversion.beats_reference_b[i]),
                "inverted": bool(inversion.inverted[i]),
            }
            for i, name in enumerate(inversion.machine_names)
        ],
    }


def _ranks_rows(args, grid: MachineGrid, result: GridSuiteResult) -> tuple[list[str], list[list]]:
    inversion = rank_inversion_map(
        result, trace_a=args.trace_a, trace_b=args.trace_b, reference=args.reference
    )
    header = ["machine", "beats_reference_a", "beats_reference_b", "inverted"]
    rows = [
        [
            name,
            int(inversion.beats_reference_a[i]),
            int(inversion.beats_reference_b[i]),
            int(inversion.inverted[i]),
        ]
        for i, name in enumerate(inversion.machine_names)
    ]
    return header, rows


def _render(args, payload: dict | None, table: tuple[list[str], list[list]] | None) -> str:
    if args.format == "json":
        return json.dumps(payload, indent=1, sort_keys=True) + "\n"
    header, rows = table
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue()


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        grid, result = _build_and_cost(args)
        if args.command == "sweep":
            text = _render(args, _sweep_payload(grid, result), _sweep_rows(grid, result))
        elif args.command == "pareto":
            text = _render(args, _pareto_payload(grid, result), _pareto_rows(grid, result))
        else:
            text = _render(
                args, _ranks_payload(args, grid, result), _ranks_rows(args, grid, result)
            )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    print(
        f"{args.command}: {result.n_machines} machines ({result.distinct_machines} distinct)"
        f" x {len(result.trace_ids)} traces"
        + (
            f" (chunks: {result.chunk_hits} hits, {result.chunk_misses} misses)"
            if args.store
            else ""
        ),
        file=sys.stderr,
    )
    return 0
