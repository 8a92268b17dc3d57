"""Machine-model cost of the MOM benchmark (Table 7).

The benchmark is the 1°, 45-level global configuration run for 350
timesteps (measured as 390 minus 40 to remove initialisation).  Three
components set the Table 7 scalability shape:

* **baroclinic interior** — tracer and momentum updates, vectorised over
  longitude but broken into short segments by land masking; distributes
  cleanly over latitude rows,
* **barotropic SOR** — the rigid-lid streamfunction relaxation.  Under
  latitude-strip domain decomposition each processor relaxes its strip
  against lagged neighbour boundaries (block-Jacobi between strips), and
  the iteration count needed for convergence grows ≈ √p with the strip
  count — the classic degradation of decoupled relaxation without a
  coarse-grid correction.  Net effect: this phase scales only as √p,
* **diagnostics** — "the benchmark prints out model diagnostics every 10
  timesteps": global reductions plus formatted output, serial.

Together these produce the paper's "modest level of scalability"
(speedup 9.06 on 32 CPUs) without any per-machine fudge: the 1-CPU step
time calibrates to Table 7's 1861.25 s / 350 steps, and the speedup
curve follows.  :func:`parallel_steps` costs a list of CPU counts in one
node-model call, building the baroclinic and diagnostics traces once,
so Table 7's five counts are one call; :func:`parallel_step` is its
one-count call.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.apps.mom.grid import OceanGrid
from repro.machine.node import Node, ParallelReport, ParallelStep, block_shares
from repro.machine.operations import ScalarOp, Trace, VectorOp
from repro.machine.presets import sx4_node

__all__ = [
    "baroclinic_trace",
    "barotropic_trace",
    "diagnostics_trace",
    "sor_iterations_for",
    "parallel_steps",
    "parallel_step",
    "benchmark_time",
    "speedup_table",
    "PAPER_TABLE7",
]

#: Table 7 verbatim: CPUs -> (seconds for 350 steps, speedup).  The paper
#: made no 2-CPU measurement ("for expediency").
PAPER_TABLE7 = {
    1: (1861.25, 1.00),
    4: (696.92, 2.70),
    8: (519.74, 3.66),
    16: (331.67, 5.88),
    32: (226.62, 9.06),
}

#: Vectorised segment length: land masking breaks the 360-point zonal
#: loops into open-ocean segments.
SEGMENT_LENGTH = 72
SEGMENTS_PER_ROW = 6
#: Vector statements per (row, level) across the baroclinic stages.
BAROCLINIC_LOOPS = 90
#: SOR iterations per step on one processor (warm-started rigid-lid
#: solve on the 360x150 barotropic grid).
SOR_ITERATIONS = 4800
#: Block-Jacobi convergence degradation exponent: iterations x p^0.5.
SOR_DECOMPOSITION_EXPONENT = 0.5
#: Serial instructions per grid point for the every-10-step diagnostics
#: (global sums, extrema searches, formatted print).
DIAG_INSTRUCTIONS_PER_POINT = 120.0
DIAGNOSTIC_INTERVAL = 10
REGIONS_PER_STEP = 20.0
#: Timesteps in the Table 7 measurement (390 run, 40 initialisation).
_MEASURED_STEPS = 350


def baroclinic_trace(grid: OceanGrid) -> Trace:
    """The per-step interior work: tracers, density/pressure, momentum."""
    count = grid.nlat * grid.nlev * SEGMENTS_PER_ROW * BAROCLINIC_LOOPS
    return Trace(
        [
            VectorOp(
                "mom baroclinic",
                length=SEGMENT_LENGTH,
                count=float(count),
                flops_per_element=2.5,
                loads_per_element=6.0,
                stores_per_element=2.0,
            )
        ],
        name="mom baroclinic",
    )


def barotropic_trace(grid: OceanGrid, iterations: int) -> Trace:
    """``iterations`` red-black SOR sweeps of the streamfunction solve."""
    if iterations < 1:
        raise ValueError(f"need at least one iteration, got {iterations}")
    # Two half-sweeps per iteration, one vector op per row each.
    return Trace(
        [
            VectorOp(
                "mom sor sweep",
                length=grid.nlon // 2,
                count=float(2 * grid.nlat * iterations),
                flops_per_element=6.0,
                loads_per_element=5.0,
                stores_per_element=1.0,
            )
        ],
        name="mom barotropic",
    )


def diagnostics_trace(grid: OceanGrid) -> Trace:
    """One diagnostics event: serial global reductions plus the print."""
    points = grid.nlev * grid.nlat * grid.nlon
    return Trace(
        [
            ScalarOp(
                "mom diagnostics print",
                instructions=DIAG_INSTRUCTIONS_PER_POINT * points,
                flops=4.0 * points,
                memory_words=3.0 * points,
            )
        ],
        name="mom diagnostics",
    )


def sor_iterations_for(cpus: int) -> int:
    """Iterations to converge with ``cpus`` latitude strips (√p growth)."""
    if cpus < 1:
        raise ValueError(f"need at least one CPU, got {cpus}")
    return round(SOR_ITERATIONS * cpus**SOR_DECOMPOSITION_EXPONENT)


def parallel_steps(
    node: Node, grid: OceanGrid | None, cpu_counts: Iterable[int], with_diagnostics: bool = True
) -> list[ParallelReport]:
    """Average per-step wall time on each CPU count, costed in one
    :meth:`~repro.machine.node.Node.run_parallel_all` call.

    Rows are dealt in blocks; the SOR runs more iterations as the strip
    count grows; the diagnostics event is serial and amortised over its
    10-step cycle.  The baroclinic and diagnostics traces are built once
    per call, and every step shares the one diagnostics trace.
    """
    grid = grid or OceanGrid.benchmark()
    baroclinic = baroclinic_trace(grid)
    serial = None
    if with_diagnostics:
        serial = diagnostics_trace(grid).scaled(1.0 / DIAGNOSTIC_INTERVAL)
    steps = []
    for cpus in cpu_counts:
        shares = block_shares(grid.nlat, cpus)
        barotropic = barotropic_trace(grid, sor_iterations_for(cpus))
        # One trace per distinct row share, handed to every CPU with that
        # share: the node model costs a shared trace once.
        by_share = {
            share: baroclinic.scaled(share) + barotropic.scaled(share)
            for share in dict.fromkeys(shares)
        }
        steps.append(
            ParallelStep(
                [by_share[share] for share in shares],
                serial=serial,
                regions=REGIONS_PER_STEP,
                trace_name=f"MOM step/{cpus}cpu",
            )
        )
    return node.run_parallel_all(steps)


def parallel_step(
    node: Node, grid: OceanGrid | None = None, cpus: int = 1, with_diagnostics: bool = True
) -> ParallelReport:
    """Average per-step wall time on ``cpus`` processors: the one-count
    :func:`parallel_steps` call."""
    return parallel_steps(node, grid, [cpus], with_diagnostics)[0]


def benchmark_time(node: Node | None = None, cpus: int = 1, steps: int = _MEASURED_STEPS) -> float:
    """Wall-clock seconds for the Table 7 measurement (350 steps)."""
    node = node or sx4_node()
    if steps < 1:
        raise ValueError(f"need at least one step, got {steps}")
    return parallel_step(node, cpus=cpus).seconds * steps


def speedup_table(
    node: Node | None = None, cpu_counts: tuple[int, ...] = (1, 4, 8, 16, 32)
) -> dict[int, tuple[float, float]]:
    """Regenerate Table 7: CPUs -> (time for 350 steps, speedup)."""
    node = node or sx4_node()
    reports = parallel_steps(node, None, cpu_counts)
    times = {p: report.seconds * _MEASURED_STEPS for p, report in zip(cpu_counts, reports)}
    base = times[min(cpu_counts)] * min(cpu_counts)  # normalise to 1 CPU
    one_cpu = times.get(1, base)
    return {p: (t, one_cpu / t) for p, t in times.items()}
