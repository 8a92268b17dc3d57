"""Design-space exploration: cost thousands of machines in one pass.

The paper costs six calibrated machines; this package asks the next
question — *what would the suite numbers look like on the machines NEC
didn't build?* — without giving up the repo's exact-parity discipline:

``sweep``
    cartesian parameter sweeps anchored at any calibrated preset
    (clock, pipes, banks, cache geometry, and the fault subsystem's
    degradation axes), lowered straight into a
    :class:`~repro.machine.grid.MachineGrid`;
``engine``
    :func:`~repro.explore.engine.cost_suite_grid` — the full trace
    suite against the full grid, costing once each machine that differs
    in more than the clock, with content-addressed chunk caching
    through :class:`~repro.engine.store.ChunkStore`;
``pareto``
    Mflops/bandwidth/cost-proxy frontier extraction over a costed
    sweep;
``ranks``
    Table-1-style rank-inversion maps — where benchmark choice flips
    the machine ordering;
``cli``
    ``python -m repro.explore sweep|pareto|ranks`` with deterministic
    JSON/CSV output.

Every number a sweep produces is bit-identical to building that
machine as a :class:`~repro.machine.processor.Processor` and executing
the trace on the compiled engine — the grid is a faster spelling of
the same model, never a different model.
"""

from repro.explore.engine import (
    CHUNK_KEY_SEEDS,
    CHUNK_NAMESPACE,
    GridSuiteResult,
    cost_suite_grid,
    grid_chunk_key,
    suite_trace_ids,
)
from repro.explore.pareto import ParetoPoint, cost_proxy, pareto_front, pareto_points
from repro.explore.ranks import (
    DEFAULT_REFERENCE,
    DEFAULT_TRACE_PAIR,
    RankInversionMap,
    rank_inversion_map,
)
from repro.explore.sweep import (
    PARAMETERS,
    Axis,
    ParameterSweep,
    explicit_axis,
    linear_axis,
    log_axis,
)

__all__ = [
    "CHUNK_KEY_SEEDS",
    "CHUNK_NAMESPACE",
    "GridSuiteResult",
    "cost_suite_grid",
    "grid_chunk_key",
    "suite_trace_ids",
    "ParetoPoint",
    "cost_proxy",
    "pareto_front",
    "pareto_points",
    "DEFAULT_REFERENCE",
    "DEFAULT_TRACE_PAIR",
    "RankInversionMap",
    "rank_inversion_map",
    "PARAMETERS",
    "Axis",
    "ParameterSweep",
    "explicit_axis",
    "linear_axis",
    "log_axis",
]
