"""Suite-level grid costing with content-addressed chunk caching.

:func:`cost_suite_grid` prices every requested trace against every
machine of a :class:`~repro.machine.grid.MachineGrid` — the traces are
stacked into one :class:`~repro.machine.suitebatch.SuiteColumns` ragged
tensor and the whole suite × grid cross product costs in a single
broadcasted pass per chunk — and reduces the per-trace costs into suite
aggregates
(exact ``fsum`` across traces, the same reduction the per-machine suite
runner performs).

With a :class:`~repro.engine.store.ChunkStore`, the grid is split into
row chunks and each chunk's results are cached under a content hash of

* the source digest of the costing code's import closure
  (:func:`repro.engine.deps.closure_digest` over the grid/compiled/trace
  modules — edit a kernel and exactly the affected chunks go stale),
* the chunk's :meth:`~repro.machine.grid.MachineGrid.fingerprint`
  (the numeric columns, names excluded),
* the trace ids and the memory dilation.

Chunk payloads are JSON; floats survive the round-trip bit-exactly
(``repr`` shortest-round-trip serialization), so a warm sweep returns
arrays bit-identical to the cold computation — asserted in
``tests/explore``.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from repro.analysis.traces import TRACE_BUILDERS, build_registered_trace
from repro.engine.deps import closure_digest
from repro.engine.store import ChunkStore
from repro.machine.compiled import fsum_columns
from repro.machine.grid import GridTraceCost, MachineGrid, cost_suite_trace_grid
from repro.machine.suitebatch import SuiteColumns
from repro.perfmon.collector import active as perfmon_active
from repro.perfmon.collector import record as perfmon_record
from repro.perfmon.collector import span as perfmon_span
from repro.perfmon.counters import declare_counters
from repro.units import MEGA

__all__ = [
    "CHUNK_NAMESPACE",
    "CHUNK_KEY_SEEDS",
    "GridSuiteResult",
    "cost_suite_grid",
    "grid_chunk_key",
    "suite_trace_ids",
]

#: ChunkStore namespace grid-sweep chunks live under.
CHUNK_NAMESPACE = "explore"

#: Seed modules whose transitive source closure keys chunk caching —
#: the code that determines a chunk's numbers.  The trace registry's
#: closure covers every kernel's trace builder.
CHUNK_KEY_SEEDS = (
    "repro.machine.grid",
    "repro.machine.compiled",
    "repro.machine.suitebatch",
    "repro.analysis.traces",
)

declare_counters(
    "explore",
    (
        "suites",  # cost_suite_grid invocations
        "machines",  # grid rows per invocation
        "trace_costings",  # (trace, chunk) costings computed
        "chunk_hits",  # chunks served from the store
        "chunk_misses",  # chunks computed (and written, if a store)
    ),
)


def suite_trace_ids() -> tuple[str, ...]:
    """Every registered trace id, in registry (paper) order."""
    return tuple(TRACE_BUILDERS)


@dataclass(frozen=True)
class GridSuiteResult:
    """A whole suite costed against a whole grid.

    ``traces`` maps trace id to its :class:`GridTraceCost` (arrays
    indexed by grid row); the ``suite_*`` arrays aggregate across
    traces with exact reductions: seconds as the fsum of per-trace
    seconds, rates from fsum'd flop/word totals over suite seconds.
    """

    machine_names: tuple[str, ...]
    trace_ids: tuple[str, ...]
    traces: dict[str, GridTraceCost]
    suite_seconds: np.ndarray
    suite_mflops: np.ndarray
    suite_bandwidth_bytes_per_s: np.ndarray
    chunk_hits: int
    chunk_misses: int

    @property
    def n_machines(self) -> int:
        return len(self.machine_names)


def grid_chunk_key(
    grid: MachineGrid,
    trace_ids: tuple[str, ...],
    memory_dilation: float,
    code_digest: str | None = None,
) -> str:
    """Content hash addressing one grid chunk's suite costs.

    ``code_digest`` (the :data:`CHUNK_KEY_SEEDS` closure digest) may be
    precomputed by callers keying many chunks in one sweep.
    """
    if code_digest is None:
        code_digest = closure_digest(CHUNK_KEY_SEEDS)
    hasher = hashlib.sha256()
    hasher.update(b"explore-chunk\x00")
    hasher.update(f"code={code_digest}\x00".encode())
    hasher.update(f"dilation={float(memory_dilation)!r}\x00".encode())
    for trace_id in trace_ids:
        hasher.update(f"trace={trace_id}\x00".encode())
    hasher.update(f"grid={grid.fingerprint()}\x00".encode())
    return hasher.hexdigest()


def _chunk_payload(
    costs: dict[str, GridTraceCost], trace_ids: tuple[str, ...], memory_dilation: float
) -> dict:
    """A chunk's costs as a JSON payload (floats round-trip bit-exactly)."""
    return {
        "trace_ids": list(trace_ids),
        "memory_dilation": float(memory_dilation),
        "n_machines": costs[trace_ids[0]].n_machines,
        "traces": {
            trace_id: {
                "cycles": [float(v) for v in cost.cycles],
                "raw_flops": cost.raw_flops,
                "flop_equivalents": cost.flop_equivalents,
                "words_moved": cost.words_moved,
            }
            for trace_id, cost in costs.items()
        },
    }


def _costs_from_payload(
    payload: dict, subgrid: MachineGrid, trace_ids: tuple[str, ...], traces: dict
) -> dict[str, GridTraceCost] | None:
    """Rebuild chunk costs from a cached payload, or None if unusable.

    Only cycles and the machine-independent totals are stored; the
    derived fields recompute through :meth:`GridTraceCost.from_cycles`
    — same doubles either way, and the payload stays small.  A payload
    of the wrong shape reads as a miss, so the caller recomputes the
    chunk and overwrites it.
    """
    if payload.get("trace_ids") != list(trace_ids):
        return None
    if payload.get("n_machines") != subgrid.n_machines:
        return None
    costs: dict[str, GridTraceCost] = {}
    try:
        for trace_id in trace_ids:
            entry = payload["traces"][trace_id]
            cycles = np.array(entry["cycles"], dtype=np.float64)
            if cycles.shape != (subgrid.n_machines,):
                return None
            costs[trace_id] = GridTraceCost.from_cycles(
                traces[trace_id].name,
                subgrid,
                cycles,
                float(entry["raw_flops"]),
                float(entry["flop_equivalents"]),
                float(entry["words_moved"]),
            )
    except (KeyError, TypeError, ValueError):
        return None
    return costs


def cost_suite_grid(
    grid: MachineGrid,
    trace_ids: tuple[str, ...] | None = None,
    memory_dilation: float = 1.0,
    store: ChunkStore | None = None,
    chunk_machines: int = 256,
) -> GridSuiteResult:
    """Cost a trace suite against every machine of a grid.

    Without a store, the whole grid is costed in one pass per trace.
    With one, rows are processed in ``chunk_machines``-sized chunks,
    each addressed by :func:`grid_chunk_key` — a repeated sweep over an
    unchanged tree is pure cache reads.
    """
    if chunk_machines < 1:
        raise ValueError(f"chunk_machines must be >= 1, got {chunk_machines}")
    ids = suite_trace_ids() if trace_ids is None else tuple(trace_ids)
    unknown = [trace_id for trace_id in ids if trace_id not in TRACE_BUILDERS]
    if unknown:
        raise ValueError(f"unknown trace ids {unknown!r} (known: {list(TRACE_BUILDERS)})")
    if not ids:
        raise ValueError("cost_suite_grid needs at least one trace id")
    traces = {trace_id: build_registered_trace(trace_id) for trace_id in ids}

    m = grid.n_machines
    hits = misses = 0
    with perfmon_span("explore:cost_suite_grid", machines=m, traces=len(ids)):
        if store is None:
            chunks = [grid]
        else:
            chunks = [
                grid.subset(np.arange(start, min(start + chunk_machines, m)))
                for start in range(0, m, chunk_machines)
            ]
        code_digest = closure_digest(CHUNK_KEY_SEEDS) if store is not None else None
        # The stack is machine-independent: build it once, reuse it for
        # every chunk's fused suite × subgrid pass.  Deferred until the
        # first miss — a fully-warm sweep never stacks at all.
        suite_columns: SuiteColumns | None = None

        chunk_costs: list[dict[str, GridTraceCost]] = []
        for subgrid in chunks:
            costs = None
            key = None
            if store is not None:
                key = grid_chunk_key(subgrid, ids, memory_dilation, code_digest)
                payload = store.get(CHUNK_NAMESPACE, key)
                if payload is not None:
                    costs = _costs_from_payload(payload, subgrid, ids, traces)
            if costs is None:
                misses += 1
                if suite_columns is None:
                    suite_columns = SuiteColumns.from_traces(
                        (trace_id, traces[trace_id]) for trace_id in ids
                    )
                costs = dict(
                    zip(ids, cost_suite_trace_grid(suite_columns, subgrid, memory_dilation))
                )
                if store is not None:
                    store.put(CHUNK_NAMESPACE, key, _chunk_payload(costs, ids, memory_dilation))
            else:
                hits += 1
            chunk_costs.append(costs)

        merged: dict[str, GridTraceCost] = {}
        for trace_id in ids:
            parts = [costs[trace_id] for costs in chunk_costs]
            if len(parts) == 1:
                merged[trace_id] = parts[0]
            else:
                merged[trace_id] = GridTraceCost(
                    trace_name=parts[0].trace_name,
                    machine_names=grid.names,
                    cycles=np.concatenate([p.cycles for p in parts]),
                    seconds=np.concatenate([p.seconds for p in parts]),
                    mflops=np.concatenate([p.mflops for p in parts]),
                    bandwidth_bytes_per_s=np.concatenate(
                        [p.bandwidth_bytes_per_s for p in parts]
                    ),
                    raw_flops=parts[0].raw_flops,
                    flop_equivalents=parts[0].flop_equivalents,
                    words_moved=parts[0].words_moved,
                )

        suite_seconds = fsum_columns(np.stack([merged[t].seconds for t in ids]))
        total_flop_equivalents = math.fsum(merged[t].flop_equivalents for t in ids)
        total_words_moved = math.fsum(merged[t].words_moved for t in ids)
        zero = suite_seconds == 0.0
        safe = np.where(zero, 1.0, suite_seconds)
        suite_mflops = np.where(zero, 0.0, total_flop_equivalents / safe / MEGA)
        suite_bandwidth = np.where(zero, 0.0, (total_words_moved * 8.0) / safe)

    if perfmon_active() is not None:
        perfmon_record(
            "explore",
            {
                "suites": 1.0,
                "machines": float(m),
                "trace_costings": float(misses * len(ids)),
                "chunk_hits": float(hits),
                "chunk_misses": float(misses),
            },
        )
    return GridSuiteResult(
        machine_names=grid.names,
        trace_ids=ids,
        traces=merged,
        suite_seconds=suite_seconds,
        suite_mflops=suite_mflops,
        suite_bandwidth_bytes_per_s=suite_bandwidth,
        chunk_hits=hits,
        chunk_misses=misses,
    )
