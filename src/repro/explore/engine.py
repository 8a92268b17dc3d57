"""Suite-level grid costing over a grid's distinct machines, with chunk caching.

:func:`cost_suite_grid` prices every requested trace against every
machine of a :class:`~repro.machine.grid.MachineGrid`.  Cycles do not
depend on the clock, so it costs only the grid's distinct rows — rows
that differ in more than ``period_ns``
(:meth:`~repro.machine.grid.MachineGrid.distinct_rows`) — with the
traces stacked into one :class:`~repro.machine.suitebatch.SuiteColumns`
ragged tensor and the suite × distinct-rows cross product costed in a
single broadcasted pass per chunk.  Each trace's cycles are then
gathered back to every row, and seconds and rates are derived once on
the full grid through
:meth:`~repro.machine.grid.GridTraceCost.from_cycles`.  The per-trace
costs reduce into suite aggregates (exact ``fsum`` across traces, the
same reduction the per-machine suite runner performs).

With a :class:`~repro.engine.store.ChunkStore`, the distinct rows are
split into chunks and each chunk's results are cached under a content
hash of

* the source digest of the costing code's import closure
  (:func:`repro.engine.deps.closure_digest` over the grid/compiled/trace
  modules — edit a kernel and exactly the affected chunks go stale),
* the chunk's :meth:`~repro.machine.grid.MachineGrid.fingerprint`
  (the cycle columns: names and clock excluded, so machines that differ
  only in clock share chunks),
* the trace ids and the memory dilation.

A chunk stores only what the clock cannot change: each trace's name,
cycles and machine-independent totals.  JSON floats survive the
round-trip bit-exactly (``repr`` shortest-round-trip serialization), so
a warm sweep returns arrays bit-identical to the cold computation —
asserted in ``tests/explore``.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro.analysis.traces import TRACE_BUILDERS, build_registered_trace
from repro.engine.deps import closure_digest
from repro.engine.store import ChunkStore
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
        "distinct_machines",  # rows differing in more than the clock: costed or read
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
    ``distinct_machines`` counts the rows actually costed or read from
    chunks: those that differ in more than the clock.
    """

    machine_names: tuple[str, ...]
    trace_ids: tuple[str, ...]
    traces: dict[str, GridTraceCost]
    suite_seconds: np.ndarray
    suite_mflops: np.ndarray
    suite_bandwidth_bytes_per_s: np.ndarray
    distinct_machines: int
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


class _ChunkTrace(NamedTuple):
    """One trace over one chunk's distinct rows: what a chunk stores."""

    trace_name: str
    cycles: np.ndarray
    raw_flops: float
    flop_equivalents: float
    words_moved: float


def _chunk_payload(
    chunk: dict[str, _ChunkTrace], trace_ids: tuple[str, ...], memory_dilation: float
) -> dict:
    """A chunk's costs as a JSON payload (floats round-trip bit-exactly)."""
    return {
        "trace_ids": list(trace_ids),
        "memory_dilation": float(memory_dilation),
        "n_machines": len(chunk[trace_ids[0]].cycles),
        "traces": {
            trace_id: {
                "trace_name": entry.trace_name,
                "cycles": [float(v) for v in entry.cycles],
                "raw_flops": entry.raw_flops,
                "flop_equivalents": entry.flop_equivalents,
                "words_moved": entry.words_moved,
            }
            for trace_id, entry in chunk.items()
        },
    }


def _chunk_from_payload(
    payload: dict, n_rows: int, trace_ids: tuple[str, ...]
) -> dict[str, _ChunkTrace] | None:
    """Rebuild a chunk from a cached payload, or None if unusable.

    A payload of the wrong shape reads as a miss, so the caller
    recomputes the chunk and overwrites it.
    """
    if payload.get("trace_ids") != list(trace_ids):
        return None
    if payload.get("n_machines") != n_rows:
        return None
    chunk: dict[str, _ChunkTrace] = {}
    try:
        for trace_id in trace_ids:
            entry = payload["traces"][trace_id]
            trace_name = entry["trace_name"]
            cycles = np.array(entry["cycles"], dtype=np.float64)
            if not isinstance(trace_name, str) or cycles.shape != (n_rows,):
                return None
            chunk[trace_id] = _ChunkTrace(
                trace_name,
                cycles,
                float(entry["raw_flops"]),
                float(entry["flop_equivalents"]),
                float(entry["words_moved"]),
            )
    except (KeyError, TypeError, ValueError):
        return None
    return chunk


def cost_suite_grid(
    grid: MachineGrid,
    trace_ids: tuple[str, ...] | None = None,
    memory_dilation: float = 1.0,
    store: ChunkStore | None = None,
    chunk_machines: int = 256,
) -> GridSuiteResult:
    """Cost a trace suite against every machine of a grid.

    Only the grid's distinct rows are costed, cached and keyed: rows
    that differ in nothing but the clock share one costing, and each
    row's seconds come from its own ``period_ns``.  Without a store the
    distinct rows cost in one pass; with one, they are processed in
    chunks of ``chunk_machines`` distinct rows, each addressed by
    :func:`grid_chunk_key` — a repeated sweep over an unchanged tree is
    pure cache reads, and builds no trace.
    """
    if chunk_machines < 1:
        raise ValueError(f"chunk_machines must be >= 1, got {chunk_machines}")
    ids = suite_trace_ids() if trace_ids is None else tuple(trace_ids)
    unknown = [trace_id for trace_id in ids if trace_id not in TRACE_BUILDERS]
    if unknown:
        raise ValueError(f"unknown trace ids {unknown!r} (known: {list(TRACE_BUILDERS)})")
    if not ids:
        raise ValueError("cost_suite_grid needs at least one trace id")

    m = grid.n_machines
    hits = misses = 0
    with perfmon_span("explore:cost_suite_grid", machines=m, traces=len(ids)) as span:
        index, inverse = grid.distinct_rows()
        distinct = grid.subset(index)
        n = distinct.n_machines
        if span is not None:
            span.attrs["distinct_machines"] = n
        if store is None:
            chunks = [distinct]
        else:
            chunks = [
                distinct.subset(np.arange(start, min(start + chunk_machines, n)))
                for start in range(0, n, chunk_machines)
            ]
        code_digest = closure_digest(CHUNK_KEY_SEEDS) if store is not None else None
        # The stack is machine-independent: build it once, reuse it for
        # every chunk's fused suite × subgrid pass.  Deferred, with the
        # traces, until the first miss — a fully-warm sweep builds and
        # stacks nothing.
        suite_columns: SuiteColumns | None = None

        parts: list[dict[str, _ChunkTrace]] = []
        for subgrid in chunks:
            chunk = None
            key = None
            if store is not None:
                key = grid_chunk_key(subgrid, ids, memory_dilation, code_digest)
                payload = store.get(CHUNK_NAMESPACE, key)
                if payload is not None:
                    chunk = _chunk_from_payload(payload, subgrid.n_machines, ids)
            if chunk is None:
                misses += 1
                if suite_columns is None:
                    traces = [(trace_id, build_registered_trace(trace_id)) for trace_id in ids]
                    suite_columns = SuiteColumns.from_traces(traces)
                chunk = {
                    trace_id: _ChunkTrace(
                        cost.trace_name,
                        cost.cycles,
                        cost.raw_flops,
                        cost.flop_equivalents,
                        cost.words_moved,
                    )
                    for trace_id, cost in zip(
                        ids, cost_suite_trace_grid(suite_columns.compiled, subgrid, memory_dilation)
                    )
                }
                if store is not None:
                    store.put(CHUNK_NAMESPACE, key, _chunk_payload(chunk, ids, memory_dilation))
            else:
                hits += 1
            parts.append(chunk)

        costs: dict[str, GridTraceCost] = {}
        for trace_id in ids:
            first = parts[0][trace_id]
            distinct_cycles = np.concatenate([part[trace_id].cycles for part in parts])
            costs[trace_id] = GridTraceCost.from_cycles(
                first.trace_name,
                grid,
                distinct_cycles[inverse],
                first.raw_flops,
                first.flop_equivalents,
                first.words_moved,
            )

        seconds = zip(*(costs[t].seconds.tolist() for t in ids))
        suite_seconds = np.array([math.fsum(column) for column in seconds])
        total_flop_equivalents = math.fsum(costs[t].flop_equivalents for t in ids)
        total_words_moved = math.fsum(costs[t].words_moved for t in ids)
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
                "distinct_machines": float(n),
                "trace_costings": float(misses * len(ids)),
                "chunk_hits": float(hits),
                "chunk_misses": float(misses),
            },
        )
    return GridSuiteResult(
        machine_names=grid.names,
        trace_ids=ids,
        traces=costs,
        suite_seconds=suite_seconds,
        suite_mflops=suite_mflops,
        suite_bandwidth_bytes_per_s=suite_bandwidth,
        distinct_machines=n,
        chunk_hits=hits,
        chunk_misses=misses,
    )
