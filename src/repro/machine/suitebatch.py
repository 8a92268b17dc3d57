"""Suite stacking: a whole trace suite as one ragged column set.

:class:`SuiteColumns` concatenates every trace's
``VectorColumns``/``ScalarColumns`` into one ragged stack, with segment
offsets delimiting each trace's rows, and finds the distinct strides
once over the whole stack.  The machine grid's
:func:`~repro.machine.grid.cost_suite_trace_grid` costs the stack
against every machine in a single ``(n_ops, n_machines)`` broadcast
pass of the shared cost model (:mod:`repro.machine.costmodel`), then
reduces each trace's segment on its own.

Exactness is inherited, not re-proven: stacking copies raw float64
rows, every cost expression is elementwise per row, and the
per-segment reductions go through :func:`math.fsum`, whose
exactly-rounded result is independent of operand order.  A stacked
trace therefore costs to the same doubles as the same trace costed
alone — pinned in ``tests/machine/test_suitebatch.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.machine.compiled import ScalarColumns, VectorColumns, compile_trace

__all__ = ["SuiteColumns"]


@dataclass
class SuiteColumns:
    """A whole trace suite lowered to one ragged column stack.

    ``vector``/``scalar`` are ordinary column sets over the
    *concatenation* of every member trace's rows (each row bit-identical
    to its source, ``index`` still holding within-trace positions), so
    the cost model takes a ``SuiteColumns`` wherever it takes a
    ``CompiledTrace``.  ``vector_offsets``/``scalar_offsets`` delimit
    each trace's segment.

    Like :class:`~repro.machine.compiled.CompiledTrace`,
    machine-dependent cost columns are memoised per machine in
    :meth:`machine_cache`.
    """

    trace_ids: tuple[str, ...]
    trace_names: tuple[str, ...]
    vector: VectorColumns
    scalar: ScalarColumns
    vector_offsets: np.ndarray  # (n_traces + 1,) intp segment bounds
    scalar_offsets: np.ndarray
    _machine_caches: dict = field(default_factory=dict, repr=False)
    #: strong refs pinning cached machines so their ids stay unique.
    _pins: list = field(default_factory=list, repr=False)
    #: machine-independent per-trace totals, computed once per stack.
    _totals: dict[str, list[float]] = field(default_factory=dict, repr=False)

    @property
    def n_traces(self) -> int:
        return len(self.trace_ids)

    @classmethod
    def from_traces(cls, traces) -> "SuiteColumns":
        """Stack ``(trace_id, Trace)`` pairs into one suite column set.

        Each trace is compiled (or fetched from its compile cache) and
        its columns concatenated bit-exactly.
        """
        pairs = list(traces)
        compiled = [compile_trace(trace) for _, trace in pairs]
        return cls(
            trace_ids=tuple(trace_id for trace_id, _ in pairs),
            trace_names=tuple(trace.name for _, trace in pairs),
            vector=VectorColumns.stack([c.vector for c in compiled]),
            scalar=ScalarColumns.stack([c.scalar for c in compiled]),
            vector_offsets=_offsets([c.vector.n for c in compiled]),
            scalar_offsets=_offsets([c.scalar.n for c in compiled]),
        )

    def machine_cache(self, machine) -> dict:
        """Per-machine memo dict (same contract as CompiledTrace)."""
        cache = self._machine_caches.get(id(machine))
        if cache is None:
            cache = self._machine_caches[id(machine)] = {}
            self._pins.append(machine)
        return cache

    # -- aggregate accounting (exact: fsum over each trace's segment) ------
    def _segment_totals(
        self, key: str, vector_column: np.ndarray, scalar_column: np.ndarray
    ) -> list[float]:
        totals = self._totals.get(key)
        if totals is None:
            vo, so = self.vector_offsets, self.scalar_offsets
            totals = self._totals[key] = [
                math.fsum(
                    vector_column[vo[i]:vo[i + 1]].tolist()
                    + scalar_column[so[i]:so[i + 1]].tolist()
                )
                for i in range(self.n_traces)
            ]
        return totals

    def trace_totals(self, i: int) -> tuple[float, float, float]:
        """(raw_flops, flop_equivalents, words_moved) for trace ``i``.

        Each is the fsum of the same per-op values the compiled path
        sums for that trace alone — same multiset, exact sum, identical
        bits.  (ScalarOp flop-equivalents equal its raw flops, mirroring
        ``CompiledTrace.flop_equivalents_total``.)
        """
        raw = self._segment_totals(
            "raw_flops", self.vector.raw_flops, self.scalar.raw_flops
        )
        equiv = self._segment_totals(
            "flop_equivalents", self.vector.flop_equivalents, self.scalar.raw_flops
        )
        words = self._segment_totals(
            "words_moved", self.vector.words_moved, self.scalar.words_moved
        )
        return raw[i], equiv[i], words[i]


def _offsets(counts: list[int]) -> np.ndarray:
    out = np.zeros(len(counts) + 1, dtype=np.intp)
    np.cumsum(counts, out=out[1:])
    return out
