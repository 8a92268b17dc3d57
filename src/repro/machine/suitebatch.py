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

from dataclasses import dataclass

import numpy as np

from repro.machine.compiled import ScalarColumns, VectorColumns, compile_trace

__all__ = ["SuiteColumns"]


@dataclass(frozen=True)
class SuiteColumns:
    """A whole trace suite lowered to one ragged column stack.

    ``vector``/``scalar`` are ordinary column sets over the
    *concatenation* of every member trace's rows (each row bit-identical
    to its source, ``index`` still holding within-trace positions), so
    the cost model takes a ``SuiteColumns`` wherever it takes a
    ``CompiledTrace``.  ``vector_offsets``/``scalar_offsets`` delimit
    each trace's segment, and ``trace_totals`` holds each trace's
    ``(raw_flops, flop_equivalents, words_moved)``.  Like a
    :class:`~repro.machine.compiled.CompiledTrace`, it is a plain value.
    """

    trace_ids: tuple[str, ...]
    trace_names: tuple[str, ...]
    vector: VectorColumns
    scalar: ScalarColumns
    vector_offsets: np.ndarray  # (n_traces + 1,) intp segment bounds
    scalar_offsets: np.ndarray
    trace_totals: tuple[tuple[float, float, float], ...]

    @property
    def n_traces(self) -> int:
        return len(self.trace_ids)

    @classmethod
    def from_traces(cls, traces) -> "SuiteColumns":
        """Stack ``(trace_id, Trace)`` pairs into one suite column set.

        Each trace is lowered by ``compile_trace`` and its columns
        concatenated bit-exactly.  Each trace's totals are its compiled
        trace's: the fsum of the same per-op values, so the same
        doubles.
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
            trace_totals=tuple(
                (c.raw_flops_total, c.flop_equivalents_total, c.words_moved_total)
                for c in compiled
            ),
        )


def _offsets(counts: list[int]) -> np.ndarray:
    out = np.zeros(len(counts) + 1, dtype=np.intp)
    np.cumsum(counts, out=out[1:])
    return out
