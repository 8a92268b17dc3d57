"""Suite stacking: a whole trace suite as one ragged column set.

:class:`SuiteColumns` lowers every trace of a suite in one
:func:`~repro.machine.compiled.compile_trace` pass into one ragged
stack, with segment offsets delimiting each trace's rows, and the
distinct strides found once over the whole stack.  The machine grid's
:func:`~repro.machine.grid.cost_suite_trace_grid` costs the stack
against every machine in a single ``(n_ops, n_machines)`` broadcast
pass of the shared cost model (:mod:`repro.machine.costmodel`), then
reduces each trace's segment on its own.

Exactness is inherited, not re-proven: each row holds the values a
compile of its trace alone gives, every cost expression is elementwise
per row, and the per-segment reductions go through :func:`math.fsum`,
whose exactly-rounded result is independent of operand order.  A
stacked trace therefore costs to the same doubles as the same trace
costed alone — pinned in ``tests/machine/test_suitebatch.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.machine.compiled import ScalarColumns, VectorColumns, compile_trace

__all__ = ["SuiteColumns"]


@dataclass(frozen=True)
class SuiteColumns:
    """A whole trace suite lowered to one ragged column stack.

    ``vector``/``scalar`` are ordinary column sets over the
    *concatenation* of every member trace's rows (each row bit-identical
    to its source, ``index`` holding within-trace positions), so
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
        """Lower ``(trace_id, Trace)`` pairs into one suite column set.

        One ``compile_trace`` call lowers every trace; each row's
        ``index`` is then made relative to its own trace.  Each trace's
        totals are exact sums over its own rows, so the same doubles a
        compile of that trace alone gives.
        """
        pairs = list(traces)
        compiled = compile_trace(*(trace for _, trace in pairs))
        starts = np.array(compiled.op_offsets[:-1], dtype=np.intp)
        vector_offsets = np.array(compiled.vector_offsets, dtype=np.intp)
        scalar_offsets = np.array(compiled.scalar_offsets, dtype=np.intp)
        return cls(
            trace_ids=tuple(trace_id for trace_id, _ in pairs),
            trace_names=tuple(trace.name for _, trace in pairs),
            vector=_within_trace(compiled.vector, starts, vector_offsets),
            scalar=_within_trace(compiled.scalar, starts, scalar_offsets),
            vector_offsets=vector_offsets,
            scalar_offsets=scalar_offsets,
            trace_totals=compiled.segment_totals(),
        )


def _within_trace(columns, starts: np.ndarray, offsets: np.ndarray):
    """``columns`` with each row's ``index`` counted from its trace's first op."""
    return replace(columns, index=columns.index - np.repeat(starts, np.diff(offsets)))
