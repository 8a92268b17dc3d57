"""Suite stacking: a whole trace suite lowered in one pass.

:class:`SuiteColumns` pairs a suite's trace ids with the
:class:`~repro.machine.compiled.CompiledTrace` one
:func:`~repro.machine.compiled.compile_trace` call makes of its traces:
the lowering carries each trace's name, segment bounds and totals.  The
machine grid's :func:`~repro.machine.grid.cost_suite_trace_grid` costs
that lowering against every machine in a single ``(n_ops, n_machines)``
broadcast pass of the shared cost model (:mod:`repro.machine.costmodel`)
and reduces each trace's segment on its own, so a stacked trace costs
to the same doubles as the same trace costed alone — pinned in
``tests/machine/test_suitebatch.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.machine.compiled import CompiledTrace, compile_trace

__all__ = ["SuiteColumns"]


@dataclass(frozen=True)
class SuiteColumns:
    """A whole trace suite's ids and its one lowering, a plain value."""

    trace_ids: tuple[str, ...]
    compiled: CompiledTrace

    @property
    def n_traces(self) -> int:
        return len(self.trace_ids)

    @classmethod
    def from_traces(cls, traces) -> "SuiteColumns":
        """Lower ``(trace_id, Trace)`` pairs with one ``compile_trace`` call."""
        pairs = list(traces)
        return cls(
            trace_ids=tuple(trace_id for trace_id, _ in pairs),
            compiled=compile_trace(*(trace for _, trace in pairs)),
        )
