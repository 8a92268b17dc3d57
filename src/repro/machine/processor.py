"""Processor model: executes operation traces and reports performance.

A :class:`Processor` is a clock plus a scalar unit plus, for vector
machines, a vector unit and a banked-memory port.  ``execute`` runs a
:class:`~repro.machine.operations.Trace` and produces an
:class:`ExecutionReport` carrying wall time, Mflops (both raw and
Cray-equivalent), and sustained memory bandwidth — the three quantities
the paper's tables and figures report.

There is one costing path.  ``execute_all`` lowers a list of traces to
structure-of-arrays columns in one pass (:mod:`repro.machine.compiled`)
and costs every op with the shared columnar model
(:mod:`repro.machine.costmodel`) — a handful of NumPy expressions
however many traces and ops the list holds — reading this processor's
parameters as plain Python numbers; ``execute(trace)`` is
``execute_all([trace])[0]``.  Builders that cost a scan of traces on one
processor (the FFT families, the memory-bandwidth curves, STREAM, the
node model's steps) make one ``execute_all`` call, since a trace is
typically a few ops and the fixed NumPy dispatch per costing call, not
the model's arithmetic, is what a call costs.  The memory dilation is
one for the whole call or one per entry: the node model runs each
step's CPUs at that step's contention dilation and its serial trace
undilated, and the cost model multiplies by a per-row dilation column,
elementwise, so each entry costs as it would alone.  The per-op
methods (``vector_op_cycles``/``scalar_op_cycles``) stay as the test
oracle: :meth:`Processor.per_op_cycles` walks a trace through them, and
the ``math.fsum`` of that list is bit-identical to ``execute``'s total
(the columnar expressions replicate the per-op arithmetic exactly, and
both sides reduce with :func:`math.fsum`).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from operator import sub
from types import SimpleNamespace

import numpy as np

from repro.machine import costmodel
from repro.machine.clock import Clock
from repro.machine.compiled import CompiledTrace, compile_trace
from repro.machine.memory import BankedMemory
from repro.machine.operations import ScalarOp, Trace, VectorOp
from repro.machine.scalar_unit import ScalarUnit
from repro.machine.vector_unit import VectorUnit
from repro.perfmon.collector import active as perfmon_active
from repro.perfmon.collector import record as perfmon_record
from repro.perfmon.counters import declare_counters
from repro.units import MEGA

__all__ = ["Processor", "ExecutionReport"]

declare_counters(
    "processor",
    (
        "traces",
        "ops",
        "vector_ops",
        "scalar_ops",
        "cycles",
        "vector_cycles",  # cycles spent in vector-loop executions
        "scalar_cycles",
        "seconds",  # PROGINF "Real Time": cycles through this clock
    ),
)

_EMPTY_CYCLES = np.zeros(0, dtype=np.float64)


@dataclass
class ExecutionReport:
    """Outcome of running a trace on one processor.

    ``op_names``/``op_cycles`` carry the per-op cycle columns in trace
    order (``op_names`` is shared with the compiled trace, ``op_cycles``
    is the costed cycle vector), so :meth:`dominant_op` is an argmax
    over a column rather than a walk over Python tuples.
    """

    machine: str
    trace_name: str
    cycles: float
    seconds: float
    raw_flops: float
    flop_equivalents: float
    words_moved: float
    op_names: tuple[str, ...] = field(default=(), repr=False, compare=False)
    #: per-op cycles in trace order (ndarray), parallel to op_names.
    op_cycles: object = field(default=(), repr=False, compare=False)

    @property
    def mflops(self) -> float:
        """Sustained Mflops with intrinsic flop-equivalents (table units)."""
        if self.seconds == 0:
            return 0.0
        return self.flop_equivalents / self.seconds / MEGA

    @property
    def raw_mflops(self) -> float:
        """Sustained Mflops counting only genuine adds/multiplies."""
        if self.seconds == 0:
            return 0.0
        return self.raw_flops / self.seconds / MEGA

    @property
    def bytes_moved(self) -> float:
        return self.words_moved * 8.0

    @property
    def bandwidth_bytes_per_s(self) -> float:
        """Sustained data bandwidth (indices excluded, as in the paper)."""
        if self.seconds == 0:
            return 0.0
        return self.bytes_moved / self.seconds

    def dominant_op(self) -> str:
        """Name of the op that consumed the most cycles (for reports)."""
        if not self.op_names:
            return "<empty>"
        return self.op_names[int(np.argmax(self.op_cycles))]


@dataclass
class Processor:
    """One CPU: scalar unit always present, vector unit + memory optional.

    ``memory_dilation`` on :meth:`execute` and :meth:`execute_all` lets
    the node model stretch this CPU's memory time to account for
    multi-CPU bank contention without re-deriving traces.
    """

    name: str
    clock: Clock
    scalar: ScalarUnit
    vector: VectorUnit | None = None
    memory: BankedMemory | None = None
    #: the cost parameter record (costmodel.parameter_row), built on the
    #: first costing: callers may adjust a fresh processor's components
    #: before then, never after.
    _params: SimpleNamespace | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if (self.vector is None) != (self.memory is None):
            raise ValueError(
                "vector machines need both a vector unit and a banked-memory "
                "model; cache machines need neither"
            )

    @property
    def is_vector_machine(self) -> bool:
        return self.vector is not None

    @property
    def peak_flops(self) -> float:
        """Peak flop rate in flops/s (2 Gflops for the SX-4 at 8.0 ns)."""
        if self.vector is not None:
            return self.vector.peak_flops_per_cycle * self.clock.frequency_hz
        return self.scalar.flops_per_cycle * self.clock.frequency_hz

    @property
    def port_bandwidth_bytes_per_s(self) -> float:
        """Peak memory-port bandwidth (16 GB/s per SX-4 processor)."""
        if self.memory is None:
            return self.scalar.cache.mem_words_per_cycle * 8.0 * self.clock.frequency_hz
        return self.memory.port_words_per_cycle * 8.0 * self.clock.frequency_hz

    # -- per-op timing ------------------------------------------------------
    def vector_op_cycles(self, op: VectorOp, memory_dilation: float = 1.0) -> float:
        """Total cycles for all ``count`` executions of a vector loop."""
        costmodel.check_dilation(memory_dilation)
        if self.vector is not None and self.memory is not None:
            arithmetic = self.vector.arithmetic_cycles(op)
            memory = self.memory.transfer_cycles(op) * memory_dilation
            per_execution = self.vector.overhead_cycles(op) + max(arithmetic, memory)
        else:
            per_execution = self.scalar.vector_op_cycles(op) * memory_dilation
        return per_execution * op.count

    def scalar_op_cycles(self, op: ScalarOp) -> float:
        """Total cycles for all ``count`` executions of a scalar op."""
        return self.scalar.scalar_op_cycles(op) * op.count

    def per_op_cycles(self, trace: Trace, memory_dilation: float = 1.0) -> list[float]:
        """Each op's cycles in trace order, through the per-op methods.

        The test oracle of :meth:`execute`: its ``op_cycles`` equal this
        list and its ``cycles`` equal the list's :func:`math.fsum`, bit
        for bit.
        """
        costmodel.check_dilation(memory_dilation)
        return [
            self.vector_op_cycles(op, memory_dilation)
            if isinstance(op, VectorOp)
            else self.scalar_op_cycles(op)
            for op in trace
        ]

    # -- trace execution ------------------------------------------------------
    def execute(self, trace: Trace, memory_dilation: float = 1.0) -> ExecutionReport:
        """Run a trace to completion and report time and rates."""
        return self.execute_all([trace], memory_dilation)[0]

    def execute_all(
        self, traces: list[Trace], memory_dilation: float | Sequence[float] = 1.0
    ) -> list[ExecutionReport]:
        """Run each trace to completion: one report per entry, in order.

        ``memory_dilation`` is one dilation for every entry or a sequence
        of one per entry.  One lowering and one cost-model pass cover the
        whole list, and a trace object listed several times at one
        dilation is lowered and costed once.  Each report equals
        :meth:`execute` of its trace at its dilation alone, bit for bit,
        and owns its ``op_cycles``.

        When a :mod:`repro.perfmon` profile is active, every component
        that times an op also populates its counters — this is the
        "counter emulation" layer of the observability subsystem.  Each
        entry records its counters, reduced over its trace's segment of
        the columns, in list order: the calls :meth:`execute` of each
        entry in turn would make.
        """
        entries = list(zip(map(id, traces), _entry_dilations(memory_dilation, len(traces))))
        slot: dict[tuple[int, float], int] = {}
        distinct: list[Trace] = []
        for trace, entry in zip(traces, entries):
            if entry not in slot:
                slot[entry] = len(distinct)
                distinct.append(trace)
        compiled = compile_trace(*distinct)
        params = self._params
        if params is None:
            params = self._params = SimpleNamespace(**costmodel.parameter_row(self))
        # Each vector row's dilation: its entry's, over the entry's rows.
        # IEEE multiplication is elementwise, so a row costs as it would
        # at that dilation alone.
        vo = compiled.vector_offsets
        dilation = np.repeat([d for _, d in slot], list(map(sub, vo[1:], vo)))
        memo: dict = {}  # this call's columns, reread by the counter columns
        v, s = compiled.vector, compiled.scalar
        vector_cycles = (
            costmodel.vector_op_cycles(params, v, dilation, memo) if v.n else _EMPTY_CYCLES
        )
        scalar_cycles = costmodel.scalar_op_cycles(params, s, memo) if s.n else _EMPTY_CYCLES
        op_cycles = compiled.scatter_cycles(vector_cycles, scalar_cycles)
        if perfmon_active() is not None:
            records = self._counter_records(
                compiled, memo, vector_cycles, scalar_cycles, dilation
            )
            for entry in entries:
                for component, increments in records[slot[entry]]:
                    perfmon_record(component, increments)
        costed = [
            (cycles, self.clock.seconds(cycles))
            for (cycles,) in compiled.segment_sums((vector_cycles,), (scalar_cycles,))
        ]
        bounds = compiled.op_offsets
        reports = []
        handed = [False] * len(distinct)
        for trace, entry in zip(traces, entries):
            k = slot[entry]
            (cycles, seconds), totals = costed[k], compiled.totals[k]
            start, end = bounds[k], bounds[k + 1]
            # A repeated entry gets a copy, so no two reports share cycles.
            own = op_cycles[start:end].copy() if handed[k] else op_cycles[start:end]
            handed[k] = True
            reports.append(
                ExecutionReport(
                    machine=self.name,
                    trace_name=trace.name,
                    cycles=cycles,
                    seconds=seconds,
                    raw_flops=totals[0],
                    flop_equivalents=totals[1],
                    words_moved=totals[2],
                    op_names=compiled.names[start:end],
                    op_cycles=own,
                )
            )
        return reports

    # -- perfmon instrumentation --------------------------------------------
    def _counter_records(
        self,
        compiled: CompiledTrace,
        memo: dict,
        vector_cycles: np.ndarray,
        scalar_cycles: np.ndarray,
        dilation: np.ndarray,
    ) -> list[list[tuple[str, dict[str, float]]]]:
        """Each compiled trace's counter records, reduced over its segment.

        ``memo`` holds the columns this call's costing computed, and
        ``dilation`` each vector row's memory dilation.  A
        trace's records produce the same totals as recording each of its
        ops' per-op ``perfmon_counters*`` (modulo exactly-rounded vs
        sequential accumulation), with one record per component instead
        of one per op.  Only the op kinds a trace holds are recorded,
        matching the key set per-op recording produces (profile diffs
        compare dict shapes too).
        """
        params = self._params
        v, s = compiled.vector, compiled.scalar
        vector_columns: list = []
        if v.n and params.has_vector:
            vector_columns = [
                ("vector_unit", costmodel.vector_unit_counters(params, v, memo)),
                ("memory", costmodel.memory_counters(params, v, dilation, memo)),
            ]
        elif v.n:
            vector_columns = list(
                zip(("scalar_unit", "cache"), costmodel.vector_loop_counters(params, v, memo))
            )
        scalar_columns = (
            list(zip(("scalar_unit", "cache"), costmodel.scalar_op_counters(params, s, memo)))
            if s.n
            else []
        )
        # One reduction per op kind: every counter column, then the kind's
        # cycles; and one over both kinds for the trace's cycles and seconds.
        period = self.clock.period_s
        vector_sums = compiled.segment_sums([*_counter_rows(vector_columns), vector_cycles])
        scalar_sums = compiled.segment_sums(
            scalar=[*_counter_rows(scalar_columns), scalar_cycles]
        )
        time_sums = compiled.segment_sums(
            (vector_cycles, vector_cycles * period), (scalar_cycles, scalar_cycles * period)
        )
        vo, so = compiled.vector_offsets, compiled.scalar_offsets
        records = []
        for k in range(len(vo) - 1):
            n_vector, n_scalar = vo[k + 1] - vo[k], so[k + 1] - so[k]
            calls = [("processor", {"traces": 1.0})]
            if n_vector:
                calls += _component_records(vector_columns, vector_sums[k])
            if n_scalar:
                calls += _component_records(scalar_columns, scalar_sums[k])
            if n_vector or n_scalar:
                cycles, seconds = time_sums[k]
                increments = {
                    "ops": float(n_vector + n_scalar), "cycles": cycles, "seconds": seconds
                }
                if n_vector:
                    increments["vector_ops"] = float(n_vector)
                    increments["vector_cycles"] = vector_sums[k][-1]
                if n_scalar:
                    increments["scalar_ops"] = float(n_scalar)
                    increments["scalar_cycles"] = scalar_sums[k][-1]
                calls.append(("processor", increments))
            records.append(calls)
        return records

    def time(self, trace: Trace, memory_dilation: float = 1.0) -> float:
        """Shorthand: wall-clock seconds for a trace."""
        return self.execute(trace, memory_dilation).seconds


def _entry_dilations(memory_dilation: float | Sequence[float], n: int) -> Sequence[float]:
    """One checked memory dilation per entry: ``memory_dilation`` itself
    when it is a sequence of ``n``, else that one value ``n`` times."""
    if not hasattr(memory_dilation, "__len__"):
        costmodel.check_dilation(memory_dilation)
        return [memory_dilation] * n
    if len(memory_dilation) != n:
        raise ValueError(f"{len(memory_dilation)} memory dilations for {n} traces")
    for value in dict.fromkeys(memory_dilation):
        costmodel.check_dilation(value)
    return memory_dilation


def _counter_rows(columns: list[tuple[str, dict[str, np.ndarray]]]) -> list[np.ndarray]:
    """Every counter column of ``(component, columns)`` pairs, in order."""
    return [column for _, counters in columns for column in counters.values()]


def _component_records(
    columns: list[tuple[str, dict[str, np.ndarray]]], sums: list[float]
) -> list[tuple[str, dict[str, float]]]:
    """One record per component: its counters' sums, read in column order."""
    values = iter(sums)
    return [(name, {key: next(values) for key in counters}) for name, counters in columns]
