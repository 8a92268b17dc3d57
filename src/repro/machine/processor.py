"""Processor model: executes operation traces and reports performance.

A :class:`Processor` is a clock plus a scalar unit plus, for vector
machines, a vector unit and a banked-memory port.  ``execute`` walks a
:class:`~repro.machine.operations.Trace` and produces an
:class:`ExecutionReport` carrying wall time, Mflops (both raw and
Cray-equivalent), and sustained memory bandwidth — the three quantities
the paper's tables and figures report.

There is one costing path.  ``execute`` lowers the trace to
structure-of-arrays columns (:mod:`repro.machine.compiled`) and costs
every op with the shared columnar model (:mod:`repro.machine.costmodel`)
— a handful of NumPy expressions regardless of trace length — reading
this processor's parameters as plain Python numbers.  The per-op
methods (``vector_op_cycles``/``scalar_op_cycles``) stay as the test
oracle: :meth:`Processor.per_op_cycles` walks a trace through them, and
the ``math.fsum`` of that list is bit-identical to ``execute``'s total
(the columnar expressions replicate the per-op arithmetic exactly, and
both sides reduce with :func:`math.fsum`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from repro.machine import costmodel
from repro.machine.clock import Clock
from repro.machine.compiled import CompiledTrace, compile_trace, fsum
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

    ``memory_dilation`` on :meth:`execute` lets the node model stretch this
    CPU's memory time to account for multi-CPU bank contention without
    re-deriving traces.
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

    # -- perfmon instrumentation --------------------------------------------
    def _record_counters(
        self,
        compiled: CompiledTrace,
        memo: dict,
        vector_cycles: np.ndarray,
        scalar_cycles: np.ndarray,
        op_cycles: np.ndarray,
        dilation: float,
    ) -> None:
        """Populate the active profile's counters from column reductions.

        ``memo`` holds the columns this call's costing computed.
        Produces the same totals as recording each op's per-op
        ``perfmon_counters*`` (modulo exactly-rounded vs sequential
        accumulation), with one record per component instead of one per
        op.
        """
        params = self._params
        v, s = compiled.vector, compiled.scalar
        if v.n:
            if params.has_vector:
                perfmon_record("vector_unit", costmodel.vector_unit_counters(params, v, memo))
                perfmon_record(
                    "memory", costmodel.memory_counters(params, v, dilation, memo)
                )
            else:
                scalar, cache = costmodel.vector_loop_counters(params, v, memo)
                perfmon_record("scalar_unit", scalar)
                perfmon_record("cache", cache)
        if s.n:
            scalar, cache = costmodel.scalar_op_counters(params, s, memo)
            perfmon_record("scalar_unit", scalar)
            perfmon_record("cache", cache)
        # Record only the op kinds that occurred, matching the key set
        # per-op recording produces (profile diffs compare dict shapes too).
        increments = {
            "ops": float(compiled.n_ops),
            "cycles": fsum(op_cycles),
            "seconds": fsum(op_cycles * self.clock.period_s),
        }
        if v.n:
            increments["vector_ops"] = float(v.n)
            increments["vector_cycles"] = fsum(vector_cycles)
        if s.n:
            increments["scalar_ops"] = float(s.n)
            increments["scalar_cycles"] = fsum(scalar_cycles)
        perfmon_record("processor", increments)

    # -- trace execution ------------------------------------------------------
    def execute(self, trace: Trace, memory_dilation: float = 1.0) -> ExecutionReport:
        """Run a trace to completion and report time and rates.

        Every call costs the compiled columns afresh, so the report owns
        its ``op_cycles``.

        When a :mod:`repro.perfmon` profile is active, every component
        that times an op also populates its counters — this is the
        "counter emulation" layer of the observability subsystem.
        """
        costmodel.check_dilation(memory_dilation)
        compiled = compile_trace(trace)
        params = self._params
        if params is None:
            params = self._params = SimpleNamespace(**costmodel.parameter_row(self))
        memo: dict = {}  # this call's columns, reread by the counter reductions
        v, s = compiled.vector, compiled.scalar
        vector_cycles = (
            costmodel.vector_op_cycles(params, v, memory_dilation, memo)
            if v.n
            else _EMPTY_CYCLES
        )
        scalar_cycles = costmodel.scalar_op_cycles(params, s, memo) if s.n else _EMPTY_CYCLES
        op_cycles = compiled.scatter_cycles(vector_cycles, scalar_cycles)
        total_cycles = fsum(op_cycles)
        if perfmon_active() is not None:
            perfmon_record("processor", {"traces": 1.0})
            if compiled.n_ops:
                self._record_counters(
                    compiled, memo, vector_cycles, scalar_cycles, op_cycles, memory_dilation
                )
        return ExecutionReport(
            machine=self.name,
            trace_name=trace.name,
            cycles=total_cycles,
            seconds=self.clock.seconds(total_cycles),
            raw_flops=compiled.raw_flops_total,
            flop_equivalents=compiled.flop_equivalents_total,
            words_moved=compiled.words_moved_total,
            op_names=compiled.names,
            op_cycles=op_cycles,
        )

    def time(self, trace: Trace, memory_dilation: float = 1.0) -> float:
        """Shorthand: wall-clock seconds for a trace."""
        return self.execute(trace, memory_dilation).seconds
