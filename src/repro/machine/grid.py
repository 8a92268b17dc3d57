"""Machine-axis lowering: cost a trace against thousands of machines at once.

:mod:`repro.machine.compiled` lowers the *ops* of a trace to columns;
this module lowers the *machines*.  A :class:`MachineGrid` holds every
cost-relevant processor parameter (clock period, vector pipes, bank
count, startup overheads, cache geometry, ...) as structure-of-arrays
columns — one float64/int64 entry per machine — and
:func:`cost_suite_trace_grid` prices a lowering of one trace or many (a
:class:`~repro.machine.compiled.CompiledTrace`) against a whole design
space in one broadcasted ``(n_ops, n_machines)`` pass;
:func:`cost_trace_grid` is that call on one trace.

The pass is the shared cost model of :mod:`repro.machine.costmodel`,
the same expressions ``Processor.execute`` evaluates for one machine:
the grid passes its ``(m,)`` columns against ``(n, 1)`` views of the op
columns.  IEEE-754 arithmetic is elementwise, so machine ``j``'s column
of every result is bit-identical to costing that machine alone:

* cache machines get benign placeholder vector/memory columns (masked
  out by ``has_vector`` through :func:`numpy.where`, which *selects*
  values and never mixes lanes), and vector machines' scalar columns
  are real, so one pass covers a heterogeneous grid;
* each trace's per-machine totals reduce with
  :meth:`~repro.machine.compiled.CompiledTrace.segment_sums`
  (exactly-rounded sums over its rows), matching the per-machine
  ``fsum``.

No cost term reads ``period_ns``: the clock only turns cycles into
seconds in :meth:`GridTraceCost.from_cycles`.  Rows that differ in
nothing else cost the same cycles, so
:meth:`MachineGrid.distinct_rows` finds the rows worth costing and
:meth:`MachineGrid.fingerprint` leaves the clock out of the key a
cached chunk of cycles is stored under.

``tests/machine/test_grid*.py`` pins the contract down: every
:class:`GridTraceCost` field equals the per-machine report (and hence
the per-op oracle) bit-for-bit on all registered traces across the six
canonical presets, and on hypothesis-random machines and traces.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING

import numpy as np

from repro.machine import costmodel
from repro.machine.cache import CacheModel
from repro.machine.clock import Clock
from repro.machine.compiled import SORTED_INTRINSICS, CompiledTrace, compile_trace
from repro.machine.memory import BankedMemory
from repro.machine.processor import ExecutionReport, Processor
from repro.machine.scalar_unit import ScalarUnit
from repro.machine.vector_unit import VectorUnit
from repro.perfmon.collector import active as perfmon_active
from repro.perfmon.collector import record as perfmon_record
from repro.perfmon.counters import declare_counters
from repro.units import MEGA, NS

if TYPE_CHECKING:
    from repro.machine.operations import Trace

__all__ = ["MachineGrid", "GridTraceCost", "cost_trace_grid", "cost_suite_trace_grid"]

declare_counters(
    "grid",
    (
        "machines",  # machines in grids handed to cost_suite_trace_grid
        "machine_traces",  # (machine, trace) pairs costed
    ),
)


def _pynum(value: float) -> int | float:
    """A Python int when the float is integral, else the float itself.

    Materialized components get the same parameter *values* the grid
    columns hold; int-vs-float makes no costing difference (int operands
    promote to the identical float64), but integral parameters read
    better in component reprs and keep ``math.gcd`` applicable.
    """
    number = float(value)
    integral = int(number)
    return integral if integral == number else number


@dataclass(eq=False)
class MachineGrid:
    """A design space as structure-of-arrays: one row per machine.

    Columns mirror the constructor parameters of
    :class:`~repro.machine.processor.Processor` and its components.  For
    cache machines (``has_vector`` False) the vector/memory columns hold
    benign placeholders — they are computed through and then discarded
    by the ``has_vector`` selection, never mixed into the result.

    Build grids with :meth:`from_processors` (exact lowering of real
    presets) or :mod:`repro.explore.sweep` (parameter sweeps anchored at
    a preset); get a machine back out with :meth:`materialize`.
    """

    names: tuple[str, ...]
    has_vector: np.ndarray  # bool
    period_ns: np.ndarray
    # vector unit
    pipes: np.ndarray
    concurrent_sets: np.ndarray
    startup_cycles: np.ndarray
    register_length: np.ndarray
    stripmine_cycles: np.ndarray
    #: (m, 6) per-element intrinsic cycles, SORTED_INTRINSICS column order.
    vector_intrinsic_rates: np.ndarray
    # banked memory
    banks: np.ndarray  # int64
    bank_busy_cycles: np.ndarray
    port_words_per_cycle: np.ndarray
    stride_base_penalty: np.ndarray
    gather_base_penalty: np.ndarray
    index_words_per_element: np.ndarray
    contention_slope: np.ndarray
    contention_base_slope: np.ndarray
    # scalar unit
    issue_width: np.ndarray
    flops_per_cycle: np.ndarray
    loop_overhead_instructions: np.ndarray
    #: (m, 6) per-call intrinsic cycles, SORTED_INTRINSICS column order.
    scalar_intrinsic_rates: np.ndarray
    # cache model
    cache_size_bytes: np.ndarray  # int64
    cache_line_bytes: np.ndarray  # int64
    cache_hit_cycles_per_word: np.ndarray
    cache_miss_latency_cycles: np.ndarray
    cache_mem_words_per_cycle: np.ndarray

    @property
    def n_machines(self) -> int:
        return len(self.names)

    def __post_init__(self) -> None:
        m = self.n_machines
        if m < 1:
            raise ValueError("a machine grid needs at least one machine")
        for name, column in self._columns():
            expected = (m, len(SORTED_INTRINSICS)) if column.ndim == 2 else (m,)
            if column.shape != expected:
                raise ValueError(
                    f"grid column {name!r} has shape {column.shape}, expected {expected}"
                )

    def _columns(self) -> list[tuple[str, np.ndarray]]:
        """(name, array) pairs in declaration order — the canonical layout."""
        return [(f.name, getattr(self, f.name)) for f in fields(self) if f.name != "names"]

    def _cycle_columns(self) -> list[tuple[str, np.ndarray]]:
        """The columns that determine cycles: every column but ``period_ns``.

        No cost term reads the clock; it only turns cycles into seconds
        in :meth:`GridTraceCost.from_cycles`.
        """
        return [(name, column) for name, column in self._columns() if name != "period_ns"]

    # -- construction -------------------------------------------------------
    @classmethod
    def from_processors(cls, processors: list[Processor]) -> "MachineGrid":
        """Lower concrete processors into grid columns, exactly.

        Each row is :func:`~repro.machine.costmodel.parameter_row`, the
        record a processor costs itself with; cache machines' placeholder
        vector/memory lanes are discarded by the ``has_vector`` selection.
        """
        if not processors:
            raise ValueError("a MachineGrid needs at least one processor")
        rows = [costmodel.parameter_row(p) for p in processors]
        int_columns = {"banks", "cache_size_bytes", "cache_line_bytes"}
        columns: dict[str, np.ndarray] = {}
        for key in rows[0]:
            values = [row[key] for row in rows]
            if key == "has_vector":
                columns[key] = np.array(values, dtype=bool)
            elif key in int_columns:
                columns[key] = np.array(values, dtype=np.int64)
            else:
                columns[key] = np.array(values, dtype=np.float64)
        return cls(names=tuple(p.name for p in processors), **columns)

    def subset(self, indices) -> "MachineGrid":
        """A new grid holding the given rows (also usable to repeat rows)."""
        index = np.asarray(indices, dtype=np.intp)
        return type(self)(
            names=tuple(self.names[i] for i in index),
            **{name: column[index] for name, column in self._columns()},
        )

    @classmethod
    def concat(cls, grids: list["MachineGrid"]) -> "MachineGrid":
        """One grid holding every row of the inputs, in order."""
        if not grids:
            raise ValueError("cannot concatenate zero grids")
        names: tuple[str, ...] = ()
        for grid in grids:
            names = names + grid.names
        columns = {
            name: np.concatenate([getattr(grid, name) for grid in grids])
            for name, _ in grids[0]._columns()
        }
        return cls(names=names, **columns)

    def take_offline(self, resource: str, offline, refusal: str) -> None:
        """Configure ``offline`` pipe-sets or banks out of every row, in place.

        ``resource`` is ``"pipes"`` or ``"banks"``; ``offline`` is one
        count or a count per row.  The surviving pipes carry the
        intrinsic load, so per-element intrinsic rates scale by
        ``pipes / survivors``; fewer banks shrink the interleave, which
        the cost model's gcd arithmetic turns into conflicts.  Raises
        ``ValueError(refusal)``, leaving the grid untouched, when a row
        would keep none.  Sweeps and
        :func:`repro.faults.degraded.degrade_processor` both degrade
        through here.
        """
        if resource == "pipes":
            remaining = self.pipes - offline
            if (remaining < 1.0).any():
                raise ValueError(refusal)
            scale = self.pipes / remaining
            self.vector_intrinsic_rates[:] = self.vector_intrinsic_rates * scale[:, None]
            self.pipes[:] = remaining
        else:
            remaining_banks = self.banks - np.asarray(offline).astype(np.int64)
            if (remaining_banks < 1).any():
                raise ValueError(refusal)
            self.banks[:] = remaining_banks

    def validate(self) -> None:
        """Raise if any row violates a component constructor constraint.

        Sweeps build grids by writing columns directly, bypassing the
        component constructors; this re-checks their invariants in bulk
        so an invalid sweep point fails loudly, not as a silent NaN.
        """
        checks = [
            ("period_ns", self.period_ns > 0.0),
            ("pipes", self.pipes >= 1.0),
            ("concurrent_sets", self.concurrent_sets >= 1.0),
            ("startup_cycles", self.startup_cycles >= 0.0),
            ("register_length", self.register_length >= 1.0),
            ("stripmine_cycles", self.stripmine_cycles >= 0.0),
            ("vector_intrinsic_rates", (self.vector_intrinsic_rates >= 0.0).all(axis=1)),
            ("banks", self.banks >= 1),
            ("bank_busy_cycles", self.bank_busy_cycles > 0.0),
            ("port_words_per_cycle", self.port_words_per_cycle > 0.0),
            ("stride_base_penalty", self.stride_base_penalty >= 1.0),
            ("gather_base_penalty", self.gather_base_penalty >= 1.0),
            ("index_words_per_element", self.index_words_per_element >= 0.0),
            ("issue_width", self.issue_width > 0.0),
            ("flops_per_cycle", self.flops_per_cycle > 0.0),
            ("loop_overhead_instructions", self.loop_overhead_instructions >= 0.0),
            ("scalar_intrinsic_rates", (self.scalar_intrinsic_rates >= 0.0).all(axis=1)),
            ("cache_size_bytes", self.cache_size_bytes >= 8),
            ("cache_line_bytes", self.cache_line_bytes >= 8),
            ("cache_hit_cycles_per_word", self.cache_hit_cycles_per_word >= 0.0),
            ("cache_miss_latency_cycles", self.cache_miss_latency_cycles >= 0.0),
            ("cache_mem_words_per_cycle", self.cache_mem_words_per_cycle > 0.0),
        ]
        for name, ok in checks:
            bad = np.nonzero(~np.asarray(ok))[0]
            if bad.size:
                i = int(bad[0])
                raise ValueError(
                    f"grid parameter {name!r} is out of range for machine "
                    f"{self.names[i]!r} (row {i}, {bad.size} row(s) total)"
                )

    def distinct_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """Each distinct cycle-parameter row, and every row's map back to it.

        Returns ``(index, inverse)``: ``index`` holds the first row of
        each set of rows that agree on every column but ``period_ns``,
        and ``index[inverse]`` maps each row to its set's first row.
        Rows compare on their exact bytes, so two rows merge only when
        their cycle parameters are bit-identical (``0.0`` and ``-0.0``
        stay apart); merged rows then evaluate the same cost expressions
        on the same doubles, and cost the same cycles.  The sets come in
        the order of their bytes, not of the rows, so a grid with its
        rows permuted has the same distinct rows.
        """
        m = self.n_machines
        key = np.concatenate(
            [
                np.ascontiguousarray(column).reshape(m, -1).view(np.uint8)
                for _, column in self._cycle_columns()
            ],
            axis=1,
        )
        rows = key.view(np.dtype((np.void, key.shape[1]))).ravel()
        _, index, inverse = np.unique(rows, return_index=True, return_inverse=True)
        return index, inverse.ravel()

    def fingerprint(self) -> str:
        """Content hash of the cycle columns (names and clock excluded).

        Two grids share a fingerprint when their rows cost the same
        cycles, whatever the rows are called and whatever their clocks:
        a sweep chunk stores only cycles and clock-free totals, and
        seconds are derived from each caller's own ``period_ns``.
        """
        hasher = hashlib.sha256()
        hasher.update(b"machine-grid\x00")
        for name, column in self._cycle_columns():
            hasher.update(name.encode("ascii"))
            hasher.update(b"\x00")
            hasher.update(np.ascontiguousarray(column).tobytes())
            hasher.update(b"\x00")
        return hasher.hexdigest()

    # -- materialization ----------------------------------------------------
    def materialize(self, index: int) -> Processor:
        """A new concrete :class:`Processor` for one grid row."""
        i = int(index)
        scalar = ScalarUnit(
            issue_width=float(self.issue_width[i]),
            flops_per_cycle=float(self.flops_per_cycle[i]),
            cache=CacheModel(
                size_bytes=int(self.cache_size_bytes[i]),
                line_bytes=int(self.cache_line_bytes[i]),
                hit_cycles_per_word=float(self.cache_hit_cycles_per_word[i]),
                miss_latency_cycles=float(self.cache_miss_latency_cycles[i]),
                mem_words_per_cycle=float(self.cache_mem_words_per_cycle[i]),
            ),
            loop_overhead_instructions=float(self.loop_overhead_instructions[i]),
            intrinsic_cycles_per_call={
                name: float(self.scalar_intrinsic_rates[i, column])
                for column, name in enumerate(SORTED_INTRINSICS)
            },
        )
        vector = memory = None
        if self.has_vector[i]:
            vector = VectorUnit(
                pipes=_pynum(self.pipes[i]),
                concurrent_sets=_pynum(self.concurrent_sets[i]),
                startup_cycles=float(self.startup_cycles[i]),
                register_length=_pynum(self.register_length[i]),
                stripmine_cycles=float(self.stripmine_cycles[i]),
                intrinsic_cycles_per_element={
                    name: float(self.vector_intrinsic_rates[i, column])
                    for column, name in enumerate(SORTED_INTRINSICS)
                },
            )
            memory = BankedMemory(
                banks=int(self.banks[i]),
                bank_busy_cycles=float(self.bank_busy_cycles[i]),
                port_words_per_cycle=float(self.port_words_per_cycle[i]),
                stride_base_penalty=float(self.stride_base_penalty[i]),
                gather_base_penalty=float(self.gather_base_penalty[i]),
                index_words_per_element=float(self.index_words_per_element[i]),
                contention_slope=float(self.contention_slope[i]),
                contention_base_slope=float(self.contention_base_slope[i]),
            )
        return Processor(
            name=self.names[i],
            clock=Clock(period_ns=float(self.period_ns[i])),
            scalar=scalar,
            vector=vector,
            memory=memory,
        )


@dataclass(frozen=True)
class GridTraceCost:
    """One trace costed against every machine of a grid.

    Arrays are indexed by grid row.  ``raw_flops``/``flop_equivalents``/
    ``words_moved`` are machine-independent trace totals (identical to
    the per-machine report fields); the derived rate fields replicate
    :class:`~repro.machine.processor.ExecutionReport`'s expressions
    elementwise, zero-guard included.
    """

    trace_name: str
    machine_names: tuple[str, ...]
    cycles: np.ndarray
    seconds: np.ndarray
    mflops: np.ndarray
    bandwidth_bytes_per_s: np.ndarray
    raw_flops: float
    flop_equivalents: float
    words_moved: float

    @classmethod
    def from_cycles(
        cls,
        trace_name: str,
        grid: MachineGrid,
        cycles: np.ndarray,
        raw_flops: float,
        flop_equivalents: float,
        words_moved: float,
    ) -> "GridTraceCost":
        """Derive seconds and rates from per-machine cycles with the
        report's expressions, elementwise."""
        seconds = cycles * (grid.period_ns * NS)
        zero = seconds == 0.0
        safe_seconds = np.where(zero, 1.0, seconds)
        return cls(
            trace_name=trace_name,
            machine_names=grid.names,
            cycles=cycles,
            seconds=seconds,
            mflops=np.where(zero, 0.0, flop_equivalents / safe_seconds / MEGA),
            bandwidth_bytes_per_s=np.where(zero, 0.0, (words_moved * 8.0) / safe_seconds),
            raw_flops=raw_flops,
            flop_equivalents=flop_equivalents,
            words_moved=words_moved,
        )

    @property
    def n_machines(self) -> int:
        return len(self.machine_names)

    def report(self, index: int) -> ExecutionReport:
        """One machine's row as a standard :class:`ExecutionReport`.

        The report's derived properties (mflops, bandwidth) recompute
        from the same scalars with the same expressions, so they agree
        bit-for-bit with this cost's array entries.
        """
        i = int(index)
        return ExecutionReport(
            machine=self.machine_names[i],
            trace_name=self.trace_name,
            cycles=float(self.cycles[i]),
            seconds=float(self.seconds[i]),
            raw_flops=self.raw_flops,
            flop_equivalents=self.flop_equivalents,
            words_moved=self.words_moved,
        )


def cost_trace_grid(
    trace: "Trace", grid: MachineGrid, memory_dilation: float = 1.0
) -> GridTraceCost:
    """Cost one trace against every machine of a grid in one pass."""
    return cost_suite_trace_grid(compile_trace(trace), grid, memory_dilation)[0]


def cost_suite_trace_grid(
    compiled: CompiledTrace, grid: MachineGrid, memory_dilation: float = 1.0
) -> list[GridTraceCost]:
    """Cost every trace of a lowering against every machine in one pass.

    The per-op cycle matrices come from the shared cost model over
    ``(n, 1)`` views of the op columns, so the whole traces × grid cross
    product costs in a single ``(n_ops, n_machines)`` broadcast pass.
    Each trace's per-machine cycles are exactly-rounded sums over its
    own rows, and the derived fields replicate the report expressions,
    so every :class:`GridTraceCost` is bit-identical to executing its
    trace alone per machine through ``Processor.execute``.
    """
    costmodel.check_dilation(memory_dilation)
    memo: dict = {}
    m = grid.n_machines
    v, s = compiled.vector, compiled.scalar
    vector_cycles = (
        costmodel.vector_op_cycles(grid, costmodel.grid_view(v), memory_dilation, memo)
        if v.n
        else np.zeros((0, m))
    )
    scalar_cycles = (
        costmodel.scalar_op_cycles(grid, costmodel.grid_view(s), memo)
        if s.n
        else np.zeros((0, m))
    )
    if perfmon_active() is not None:
        perfmon_record(
            "grid",
            {"machines": float(m), "machine_traces": float(m * len(compiled.trace_names))},
        )
    per_trace = compiled.segment_sums(vector_cycles.T, scalar_cycles.T)
    return [
        GridTraceCost.from_cycles(name, grid, np.array(cycles), *totals)
        for name, cycles, totals in zip(compiled.trace_names, per_trace, compiled.totals)
    ]
