"""Machine-axis lowering: cost a trace against thousands of machines at once.

:mod:`repro.machine.compiled` vectorizes costing across the *ops* of a
trace; this module vectorizes across the *machines*.  A
:class:`MachineGrid` lowers every cost-relevant processor parameter
(clock period, vector pipes, bank count, startup overheads, cache
geometry, ...) into structure-of-arrays columns — one float64/int64
entry per machine — so one broadcasted NumPy pass of shape
``(n_ops, n_machines)`` prices a whole trace against a whole design
space.

The correctness story is the same exact-parity contract the columnar
path holds against the per-op oracle, one level up:

* every grid kernel evaluates the *exact expression* of its per-machine
  ``*_cycles_batch`` sibling, with op columns broadcast as ``(n, 1)``
  against machine columns as ``(m,)`` — IEEE-754 arithmetic is
  elementwise, so machine ``j``'s column of the broadcasted result is
  bit-identical to running that machine's batch kernel alone;
* cache machines get benign placeholder vector/memory columns (masked
  out by ``has_vector`` through :func:`numpy.where`, which *selects*
  values and never mixes lanes), and vector machines' scalar columns
  are real, so one pass covers a heterogeneous grid;
* per-machine totals reduce with :func:`~repro.machine.compiled.fsum_columns`
  (exactly-rounded column sums), matching the per-machine ``fsum``.

``tests/machine/test_grid*.py`` pins the contract down: every
:class:`GridTraceCost` field equals the per-machine report (and hence
the per-op oracle) bit-for-bit on all registered traces across the six
canonical presets, and on hypothesis-random machines and traces.

REPO009 (:mod:`repro.analysis.repolint`) keeps the pairing closed under
extension: every public ``*_cycles_grid`` method must sit next to the
per-machine ``*_cycles_batch`` sibling the parity suite verifies it
against.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING

import numpy as np

from repro.machine.cache import CacheModel
from repro.machine.clock import Clock
from repro.machine.compiled import SORTED_INTRINSICS, compile_trace, fsum_columns
from repro.machine.memory import BankedMemory
from repro.machine.processor import ExecutionReport, Processor
from repro.machine.scalar_unit import ScalarUnit
from repro.machine.vector_unit import VectorUnit
from repro.perfmon.collector import active as perfmon_active
from repro.perfmon.collector import record as perfmon_record
from repro.perfmon.counters import declare_counters
from repro.units import MEGA, NS

if TYPE_CHECKING:
    from repro.machine.compiled import CompiledTrace, VectorColumns
    from repro.machine.operations import Trace

__all__ = ["MachineGrid", "GridTraceCost", "cost_trace_grid", "cost_suite_trace_grid"]

declare_counters(
    "grid",
    (
        "machines",  # machines in grids handed to cost_trace_grid
        "machine_traces",  # (machine, trace) pairs costed
        "costings",  # cost_trace_grid calls that computed columns
        "memo_hits",  # cost_trace_grid calls served from the trace memo
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
    #: materialized processors, memoised per row so their component ids
    #: stay stable across calls (the compiled-trace memo keys on them).
    _materialized: dict[int, Processor] = field(default_factory=dict, repr=False)

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
        return [
            (f.name, getattr(self, f.name))
            for f in fields(self)
            if not f.name.startswith("_") and f.name != "names"
        ]

    # -- construction -------------------------------------------------------
    @classmethod
    def from_processors(cls, processors: list[Processor]) -> "MachineGrid":
        """Lower concrete processors into grid columns, exactly.

        Placeholder vector/memory parameters for cache machines are
        chosen so every grid expression stays finite (no zero divisors);
        their lanes are discarded by the ``has_vector`` selection.
        """
        if not processors:
            raise ValueError("a MachineGrid needs at least one processor")
        rows = []
        for p in processors:
            vector = p.vector
            memory = p.memory
            scalar = p.scalar
            cache = scalar.cache
            rows.append(
                dict(
                    has_vector=vector is not None,
                    period_ns=p.clock.period_ns,
                    pipes=vector.pipes if vector else 1.0,
                    concurrent_sets=vector.concurrent_sets if vector else 1.0,
                    startup_cycles=vector.startup_cycles if vector else 0.0,
                    register_length=vector.register_length if vector else 1.0,
                    stripmine_cycles=vector.stripmine_cycles if vector else 0.0,
                    vector_intrinsic_rates=[
                        vector.intrinsic_cycles_per_element[name] if vector else 0.0
                        for name in SORTED_INTRINSICS
                    ],
                    banks=memory.banks if memory else 1,
                    bank_busy_cycles=memory.bank_busy_cycles if memory else 1.0,
                    port_words_per_cycle=memory.port_words_per_cycle if memory else 2.0,
                    stride_base_penalty=memory.stride_base_penalty if memory else 1.0,
                    gather_base_penalty=memory.gather_base_penalty if memory else 1.0,
                    index_words_per_element=memory.index_words_per_element if memory else 0.0,
                    contention_slope=memory.contention_slope if memory else 0.0,
                    contention_base_slope=memory.contention_base_slope if memory else 0.0,
                    issue_width=scalar.issue_width,
                    flops_per_cycle=scalar.flops_per_cycle,
                    loop_overhead_instructions=scalar.loop_overhead_instructions,
                    scalar_intrinsic_rates=[
                        scalar.intrinsic_cycles_per_call[name] for name in SORTED_INTRINSICS
                    ],
                    cache_size_bytes=cache.size_bytes,
                    cache_line_bytes=cache.line_bytes,
                    cache_hit_cycles_per_word=cache.hit_cycles_per_word,
                    cache_miss_latency_cycles=cache.miss_latency_cycles,
                    cache_mem_words_per_cycle=cache.mem_words_per_cycle,
                )
            )
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

    def fingerprint(self) -> str:
        """Content hash of the numeric columns (names excluded).

        Two grids with the same parameters share a fingerprint no matter
        what the rows are called — chunk caching keys on the numbers
        that determine cost, nothing else.
        """
        hasher = hashlib.sha256()
        hasher.update(b"machine-grid\x00")
        for name, column in self._columns():
            hasher.update(name.encode("ascii"))
            hasher.update(b"\x00")
            hasher.update(np.ascontiguousarray(column).tobytes())
            hasher.update(b"\x00")
        return hasher.hexdigest()

    # -- materialization ----------------------------------------------------
    def materialize(self, index: int) -> Processor:
        """The concrete :class:`Processor` of one grid row.

        Memoised per row: repeated calls return the same instance, so
        compiled-trace memo entries keyed on its components stay warm.
        """
        i = int(index)
        cached = self._materialized.get(i)
        if cached is not None:
            return cached
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
        processor = Processor(
            name=self.names[i],
            clock=Clock(period_ns=float(self.period_ns[i])),
            scalar=scalar,
            vector=vector,
            memory=memory,
        )
        self._materialized[i] = processor
        return processor

    # -- grid kernels (exact mirrors of the *_cycles_batch siblings) --------
    # Op columns broadcast as (n, 1) against machine columns as (m,);
    # every elementwise expression below keeps the association of its
    # per-machine sibling, so column j of any result is bit-identical to
    # running machine j's batch kernel alone.
    def _path_words(self) -> np.ndarray:
        return self.port_words_per_cycle / 2.0

    def _stride_factor_grid(self, strides: np.ndarray) -> np.ndarray:
        """(n, m) stride dilation — BankedMemory.stride_factor, vectorized.

        ``np.gcd`` agrees with ``math.gcd`` on int64, so the distinct-
        bank count (and everything downstream) matches the scalar code
        mapped over the unique strides.
        """
        unique, inverse = np.unique(strides, return_inverse=True)
        distinct = self.banks[None, :] // np.gcd(unique[:, None], self.banks[None, :])
        sustainable = distinct / self.bank_busy_cycles[None, :]
        conflict = np.maximum(1.0, self._path_words()[None, :] / sustainable)
        factors = np.where(
            unique[:, None] <= 2, 1.0, self.stride_base_penalty[None, :] * conflict
        )
        return factors[inverse]

    def _gather_factor_grid(self) -> np.ndarray:
        """(m,) list-vector dilation — BankedMemory.gather_factor."""
        occupancy = self._path_words() * self.bank_busy_cycles / self.banks
        return self.gather_base_penalty * (1.0 + occupancy)

    def _load_cycles_grid(self, v: "VectorColumns") -> np.ndarray:
        width = self._path_words()[None, :]
        length = v.length[:, None]
        cycles = v.loads[:, None] * length * self._stride_factor_grid(v.load_stride) / width
        cycles = cycles + v.gather[:, None] * length * self._gather_factor_grid()[None, :] / width
        indexed = (v.gather + v.scatter)[:, None]
        cycles = cycles + indexed * length * self.index_words_per_element[None, :] / width
        return cycles

    def _store_cycles_grid(self, v: "VectorColumns") -> np.ndarray:
        width = self._path_words()[None, :]
        length = v.length[:, None]
        cycles = v.stores[:, None] * length * self._stride_factor_grid(v.store_stride) / width
        cycles = cycles + v.scatter[:, None] * length * self._gather_factor_grid()[None, :] / width
        return cycles

    def _transfer_cycles_grid(self, v: "VectorColumns") -> np.ndarray:
        return np.maximum(self._load_cycles_grid(v), self._store_cycles_grid(v))

    def _arithmetic_cycles_grid(self, v: "VectorColumns") -> np.ndarray:
        """(n, m) pipeline-busy cycles — VectorUnit.arithmetic_cycles_batch."""
        sets_used = np.minimum(self.concurrent_sets[None, :], np.maximum(1.0, v.flops)[:, None])
        cycles = v.length[:, None] * v.flops[:, None] / (self.pipes[None, :] * sets_used)
        for column in range(len(SORTED_INTRINSICS)):
            rate = self.vector_intrinsic_rates[:, column][None, :]
            cycles = cycles + (v.length[:, None] * v.intrinsics[:, column][:, None]) * rate
        return cycles

    def _overhead_cycles_grid(self, v: "VectorColumns") -> np.ndarray:
        """(n, m) startup + strip-mining — VectorUnit.overhead_cycles_batch."""
        strips = np.maximum(1.0, np.ceil(v.length[:, None] / self.register_length[None, :]))
        return self.startup_cycles[None, :] + (strips - 1.0) * self.stripmine_cycles[None, :]

    def _cache_cycles_per_word_grid(
        self, stride: np.ndarray, working_set: np.ndarray
    ) -> np.ndarray:
        """(n, m) per-word cost — CacheModel.cycles_per_word_batch."""
        words_per_line = self.cache_line_bytes // 8
        streaming = np.where(
            stride[:, None] >= words_per_line[None, :],
            1.0,
            stride[:, None] / words_per_line[None, :],
        )
        rate = np.where(working_set[:, None] <= self.cache_size_bytes[None, :], 0.0, streaming)
        line_fill = self.cache_miss_latency_cycles + words_per_line / self.cache_mem_words_per_cycle
        return self.cache_hit_cycles_per_word[None, :] + rate * line_fill[None, :]

    def _scalar_vector_cycles_grid(self, v: "VectorColumns") -> np.ndarray:
        """(n, m) VectorOps as scalar loops — ScalarUnit.vector_op_cycles_batch."""
        words_per_elem = (v.loads + v.stores)[:, None]
        indexed_per_elem = v.gather + v.scatter
        working_set = (v.loads * v.load_stride + v.stores * v.store_stride) * v.length * 8.0
        stride = np.maximum(v.load_stride, v.store_stride)
        mem_cycles = words_per_elem * self._cache_cycles_per_word_grid(stride, working_set)
        mem_cycles = mem_cycles + (indexed_per_elem * 2.0)[:, None] * (
            self.cache_hit_cycles_per_word[None, :]
        )
        flop_cycles = v.flops[:, None] / self.flops_per_cycle[None, :]
        loop_cycles = (self.loop_overhead_instructions / self.issue_width)[None, :]
        intrinsic_cycles = np.zeros((v.n, self.n_machines))
        for column in range(len(SORTED_INTRINSICS)):
            rate = self.scalar_intrinsic_rates[:, column][None, :]
            intrinsic_cycles = intrinsic_cycles + v.intrinsics[:, column][:, None] * rate
        per_element = np.maximum(flop_cycles, mem_cycles) + loop_cycles + intrinsic_cycles
        return v.length[:, None] * per_element

    # -- public costing API --------------------------------------------------
    # The reference chain the parity suite walks: ``*_cycles_grid`` is
    # verified against ``*_cycles_batch`` (one materialized machine's
    # compiled path, REPO009), which is itself verified against the
    # per-op ``*_cycles`` methods (REPO007).
    def vector_op_cycles(self, op, index: int, memory_dilation: float = 1.0) -> float:
        """Per-op reference for one row: the materialized processor's
        per-op oracle."""
        return self.materialize(index).vector_op_cycles(op, memory_dilation)

    def vector_op_cycles_batch(
        self, compiled: "CompiledTrace", index: int, memory_dilation: float = 1.0
    ) -> np.ndarray:
        """Per-machine reference for one row: the materialized processor's
        compiled path — what the parity suite compares a grid column to."""
        return self.materialize(index).vector_op_cycles_batch(compiled, memory_dilation)

    def vector_op_cycles_grid(
        self, compiled: "CompiledTrace", memory_dilation: float = 1.0
    ) -> np.ndarray:
        """(n_vector_ops, m) total cycles for every vector op × machine.

        The dilation-independent matrices are memoised on the compiled
        trace keyed by this grid, exactly as the per-machine path
        memoises its cost columns per component set.
        """
        if not memory_dilation >= 1.0:  # also rejects NaN
            raise ValueError(f"memory dilation cannot shrink time, got {memory_dilation}")
        v = compiled.vector
        cache = compiled.machine_cache(self)
        per_execution = None
        if bool(self.has_vector.any()):
            arithmetic = cache.get("grid_arithmetic")
            if arithmetic is None:
                arithmetic = cache["grid_arithmetic"] = self._arithmetic_cycles_grid(v)
                cache["grid_overhead"] = self._overhead_cycles_grid(v)
                cache["grid_transfer"] = self._transfer_cycles_grid(v)
            memory = cache["grid_transfer"] * memory_dilation
            per_execution = cache["grid_overhead"] + np.maximum(arithmetic, memory)
        if not bool(self.has_vector.all()):
            scalar_vector = cache.get("grid_scalar_vector")
            if scalar_vector is None:
                scalar_vector = cache["grid_scalar_vector"] = self._scalar_vector_cycles_grid(v)
            dilated = scalar_vector * memory_dilation
            if per_execution is None:
                per_execution = dilated
            else:
                per_execution = np.where(self.has_vector[None, :], per_execution, dilated)
        return per_execution * v.count[:, None]

    def scalar_op_cycles(self, op, index: int) -> float:
        """Per-op reference for one row (see ``vector_op_cycles``)."""
        return self.materialize(index).scalar_op_cycles(op)

    def scalar_op_cycles_batch(self, compiled: "CompiledTrace", index: int) -> np.ndarray:
        """Per-machine reference for one row (see ``vector_op_cycles_batch``)."""
        return self.materialize(index).scalar_op_cycles_batch(compiled)

    def scalar_op_cycles_grid(self, compiled: "CompiledTrace") -> np.ndarray:
        """(n_scalar_ops, m) total cycles for every scalar op × machine."""
        s = compiled.scalar
        cache = compiled.machine_cache(self)
        per_execution = cache.get("grid_scalar_op")
        if per_execution is None:
            issue = s.instructions[:, None] / self.issue_width[None, :]
            fp = s.flops[:, None] / self.flops_per_cycle[None, :]
            memory = s.memory_words[:, None] * self.cache_hit_cycles_per_word[None, :]
            per_execution = cache["grid_scalar_op"] = issue + fp + memory
        return per_execution * s.count[:, None]


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
    """Cost one trace against every machine of a grid in one pass.

    Bit-exact with executing the trace per machine through
    ``Processor.execute``: the per-op matrices come from the grid kernels (exact
    mirrors of the batch kernels), per-machine totals are exactly-
    rounded column sums, and the derived fields replicate the report
    expressions.  The combined cycles vector is memoised on the
    compiled trace per (grid, dilation), so dilation sweeps and repeat
    costings are dictionary lookups.
    """
    compiled = compile_trace(trace)
    cache = compiled.machine_cache(grid)
    key = f"grid_cost@{float(memory_dilation)!r}"
    cycles = cache.get(key)
    computed = cycles is None
    if computed:
        m = grid.n_machines
        vector_cycles = (
            grid.vector_op_cycles_grid(compiled, memory_dilation)
            if compiled.vector.n
            else np.zeros((0, m))
        )
        scalar_cycles = (
            grid.scalar_op_cycles_grid(compiled) if compiled.scalar.n else np.zeros((0, m))
        )
        cycles = cache[key] = fsum_columns(
            np.concatenate([vector_cycles, scalar_cycles], axis=0)
        )
    if perfmon_active() is not None:
        m = grid.n_machines
        perfmon_record(
            "grid",
            {
                "machines": float(m),
                "machine_traces": float(m),
                "costings": 1.0 if computed else 0.0,
                "memo_hits": 0.0 if computed else 1.0,
            },
        )
    seconds = cycles * (grid.period_ns * NS)
    zero = seconds == 0.0
    safe_seconds = np.where(zero, 1.0, seconds)
    flop_equivalents = compiled.flop_equivalents_total()
    words_moved = compiled.words_moved_total()
    mflops = np.where(zero, 0.0, flop_equivalents / safe_seconds / MEGA)
    bandwidth = np.where(zero, 0.0, (words_moved * 8.0) / safe_seconds)
    return GridTraceCost(
        trace_name=trace.name,
        machine_names=grid.names,
        cycles=cycles,
        seconds=seconds,
        mflops=mflops,
        bandwidth_bytes_per_s=bandwidth,
        raw_flops=compiled.raw_flops_total(),
        flop_equivalents=flop_equivalents,
        words_moved=words_moved,
    )


def cost_suite_trace_grid(
    suite, grid: MachineGrid, memory_dilation: float = 1.0
) -> list[GridTraceCost]:
    """Cost a stacked suite against every machine in one fused pass.

    ``suite`` is a :class:`~repro.machine.suitebatch.SuiteColumns`
    stack: its ``vector``/``scalar`` columns and ``machine_cache`` make
    it a drop-in ``CompiledTrace`` for the grid kernels, so the whole
    suite × grid cross product costs in a single ``(n_ops, n_machines)``
    broadcasted pass — no per-trace Python loop over kernel launches.
    Per-(trace, machine) totals reduce each trace's *segment* of the
    stacked matrices with :func:`fsum_columns`; the exactly-rounded
    column sums make every returned :class:`GridTraceCost` bit-identical
    to :func:`cost_trace_grid` on that trace alone.  The per-trace
    cycle vectors are memoised on the stack per (grid, dilation).
    """
    cache = suite.machine_cache(grid)
    key = f"suite_grid_cost@{float(memory_dilation)!r}"
    per_trace = cache.get(key)
    computed = per_trace is None
    m = grid.n_machines
    if computed:
        vector_cycles = (
            grid.vector_op_cycles_grid(suite, memory_dilation)
            if suite.vector.n
            else np.zeros((0, m))
        )
        scalar_cycles = (
            grid.scalar_op_cycles_grid(suite) if suite.scalar.n else np.zeros((0, m))
        )
        vo, so = suite.vector_offsets, suite.scalar_offsets
        per_trace = cache[key] = tuple(
            fsum_columns(
                np.concatenate(
                    [vector_cycles[vo[i]:vo[i + 1]], scalar_cycles[so[i]:so[i + 1]]],
                    axis=0,
                )
            )
            for i in range(suite.n_traces)
        )
    if perfmon_active() is not None:
        perfmon_record(
            "grid",
            {
                "machines": float(m),
                "machine_traces": float(m * suite.n_traces),
                "costings": 1.0 if computed else 0.0,
                "memo_hits": 0.0 if computed else 1.0,
            },
        )
    costs: list[GridTraceCost] = []
    for i in range(suite.n_traces):
        cycles = per_trace[i]
        seconds = cycles * (grid.period_ns * NS)
        zero = seconds == 0.0
        safe_seconds = np.where(zero, 1.0, seconds)
        raw_flops, flop_equivalents, words_moved = suite.trace_totals(i)
        costs.append(
            GridTraceCost(
                trace_name=suite.trace_names[i],
                machine_names=grid.names,
                cycles=cycles,
                seconds=seconds,
                mflops=np.where(zero, 0.0, flop_equivalents / safe_seconds / MEGA),
                bandwidth_bytes_per_s=np.where(
                    zero, 0.0, (words_moved * 8.0) / safe_seconds
                ),
                raw_flops=raw_flops,
                flop_equivalents=flop_equivalents,
                words_moved=words_moved,
            )
        )
    return costs
