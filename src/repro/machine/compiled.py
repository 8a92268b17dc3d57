"""Columnar trace compilation: structure-of-arrays lowering of traces.

A regeneration pass costs 431 traces whose median length is 3 ops (the
vector-length/resolution scans of Figures 5-8, the Table 6 ensembles,
the node model's CPU-count scan).  Lowering and costing each 3-op
trace on its own would bound that by NumPy's fixed dispatch: a few
dozen NumPy calls per trace then outweigh the model's arithmetic.  A
:class:`~repro.machine.operations.Trace` already holds its ops as
columns, one Python tuple per op field, so :func:`compile_trace`
lowers all the traces of one costing call together without reading an
op object: it chains each field's columns across the traces and makes
one NumPy array per field, giving a :class:`CompiledTrace` — float64
columns for every descriptor field, an ``n_vector_ops x 6``
intrinsic-call matrix with the columns some row calls, the distinct
strides, and each trace's name, segment of the rows and
``(raw_flops, flop_equivalents, words_moved)`` totals.  It is the one
lowered form of one trace or many:
:mod:`repro.machine.costmodel` costs every op in a handful of NumPy
expressions over its columns, for one machine
(:meth:`~repro.machine.processor.Processor.execute_all`) or a whole
grid of them (:func:`~repro.machine.grid.cost_suite_trace_grid`), and
:meth:`CompiledTrace.segment_sums` reduces each trace's segment for
both: the totals, the reports' cycles, the profiled counters and the
grid's per-machine cycles.

The contract with the per-op oracle (the components' ``*_cycles``
methods, walked by
:meth:`~repro.machine.processor.Processor.per_op_cycles`) is **exact
parity**:

* every column expression reproduces the corresponding scalar property
  arithmetic operation-for-operation (same IEEE-754 double ops, same
  association, same accumulation order over the sorted intrinsic
  names), so per-op cycle counts are bit-identical.  An intrinsic no
  row of the batch calls would add an exact zero to every row, so
  lowering and costing skip it; in a cost term one ``+ 0.0`` stands
  for all such terms, which keeps a zero's sign as the oracle's;
* every total goes through :func:`math.fsum`, whose result is the
  correctly-rounded exact sum and therefore independent of summation
  order — so totals are bit-identical too.

The parity suite (tests/machine/test_compiled*.py) exercises it, and
``tests/machine/golden_costing.json`` pins the totals absolutely.

Nothing is cached.  :func:`compile_trace` is the only way to lower a
trace, and it lowers afresh on every call: each builder makes its
traces anew, so a regeneration pass would never find a lowering to
reuse, and a trace's columns are its only state, so none is ever
costed from stale columns.  The compiled trace is a plain value too:
costing is a pure function of its columns, the machine parameters and
the memory dilation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import accumulate, chain
from operator import attrgetter

import numpy as np

from repro.machine.operations import (
    INTRINSIC_FLOP_EQUIV,
    INTRINSICS,
    ScalarRows,
    Trace,
    VectorRows,
)

__all__ = [
    "SORTED_INTRINSICS",
    "VectorColumns",
    "ScalarColumns",
    "CompiledTrace",
    "compile_trace",
]

#: Intrinsic column order of the compiled intrinsic matrix.  Sorted by
#: name because ``VectorOp.intrinsic_calls`` is stored name-sorted: the
#: batched accumulation then visits intrinsics in exactly the order the
#: per-op loop does (absent intrinsics contribute an exact 0.0), which
#: is one of the two pillars of the bit-parity guarantee.
SORTED_INTRINSICS: tuple[str, ...] = tuple(sorted(INTRINSICS))
_INTRINSIC_COLUMN = {name: i for i, name in enumerate(SORTED_INTRINSICS)}


@dataclass(frozen=True)
class VectorColumns:
    """The vector ops of one or more traces, one float64 column per field.

    ``index`` maps each row back to its op's position (for scattering
    per-op cycles into trace order): in the concatenation of the traces
    one compile lowers, or, in a suite stack, in the row's own trace.
    ``intrinsics`` is an ``n x len(INTRINSICS)`` calls-per-element
    matrix with columns in :data:`SORTED_INTRINSICS` order, and
    ``intrinsic_columns`` the columns some row calls.  The derived
    columns reproduce the corresponding ``VectorOp`` property
    arithmetic exactly.
    """

    index: np.ndarray
    length: np.ndarray  # float64 copy of the int lengths
    count: np.ndarray
    flops: np.ndarray  # flops_per_element
    loads: np.ndarray  # loads_per_element
    stores: np.ndarray  # stores_per_element
    load_stride: np.ndarray  # int64
    store_stride: np.ndarray  # int64
    gather: np.ndarray  # gather_loads_per_element
    scatter: np.ndarray  # scatter_stores_per_element
    intrinsics: np.ndarray  # (n, len(INTRINSICS)) calls per element
    #: the ``intrinsics`` columns some row calls; costing skips the rest.
    intrinsic_columns: tuple[int, ...] = ()

    # derived, precomputed at compile time (machine-independent)
    elements: np.ndarray = field(repr=False, default=None)
    raw_flops: np.ndarray = field(repr=False, default=None)
    flop_equivalents: np.ndarray = field(repr=False, default=None)
    sequential_words: np.ndarray = field(repr=False, default=None)
    indexed_words: np.ndarray = field(repr=False, default=None)
    words_moved: np.ndarray = field(repr=False, default=None)
    intrinsic_calls_total: np.ndarray = field(repr=False, default=None)
    #: distinct load and store strides (int64, sorted); the stride
    #: dilation is computed once per entry, not once per op.
    strides: np.ndarray = field(repr=False, default=None)
    load_stride_index: np.ndarray = field(repr=False, default=None)  # into strides
    store_stride_index: np.ndarray = field(repr=False, default=None)  # into strides

    @property
    def n(self) -> int:
        return int(self.index.shape[0])

    @classmethod
    def from_rows(cls, rows: VectorRows) -> "VectorColumns":
        """Lower vector rows: a column per ``VectorOp`` field, plus ``position``."""
        n = len(rows.count)
        length = np.array(rows.length, dtype=np.float64)
        count = np.array(rows.count, dtype=np.float64)
        flops = np.array(rows.flops_per_element, dtype=np.float64)
        loads = np.array(rows.loads_per_element, dtype=np.float64)
        stores = np.array(rows.stores_per_element, dtype=np.float64)
        gather = np.array(rows.gather_loads_per_element, dtype=np.float64)
        scatter = np.array(rows.scatter_stores_per_element, dtype=np.float64)
        intrinsics = np.zeros((n, len(SORTED_INTRINSICS)), dtype=np.float64)
        called: set[int] = set()
        if any(rows.intrinsic_calls):
            for row, calls in enumerate(rows.intrinsic_calls):
                for name, per in calls:
                    column = _INTRINSIC_COLUMN[name]
                    intrinsics[row, column] = per
                    called.add(column)
        used = tuple(sorted(called))

        # Derived columns: each expression mirrors the VectorOp property
        # arithmetic (same association), so every entry is bit-identical
        # to the per-op value.  An intrinsic no row calls is skipped: it
        # would add a zero to every row of two columns that only feed
        # exactly-rounded sums, where a zero's sign cannot show.
        elements = length * count
        raw = flops * elements
        equiv = raw
        calls_total = np.zeros(n, dtype=np.float64)
        for i in used:
            per = intrinsics[:, i]
            equiv = equiv + (INTRINSIC_FLOP_EQUIV[SORTED_INTRINSICS[i]] * per) * elements
            calls_total = calls_total + per * elements
        sequential = (loads + stores) * length
        indexed = (gather + scatter) * length
        words = (sequential + indexed) * count
        load_stride = rows.load_stride
        store_stride = rows.store_stride
        return cls(
            index=np.array(rows.position, dtype=np.intp),
            length=length,
            count=count,
            flops=flops,
            loads=loads,
            stores=stores,
            load_stride=np.array(load_stride, dtype=np.int64),
            store_stride=np.array(store_stride, dtype=np.int64),
            gather=gather,
            scatter=scatter,
            intrinsics=intrinsics,
            intrinsic_columns=used,
            elements=elements,
            raw_flops=raw,
            flop_equivalents=equiv,
            sequential_words=sequential,
            indexed_words=indexed,
            words_moved=words,
            intrinsic_calls_total=calls_total,
            **_distinct_strides(load_stride, store_stride),
        )


def _distinct_strides(load_stride: list[int], store_stride: list[int]) -> dict:
    """The distinct strides of both streams, and each op's slot in them.

    A set and a dict, not ``np.unique``: a compile has a few ops to a
    thousand, and this runs once per compile.
    """
    strides = sorted({*load_stride, *store_stride})
    slot = {stride: i for i, stride in enumerate(strides)}
    index = np.array([slot[s] for s in load_stride + store_stride], dtype=np.intp)
    n = len(load_stride)
    return {
        "strides": np.array(strides, dtype=np.int64),
        "load_stride_index": index[:n],
        "store_stride_index": index[n:],
    }


@dataclass(frozen=True)
class ScalarColumns:
    """The scalar ops of one or more traces, one float64 column per field."""

    index: np.ndarray
    instructions: np.ndarray
    flops: np.ndarray
    memory_words: np.ndarray
    count: np.ndarray

    # derived
    raw_flops: np.ndarray = field(repr=False, default=None)
    words_moved: np.ndarray = field(repr=False, default=None)

    @property
    def n(self) -> int:
        return int(self.index.shape[0])

    @classmethod
    def from_rows(cls, rows: ScalarRows) -> "ScalarColumns":
        """Lower scalar rows: a column per ``ScalarOp`` field, plus ``position``."""
        flops = np.array(rows.flops, dtype=np.float64)
        memory_words = np.array(rows.memory_words, dtype=np.float64)
        count = np.array(rows.count, dtype=np.float64)
        return cls(
            index=np.array(rows.position, dtype=np.intp),
            instructions=np.array(rows.instructions, dtype=np.float64),
            flops=flops,
            memory_words=memory_words,
            count=count,
            raw_flops=flops * count,
            words_moved=memory_words * count,
        )


@dataclass(frozen=True)
class CompiledTrace:
    """One or more traces lowered to structure-of-arrays columns.

    Built by :func:`compile_trace`, which lowers its traces as one
    concatenation: ``names`` and each row's ``index`` follow that
    concatenation, and ``op_offsets``/``vector_offsets``/
    ``scalar_offsets`` delimit each trace's ops and rows.
    ``trace_names`` holds each trace's name and ``totals`` its
    ``(raw_flops, flop_equivalents, words_moved)``, exact sums over its
    own rows.  Machine-independent: the same compiled trace costs on any
    processor or grid, and costing only reads it.
    """

    trace_names: tuple[str, ...]
    names: tuple[str, ...]
    vector: VectorColumns
    scalar: ScalarColumns
    op_offsets: tuple[int, ...]  # (n_traces + 1,) segment bounds
    vector_offsets: tuple[int, ...]
    scalar_offsets: tuple[int, ...]
    totals: tuple[tuple[float, float, float], ...] = field(init=False)

    @property
    def n_ops(self) -> int:
        return len(self.names)

    def __post_init__(self) -> None:
        v, s = self.vector, self.scalar
        # ScalarOp.flop_equivalents == ScalarOp.raw_flops by definition.
        totals = self.segment_sums(
            (v.raw_flops, v.flop_equivalents, v.words_moved),
            (s.raw_flops, s.raw_flops, s.words_moved),
        )
        object.__setattr__(self, "totals", tuple(map(tuple, totals)))

    def segment_sums(self, vector=(), scalar=()) -> list[list[float]]:
        """Each trace's exactly-rounded sum of each quantity over its rows.

        ``vector`` and ``scalar`` hold one float64 column per quantity
        (a sequence of columns, or a matrix whose rows are the columns)
        over this lowering's vector or scalar ops; either may be left
        out.  Entry ``[k][i]`` is the :func:`math.fsum` of quantity
        ``i`` over trace ``k``'s rows of both.  Each column is listed
        once and each sum reads list slices, so no NumPy call is made
        per trace.  fsum's result does not depend on operand order, so
        each is the double a lowering of trace ``k`` alone gives, and
        the per-op oracle's sum.
        """
        vector_rows = [column.tolist() for column in vector] or [[]] * len(scalar)
        scalar_rows = [column.tolist() for column in scalar] or [[]] * len(vector)
        vo, so = self.vector_offsets, self.scalar_offsets
        return [
            [math.fsum(v[a:b] + s[c:d]) for v, s in zip(vector_rows, scalar_rows)]
            for a, b, c, d in zip(vo, vo[1:], so, so[1:])
        ]

    def scatter_cycles(
        self, vector_cycles: np.ndarray, scalar_cycles: np.ndarray
    ) -> np.ndarray:
        """Per-op cycles in original trace order."""
        out = np.zeros(self.n_ops, dtype=np.float64)
        out[self.vector.index] = vector_cycles
        out[self.scalar.index] = scalar_cycles
        return out


def compile_trace(*traces: Trace) -> CompiledTrace:
    """Lower traces to columns in one pass, reading their columns as they are now.

    Several traces lower as their concatenation: each field's list is
    the chain of every trace's column, made one NumPy array for the
    whole batch.  The per-call NumPy dispatch, not the arithmetic,
    dominates lowering a trace of a few ops, so it is paid once per call
    however many traces there are.
    """
    names = [trace._names for trace in traces]
    op_offsets = (0, *accumulate(map(len, names)))
    vector = [trace._vector for trace in traces]
    scalar = [trace._scalar for trace in traces]
    vector_rows = _concatenated(VectorRows, vector, op_offsets)
    scalar_rows = _concatenated(ScalarRows, scalar, op_offsets)
    return CompiledTrace(
        trace_names=tuple(trace.name for trace in traces),
        names=tuple(chain.from_iterable(names)),
        vector=VectorColumns.from_rows(vector_rows) if vector_rows.position else _NO_VECTORS,
        scalar=ScalarColumns.from_rows(scalar_rows) if scalar_rows.position else _NO_SCALARS,
        op_offsets=op_offsets,
        vector_offsets=_row_offsets(vector),
        scalar_offsets=_row_offsets(scalar),
    )


def _concatenated(kind: type, parts: list[tuple], starts) -> tuple:
    """The traces' rows of one kind as one column set, in trace order,
    with each row's position counted from its trace's start among all
    the ops.  One trace's rows are already that."""
    if len(parts) == 1:
        return parts[0]
    columns = [list(chain.from_iterable(column)) for column in zip(*parts)]
    columns = columns or [[] for _ in kind._fields]
    columns[0] = [start + p for start, rows in zip(starts, parts) for p in rows.position]
    return kind._make(columns)


def _row_offsets(parts: list[tuple]) -> tuple[int, ...]:
    """Each trace's segment bounds among the rows of one kind."""
    return (0, *accumulate(map(len, map(attrgetter("position"), parts))))


#: The lowering of no rows, which most batches have of one kind: costing
#: reads only its length, so every compile shares it.
_NO_VECTORS = VectorColumns.from_rows(VectorRows._make([] for _ in VectorRows._fields))
_NO_SCALARS = ScalarColumns.from_rows(ScalarRows._make([] for _ in ScalarRows._fields))
