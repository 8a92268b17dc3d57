"""Columnar trace compilation: structure-of-arrays lowering of a Trace.

Regenerating the paper's tables costs over four hundred traces per pass
(the vector-length/resolution scans of Figures 5-8, the Table 6
ensembles, the node model's CPU-count scan).  Walking each
:class:`~repro.machine.operations.Trace` one descriptor at a time would
bound that by interpreter overhead, not by the machine model.  This
module removes that bound: :func:`compile_trace` lowers a trace into a
:class:`CompiledTrace` — float64 columns for every descriptor field, an
``n_vector_ops x 6`` intrinsic-call matrix, and the trace's distinct
strides — and :mod:`repro.machine.costmodel` costs every op of a trace
in a handful of NumPy expressions over those columns, for one machine
or a whole grid of them.

The contract with the per-op oracle (the components' ``*_cycles``
methods, walked by
:meth:`~repro.machine.processor.Processor.per_op_cycles`) is **exact
parity**:

* every column expression reproduces the corresponding scalar property
  arithmetic operation-for-operation (same IEEE-754 double ops, same
  association, same accumulation order over the sorted intrinsic
  names), so per-op cycle counts are bit-identical;
* aggregates go through :func:`math.fsum`, whose result is the
  correctly-rounded exact sum and therefore independent of summation
  order — so totals are bit-identical too.

The parity suite (tests/machine/test_compiled*.py) exercises it, and
``tests/machine/golden_costing.json`` pins the totals absolutely.

Nothing is cached.  :func:`compile_trace` is the only way to lower a
trace, and it lowers afresh on every call: each builder makes its
traces anew, so a regeneration pass would never find a lowering to
reuse, and a trace edited in place is never costed from stale columns.
The compiled trace is a plain value too: costing is a pure function of
its columns, the machine parameters and the memory dilation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from dataclasses import fields as dataclass_fields

import numpy as np

from repro.machine.operations import (
    INTRINSIC_FLOP_EQUIV,
    INTRINSICS,
    ScalarOp,
    Trace,
    VectorOp,
)

__all__ = [
    "SORTED_INTRINSICS",
    "VectorColumns",
    "ScalarColumns",
    "CompiledTrace",
    "compile_trace",
    "fsum",
    "fsum_columns",
]

#: Intrinsic column order of the compiled intrinsic matrix.  Sorted by
#: name because ``VectorOp.intrinsic_calls`` is stored name-sorted: the
#: batched accumulation then visits intrinsics in exactly the order the
#: per-op loop does (absent intrinsics contribute an exact 0.0), which
#: is one of the two pillars of the bit-parity guarantee.
SORTED_INTRINSICS: tuple[str, ...] = tuple(sorted(INTRINSICS))


def fsum(values) -> float:
    """Exactly-rounded sum of a NumPy array or iterable of floats.

    ``math.fsum`` tracks exact partial sums, so its result does not
    depend on operand order — the property that makes the batched
    aggregate reductions bit-identical to the per-op oracle's.
    """
    if isinstance(values, np.ndarray):
        return math.fsum(values.tolist())
    return math.fsum(values)


def fsum_columns(matrix: np.ndarray) -> np.ndarray:
    """Exactly-rounded per-column sums of an ``(n, m)`` float64 matrix.

    The machine-grid reduction: column ``j`` holds machine ``j``'s
    per-op cycle costs, and its :func:`math.fsum` is bit-identical to
    the total the per-machine compiled path computes for that machine —
    fsum's exact partial sums make the result order-independent, so
    slicing a machine out of a grid changes nothing.
    """
    if matrix.shape[0] == 0:
        return np.zeros(matrix.shape[1])
    return np.array([math.fsum(column) for column in matrix.T.tolist()])


def _concat_column_fields(cls, parts, exclude=()) -> dict[str, np.ndarray]:
    """Field-wise ``np.concatenate`` over same-typed column sets.

    Concatenation copies raw float64 bit patterns, so every row of the
    stacked columns is bit-identical to its source row — the property
    the machine grid's stacked suite pass rests on.
    """
    return {
        f.name: np.concatenate([getattr(p, f.name) for p in parts])
        for f in dataclass_fields(cls)
        if f.name not in exclude
    }


@dataclass(frozen=True)
class VectorColumns:
    """The vector ops of one trace, one float64 column per field.

    ``index`` maps each row back to its position in the original trace
    (for scattering per-op cycles into trace order); ``intrinsics`` is
    an ``n x len(INTRINSICS)`` calls-per-element matrix with columns in
    :data:`SORTED_INTRINSICS` order.  The derived columns reproduce the
    corresponding :class:`VectorOp` property arithmetic exactly.
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
    def from_ops(cls, positions: list[int], ops: list[VectorOp]) -> "VectorColumns":
        n = len(ops)
        length = np.array([op.length for op in ops], dtype=np.float64)
        count = np.array([op.count for op in ops], dtype=np.float64)
        flops = np.array([op.flops_per_element for op in ops], dtype=np.float64)
        loads = np.array([op.loads_per_element for op in ops], dtype=np.float64)
        stores = np.array([op.stores_per_element for op in ops], dtype=np.float64)
        gather = np.array([op.gather_loads_per_element for op in ops], dtype=np.float64)
        scatter = np.array([op.scatter_stores_per_element for op in ops], dtype=np.float64)
        intrinsics = np.zeros((n, len(SORTED_INTRINSICS)), dtype=np.float64)
        column_of = {name: i for i, name in enumerate(SORTED_INTRINSICS)}
        for row, op in enumerate(ops):
            for name, per in op.intrinsic_calls:
                intrinsics[row, column_of[name]] = per

        # Derived columns: each expression mirrors the VectorOp property
        # arithmetic (same association), so every entry is bit-identical
        # to the per-op value.
        elements = length * count
        raw = flops * elements
        equiv = raw.copy()
        for i, name in enumerate(SORTED_INTRINSICS):
            equiv = equiv + (INTRINSIC_FLOP_EQUIV[name] * intrinsics[:, i]) * elements
        sequential = (loads + stores) * length
        indexed = (gather + scatter) * length
        words = (sequential + indexed) * count
        calls_total = np.zeros(n, dtype=np.float64)
        for i in range(len(SORTED_INTRINSICS)):
            calls_total = calls_total + intrinsics[:, i] * elements
        load_stride = [op.load_stride for op in ops]
        store_stride = [op.store_stride for op in ops]
        return cls(
            index=np.array(positions, dtype=np.intp),
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
            elements=elements,
            raw_flops=raw,
            flop_equivalents=equiv,
            sequential_words=sequential,
            indexed_words=indexed,
            words_moved=words,
            intrinsic_calls_total=calls_total,
            **_distinct_strides(load_stride, store_stride),
        )

    @classmethod
    def stack(cls, parts: list["VectorColumns"]) -> "VectorColumns":
        """Concatenate several traces' vector columns into one stack.

        Row values (including the precomputed derived columns) are
        preserved bit-exactly; ``index`` keeps each row's within-trace
        position so a segment slice scatters back into its own trace's
        op order.  The distinct strides are found again over the whole
        stack.  :class:`~repro.machine.suitebatch.SuiteColumns` stacks
        a trace suite this way for the machine grid's one-pass suite
        costing.
        """
        if not parts:
            return cls.from_ops([], [])
        columns = _concat_column_fields(cls, parts, exclude=_STRIDE_DEDUPE)
        return cls(
            **columns,
            **_distinct_strides(
                columns["load_stride"].tolist(), columns["store_stride"].tolist()
            ),
        )


#: VectorColumns fields derived from the whole column set, not per row.
_STRIDE_DEDUPE = ("strides", "load_stride_index", "store_stride_index")


def _distinct_strides(load_stride: list[int], store_stride: list[int]) -> dict:
    """The distinct strides of both streams, and each op's slot in them.

    A set and a dict, not ``np.unique``: a trace has a handful of ops,
    and this runs once per compile.
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
    """The scalar ops of one trace, one float64 column per field."""

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
    def from_ops(cls, positions: list[int], ops: list[ScalarOp]) -> "ScalarColumns":
        instructions = np.array([op.instructions for op in ops], dtype=np.float64)
        flops = np.array([op.flops for op in ops], dtype=np.float64)
        memory_words = np.array([op.memory_words for op in ops], dtype=np.float64)
        count = np.array([op.count for op in ops], dtype=np.float64)
        return cls(
            index=np.array(positions, dtype=np.intp),
            instructions=instructions,
            flops=flops,
            memory_words=memory_words,
            count=count,
            raw_flops=flops * count,
            words_moved=memory_words * count,
        )

    @classmethod
    def stack(cls, parts: list["ScalarColumns"]) -> "ScalarColumns":
        """Concatenate several traces' scalar columns (bit-preserving)."""
        if not parts:
            return cls.from_ops([], [])
        return cls(**_concat_column_fields(cls, parts))


@dataclass(frozen=True)
class CompiledTrace:
    """A trace lowered to structure-of-arrays columns.

    Built by :func:`compile_trace`.  Machine-independent: the same
    compiled trace costs on any processor or grid, and costing only
    reads it.  The aggregate totals are exactly-rounded sums of the
    per-op columns, taken once when the trace is lowered.
    """

    names: tuple[str, ...]
    vector: VectorColumns
    scalar: ScalarColumns
    raw_flops_total: float
    flop_equivalents_total: float
    words_moved_total: float

    @property
    def n_ops(self) -> int:
        return len(self.names)

    def scatter_cycles(
        self, vector_cycles: np.ndarray, scalar_cycles: np.ndarray
    ) -> np.ndarray:
        """Per-op cycles in original trace order."""
        out = np.zeros(self.n_ops, dtype=np.float64)
        out[self.vector.index] = vector_cycles
        out[self.scalar.index] = scalar_cycles
        return out


def _total(vector_column: np.ndarray, scalar_column: np.ndarray) -> float:
    """Exact sum of one per-op quantity over a trace's vector and scalar ops."""
    return math.fsum(vector_column.tolist() + scalar_column.tolist())


def compile_trace(trace: Trace) -> CompiledTrace:
    """Lower a trace to columns, reading its ops as they are now."""
    v_pos: list[int] = []
    v_ops: list[VectorOp] = []
    s_pos: list[int] = []
    s_ops: list[ScalarOp] = []
    for i, op in enumerate(trace.ops):
        if isinstance(op, VectorOp):
            v_pos.append(i)
            v_ops.append(op)
        else:
            s_pos.append(i)
            s_ops.append(op)
    vector = VectorColumns.from_ops(v_pos, v_ops)
    scalar = ScalarColumns.from_ops(s_pos, s_ops)
    return CompiledTrace(
        names=tuple(op.name for op in trace.ops),
        vector=vector,
        scalar=scalar,
        raw_flops_total=_total(vector.raw_flops, scalar.raw_flops),
        # ScalarOp.flop_equivalents == ScalarOp.raw_flops by definition.
        flop_equivalents_total=_total(vector.flop_equivalents, scalar.raw_flops),
        words_moved_total=_total(vector.words_moved, scalar.words_moved),
    )
