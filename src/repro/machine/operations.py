"""Operation descriptors: the vocabulary benchmarks use to describe work.

Every benchmark in the suite has two faces: a *functional* NumPy
implementation that actually computes the answer, and a *trace builder*
that describes the same work as a sequence of operation descriptors.  The
machine model consumes traces and produces time; the descriptors therefore
carry exactly the features 1990s vector-machine performance depends on:

* vector length (startup amortisation, strip-mining),
* memory words moved per element and their strides (bank behaviour),
* gathered/scattered words (list-vector access, e.g. the IA benchmark and
  CCM2's semi-Lagrangian transport),
* intrinsic function calls (the EXP/LOG/PWR/SIN/SQRT mix that dominates
  RADABS and the CCM2 physics),
* scalar instruction overhead (loop bookkeeping, unvectorised code).

Flop accounting follows the paper's "Cray Y-MP equivalent Mflops"
convention: an intrinsic call is credited with a fixed flop-equivalent
(:data:`INTRINSIC_FLOP_EQUIV`), the way Cray's hardware performance monitor
counted library calls.  :meth:`Trace.flop_equivalents` is what the Mflops
numbers in the tables are computed from; :meth:`Trace.raw_flops` counts
only genuine adds/multiplies.

A :class:`Trace` stores its ops as columns, one Python tuple per
:class:`VectorOp`/:class:`ScalarOp` field, so scaling, joining and
lowering a trace (:func:`~repro.machine.compiled.compile_trace`) are
column operations that make no op object.  The op classes stay the
builders' vocabulary and the trace's row view: :attr:`Trace.ops`
rebuilds them, read-only, on every read.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, fields, replace
from operator import add, attrgetter, ge
from typing import Iterable, Iterator, Mapping, Sequence

__all__ = [
    "INTRINSICS",
    "INTRINSIC_FLOP_EQUIV",
    "VectorOp",
    "ScalarOp",
    "VectorRows",
    "ScalarRows",
    "Trace",
]

#: The intrinsic functions the NCAR suite measures (Section 4.1 / RADABS).
INTRINSICS = ("exp", "log", "pwr", "sin", "sqrt", "div")

#: Flop-equivalents credited per intrinsic call, Cray-HPM style.  PWR is
#: log+exp and costs the most; DIV is a short Newton iteration on the
#: divide pipes.
INTRINSIC_FLOP_EQUIV: Mapping[str, float] = {
    "exp": 8.0,
    "log": 8.0,
    "pwr": 16.0,
    "sin": 10.0,
    "sqrt": 7.0,
    "div": 4.0,
}


def _freeze_intrinsics(calls: Mapping[str, float] | None) -> tuple[tuple[str, float], ...]:
    if not calls:
        return ()
    for name, per_elem in calls.items():
        if name not in INTRINSICS:
            raise ValueError(f"unknown intrinsic {name!r}; expected one of {INTRINSICS}")
        if not per_elem >= 0:
            raise ValueError(f"intrinsic call count cannot be negative: {name}={per_elem}")
    return tuple(sorted((k, float(v)) for k, v in calls.items() if v > 0))


#: VectorOp's field checks, in the order they run: (field, smallest valid
#: value, message).  A value passes only if it is ``>=`` the minimum, so
#: NaN fails too.  :meth:`Trace.append_vectors` checks its columns with
#: the same table.
_VECTOR_CHECKS = (
    ("length", 1, "vector length must be >= 1, got {}"),
    ("count", 0, "count cannot be negative, got {}"),
    ("load_stride", 1, "strides are positive element counts"),
    ("store_stride", 1, "strides are positive element counts"),
    *(
        (label, 0, label + " cannot be negative, got {}")
        for label in (
            "flops_per_element",
            "loads_per_element",
            "stores_per_element",
            "gather_loads_per_element",
            "scatter_stores_per_element",
        )
    ),
)


_checked_values = attrgetter(*(label for label, _, _ in _VECTOR_CHECKS))
_MINIMA = tuple(minimum for _, minimum, _ in _VECTOR_CHECKS)


def _check_vector(columns: Iterable[Iterable]) -> None:
    """Raise VectorOp's error for the first invalid value, field by field.

    ``columns`` holds each checked field's values, in the order of
    ``_VECTOR_CHECKS``: one value per field for an op, one column per
    field for :meth:`Trace.append_vectors`.
    """
    for values, (_, minimum, message) in zip(columns, _VECTOR_CHECKS):
        for value in values:
            if not value >= minimum:
                raise ValueError(message.format(value))


def _check_scale(factor: float) -> None:
    if not factor >= 0:
        raise ValueError(f"scale factor cannot be negative, got {factor}")


@dataclass(frozen=True)
class VectorOp:
    """One vectorisable inner loop, executed ``count`` times.

    Parameters
    ----------
    name:
        Label for reports ("copy inner", "legendre forward", ...).
    length:
        Vector length — the trip count of the innermost (vectorised) loop.
    count:
        How many times the loop is executed (the surrounding loop nest).
    flops_per_element:
        Genuine floating-point adds/multiplies per element.
    loads_per_element / stores_per_element:
        64-bit words moved per element through the memory port, with the
        given strides (1 = contiguous; the SX-4 guarantees conflict-free
        stride 1 and 2).
    gather_loads_per_element / scatter_stores_per_element:
        Words accessed through index vectors (list-vector access).  Index
        words themselves are accounted by the memory model, matching the
        paper's note that IA bandwidth counts only the data moved.
    intrinsic_calls:
        Mapping of intrinsic name to calls per element.
    """

    name: str
    length: int
    count: float = 1.0
    flops_per_element: float = 0.0
    loads_per_element: float = 0.0
    stores_per_element: float = 0.0
    load_stride: int = 1
    store_stride: int = 1
    gather_loads_per_element: float = 0.0
    scatter_stores_per_element: float = 0.0
    intrinsic_calls: tuple[tuple[str, float], ...] = ()

    def __post_init__(self) -> None:
        values = _checked_values(self)
        if not all(map(ge, values, _MINIMA)):
            _check_vector(zip(values))
        object.__setattr__(
            self, "intrinsic_calls", _freeze_intrinsics(dict(self.intrinsic_calls))
        )

    @staticmethod
    def make(name: str, length: int, *, intrinsics: Mapping[str, float] | None = None, **kwargs) -> "VectorOp":
        """Convenience constructor accepting ``intrinsics`` as a dict."""
        return VectorOp(
            name=name,
            length=length,
            intrinsic_calls=_freeze_intrinsics(intrinsics),
            **kwargs,
        )

    # -- accounting -------------------------------------------------------
    # Trace's column aggregates and the compiled engine's derived columns
    # replicate these expressions term-for-term, so per-op values agree
    # bitwise between them.
    @property
    def elements(self) -> float:
        """Total elements processed over all executions."""
        return self.length * self.count

    @property
    def intrinsic_calls_total(self) -> dict[str, float]:
        return {name: per * self.elements for name, per in self.intrinsic_calls}

    @property
    def raw_flops(self) -> float:
        return self.flops_per_element * self.elements

    @property
    def flop_equivalents(self) -> float:
        total = self.raw_flops
        for name, per in self.intrinsic_calls:
            total += INTRINSIC_FLOP_EQUIV[name] * per * self.elements
        return total

    @property
    def sequential_words(self) -> float:
        """Strided (non-indexed) words per execution of the loop."""
        return (self.loads_per_element + self.stores_per_element) * self.length

    @property
    def indexed_words(self) -> float:
        return (self.gather_loads_per_element + self.scatter_stores_per_element) * self.length

    @property
    def words_moved(self) -> float:
        """Total data words moved over all executions (excluding indices)."""
        return (self.sequential_words + self.indexed_words) * self.count

    @property
    def irregular_words(self) -> float:
        """Data words that are indexed *or* strided above 2, all executions.

        The traffic class that degrades under multi-CPU bank contention
        (see :meth:`Trace.irregular_fraction`).
        """
        irregular = self.indexed_words * self.count
        if self.load_stride > 2:
            irregular += self.loads_per_element * self.length * self.count
        if self.store_stride > 2:
            irregular += self.stores_per_element * self.length * self.count
        return irregular

    def scaled(self, factor: float) -> "VectorOp":
        """The same loop executed ``factor`` times as often."""
        _check_scale(factor)
        return replace(self, count=self.count * factor)


@dataclass(frozen=True)
class ScalarOp:
    """Unvectorised work: loop bookkeeping, recursion, branchy code.

    ``instructions`` is the issue-slot demand per execution; ``flops`` the
    floating-point subset of it; ``memory_words`` the words that miss the
    register file and go through the scalar cache path.
    """

    name: str
    instructions: float
    flops: float = 0.0
    memory_words: float = 0.0
    count: float = 1.0

    def __post_init__(self) -> None:
        for value, label in (
            (self.instructions, "instructions"),
            (self.flops, "flops"),
            (self.memory_words, "memory_words"),
            (self.count, "count"),
        ):
            if not value >= 0:
                raise ValueError(f"{label} cannot be negative, got {value}")
        if self.flops > self.instructions:
            raise ValueError("flops are a subset of instructions")

    @property
    def raw_flops(self) -> float:
        return self.flops * self.count

    @property
    def flop_equivalents(self) -> float:
        return self.raw_flops

    @property
    def words_moved(self) -> float:
        return self.memory_words * self.count

    def scaled(self, factor: float) -> "ScalarOp":
        _check_scale(factor)
        return replace(self, count=self.count * factor)


Op = VectorOp | ScalarOp

#: A trace's rows of one op kind, one tuple per column: ``position``,
#: each row's index among the trace's ops, then the op's fields after its
#: name, in constructor order.  Every trace operation builds new column
#: tuples, so traces share them freely.
VectorRows = namedtuple("VectorRows", ("position", *(f.name for f in fields(VectorOp)[1:])))
ScalarRows = namedtuple("ScalarRows", ("position", *(f.name for f in fields(ScalarOp)[1:])))
_vector_values = attrgetter(*VectorRows._fields[1:])
_scalar_values = attrgetter(*ScalarRows._fields[1:])
_NO_VECTOR_ROWS = VectorRows._make(() for _ in VectorRows._fields)
_NO_SCALAR_ROWS = ScalarRows._make(() for _ in ScalarRows._fields)
#: VectorOp's defaults, which :meth:`Trace.append_vectors` fills in.
_VECTOR_DEFAULTS = {f.name: f.default for f in fields(VectorOp)[2:-1]}


def _appended(rows: tuple, columns: Iterable[tuple]) -> tuple:
    """``rows`` with ``columns`` (one tuple per column, in order) after them."""
    if not rows.position:
        return rows._make(columns)
    return rows._make(map(add, rows, columns))


def _joined(first: tuple, second: tuple, shift: int) -> tuple:
    """``first``'s rows then ``second``'s, whose positions move up by ``shift``."""
    if not second.position:
        return first
    return _appended(first, (tuple([shift + p for p in second.position]), *second[1:]))


def _scaled(rows: tuple, factor: float) -> tuple:
    """``rows`` with every count multiplied by ``factor``: the
    ``count * factor`` each op's ``scaled`` computes."""
    if not rows.position:
        return rows
    return rows._replace(count=tuple([count * factor for count in rows.count]))


class Trace:
    """An ordered sequence of operation descriptors, stored as columns.

    Traces are the interface between benchmark code and machine models.
    They support concatenation (``+``), uniform scaling (``trace * 12`` =
    "run twelve timesteps of this"), and aggregate accounting.

    A trace holds the op names, and per op kind one tuple per op field
    plus each row's position among the ops (:class:`VectorRows`,
    :class:`ScalarRows`).  The columns are its only state: scaling
    builds new count columns and shares the rest, ``+`` concatenates,
    and every aggregate and every
    :func:`~repro.machine.compiled.compile_trace` reads the columns as
    they are at that moment.  :attr:`ops` is a read-only row view built
    on each read, so a trace changes only through :meth:`append`,
    :meth:`extend` and :meth:`append_vectors`, which replace its columns.
    """

    __slots__ = ("name", "_names", "_vector", "_scalar")

    def __init__(self, ops: Iterable[Op] = (), name: str = "trace") -> None:
        self.name = name
        self._names: tuple[str, ...] = ()
        self._vector = _NO_VECTOR_ROWS
        self._scalar = _NO_SCALAR_ROWS
        self.extend(ops)

    @classmethod
    def _from_columns(cls, name: str, names: tuple[str, ...], vector: tuple, scalar: tuple) -> "Trace":
        trace = cls.__new__(cls)
        trace.name, trace._names, trace._vector, trace._scalar = name, names, vector, scalar
        return trace

    @property
    def ops(self) -> tuple[Op, ...]:
        """The ops in trace order, rebuilt from the columns on each read."""
        ops: list = [None] * len(self._names)
        for kind, rows in ((VectorOp, self._vector), (ScalarOp, self._scalar)):
            for position, *values in zip(*rows):
                ops[position] = kind(self._names[position], *values)
        return tuple(ops)

    def __iter__(self) -> Iterator[Op]:
        return iter(self.ops)

    def __len__(self) -> int:
        return len(self._names)

    def __repr__(self) -> str:
        return f"Trace(ops={list(self.ops)!r}, name={self.name!r})"

    def append(self, op: Op) -> None:
        self.extend((op,))

    def extend(self, ops: Iterable[Op]) -> None:
        """Append ``ops`` in order; nothing is appended if one is no op."""
        names: list[str] = []
        vector: list[tuple] = []
        scalar: list[tuple] = []
        base = len(self._names)
        for op in ops:
            if isinstance(op, VectorOp):
                vector.append((base + len(names), *_vector_values(op)))
            elif isinstance(op, ScalarOp):
                scalar.append((base + len(names), *_scalar_values(op)))
            else:
                raise TypeError(f"trace entries must be VectorOp/ScalarOp, got {type(op)!r}")
            names.append(op.name)
        if vector:
            self._vector = _appended(self._vector, zip(*vector))
        if scalar:
            self._scalar = _appended(self._scalar, zip(*scalar))
        self._names += tuple(names)

    def append_vectors(self, names: Sequence[str], length, **values) -> None:
        """Append one vector row per name without making a :class:`VectorOp`.

        ``length`` and each other numeric ``VectorOp`` field given (by
        keyword) is one value for every row or a sequence of one value
        per row; fields not given take ``VectorOp``'s defaults, and the
        rows call no intrinsic.  Each column is checked with
        ``VectorOp``'s messages before any row is added, so the rows are
        those the same values would make as ops.
        """
        unknown = values.keys() - _VECTOR_DEFAULTS.keys()
        if unknown:
            raise TypeError(f"unknown VectorOp fields: {sorted(unknown)}")
        n = len(names)
        columns = {}
        for label, value in {**_VECTOR_DEFAULTS, **values, "length": length}.items():
            per_row = hasattr(value, "__len__")
            columns[label] = tuple(value) if per_row else (value,)
            if per_row and len(columns[label]) != n:
                raise ValueError(f"{label} has {len(columns[label])} values for {n} rows")
        _check_vector(columns[label] for label, _, _ in _VECTOR_CHECKS)
        columns["intrinsic_calls"] = ((),)
        start = len(self._names)
        new = [tuple(range(start, start + n))]
        for label in VectorRows._fields[1:]:
            column = columns[label]
            new.append(column if len(column) == n else column * n)
        self._vector = _appended(self._vector, new)
        self._names += tuple(names)

    def __add__(self, other: "Trace") -> "Trace":
        if not isinstance(other, Trace):
            return NotImplemented
        shift = len(self._names)
        return Trace._from_columns(
            self.name,
            self._names + other._names,
            _joined(self._vector, other._vector, shift),
            _joined(self._scalar, other._scalar, shift),
        )

    def __mul__(self, factor: float) -> "Trace":
        return self.scaled(factor)

    __rmul__ = __mul__

    def scaled(self, factor: float) -> "Trace":
        """Every op executed ``factor`` times as often (e.g. timesteps)."""
        _check_scale(factor)
        return Trace._from_columns(
            self.name, self._names, _scaled(self._vector, factor), _scaled(self._scalar, factor)
        )

    # -- aggregate accounting ---------------------------------------------
    # Each aggregate is a ``math.fsum`` over one value per row, each the
    # op property's own expression with its association, so it equals
    # the fsum of the row view's properties.  fsum's exactly-rounded
    # result is independent of summation order, so the compiled engine's
    # column reductions return bit-identical totals.
    @property
    def raw_flops(self) -> float:
        v, s = self._vector, self._scalar
        return math.fsum(
            [f * (l * c) for f, l, c in zip(v.flops_per_element, v.length, v.count)]
            + [f * c for f, c in zip(s.flops, s.count)]
        )

    @property
    def flop_equivalents(self) -> float:
        v, s = self._vector, self._scalar
        values = []
        for f, l, c, calls in zip(v.flops_per_element, v.length, v.count, v.intrinsic_calls):
            elements = l * c
            total = f * elements
            for name, per in calls:
                total += INTRINSIC_FLOP_EQUIV[name] * per * elements
            values.append(total)
        return math.fsum(values + [f * c for f, c in zip(s.flops, s.count)])

    @property
    def words_moved(self) -> float:
        v, s = self._vector, self._scalar
        return math.fsum(
            [
                ((lo + st) * l + (g + sc) * l) * c
                for lo, st, g, sc, l, c in zip(
                    v.loads_per_element,
                    v.stores_per_element,
                    v.gather_loads_per_element,
                    v.scatter_stores_per_element,
                    v.length,
                    v.count,
                )
            ]
            + [w * c for w, c in zip(s.memory_words, s.count)]
        )

    @property
    def bytes_moved(self) -> float:
        return self.words_moved * 8.0

    @property
    def intrinsic_calls_total(self) -> dict[str, float]:
        v = self._vector
        calls: dict[str, list[float]] = {}
        for l, c, pairs in zip(v.length, v.count, v.intrinsic_calls):
            for name, per in pairs:
                calls.setdefault(name, []).append(per * (l * c))
        return {name: math.fsum(values) for name, values in calls.items()}

    @property
    def indexed_words_total(self) -> float:
        """Data words moved via gather/scatter over the whole trace."""
        v = self._vector
        return math.fsum(
            (g + sc) * l * c
            for g, sc, l, c in zip(
                v.gather_loads_per_element, v.scatter_stores_per_element, v.length, v.count
            )
        )

    @property
    def gather_fraction(self) -> float:
        """Fraction of data words moved via gather/scatter (list vectors)."""
        total = self.words_moved
        if total == 0:
            return 0.0
        return self.indexed_words_total / total

    @property
    def irregular_words(self) -> float:
        """Data words that are indexed *or* strided above 2."""
        v = self._vector
        values = []
        for g, sc, lo, st, ls, ss, l, c in zip(
            v.gather_loads_per_element,
            v.scatter_stores_per_element,
            v.loads_per_element,
            v.stores_per_element,
            v.load_stride,
            v.store_stride,
            v.length,
            v.count,
        ):
            irregular = (g + sc) * l * c
            if ls > 2:
                irregular += lo * l * c
            if ss > 2:
                irregular += st * l * c
            values.append(irregular)
        return math.fsum(values)

    @property
    def irregular_fraction(self) -> float:
        """Fraction of data words that are indexed *or* strided above 2.

        Used by the node model to estimate multi-CPU bank contention: unit
        stride (and stride 2) is guaranteed conflict-free on the SX-4 from
        all 32 processors, so only this traffic degrades under load — the
        reason the ensemble test (Table 6) shows just 1.89% degradation.
        """
        total = self.words_moved
        if total == 0:
            return 0.0
        return self.irregular_words / total
