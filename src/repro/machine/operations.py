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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Iterable, Iterator, Mapping

__all__ = [
    "INTRINSICS",
    "INTRINSIC_FLOP_EQUIV",
    "VectorOp",
    "ScalarOp",
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
        if per_elem < 0:
            raise ValueError(f"intrinsic call count cannot be negative: {name}={per_elem}")
    return tuple(sorted((k, float(v)) for k, v in calls.items() if v > 0))


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
        if self.length < 1:
            raise ValueError(f"vector length must be >= 1, got {self.length}")
        if self.count < 0:
            raise ValueError(f"count cannot be negative, got {self.count}")
        if self.load_stride < 1 or self.store_stride < 1:
            raise ValueError("strides are positive element counts")
        for value, label in (
            (self.flops_per_element, "flops_per_element"),
            (self.loads_per_element, "loads_per_element"),
            (self.stores_per_element, "stores_per_element"),
            (self.gather_loads_per_element, "gather_loads_per_element"),
            (self.scatter_stores_per_element, "scatter_stores_per_element"),
        ):
            if value < 0:
                raise ValueError(f"{label} cannot be negative, got {value}")
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
    # The compiled engine's derived columns replicate these expressions
    # term-for-term, so per-op values agree bitwise between engines.
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
        if factor < 0:
            raise ValueError(f"scale factor cannot be negative, got {factor}")
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
            if value < 0:
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
        if factor < 0:
            raise ValueError(f"scale factor cannot be negative, got {factor}")
        return replace(self, count=self.count * factor)


Op = VectorOp | ScalarOp


@dataclass
class Trace:
    """An ordered sequence of operation descriptors.

    Traces are the interface between benchmark code and machine models.
    They support concatenation (``+``), uniform scaling (``trace * 12`` =
    "run twelve timesteps of this"), and aggregate accounting.

    A trace is a plain value: it caches nothing.  Every aggregate and
    every :func:`~repro.machine.compiled.compile_trace` reads ``ops`` as
    they are at that moment, so an edit in place (``trace.ops[i] = op``)
    is seen by the next read.
    """

    ops: list[Op] = field(default_factory=list)
    name: str = "trace"

    def __post_init__(self) -> None:
        for op in self.ops:
            if not isinstance(op, (VectorOp, ScalarOp)):
                raise TypeError(f"trace entries must be VectorOp/ScalarOp, got {type(op)!r}")

    def __iter__(self) -> Iterator[Op]:
        return iter(self.ops)

    def __len__(self) -> int:
        return len(self.ops)

    def append(self, op: Op) -> None:
        if not isinstance(op, (VectorOp, ScalarOp)):
            raise TypeError(f"trace entries must be VectorOp/ScalarOp, got {type(op)!r}")
        self.ops.append(op)

    def extend(self, ops: Iterable[Op]) -> None:
        for op in ops:
            self.append(op)

    def __add__(self, other: "Trace") -> "Trace":
        return Trace(ops=self.ops + other.ops, name=self.name)

    def __mul__(self, factor: float) -> "Trace":
        return self.scaled(factor)

    __rmul__ = __mul__

    def scaled(self, factor: float) -> "Trace":
        """Every op executed ``factor`` times as often (e.g. timesteps)."""
        return Trace(ops=[op.scaled(factor) for op in self.ops], name=self.name)

    # -- aggregate accounting ---------------------------------------------
    # Every read sums the ops afresh with ``math.fsum``, whose
    # exactly-rounded result is independent of summation order — so the
    # compiled engine's column reductions return bit-identical totals.
    @property
    def raw_flops(self) -> float:
        return math.fsum(op.raw_flops for op in self.ops)

    @property
    def flop_equivalents(self) -> float:
        return math.fsum(op.flop_equivalents for op in self.ops)

    @property
    def words_moved(self) -> float:
        return math.fsum(op.words_moved for op in self.ops)

    @property
    def bytes_moved(self) -> float:
        return self.words_moved * 8.0

    @property
    def intrinsic_calls_total(self) -> dict[str, float]:
        totals: dict[str, float] = {}
        for op in self.ops:
            if isinstance(op, VectorOp):
                for name, calls in op.intrinsic_calls_total.items():
                    totals[name] = totals.get(name, 0.0) + calls
        return totals

    @property
    def indexed_words_total(self) -> float:
        """Data words moved via gather/scatter over the whole trace."""
        return math.fsum(
            op.indexed_words * op.count for op in self.ops if isinstance(op, VectorOp)
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
        return math.fsum(op.irregular_words for op in self.ops if isinstance(op, VectorOp))

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
