"""LINPACK (Section 3.1) — the comparison benchmark the paper rejects.

"The LINPACK Benchmark is a numerically intensive test that has been
used for years to measure the floating point performance of computers
... The benchmark consists of solving dense systems of equations for a
system of order 100 and 1000 ... LINPACK tends to measure peak
performance of a computer and is not intended to evaluate the overall
performance of a computer system."

Both faces are provided: a from-scratch LU factorisation with partial
pivoting (DGEFA/DGESL structure — column-oriented, axpy-dominated) whose
solutions are verified against NumPy, and a trace builder whose long
unit-stride axpy inner loops are exactly why vector machines post
near-peak LINPACK numbers — the paper's criticism, which the test suite
turns into an assertion: LINPACK efficiency ≫ RADABS efficiency on the
same SX-4 model.
"""

from __future__ import annotations

import numpy as np

from repro.machine.operations import ScalarOp, Trace, VectorOp
from repro.machine.processor import Processor
from repro.units import MEGA

__all__ = [
    "lu_factor",
    "lu_solve",
    "solve",
    "residual_check",
    "linpack_flops",
    "build_trace",
    "model_mflops",
]


def lu_factor(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """LU factorisation with partial pivoting (DGEFA's algorithm).

    Returns ``(lu, pivots)`` with L (unit diagonal) and U packed in one
    array.  Column-oriented elimination: the inner operation is the
    unit-stride axpy that defines the benchmark.
    """
    lu = np.array(a, dtype=np.float64)
    n = lu.shape[0]
    if lu.ndim != 2 or lu.shape[1] != n:
        raise ValueError(f"need a square matrix, got shape {a.shape}")
    pivots = np.zeros(n, dtype=np.int64)
    for k in range(n):
        # Partial pivoting: largest magnitude in the column at/below k.
        p = k + int(np.argmax(np.abs(lu[k:, k])))
        pivots[k] = p
        if lu[p, k] == 0.0:
            raise np.linalg.LinAlgError(f"matrix is singular at column {k}")
        if p != k:
            lu[[k, p], :] = lu[[p, k], :]
        # Scale the multipliers, then rank-1 update the trailing block.
        lu[k + 1 :, k] /= lu[k, k]
        if k + 1 < n:
            lu[k + 1 :, k + 1 :] -= np.outer(lu[k + 1 :, k], lu[k, k + 1 :])
    return lu, pivots


def lu_solve(lu: np.ndarray, pivots: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve with a factorisation from :func:`lu_factor` (DGESL's role).

    :func:`lu_factor` swaps *whole* rows (L multipliers included), so the
    solve applies all row interchanges to b up front and then performs
    clean forward (unit-L) and backward (U) substitutions.
    """
    n = lu.shape[0]
    if b.shape != (n,):
        raise ValueError(f"right-hand side must have shape ({n},), got {b.shape}")
    x = np.array(b, dtype=np.float64)
    for k in range(n):  # apply the recorded interchanges, in order
        p = pivots[k]
        if p != k:
            x[k], x[p] = x[p], x[k]
    for k in range(n):  # forward substitution, unit diagonal
        x[k + 1 :] -= lu[k + 1 :, k] * x[k]
    for k in range(n - 1, -1, -1):  # back substitution
        x[k] /= lu[k, k]
        x[:k] -= lu[:k, k] * x[k]
    return x


def solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The benchmark's operation: solve A·x = b."""
    lu, pivots = lu_factor(a)
    return lu_solve(lu, pivots, b)


def residual_check(a: np.ndarray, x: np.ndarray, b: np.ndarray) -> float:
    """LINPACK's normalised residual ‖Ax−b‖ / (n·‖A‖·‖x‖·eps)."""
    n = a.shape[0]
    eps = np.finfo(np.float64).eps
    num = float(np.max(np.abs(a @ x - b)))
    den = n * float(np.max(np.abs(a))) * max(float(np.max(np.abs(x))), 1e-300) * eps
    return num / den


def linpack_flops(n: int) -> float:
    """The benchmark's official operation count: 2n³/3 + 2n²."""
    return 2.0 * n**3 / 3.0 + 2.0 * n**2


def build_trace(n: int) -> Trace:
    """Machine-model description of one order-``n`` solve.

    Column k's elimination is (n−k−1) axpy operations of length (n−k−1):
    unit stride, 2 flops/element, operands streaming from memory with one
    kept in registers — the friendliest workload a vector machine sees.
    """
    if n < 2:
        raise ValueError(f"system order must be >= 2, got {n}")
    trace = Trace(name=f"LINPACK n={n}")
    # Group the elimination axpys into bands of similar vector length to
    # keep the trace compact: lengths n-1 ... 1, each used (length) times.
    # They go in as columns, one row per length, with no op object each.
    lengths = range(n - 1, 0, -1)
    trace.append_vectors(
        [f"dgefa axpy len {length}" for length in lengths],
        lengths,
        count=[float(length) for length in lengths],
        flops_per_element=2.0,
        # The pivot column stays resident in vector registers across the
        # rank-1 update, so only one operand streams.
        loads_per_element=1.0,
        stores_per_element=1.0,
    )
    trace.append(ScalarOp("pivot search + scale", instructions=30.0, count=float(n)))
    # Triangular solves: 2n² flops of short-vector axpys.
    trace.append(
        VectorOp(
            "dgesl substitution",
            length=max(1, n // 2),
            count=float(4 * n),
            flops_per_element=1.0,
            loads_per_element=1.0,
            stores_per_element=1.0,
        )
    )
    return trace


def model_mflops(processor: Processor, n: int = 1000) -> float:
    """LINPACK Mflops (official flop count) on a machine model."""
    seconds = processor.time(build_trace(n))
    return linpack_flops(n) / seconds / MEGA
