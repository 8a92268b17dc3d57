"""VFFT: the "vector"-coding-style real FFT benchmark (Section 4.3, Fig. 7).

The FFT array is dimensioned ``a(M, N)`` with the *instance* axis M
fastest varying, and every butterfly operation is applied to all M
instances at once — unit-stride vectors of length M, regardless of which
pass is executing.  The number of vector startups per pass is the
butterfly count (independent of M), so performance climbs with M toward
the compute-bound rate, roughly an order of magnitude above RFFT.

The paper sweeps M over {1, 2, 5, 10, 20, 50, 100, 200, 500}.
"""

from __future__ import annotations

import numpy as np

from repro.kernels import fftpack
from repro.machine.operations import ScalarOp, Trace
from repro.machine.processor import Processor
from repro.units import MEGA

__all__ = ["vfft_multi", "verify", "build_trace", "model_mflops", "model_family"]


def vfft_multi(a: np.ndarray) -> np.ndarray:
    """Functional VFFT: transform all instances simultaneously.

    ``a`` has shape (N, M) in NumPy C-order — the instance axis is
    contiguous, mirroring the Fortran ``a(M, N)`` layout — and the whole
    array goes through the broadcast transform in one call.  Returns the
    (N//2+1, M) half-complex spectra.
    """
    if a.ndim != 2:
        raise ValueError(f"VFFT operates on an (N, instances) array, got {a.shape}")
    return fftpack.real_forward(a)


def verify(a: np.ndarray, out: np.ndarray, tol: float = 1e-9) -> bool:
    """Correctness check against numpy.fft.rfft, scaled to the data."""
    ref = np.fft.rfft(a, axis=0)
    scale = max(1.0, float(np.max(np.abs(ref))))
    return bool(np.max(np.abs(out - ref)) <= tol * scale)


def build_trace(n: int, m: int) -> Trace:
    """Machine-model description of M vector-style transforms of length N.

    Every pass runs its butterflies as unit-stride vectors of length M
    across the instance axis; startups per pass equal the number of
    butterfly positions (n/factor groups × factor points), not M.
    """
    if m < 1:
        raise ValueError(f"instance count must be positive, got {m}")
    passes = fftpack.pass_structure(n)
    trace = Trace(name=f"VFFT N={n} M={m}")
    # The passes go in as columns, one row per pass, with no op object each.
    trace.append_vectors(
        [f"vfft pass r{factor}" for factor, _, _ in passes],
        m,
        # l1 * ido butterfly groups in the pass, factor points each.
        count=[float(l1 * ido * factor) for factor, l1, ido in passes],
        flops_per_element=[fftpack.PASS_FLOPS_PER_POINT[factor] for factor, _, _ in passes],
        loads_per_element=1.0,
        stores_per_element=1.0,
    )
    trace.append(ScalarOp("vfft pass bookkeeping", instructions=20.0, count=float(len(passes))))
    return trace


def model_mflops(processor: Processor, n: int, m: int) -> float:
    """Benchmark-convention Mflops of VFFT at (N, M) on a machine model."""
    return _mflops(n, m, processor.time(build_trace(n, m)))


def _mflops(n: int, m: int, seconds: float) -> float:
    return fftpack.real_fft_flops(n) * m / seconds / MEGA


def model_family(
    processor: Processor, instance_counts: tuple[int, ...] = fftpack.VFFT_INSTANCE_COUNTS
) -> dict[str, list[tuple[int, int, float]]]:
    """All Figure 7 curves: family name -> [(N, M, Mflops), ...].

    Every (N, M) point is costed in one ``execute_all`` call.
    """
    families = fftpack.vfft_axis_lengths()
    points = [
        (family, n, m) for family, lengths in families.items()
        for n in lengths for m in instance_counts
    ]
    reports = processor.execute_all([build_trace(n, m) for _, n, m in points])
    curves: dict[str, list[tuple[int, int, float]]] = {family: [] for family in families}
    for (family, n, m), report in zip(points, reports):
        curves[family].append((n, m, _mflops(n, m, report.seconds)))
    return curves
