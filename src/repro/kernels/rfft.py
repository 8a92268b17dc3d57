"""RFFT: the "scalar"-coding-style real FFT benchmark (Section 4.3, Fig. 6).

The FFT array is dimensioned ``a(N, M)`` with the FFT axis N fastest
varying, and the transforms are computed one instance at a time — the
loop ordering that suits cache-based processors.  On a vector machine the
compiler can only vectorise the loops *inside* one transform, whose
extents (``ido`` and ``l1`` in FFTPACK's pass geometry) shrink toward 1
as the passes proceed, so vector lengths are short, startups frequent and
half the accesses strided.  That — not the arithmetic — is why Figure 6
sits an order of magnitude below Figure 7.

Mflops are computed from :func:`repro.kernels.fftpack.real_fft_flops`
(the benchmark's fixed operation count), not from hardware counters.
"""

from __future__ import annotations

import numpy as np

from repro.kernels import fftpack
from repro.machine.operations import ScalarOp, Trace, VectorOp
from repro.machine.processor import Processor
from repro.units import MEGA

__all__ = ["rfft_multi", "verify", "build_trace", "model_mflops", "model_family"]


def rfft_multi(a: np.ndarray) -> np.ndarray:
    """Functional RFFT: transform each instance separately (scalar style).

    ``a`` has shape (M, N) in NumPy C-order — each row is one contiguous
    length-N sequence, mirroring the Fortran ``a(N, M)`` layout.  Returns
    the (M, N//2+1) half-complex spectra.
    """
    if a.ndim != 2:
        raise ValueError(f"RFFT operates on an (instances, N) array, got {a.shape}")
    m, n = a.shape
    out = np.empty((m, n // 2 + 1), dtype=np.complex128)
    for j in range(m):  # instance loop outermost: one transform at a time
        out[j] = fftpack.real_forward(a[j])
    return out


def verify(a: np.ndarray, out: np.ndarray, tol: float = 1e-9) -> bool:
    """Correctness check against numpy.fft.rfft, scaled to the data."""
    ref = np.fft.rfft(a, axis=1)
    scale = max(1.0, float(np.max(np.abs(ref))))
    return bool(np.max(np.abs(out - ref)) <= tol * scale)


def build_trace(n: int, m: int | None = None) -> Trace:
    """Machine-model description of M scalar-style transforms of length N.

    In cache-oriented FFTPACK code only the inner ``i`` loop (length
    ``ido``, unit stride) vectorises; its extent shrinks by the radix at
    every pass until the final passes run essentially scalar (``ido`` a
    few, then 1).  The ``k`` loop's trip count multiplies the number of
    vector startups — the scalar style's fundamental cost on the SX-4.
    """
    if m is None:
        m = fftpack.rfft_instance_count(n)
    if m < 1:
        raise ValueError(f"instance count must be positive, got {m}")
    ops: list = []
    for factor, l1, ido in fftpack.pass_structure(n):
        if ido > 1:
            ops.append(
                VectorOp(
                    f"rfft pass r{factor} (len {ido})",
                    length=ido,
                    count=float(m * l1 * factor),
                    flops_per_element=fftpack.PASS_FLOPS_PER_POINT[factor],
                    # Data plus workspace copy plus twiddles in, data out.
                    loads_per_element=2.5,
                    stores_per_element=2.0,
                    load_stride=1,
                    store_stride=1,
                )
            )
        else:
            # ido == 1: the pass degenerates to scalar butterflies.
            ops.append(
                ScalarOp(
                    f"rfft pass r{factor} (scalar)",
                    instructions=16.0,
                    flops=fftpack.PASS_FLOPS_PER_POINT[factor],
                    memory_words=4.0,
                    count=float(m * l1 * factor),
                )
            )
    ops.append(ScalarOp("rfft instance loop", instructions=30.0, count=float(m)))
    return Trace(ops, name=f"RFFT N={n} M={m}")


def model_mflops(processor: Processor, n: int, m: int | None = None) -> float:
    """Benchmark-convention Mflops of RFFT at axis length N on a model."""
    if m is None:
        m = fftpack.rfft_instance_count(n)
    return _mflops(n, m, processor.time(build_trace(n, m)))


def _mflops(n: int, m: int, seconds: float) -> float:
    return fftpack.real_fft_flops(n) * m / seconds / MEGA


def model_family(processor: Processor) -> dict[str, list[tuple[int, float]]]:
    """All three Figure 6 curves: family name -> [(N, Mflops), ...].

    Every point is costed in one ``execute_all`` call.
    """
    families = fftpack.rfft_axis_lengths()
    points = [
        (family, n, fftpack.rfft_instance_count(n))
        for family, lengths in families.items() for n in lengths
    ]
    reports = processor.execute_all([build_trace(n, m) for _, n, m in points])
    curves: dict[str, list[tuple[int, float]]] = {family: [] for family in families}
    for (family, n, m), report in zip(points, reports):
        curves[family].append((n, _mflops(n, m, report.seconds)))
    return curves
