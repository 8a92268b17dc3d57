"""STREAM (Section 3.4) — the fixed-size bandwidth benchmark, contrasted.

"The STREAM benchmark is a set of four operations that evaluate computer
memory bandwidth using four long vector operations.  They have unit
stride memory access patterns and are designed to eliminate the
possibility of data reuse.  The COPY benchmark in the STREAM suite is
similar to the COPY benchmark in the NCAR suite except that the array
size is fixed in the STREAM version ... In general, there is only a
single bandwidth measurement taken instead of testing bandwidth for a
range of array sizes."

The four kernels (McCalpin's definitions and byte accounting):

=========  =====================  =================
kernel     operation              bytes per element
=========  =====================  =================
COPY       c[i] = a[i]            16
SCALE      b[i] = q·c[i]          16
ADD        c[i] = a[i] + b[i]     24
TRIAD      a[i] = b[i] + q·c[i]   24
=========  =====================  =================

Functional NumPy implementations plus trace builders; the test suite
asserts the paper's critique quantitatively — STREAM's single fixed-size
number equals exactly one point of the NCAR COPY sweep and misses the
whole short-vector regime.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.machine.operations import Trace, VectorOp
from repro.machine.processor import Processor
from repro.units import MB

__all__ = ["STREAM_KERNELS", "StreamKernel", "kernel", "run_host_kernel",
           "build_trace", "model_bandwidths", "DEFAULT_ARRAY_ELEMENTS"]

#: STREAM's fixed array size (the point the paper criticises).
DEFAULT_ARRAY_ELEMENTS = 2_000_000


@dataclass(frozen=True)
class StreamKernel:
    """One STREAM operation: name, flops, and memory traffic."""

    name: str
    flops_per_element: float
    loads_per_element: float
    stores_per_element: float

    @property
    def bytes_per_element(self) -> float:
        """STREAM's official byte accounting (reads + writes)."""
        return 8.0 * (self.loads_per_element + self.stores_per_element)


STREAM_KERNELS = (
    StreamKernel("COPY", flops_per_element=0.0, loads_per_element=1.0, stores_per_element=1.0),
    StreamKernel("SCALE", flops_per_element=1.0, loads_per_element=1.0, stores_per_element=1.0),
    StreamKernel("ADD", flops_per_element=1.0, loads_per_element=2.0, stores_per_element=1.0),
    StreamKernel("TRIAD", flops_per_element=2.0, loads_per_element=2.0, stores_per_element=1.0),
)


def kernel(name: str) -> StreamKernel:
    for k in STREAM_KERNELS:
        if k.name == name.upper():
            return k
    raise KeyError(f"no STREAM kernel named {name!r}")


def run_host_kernel(
    name: str,
    a: np.ndarray,
    b: np.ndarray,
    c: np.ndarray,
    q: float = 3.0,
) -> None:
    """Execute one STREAM operation in place on the host arrays."""
    if not (a.shape == b.shape == c.shape):
        raise ValueError("STREAM arrays must share one shape")
    upper = name.upper()
    if upper == "COPY":
        c[:] = a
    elif upper == "SCALE":
        b[:] = q * c
    elif upper == "ADD":
        c[:] = a + b
    elif upper == "TRIAD":
        a[:] = b + q * c
    else:
        raise KeyError(f"no STREAM kernel named {name!r}")


def build_trace(name: str, elements: int = DEFAULT_ARRAY_ELEMENTS) -> Trace:
    """Machine-model description of one STREAM kernel pass."""
    if elements < 1:
        raise ValueError(f"array size must be positive, got {elements}")
    k = kernel(name)
    return Trace(
        [
            VectorOp(
                f"stream {k.name.lower()}",
                length=elements,
                flops_per_element=k.flops_per_element,
                loads_per_element=k.loads_per_element,
                stores_per_element=k.stores_per_element,
            )
        ],
        name=f"STREAM {k.name}",
    )


def model_bandwidths(
    processor: Processor, elements: int = DEFAULT_ARRAY_ELEMENTS
) -> dict[str, float]:
    """STREAM's report: MB/s per kernel (official byte accounting).

    The four kernels are costed in one ``execute_all`` call.
    """
    reports = processor.execute_all([build_trace(k.name, elements) for k in STREAM_KERNELS])
    return {
        k.name: k.bytes_per_element * elements / report.seconds / MB
        for k, report in zip(STREAM_KERNELS, reports)
    }
