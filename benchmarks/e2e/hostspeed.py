"""Host speed: a fixed reference kernel, timed between the ops it scales.

On a shared host the same op runs up to twice as long for minutes at a
time, with no steal time and no page faults to show for it: the
neighbours on the physical cores slow every instruction.  A timing
taken in one such stretch and compared with one taken outside it
measures the neighbours.  So the benchmark times this kernel between
its ops and reports each op's time scaled to a host on which the kernel
takes :data:`NOMINAL_S`::

    scaled = measured * NOMINAL_S / (kernel time measured next to it)

The kernel is this file's own code and never calls the program, so no
change to the program moves it.  It mixes, in about equal parts, the
three kinds of work the program does, which a busy host slows by
different amounts: NumPy calls on small arrays dispatched from Python
(builders), a walk over a graph of dotted module names in plain Python
dicts and strings (dependency digests, planning), and streaming passes
over 8 MB arrays, the first into freshly faulted pages (the grid
kernel).
"""

from __future__ import annotations

import mmap
import statistics
import time

import numpy as np

__all__ = ["NOMINAL_S", "SAMPLE_EVERY_S", "kernel_s", "SpeedLog"]

#: Kernel time on a quiet host of the kind the calibration ran on (a
#: 2-vCPU Xeon VM); a scaled time is a time on such a host.
NOMINAL_S = 0.012

#: The kernel runs at most this often between ops (about 4% of a run).
SAMPLE_EVERY_S = 0.5

_SMALL = np.arange(64, dtype=float)
_SMALL_CALLS = 1000
_MODULES = 300
_WALK_ROOTS = 20
_LARGE_N = 1 << 20
_LARGE_PASSES = 2
#: An 8 MB input and an 8 MB anonymous mapping the passes write to,
#: made on first use and kept.  Each run drops the mapping's pages
#: first, so the first pass faults them back in as fresh arrays do in
#: the grid kernel, without the peak RSS (which the benchmark reports)
#: growing by a fresh array per run.
_large: list = []


def _module(i: int) -> str:
    return f"pkg.mod{i}.sub{i % 7}"


def _walk() -> int:
    """Import closures over a made-up module graph; the path count."""
    graph = {_module(i): [_module((3 * i + j) % _MODULES) for j in range(4)]
             for i in range(_MODULES)}
    paths = 0
    for root in list(graph)[:_WALK_ROOTS]:
        seen: set[str] = set()
        stack = [root]
        while stack:
            name = stack.pop()
            if name in seen:
                continue
            seen.add(name)
            paths += len(name.rsplit(".", 1)[0].replace(".", "/") + ".py")
            stack.extend(graph[name])
    return paths


def kernel_s() -> float:
    """Run the reference kernel once; its wall time in seconds."""
    if not _large:
        pages = mmap.mmap(-1, _LARGE_N * 8)
        _large[:] = [np.arange(_LARGE_N, dtype=float), pages, np.frombuffer(pages, dtype=float)]
    src, pages, out = _large
    start = time.perf_counter()
    total = 0.0
    for i in range(_SMALL_CALLS):
        total += float(np.sum(np.maximum(_SMALL * 1.5 + i, 3.0)))
    _walk()
    pages.madvise(mmap.MADV_DONTNEED)
    for _ in range(_LARGE_PASSES):
        np.multiply(src, 1.0001, out=out)
        np.add(out, 1.0, out=out)
        np.sqrt(out, out=out)
    return time.perf_counter() - start


class SpeedLog:
    """Kernel samples of the current stretch of a run."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.last_s: float | None = None
        self._last_at = float("-inf")
        #: seconds spent in the kernel since the last :meth:`factor`
        self.spent_s = 0.0

    def sample(self) -> None:
        """Run the kernel now."""
        start = time.perf_counter()
        self.last_s = kernel_s()
        self.samples.append(self.last_s)
        self._last_at = time.perf_counter()
        self.spent_s += self._last_at - start

    def tick(self) -> None:
        """Run the kernel if the last run is ``SAMPLE_EVERY_S`` old."""
        if time.perf_counter() - self._last_at >= SAMPLE_EVERY_S:
            self.sample()

    def factor(self) -> tuple[float, float]:
        """(scale for the stretch since the last call, kernel seconds in it).

        The stretch's samples give the scale; one with none reuses the
        latest sample.
        """
        if not self.samples and self.last_s is None:
            self.sample()
        scale = NOMINAL_S / statistics.median(self.samples or [self.last_s])
        spent = self.spent_s
        self.samples, self.spent_s = [], 0.0
        return scale, spent
