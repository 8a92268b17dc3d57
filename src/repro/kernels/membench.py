"""Shared machinery for the memory-bandwidth benchmarks (Section 4.2).

The COPY, IA and XPOSE benchmarks share a "novel feature" the paper calls
out: the axis length ``N`` and the instance count ``M`` are chosen so the
amount of data moved stays roughly constant (≈10⁶ elements), sweeping from
many tiny arrays to a few huge ones.  This yields a bandwidth *curve*
rather than a single number (the paper's criticism of STREAM).

This module provides:

* :func:`sweep_axes` — the (N, M) pairs of such a constant-volume sweep,
* :func:`best_of` — the KTRIES protocol: repeat a measurement K times and
  keep the best (the paper used KTRIES=20 for the memory benchmarks),
* :class:`BandwidthPoint` / :class:`BandwidthCurve` — results containers
  that report bandwidth the way the paper does, counting only the elements
  of ``a`` moved to ``b`` (one-way traffic, indices excluded),
* :func:`model_curve` — run a kernel's trace builder across the sweep on a
  machine model.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.machine.operations import Trace
from repro.machine.processor import Processor
from repro.units import MB, WORD_BYTES

# repolint: exempt=REPO001 -- sweep/timing machinery shared by COPY/IA/XPOSE
__all__ = [
    "DEFAULT_TOTAL_ELEMENTS",
    "DEFAULT_KTRIES",
    "sweep_axes",
    "best_of",
    "time_host",
    "BandwidthPoint",
    "BandwidthCurve",
    "model_curve",
]

#: Elements kept in flight at every sweep point (the paper's ~10⁶).
DEFAULT_TOTAL_ELEMENTS = 1_000_000
#: KTRIES used for COPY/IA/XPOSE/RFFT in the paper.
DEFAULT_KTRIES = 20


def sweep_axes(
    total_elements: int = DEFAULT_TOTAL_ELEMENTS,
    n_min: int = 1,
    n_max: int | None = None,
    points_per_decade: int = 4,
) -> list[tuple[int, int]]:
    """(N, M) pairs with N rising geometrically and N·M ≈ total_elements.

    ``N`` runs from ``n_min`` to ``n_max`` (default: ``total_elements``,
    i.e. the paper's 1 … 10⁶ for COPY/IA); ``M`` is the matching instance
    count, never below 1.
    """
    if total_elements < 1:
        raise ValueError(f"total_elements must be positive, got {total_elements}")
    if n_min < 1:
        raise ValueError(f"n_min must be >= 1, got {n_min}")
    n_max = n_max if n_max is not None else total_elements
    if n_max < n_min:
        raise ValueError(f"n_max ({n_max}) must be >= n_min ({n_min})")
    pairs: list[tuple[int, int]] = []
    decades = math.log10(n_max / n_min) if n_max > n_min else 0.0
    steps = max(1, round(decades * points_per_decade))
    seen: set[int] = set()
    for i in range(steps + 1):
        n = round(n_min * (n_max / n_min) ** (i / steps)) if steps else n_min
        n = max(n_min, min(n_max, n))
        if n in seen:
            continue
        seen.add(n)
        m = max(1, round(total_elements / n))
        pairs.append((n, m))
    return pairs


def best_of(measure: Callable[[], float], ktries: int = DEFAULT_KTRIES) -> float:
    """The KTRIES protocol: call ``measure`` K times, return the minimum.

    ``measure`` returns a duration in seconds; the best (smallest) is kept,
    which is how the paper smooths its performance curves (KTRIES ≥ 5).
    """
    if ktries < 1:
        raise ValueError(f"ktries must be >= 1, got {ktries}")
    return min(measure() for _ in range(ktries))


def time_host(work: Callable[[], object], ktries: int = DEFAULT_KTRIES) -> float:
    """Best-of-KTRIES wall time of ``work()`` on the host machine."""

    def measure() -> float:
        start = time.perf_counter()
        work()
        return time.perf_counter() - start

    return best_of(measure, ktries)


@dataclass(frozen=True)
class BandwidthPoint:
    """One sweep point: axis length, instances, time, one-way bandwidth."""

    n: int
    m: int
    seconds: float
    elements_moved: int

    @property
    def bytes_moved(self) -> float:
        """One-way bytes: only the elements of ``a`` moved to ``b``
        (Section 4.2: indices are not counted)."""
        return self.elements_moved * WORD_BYTES

    @property
    def bandwidth_bytes_per_s(self) -> float:
        if self.seconds <= 0:
            return 0.0
        return self.bytes_moved / self.seconds

    @property
    def bandwidth_mb_per_s(self) -> float:
        """MB/s, the unit of Figure 5."""
        return self.bandwidth_bytes_per_s / MB


@dataclass
class BandwidthCurve:
    """A labelled bandwidth-vs-axis-length curve (one line of Figure 5)."""

    name: str
    machine: str
    points: list[BandwidthPoint] = field(default_factory=list)

    def __iter__(self):
        return iter(self.points)

    def __len__(self) -> int:
        return len(self.points)

    @property
    def peak(self) -> BandwidthPoint:
        if not self.points:
            raise ValueError(f"curve {self.name!r} has no points")
        return max(self.points, key=lambda p: p.bandwidth_bytes_per_s)

    @property
    def asymptote_mb_per_s(self) -> float:
        """Bandwidth at the largest axis length measured."""
        if not self.points:
            raise ValueError(f"curve {self.name!r} has no points")
        return max(self.points, key=lambda p: p.n).bandwidth_mb_per_s

    def series(self) -> tuple[list[int], list[float]]:
        """(axis lengths, MB/s) sorted by axis length, for plotting."""
        pts = sorted(self.points, key=lambda p: p.n)
        return [p.n for p in pts], [p.bandwidth_mb_per_s for p in pts]


def model_curve(
    name: str,
    processor: Processor,
    trace_builder: Callable[[int, int], Trace],
    axes: Sequence[tuple[int, int]] | None = None,
    elements_counter: Callable[[int, int], int] | None = None,
) -> BandwidthCurve:
    """Evaluate a kernel's trace builder across a sweep on a machine model.

    ``trace_builder(n, m)`` describes the kernel at one sweep point;
    ``elements_counter(n, m)`` says how many elements of ``a`` it moves
    (default ``n * m``).  The machine model is deterministic, so KTRIES
    best-of is a no-op here and is not applied.  Every point is costed
    in one ``execute_all`` call.
    """
    if axes is None:
        axes = sweep_axes()
    counter = elements_counter or (lambda n, m: n * m)
    curve = BandwidthCurve(name=name, machine=processor.name)
    reports = processor.execute_all([trace_builder(n, m) for n, m in axes])
    for (n, m), report in zip(axes, reports):
        curve.points.append(
            BandwidthPoint(n=n, m=m, seconds=report.seconds, elements_moved=counter(n, m))
        )
    return curve
