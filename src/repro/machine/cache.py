"""Cache-hierarchy model for cache-based (workstation) comparators.

Table 1 contrasts the SX-4-style vector machines (Cray Y-MP, J90) with
cache-based superscalar workstations (SUN SPARC20, IBM RS6000/590).  The
RFFT/VFFT pair likewise exists to expose the difference between
cache-friendly and vector-friendly loop orderings.  This module models the
only cache features those comparisons depend on: line-granularity refill,
a capacity threshold, and the penalty explosion for strided or indexed
access once the working set spills.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.perfmon.counters import declare_counters

__all__ = ["CacheModel"]

declare_counters(
    "cache",
    (
        "ref_words",  # words referenced through the cache
        "hit_words",
        "miss_words",  # words that triggered a line refill
        "miss_cycles",  # refill time paid
    ),
)


@dataclass
class CacheModel:
    """A single-level data-cache timing model.

    Parameters
    ----------
    size_bytes:
        Capacity (64 KB for the SX-4 scalar unit's data cache).
    line_bytes:
        Refill granularity.
    hit_cycles_per_word:
        Cost of a cache-resident word reference.
    miss_latency_cycles:
        Time to start a line refill from main memory.
    mem_words_per_cycle:
        Streaming refill rate from memory.
    """

    size_bytes: int = 64 * 1024
    line_bytes: int = 64
    hit_cycles_per_word: float = 0.5
    miss_latency_cycles: float = 20.0
    mem_words_per_cycle: float = 0.5

    def __post_init__(self) -> None:
        if self.size_bytes <= 0 or self.line_bytes <= 0:
            raise ValueError("cache and line sizes must be positive")
        if self.line_bytes % 8 != 0:
            raise ValueError(f"line size must hold whole 64-bit words, got {self.line_bytes}")
        if self.line_bytes > self.size_bytes:
            raise ValueError("a line cannot exceed the cache size")
        if self.hit_cycles_per_word < 0 or self.miss_latency_cycles < 0:
            raise ValueError("timings cannot be negative")
        if self.mem_words_per_cycle <= 0:
            raise ValueError("memory refill rate must be positive")

    @property
    def words_per_line(self) -> int:
        return self.line_bytes // 8

    def line_fill_cycles(self) -> float:
        """Cost of one miss: latency plus streaming the line in."""
        return self.miss_latency_cycles + self.words_per_line / self.mem_words_per_cycle

    def miss_rate(self, stride_words: int, working_set_bytes: float, indexed: bool = False) -> float:
        """Expected misses per referenced word.

        A working set that fits in the cache stays resident across the
        benchmark's KTRIES repetitions (best-of-N timing), so its steady
        state is all hits.  A streaming working set misses once per line
        touched: every ``words_per_line / stride`` references for small
        strides, every reference once the stride reaches a line (or for
        indexed access).
        """
        if stride_words < 1:
            raise ValueError(f"stride must be >= 1, got {stride_words}")
        if working_set_bytes < 0:
            raise ValueError("working set cannot be negative")
        if working_set_bytes <= self.size_bytes:
            return 0.0
        if indexed or stride_words >= self.words_per_line:
            return 1.0
        return stride_words / self.words_per_line

    def cycles_per_word(
        self, stride_words: int, working_set_bytes: float, indexed: bool = False
    ) -> float:
        """Average cost of one word reference under the given pattern."""
        rate = self.miss_rate(stride_words, working_set_bytes, indexed)
        return self.hit_cycles_per_word + rate * self.line_fill_cycles()

    def perfmon_counters(
        self,
        words: float,
        stride_words: int = 1,
        working_set_bytes: float = 0.0,
        indexed: bool = False,
    ) -> dict[str, float]:
        """Counter increments for ``words`` references under one pattern."""
        rate = self.miss_rate(stride_words, working_set_bytes, indexed)
        misses = words * rate
        return {
            "ref_words": words,
            "hit_words": words - misses,
            "miss_words": misses,
            "miss_cycles": misses * self.line_fill_cycles(),
        }
