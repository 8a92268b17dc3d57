"""Scalar (superscalar) unit model.

Section 2.1: the SX-4 scalar unit is a superscalar RISC processor with
64 KB data and instruction caches that issues up to two instructions per
clock, with branch prediction and out-of-order execution.  All vector
instructions are also issued by this unit (most in two clocks), which is
why vector-loop startup ends up charged against the scalar side in real
codes — our model folds that into :class:`~repro.machine.vector_unit.VectorUnit`
startup and uses the scalar unit for genuinely unvectorised work:

* :class:`~repro.machine.operations.ScalarOp` descriptors (loop
  bookkeeping, diagnostics, recursion),
* whole :class:`~repro.machine.operations.VectorOp` loops on machines with
  no vector unit (the SPARC20 / RS6000 comparators), where each element is
  processed at superscalar rates through the cache model,
* scalar intrinsic calls (the workstation math library, at hundreds of
  cycles per call — the reason RADABS runs at ~13–17 Mflops on the
  workstations of Table 1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from repro.machine.cache import CacheModel
from repro.machine.operations import INTRINSICS, ScalarOp, VectorOp
from repro.perfmon.counters import declare_counters

__all__ = ["ScalarUnit"]

declare_counters(
    "scalar_unit",
    (
        "ex_cycles",  # cycles spent executing on the scalar unit
        "instructions",  # PROGINF "Inst. Count" (scalar issue slots)
        "flops",
        "flop_equivalents",
        "memory_words",
        "intrinsic_calls",  # scalar (libm-style) intrinsic calls
    ),
)


def _default_scalar_intrinsic_cycles() -> dict[str, float]:
    # Scalar math-library costs in cycles per call; typical of mid-1990s
    # libm implementations (polynomial kernels plus range reduction).
    return {
        "sqrt": 60.0,
        "exp": 120.0,
        "log": 130.0,
        "sin": 140.0,
        "pwr": 250.0,
        "div": 20.0,
    }


@dataclass
class ScalarUnit:
    """Issue-limited superscalar model with an attached data cache."""

    issue_width: float = 2.0
    flops_per_cycle: float = 1.0
    cache: CacheModel = field(default_factory=CacheModel)
    loop_overhead_instructions: float = 6.0
    intrinsic_cycles_per_call: Mapping[str, float] = field(
        default_factory=_default_scalar_intrinsic_cycles
    )

    def __post_init__(self) -> None:
        if self.issue_width <= 0:
            raise ValueError(f"issue width must be positive, got {self.issue_width}")
        if self.flops_per_cycle <= 0:
            raise ValueError(f"flop rate must be positive, got {self.flops_per_cycle}")
        if self.loop_overhead_instructions < 0:
            raise ValueError("loop overhead cannot be negative")
        missing = [f for f in INTRINSICS if f not in self.intrinsic_cycles_per_call]
        if missing:
            raise ValueError(f"scalar intrinsic cost table missing entries for {missing}")

    def scalar_op_cycles(self, op: ScalarOp) -> float:
        """Cycles for one execution of a ScalarOp (excluding ``count``).

        Issue, floating-point pipe and memory time are summed rather than
        overlapped: scalar benchmark loops (HINT's subdivision scan, MOM's
        diagnostics) are branchy and dependence-chained, which defeats the
        overlap a superscalar core achieves on straight-line code.
        """
        issue = op.instructions / self.issue_width
        fp = op.flops / self.flops_per_cycle
        memory = op.memory_words * self.cache.hit_cycles_per_word
        return issue + fp + memory

    def vector_op_cycles(self, op: VectorOp) -> float:
        """Cycles for one execution of a VectorOp run as a scalar loop.

        Used on cache-based machines.  Each element pays issue-limited
        arithmetic, cache-modelled memory references, scalar intrinsic
        calls, and a per-iteration loop overhead (partially hidden by
        superscalar issue, hence charged at the issue rate).
        """
        words_per_elem = op.loads_per_element + op.stores_per_element
        indexed_per_elem = op.gather_loads_per_element + op.scatter_stores_per_element
        working_set = (
            (op.loads_per_element * op.load_stride + op.stores_per_element * op.store_stride)
            * op.length
            * 8.0
        )
        stride = max(op.load_stride, op.store_stride)
        mem_cycles = words_per_elem * self.cache.cycles_per_word(stride, working_set)
        if indexed_per_elem > 0:
            # Indexed access on a cache machine is usually a *small-table*
            # lookup (radiation band tables, interpolation stencils): the
            # table stays resident, so each reference costs a hit plus the
            # index address computation — not a streaming miss.
            mem_cycles += indexed_per_elem * 2.0 * self.cache.hit_cycles_per_word
        flop_cycles = op.flops_per_element / self.flops_per_cycle
        loop_cycles = self.loop_overhead_instructions / self.issue_width
        intrinsic_cycles = sum(
            calls * self.intrinsic_cycles_per_call[name] for name, calls in op.intrinsic_calls
        )
        per_element = max(flop_cycles, mem_cycles) + loop_cycles + intrinsic_cycles
        return op.length * per_element

    # -- perfmon instrumentation --------------------------------------------
    def perfmon_scalar_counters(
        self, op: ScalarOp
    ) -> tuple[dict[str, float], dict[str, float]]:
        """(scalar_unit, cache) counter increments for a ScalarOp."""
        scalar = {
            "ex_cycles": self.scalar_op_cycles(op) * op.count,
            "instructions": op.instructions * op.count,
            "flops": op.raw_flops,
            "flop_equivalents": op.flop_equivalents,
            "memory_words": op.words_moved,
        }
        # Scalar references are register/cache-resident by construction.
        cache = self.cache.perfmon_counters(op.words_moved)
        return scalar, cache

    def perfmon_vector_counters(
        self, op: VectorOp
    ) -> tuple[dict[str, float], dict[str, float]]:
        """(scalar_unit, cache) increments for a VectorOp run as a
        scalar loop on a cache machine.

        Instruction accounting mirrors :meth:`vector_op_cycles`: per
        element, the flops plus the loop-bookkeeping overhead occupy
        issue slots; memory references go through the cache model with
        the loop's stride and working set.
        """
        elements = op.elements
        words_per_elem = op.loads_per_element + op.stores_per_element
        indexed_per_elem = op.gather_loads_per_element + op.scatter_stores_per_element
        working_set = (
            (op.loads_per_element * op.load_stride + op.stores_per_element * op.store_stride)
            * op.length
            * 8.0
        )
        stride = max(op.load_stride, op.store_stride)
        scalar = {
            "ex_cycles": self.vector_op_cycles(op) * op.count,
            "instructions": (op.flops_per_element + self.loop_overhead_instructions) * elements,
            "flops": op.raw_flops,
            "flop_equivalents": op.flop_equivalents,
            "memory_words": op.words_moved,
            "intrinsic_calls": sum(op.intrinsic_calls_total.values()),
        }
        cache = self.cache.perfmon_counters(
            words_per_elem * elements, stride, working_set
        )
        if indexed_per_elem > 0:
            # Small-table lookups: resident, so pure hits (see above).
            for name, value in self.cache.perfmon_counters(
                indexed_per_elem * elements
            ).items():
                cache[name] = cache.get(name, 0.0) + value
        return scalar, cache
