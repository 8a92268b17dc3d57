"""Vector unit model.

Section 2.1 of the paper: each SX-4 processor's vector unit is built from
eight vector-pipeline VLSI chips, together providing four sets of eight
pipes (add/shift, multiply, divide, logical).  Each set of eight pipes
serves one vector instruction, so a chained add+multiply sustains 16 flops
per cycle — 2 GFLOPS at the 8.0 ns production clock, 1.74 GFLOPS at the
9.2 ns clock of the benchmarked machine.

The model reduces this to a handful of parameters:

* ``pipes`` — results per cycle for a single vector instruction (8),
* ``concurrent_sets`` — how many functional sets overlap (2 for the
  add+multiply chain that defines peak; the divide pipes can push a
  processor *beyond* its nominal peak, which we deliberately ignore),
* ``startup_cycles`` — pipeline fill + issue latency charged once per
  vector-loop execution; this is what bends the short-vector end of
  Figures 5–7,
* ``register_length`` — vector register capacity; longer loops strip-mine
  with a small per-strip re-issue cost,
* ``intrinsic_cycles_per_element`` — vectorised math-library throughput
  (ELEFUNT, Table 3, and the RADABS/CCM2 physics mix).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

from repro.machine.operations import INTRINSICS, VectorOp
from repro.perfmon.counters import declare_counters

__all__ = ["VectorUnit"]

declare_counters(
    "vector_unit",
    (
        "busy_cycles",  # pipeline-busy arithmetic + intrinsic cycles
        "startup_cycles",  # startup + strip-mine overhead
        "vector_instructions",  # strip-mined vector instruction issues
        "vector_elements",  # PROGINF "V. Element Count"
        "flops",  # genuine adds/multiplies
        "flop_equivalents",  # with Cray-HPM intrinsic credits
        "intrinsic_calls",
    ),
)


def _default_intrinsic_cycles() -> dict[str, float]:
    # Vectorised math-library throughput in cycles per element across the
    # whole vector unit.  SQRT uses the divide pipes and is cheapest; PWR
    # is log+exp and costs the most.  These rates put the SX-4/1 in the
    # tens-to-hundreds of Mcalls/s range for Table 3.
    return {
        "sqrt": 0.75,
        "exp": 1.20,
        "log": 1.40,
        "sin": 1.60,
        "pwr": 2.80,
        "div": 0.50,
    }


@dataclass
class VectorUnit:
    """Throughput/latency model of one vector unit."""

    pipes: int = 8
    concurrent_sets: int = 2
    startup_cycles: float = 40.0
    register_length: int = 256
    stripmine_cycles: float = 8.0
    intrinsic_cycles_per_element: Mapping[str, float] = field(
        default_factory=_default_intrinsic_cycles
    )

    def __post_init__(self) -> None:
        if self.pipes < 1:
            raise ValueError(f"need at least one pipe, got {self.pipes}")
        if self.concurrent_sets < 1:
            raise ValueError(f"need at least one pipe set, got {self.concurrent_sets}")
        if self.register_length < 1:
            raise ValueError(f"register length must be positive, got {self.register_length}")
        if self.startup_cycles < 0 or self.stripmine_cycles < 0:
            raise ValueError("overhead cycle counts cannot be negative")
        missing = [f for f in INTRINSICS if f not in self.intrinsic_cycles_per_element]
        if missing:
            raise ValueError(f"intrinsic cost table missing entries for {missing}")

    @property
    def peak_flops_per_cycle(self) -> float:
        """Chained add+multiply across all pipes (16 for the SX-4)."""
        return float(self.pipes * self.concurrent_sets)

    @property
    def half_performance_length(self) -> int:
        """Hockney's n½: the vector length at which a loop reaches half its
        asymptotic rate.

        With ``time(n) = startup + n / rate`` for a single chained vector
        instruction stream delivering ``pipes`` results per cycle, half
        performance is reached exactly when the pipe-busy time equals the
        startup time, i.e. at ``startup_cycles * pipes`` elements (320 for
        the SX-4's 40-cycle startup across 8 pipes, 15 for the Y-MP).
        Loops shorter than this are startup-dominated — the knee of the
        paper's Figures 5-7 short-vector roll-off.
        """
        return max(1, round(self.startup_cycles * self.pipes))

    def arithmetic_cycles(self, op: VectorOp) -> float:
        """Pipeline-busy cycles for the arithmetic of one loop execution.

        With fewer than ``concurrent_sets`` flops per element only a subset
        of the functional sets has work, so throughput drops accordingly —
        a pure copy (0 flops) is limited by the load/store path instead and
        contributes nothing here.
        """
        cycles = 0.0
        if op.flops_per_element > 0:
            sets_used = min(float(self.concurrent_sets), max(1.0, op.flops_per_element))
            flops_per_cycle = self.pipes * sets_used
            cycles += op.length * op.flops_per_element / flops_per_cycle
        for name, calls in op.intrinsic_calls:
            cycles += op.length * calls * self.intrinsic_cycles_per_element[name]
        return cycles

    def overhead_cycles(self, op: VectorOp) -> float:
        """Startup + strip-mining overhead for one loop execution."""
        strips = max(1, math.ceil(op.length / self.register_length))
        return self.startup_cycles + (strips - 1) * self.stripmine_cycles

    def perfmon_counters(self, op: VectorOp) -> dict[str, float]:
        """Counter increments for all ``count`` executions of a loop.

        ``vector_instructions`` counts strip-mined issues, so
        ``vector_elements / vector_instructions`` is the PROGINF
        average vector length (capped by :attr:`register_length`).
        """
        strips = max(1, math.ceil(op.length / self.register_length))
        return {
            "busy_cycles": self.arithmetic_cycles(op) * op.count,
            "startup_cycles": self.overhead_cycles(op) * op.count,
            "vector_instructions": strips * op.count,
            "vector_elements": op.elements,
            "flops": op.raw_flops,
            "flop_equivalents": op.flop_equivalents,
            "intrinsic_calls": sum(op.intrinsic_calls_total.values()),
        }

    def intrinsic_rate_per_cycle(self, func: str) -> float:
        """Sustained vector throughput of one intrinsic, results/cycle."""
        if func not in self.intrinsic_cycles_per_element:
            raise KeyError(f"unknown intrinsic {func!r}")
        return 1.0 / self.intrinsic_cycles_per_element[func]
