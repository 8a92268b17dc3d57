"""Main Memory Unit model: banked SSRAM behind a non-blocking crossbar.

Section 2.2 of the paper gives the parameters this model carries:

* per-processor port of 16 GB/s into the crossbar,
* up to 1024 banks of 64-bit-wide SSRAM with a bank cycle of only two
  clocks,
* conflict-free unit-stride *and* stride-2 access guaranteed from all 32
  processors simultaneously (512 GB/s sustainable per node),
* "higher strides and list vector access benefit from the very short bank
  cycle time" — i.e. they are slower, but not catastrophically so.

The model charges memory time per vector-loop execution as::

    max(load_path_cycles, store_path_cycles)

because the SX-4 load and store paths operate concurrently.  Each path
moves ``port_words_per_cycle / 2`` words per cycle at best, degraded by a
stride factor (bank-conflict model) or a gather/scatter factor (list
vectors also pay index-vector traffic on the load path).

Multi-CPU contention: unit-stride traffic is guaranteed conflict-free, so
only strided/indexed traffic sees other processors.  The node model uses
:meth:`BankedMemory.contention_factor` for that, which is what keeps the
ensemble-test degradation (Table 6) at the ~2% level the paper reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.machine.operations import VectorOp
from repro.perfmon.counters import declare_counters

__all__ = ["BankedMemory"]

declare_counters(
    "memory",
    (
        "load_cycles",  # load-path busy cycles (as charged, incl. dilation)
        "store_cycles",  # store-path busy cycles (as charged, incl. dilation)
        "transfer_cycles",  # max(load, store) per execution — the charged time
        "bank_conflict_cycles",  # charged minus conflict-free-ideal time
        "sequential_words",
        "indexed_words",  # gathered/scattered data words
        "index_words",  # index-vector traffic (not counted as data)
    ),
)


@dataclass
class BankedMemory:
    """Banked-memory timing model for one node.

    Parameters
    ----------
    banks:
        Number of interleaved banks (1024 on a full SX-4 node).
    bank_busy_cycles:
        Bank recovery time in clocks (2 on the SX-4's SSRAM).
    port_words_per_cycle:
        Total words per cycle one processor's port can move, load and
        store paths combined (16 ≈ the 16 GB/s port at 108.7 MHz).
    stride_base_penalty:
        Crossbar/section dilation applied to any stride above 2, before
        bank conflicts are considered.
    gather_base_penalty:
        Dilation for list-vector (indexed) access.
    index_words_per_element:
        Index-vector words loaded per gathered/scattered element.
    contention_slope:
        Strength of multi-CPU bank interference on non-unit-stride
        traffic (calibrated against the Table 6 ensemble test).
    """

    banks: int = 1024
    bank_busy_cycles: float = 2.0
    port_words_per_cycle: float = 16.0
    stride_base_penalty: float = 2.0
    gather_base_penalty: float = 2.5
    index_words_per_element: float = 1.0
    contention_slope: float = 0.8
    contention_base_slope: float = 0.05

    def __post_init__(self) -> None:
        if self.banks < 1:
            raise ValueError(f"need at least one bank, got {self.banks}")
        if self.bank_busy_cycles <= 0:
            raise ValueError("bank busy time must be positive")
        if self.port_words_per_cycle <= 0:
            raise ValueError("port width must be positive")
        for value, label in (
            (self.stride_base_penalty, "stride_base_penalty"),
            (self.gather_base_penalty, "gather_base_penalty"),
        ):
            if value < 1.0:
                raise ValueError(f"{label} must be >= 1, got {value}")
        if self.index_words_per_element < 0:
            raise ValueError("index traffic cannot be negative")
        if self.contention_slope < 0 or self.contention_base_slope < 0:
            raise ValueError("contention slopes cannot be negative")

    @property
    def path_words_per_cycle(self) -> float:
        """Best-case words per cycle on the load path alone (= store path)."""
        return self.port_words_per_cycle / 2.0

    # -- stride / gather dilation ------------------------------------------
    def distinct_banks(self, stride: int) -> int:
        """How many distinct banks a constant-stride pattern cycles through.

        With ``B`` banks, stride ``s`` visits ``B / gcd(s, B)`` of them —
        the interleaved-memory classic that makes power-of-two strides the
        worst case (stride 512 on 1024 banks touches just 2 banks).
        """
        if stride < 1:
            raise ValueError(f"stride must be >= 1, got {stride}")
        return self.banks // math.gcd(stride, self.banks)

    def conflict_factor(self, stride: int) -> float:
        """The pure bank-conflict part of the stride dilation (>= 1).

        1.0 when the visited bank subset can still source the full path
        width given the bank busy time; above 1.0 the banks themselves are
        the bottleneck.  Strides 1 and 2 are conflict-free by hardware
        guarantee.  The static analyzer's VEC002 rule reports this factor.
        """
        if stride < 1:
            raise ValueError(f"stride must be >= 1, got {stride}")
        if stride in (1, 2):
            return 1.0
        sustainable = self.distinct_banks(stride) / self.bank_busy_cycles
        return max(1.0, self.path_words_per_cycle / sustainable)

    def stride_factor(self, stride: int) -> float:
        """Throughput dilation for a constant-stride access pattern.

        Stride 1 and 2 are conflict-free by hardware guarantee.  Higher
        strides pay the crossbar dilation (:attr:`stride_base_penalty`)
        times the bank-conflict term (:meth:`conflict_factor`).
        """
        if stride < 1:
            raise ValueError(f"stride must be >= 1, got {stride}")
        if stride in (1, 2):
            return 1.0
        return self.stride_base_penalty * self.conflict_factor(stride)

    def gather_factor(self) -> float:
        """Throughput dilation for list-vector (randomly indexed) access.

        Random bank targets collide with probability governed by the
        banks-to-busy ratio; with 1024 banks and 2-cycle busy the expected
        collision add-on is small, which is the paper's point about the
        "very short bank cycle time".
        """
        occupancy = self.path_words_per_cycle * self.bank_busy_cycles / self.banks
        return self.gather_base_penalty * (1.0 + occupancy)

    # -- per-op timing ------------------------------------------------------
    def load_cycles(self, op: VectorOp) -> float:
        """Load-path busy cycles for one execution of the loop."""
        width = self.path_words_per_cycle
        cycles = op.loads_per_element * op.length * self.stride_factor(op.load_stride) / width
        if op.gather_loads_per_element > 0:
            cycles += op.gather_loads_per_element * op.length * self.gather_factor() / width
        # Index vectors ride the load path at unit stride.
        indexed = op.gather_loads_per_element + op.scatter_stores_per_element
        if indexed > 0:
            cycles += indexed * op.length * self.index_words_per_element / width
        return cycles

    def store_cycles(self, op: VectorOp) -> float:
        """Store-path busy cycles for one execution of the loop."""
        width = self.path_words_per_cycle
        cycles = op.stores_per_element * op.length * self.stride_factor(op.store_stride) / width
        if op.scatter_stores_per_element > 0:
            cycles += op.scatter_stores_per_element * op.length * self.gather_factor() / width
        return cycles

    def transfer_cycles(self, op: VectorOp) -> float:
        """Memory time for one loop execution; load/store paths overlap."""
        return max(self.load_cycles(op), self.store_cycles(op))

    def conflict_free_cycles(self, op: VectorOp) -> float:
        """Memory time for one loop execution were every access pattern
        conflict-free (stride/gather dilations forced to 1, index-vector
        traffic still paid) — the PROGINF bank-conflict baseline."""
        width = self.path_words_per_cycle
        indexed = op.gather_loads_per_element + op.scatter_stores_per_element
        load = (op.loads_per_element + op.gather_loads_per_element) * op.length / width
        load += indexed * op.length * self.index_words_per_element / width
        store = (op.stores_per_element + op.scatter_stores_per_element) * op.length / width
        return max(load, store)

    def perfmon_counters(self, op: VectorOp, dilation: float = 1.0) -> dict[str, float]:
        """Counter increments for all ``count`` executions of a loop.

        ``bank_conflict_cycles`` is the charged memory time in excess of
        the conflict-free ideal — covering stride/gather dilation *and*
        multi-CPU contention, the two things PROGINF's "bank conflict
        time" lumped together.
        """
        charged = self.transfer_cycles(op) * dilation * op.count
        ideal = self.conflict_free_cycles(op) * op.count
        indexed_per_elem = op.gather_loads_per_element + op.scatter_stores_per_element
        return {
            "load_cycles": self.load_cycles(op) * dilation * op.count,
            "store_cycles": self.store_cycles(op) * dilation * op.count,
            "transfer_cycles": charged,
            "bank_conflict_cycles": max(0.0, charged - ideal),
            "sequential_words": op.sequential_words * op.count,
            "indexed_words": op.indexed_words * op.count,
            "index_words": indexed_per_elem * op.length * self.index_words_per_element * op.count,
        }

    # -- multi-CPU behaviour -------------------------------------------------
    def contention_factor(self, active_cpus: int, irregular_fraction: float) -> float:
        """Node-level dilation of memory time when several CPUs are active.

        ``irregular_fraction`` is the fraction of the traffic that is
        strided/indexed (unit-stride is guaranteed conflict-free from all
        32 CPUs).  The model is linear in both the extra CPUs and the
        irregular fraction.  A small base slope covers the residual
        interference even unit-stride streams of *independent* jobs see
        (their access phases are unsynchronised, so the alignment behind
        the conflict-free guarantee is lost); the irregular slope covers
        bank collisions of gathered/strided traffic.  With the defaults a
        fully-gathered workload on 32 CPUs dilates ~85%, an aligned
        unit-stride one ~5%, and the CCM2 mix (SLT gathers, radiation
        table lookups, layout transposes inside mostly unit-stride
        transforms) lands at the paper's ~1.9% ensemble degradation
        (Table 6).
        """
        if active_cpus < 1:
            raise ValueError(f"active_cpus must be >= 1, got {active_cpus}")
        if not 0.0 <= irregular_fraction <= 1.0:
            raise ValueError(f"irregular_fraction must be in [0,1], got {irregular_fraction}")
        crowding = (active_cpus - 1) / 31.0
        slope = self.contention_base_slope + self.contention_slope * irregular_fraction
        return 1.0 + slope * crowding
