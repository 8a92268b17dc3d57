"""Internode Crossbar (IXS) and multi-node system models.

Section 2.5: up to 16 SX-4 nodes connect through the IXS, a non-blocking
fibre-channel crossbar.  Each node has one 8 GB/s input and one 8 GB/s
output channel that operate concurrently; the full 16-node system
sustains 128 GB/s of bisection bandwidth and exposes global communication
registers for cross-node synchronisation.

The paper's benchmarks all ran inside a single node, so the multi-node
model exists to (a) regenerate the architecture numbers quoted in
Section 2 (8 TB/s aggregate memory bandwidth, 128 GB/s bisection for an
SX-4/512) and (b) support the scalability *extension* experiments in
``tests/test_ablations.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.machine.node import Node
from repro.perfmon.collector import record as perfmon_record
from repro.perfmon.counters import declare_counters
from repro.units import GB

__all__ = ["InternodeCrossbar", "MultiNodeSystem"]

declare_counters(
    "ixs",
    (
        "transfers",
        "transfer_bytes",
        "busy_seconds",  # channel occupancy, simulated
        "barriers",
        "barrier_seconds",
    ),
)


@dataclass
class InternodeCrossbar:
    """The IXS: per-node channels plus a bisection cap."""

    channel_bytes_per_s: float = 8 * GB
    max_nodes: int = 16
    latency_s: float = 5e-6
    sync_register_latency_s: float = 1e-6

    def __post_init__(self) -> None:
        if self.channel_bytes_per_s <= 0:
            raise ValueError("channel bandwidth must be positive")
        if self.max_nodes < 2:
            raise ValueError(f"a crossbar needs >= 2 nodes, got {self.max_nodes}")
        if self.latency_s < 0 or self.sync_register_latency_s < 0:
            raise ValueError("latencies cannot be negative")

    def bisection_bytes_per_s(self, nodes: int) -> float:
        """Bisection bandwidth with ``nodes`` attached (128 GB/s at 16).

        Half the nodes send across the bisection on their output channels
        while the other half receive, and input/output channels are
        concurrent, so bisection = nodes * channel rate (8 GB/s × 16 =
        128 GB/s, matching the paper).
        """
        if not 2 <= nodes <= self.max_nodes:
            raise ValueError(f"nodes must be in [2, {self.max_nodes}], got {nodes}")
        return nodes * self.channel_bytes_per_s

    def transfer_seconds(self, nbytes: float) -> float:
        """Point-to-point transfer time between two nodes."""
        if nbytes < 0:
            raise ValueError(f"transfer size cannot be negative, got {nbytes}")
        if nbytes == 0:
            return 0.0
        seconds = self.latency_s + nbytes / self.channel_bytes_per_s
        perfmon_record(
            "ixs",
            {"transfers": 1.0, "transfer_bytes": nbytes, "busy_seconds": seconds},
        )
        return seconds

    def barrier_seconds(self, nodes: int) -> float:
        """Global synchronisation through the IXS communication registers."""
        if not 1 <= nodes <= self.max_nodes:
            raise ValueError(f"nodes must be in [1, {self.max_nodes}], got {nodes}")
        if nodes == 1:
            return 0.0
        # Fan-in/fan-out tree over the global registers.
        import math

        seconds = 2.0 * math.ceil(math.log2(nodes)) * self.sync_register_latency_s
        perfmon_record("ixs", {"barriers": 1.0, "barrier_seconds": seconds})
        return seconds


@dataclass
class MultiNodeSystem:
    """Several identical nodes on one IXS — up to the SX-4/512."""

    node: Node
    node_count: int = 16
    ixs: InternodeCrossbar = field(default_factory=InternodeCrossbar)

    def __post_init__(self) -> None:
        if not 1 <= self.node_count <= self.ixs.max_nodes:
            raise ValueError(
                f"node count must be in [1, {self.ixs.max_nodes}], got {self.node_count}"
            )

    @property
    def cpu_count(self) -> int:
        return self.node.cpu_count * self.node_count

    @property
    def peak_flops(self) -> float:
        return self.node.peak_flops * self.node_count

    @property
    def aggregate_memory_bandwidth_bytes_per_s(self) -> float:
        """Memory-to-pipeline bandwidth over all nodes (8 TB/s at 512 CPUs
        on the 8.0 ns machine; the paper rounds 16 GB/s × 512)."""
        return self.node.node_bandwidth_bytes_per_s * self.node_count

    def exchange_seconds(self, bytes_per_node: float) -> float:
        """Time for a neighbour exchange of ``bytes_per_node`` per node.

        Every node streams its data out of its 8 GB/s output channel while
        receiving on its input channel; the non-blocking crossbar imposes
        no additional serialisation.
        """
        if self.node_count == 1:
            return 0.0
        return self.ixs.transfer_seconds(bytes_per_node) + self.ixs.barrier_seconds(
            self.node_count
        )

    def alltoall_seconds(self, bytes_per_node: float) -> float:
        """Personalised all-to-all: each node sends a distinct slice of
        its ``bytes_per_node`` to every peer (the spectral transpose
        pattern).  The crossbar is non-blocking, so the n-1 rounds
        pipeline on the channels, but each round still pays the
        connection latency — which is what makes small messages (small
        problems on many nodes) latency-bound.
        """
        if bytes_per_node < 0:
            raise ValueError(f"exchange size cannot be negative, got {bytes_per_node}")
        n = self.node_count
        if n == 1 or bytes_per_node == 0:
            return 0.0
        slice_bytes = bytes_per_node / n
        per_round = self.ixs.latency_s + slice_bytes / self.ixs.channel_bytes_per_s
        return (n - 1) * per_round + self.ixs.barrier_seconds(n)
