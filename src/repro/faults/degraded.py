"""Degraded machines: presets with resources configured out.

Section 2 of the paper describes hardware built to keep running short
of full strength — spare pipe-set chips, memory that stays addressable
with banks down, four IOPs per node and multiple IXS lanes so one
failure costs bandwidth, not the machine.  This module turns any
calibrated preset into that machine: a :class:`Degradation` names how
many of each resource are offline, and the ``degrade_*`` constructors
rebuild the component with the survivors.

Nothing here adds new cost formulas — a degraded machine is an
ordinary machine with smaller parameters (the pipe and bank arithmetic
is the machine grid's, shared with the explorer's degradation axes), so
fewer banks raise conflict factors through
:class:`~repro.machine.memory.BankedMemory`'s existing gcd arithmetic,
and ``Processor.execute`` prices it bit-identically to the per-op
oracle because both are handed the same component instances (asserted
in ``tests/faults``).
"""

from __future__ import annotations

import dataclasses
from collections.abc import Callable
from dataclasses import dataclass

from repro.machine.grid import MachineGrid
from repro.machine.iop import DiskArray, IOProcessor
from repro.machine.ixs import InternodeCrossbar
from repro.machine.node import Node
from repro.machine.presets import PRESET_FACTORIES
from repro.machine.processor import Processor

__all__ = [
    "IXS_LANES_PER_CHANNEL",
    "NODE_IOPS",
    "PRESETS",
    "Degradation",
    "DegradedMachine",
    "degrade_processor",
    "degrade_node",
    "degrade_crossbar",
    "degrade_iop",
    "degrade_disk_array",
    "standard_degradations",
]

#: Model granularity of one IXS channel: losing a lane costs a quarter
#: of the 8 GB/s channel, not the node's connectivity.
IXS_LANES_PER_CHANNEL = 4

#: I/O processors per node (Section 2.4: up to four XMUs/IOPs).
NODE_IOPS = 4

#: Presets the degraded-machine API knows (the vector machines of the
#: shared :data:`~repro.machine.presets.PRESET_FACTORIES` registry);
#: each returns a fresh :class:`Processor` so degrading never mutates
#: shared state.
PRESETS: dict[str, Callable[[], Processor]] = {
    preset_id: PRESET_FACTORIES[preset_id] for preset_id in ("sx4", "ymp", "j90")
}


@dataclass(frozen=True)
class Degradation:
    """How much of the machine is configured out (all counts offline)."""

    name: str = "baseline"
    offline_pipes: int = 0
    offline_banks: int = 0
    offline_ixs_lanes: int = 0
    offline_iops: int = 0

    def __post_init__(self) -> None:
        for label in ("offline_pipes", "offline_banks", "offline_ixs_lanes",
                      "offline_iops"):
            if getattr(self, label) < 0:
                raise ValueError(f"{label} must be non-negative")
        if self.offline_ixs_lanes >= IXS_LANES_PER_CHANNEL:
            raise ValueError(
                f"a channel has {IXS_LANES_PER_CHANNEL} lanes; at least one "
                f"must survive"
            )
        if self.offline_iops >= NODE_IOPS:
            raise ValueError(
                f"a node has {NODE_IOPS} IOPs; at least one must survive"
            )

    @property
    def is_baseline(self) -> bool:
        return not (self.offline_pipes or self.offline_banks
                    or self.offline_ixs_lanes or self.offline_iops)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "offline_pipes": self.offline_pipes,
            "offline_banks": self.offline_banks,
            "offline_ixs_lanes": self.offline_ixs_lanes,
            "offline_iops": self.offline_iops,
        }


def degrade_processor(processor: Processor, degradation: Degradation) -> Processor:
    """The same CPU with pipe-sets and banks configured out.

    Pipes scale the vector unit's element throughput (intrinsic
    per-element rates stretch by the surviving-pipe ratio — intrinsics
    run on the same pipes); banks shrink the interleave, which raises
    stride/gather conflict factors through the existing bank-busy
    arithmetic.  The arithmetic is :meth:`MachineGrid.take_offline
    <repro.machine.grid.MachineGrid.take_offline>` on the processor's
    one-row grid, the same a sweep's degradation axes run.  The scalar
    side is untouched.
    """
    if degradation.is_baseline:
        return processor
    if degradation.offline_pipes or degradation.offline_banks:
        vector, memory = processor.vector, processor.memory
        if vector is None or memory is None:
            raise ValueError(
                f"{processor.name} has no vector/memory subsystem to degrade"
            )
        grid = MachineGrid.from_processors([processor])
        grid.take_offline(
            "pipes",
            degradation.offline_pipes,
            f"{processor.name} has {vector.pipes} pipes; cannot offline "
            f"{degradation.offline_pipes}",
        )
        grid.take_offline(
            "banks",
            degradation.offline_banks,
            f"{processor.name} has {memory.banks} banks; cannot offline "
            f"{degradation.offline_banks}",
        )
        degraded = grid.materialize(0)
        processor = dataclasses.replace(
            processor, vector=degraded.vector, memory=degraded.memory
        )
    return dataclasses.replace(processor, name=f"{processor.name} [{degradation.name}]")


def degrade_node(node: Node, degradation: Degradation) -> Node:
    """A node whose every CPU sees the degraded processor."""
    return dataclasses.replace(
        node, processor=degrade_processor(node.processor, degradation)
    )


def degrade_crossbar(
    ixs: InternodeCrossbar, degradation: Degradation
) -> InternodeCrossbar:
    """An IXS with lanes down: proportionally less channel bandwidth."""
    if not degradation.offline_ixs_lanes:
        return ixs
    surviving = IXS_LANES_PER_CHANNEL - degradation.offline_ixs_lanes
    return dataclasses.replace(
        ixs,
        channel_bytes_per_s=ixs.channel_bytes_per_s
        * surviving / IXS_LANES_PER_CHANNEL,
    )


def degrade_iop(iop: IOProcessor, degradation: Degradation) -> IOProcessor:
    """A node's I/O subsystem with IOPs offline (bandwidth scales)."""
    if not degradation.offline_iops:
        return iop
    surviving = NODE_IOPS - degradation.offline_iops
    return dataclasses.replace(
        iop,
        bandwidth_bytes_per_s=iop.bandwidth_bytes_per_s * surviving / NODE_IOPS,
    )


def degrade_disk_array(array: DiskArray, degradation: Degradation) -> DiskArray:
    """A disk array fed through the degraded IOP complement."""
    if not degradation.offline_iops or array.iop is None:
        return array
    return dataclasses.replace(array, iop=degrade_iop(array.iop, degradation))


@dataclass(frozen=True)
class DegradedMachine:
    """A preset name plus a degradation — builds components on demand."""

    preset: str
    degradation: Degradation = Degradation()

    def __post_init__(self) -> None:
        if self.preset not in PRESETS:
            raise ValueError(
                f"unknown preset {self.preset!r}; know {sorted(PRESETS)}"
            )

    def processor(self) -> Processor:
        return degrade_processor(PRESETS[self.preset](), self.degradation)

    def node(self, cpus: int = 32) -> Node:
        return Node(processor=self.processor(), cpu_count=cpus)

    def crossbar(self) -> InternodeCrossbar:
        return degrade_crossbar(InternodeCrossbar(), self.degradation)

    def iop(self) -> IOProcessor:
        return degrade_iop(IOProcessor(), self.degradation)


def standard_degradations(preset: str) -> tuple[Degradation, ...]:
    """The degradations the chaos harness sweeps for a preset.

    Baseline plus each resource class the preset has: half the pipes
    (vector machines with more than one), half and three-quarters of
    the banks, one IXS lane, one IOP.
    """
    processor = PRESETS[preset]()
    out = [Degradation()]
    if processor.vector is not None and processor.memory is not None:
        if processor.vector.pipes > 1:
            out.append(
                Degradation(
                    name="half-pipes",
                    offline_pipes=processor.vector.pipes // 2,
                )
            )
        out.append(
            Degradation(name="half-banks", offline_banks=processor.memory.banks // 2)
        )
        out.append(
            Degradation(
                name="quarter-banks-left",
                offline_banks=3 * processor.memory.banks // 4,
            )
        )
    out.append(Degradation(name="one-ixs-lane-down", offline_ixs_lanes=1))
    out.append(Degradation(name="one-iop-down", offline_iops=1))
    return tuple(out)
