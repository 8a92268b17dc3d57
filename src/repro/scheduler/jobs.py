"""PRODLOAD job construction (Section 4.6).

"We define a 'job' to be composed of the HIPPI Benchmark and three
copies of the CCM2 executing simultaneously.  The CCM2 runs are a 3-day
simulation at resolution T106 and two 20-day simulations at T42
resolution.  A job is considered complete when all of its components are
finished executing."

Component durations come from the CCM2 cost model (steps × per-step wall
time at the component's CPU allocation) and the HIPPI channel model (a
fixed bulk-transfer workload).  CPU allocations are chosen so four
concurrent jobs fill the 32-CPU node, which is how test 3 is shaped.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.apps.ccm2 import costmodel as ccm2_cost
from repro.iosim.hippi import HippiChannel
from repro.machine.node import Node
from repro.perfmon.collector import replay as perfmon_replay
from repro.perfmon.collector import tape as perfmon_tape
from repro.units import GB

__all__ = [
    "Component",
    "JobSpec",
    "ccm2_component",
    "hippi_component",
    "prodload_job",
    "T106_CPUS",
    "T42_CPUS",
    "HIPPI_CPUS",
]

#: CPU allocations per component: 3+2+2+1 = 8 CPUs per job, so the four
#: concurrent job streams of test 3 exactly fill the 32-CPU node — the
#: configuration that lands the simulated total within ~4% of the
#: paper's 93m28s.
T106_CPUS = 3
T42_CPUS = 2
HIPPI_CPUS = 1
#: Bulk data the HIPPI component pushes (Mass-Storage-System staging).
HIPPI_WORKLOAD_BYTES = 20 * GB


@dataclass(frozen=True)
class Component:
    """One concurrently executing piece of a PRODLOAD job."""

    name: str
    cpus: int
    duration_s: float

    def __post_init__(self) -> None:
        if self.cpus < 1:
            raise ValueError(f"component {self.name!r} needs at least one CPU")
        if self.duration_s <= 0:
            raise ValueError(f"component {self.name!r} duration must be positive")


@dataclass(frozen=True)
class JobSpec:
    """A PRODLOAD job: components that start together; the job ends when
    the last component finishes."""

    name: str
    components: tuple[Component, ...]

    def __post_init__(self) -> None:
        if not self.components:
            raise ValueError(f"job {self.name!r} needs at least one component")

    @property
    def cpus(self) -> int:
        return sum(c.cpus for c in self.components)

    @property
    def critical_duration_s(self) -> float:
        """Duration if all components start immediately (no queueing)."""
        return max(c.duration_s for c in self.components)

    def renamed(self, name: str) -> JobSpec:
        """This job under another name.  Component names start with the
        job's name, as :func:`prodload_job` makes them, and follow it."""
        return JobSpec(
            name=name,
            components=tuple(
                replace(c, name=name + c.name[len(self.name):])
                for c in self.components
            ),
        )


def ccm2_component(
    node: Node, name: str, res: str, days: float, cpus: int, other_active_cpus: int = 0
) -> Component:
    """A CCM2 run priced by the cost model at its CPU allocation."""
    if days <= 0:
        raise ValueError(f"simulation length must be positive, got {days}")
    step = ccm2_cost.parallel_step(node, res, cpus, other_active_cpus=other_active_cpus)
    steps = ccm2_cost.resolution(res).steps_for_days(days)
    return Component(name=name, cpus=cpus, duration_s=step.seconds * steps)


def hippi_component(name: str = "hippi", channel: HippiChannel | None = None) -> Component:
    """The HIPPI test: a bulk transfer at the largest packet size."""
    channel = channel or HippiChannel()
    duration = channel.transfer_seconds(HIPPI_WORKLOAD_BYTES, packet_bytes=16 * 2**20)
    return Component(name=name, cpus=HIPPI_CPUS, duration_s=duration)


def prodload_job(node: Node, name: str, concurrent_jobs: int = 1) -> JobSpec:
    """One PRODLOAD job: HIPPI + T106 3-day + two T42 20-day runs.

    ``concurrent_jobs`` informs the CCM2 cost model how many sibling jobs
    share the node, so memory contention is priced (the effect Table 6
    quantifies).
    """
    if concurrent_jobs < 1:
        raise ValueError(f"need at least one job stream, got {concurrent_jobs}")
    others = (concurrent_jobs - 1) * (T106_CPUS + 2 * T42_CPUS + HIPPI_CPUS)
    others = min(others, node.cpu_count - (T106_CPUS + 2 * T42_CPUS + HIPPI_CPUS))
    hippi = hippi_component(f"{name}/hippi")
    t106 = ccm2_component(node, f"{name}/t106-3day", "T106L18", 3.0, T106_CPUS, others)
    # The two T42 runs are twins: priced once, counted twice.
    with perfmon_tape() as t42_counters:
        t42 = ccm2_component(node, f"{name}/t42-20day-a", "T42L18", 20.0, T42_CPUS, others)
    perfmon_replay(t42_counters)
    return JobSpec(
        name=name,
        components=(hippi, t106, t42, replace(t42, name=f"{name}/t42-20day-b")),
    )
