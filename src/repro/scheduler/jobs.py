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

from collections.abc import Iterable
from dataclasses import dataclass

from repro.apps.ccm2 import costmodel as ccm2_cost
from repro.iosim.hippi import HippiChannel
from repro.machine.node import Node
from repro.units import GB

__all__ = [
    "Component",
    "JobSpec",
    "ccm2_components",
    "ccm2_component",
    "ccm2_runs",
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
_JOB_CPUS = T106_CPUS + 2 * T42_CPUS + HIPPI_CPUS
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


def ccm2_components(
    node: Node, runs: Iterable[tuple[str, str, float, int, int]]
) -> list[Component]:
    """One component per ``(name, res, days, cpus, other_active_cpus)``
    run, each priced by the cost model at its CPU allocation: every run's
    timestep in one :func:`~repro.apps.ccm2.costmodel.parallel_steps`
    call, in list order."""
    runs = list(runs)
    for _, _, days, _, _ in runs:
        if days <= 0:
            raise ValueError(f"simulation length must be positive, got {days}")
    steps = ccm2_cost.parallel_steps(
        node, [(res, cpus, others) for _, res, _, cpus, others in runs]
    )
    return [
        Component(
            name=name,
            cpus=cpus,
            duration_s=step.seconds * ccm2_cost.resolution(res).steps_for_days(days),
        )
        for (name, res, days, cpus, _), step in zip(runs, steps)
    ]


def ccm2_component(
    node: Node, name: str, res: str, days: float, cpus: int, other_active_cpus: int = 0
) -> Component:
    """A CCM2 run priced by the cost model at its CPU allocation: the
    one-run :func:`ccm2_components` call."""
    return ccm2_components(node, [(name, res, days, cpus, other_active_cpus)])[0]


def hippi_component(name: str = "hippi", channel: HippiChannel | None = None) -> Component:
    """The HIPPI test: a bulk transfer at the largest packet size."""
    channel = channel or HippiChannel()
    duration = channel.transfer_seconds(HIPPI_WORKLOAD_BYTES, packet_bytes=16 * 2**20)
    return Component(name=name, cpus=HIPPI_CPUS, duration_s=duration)


def ccm2_runs(
    node: Node, name: str, concurrent_jobs: int = 1
) -> list[tuple[str, str, float, int, int]]:
    """The CCM2 runs of PRODLOAD job ``name``, as :func:`ccm2_components`
    takes them: the T106 3-day run, then the two T42 20-day runs.

    ``concurrent_jobs`` informs the CCM2 cost model how many sibling jobs
    share the node, so memory contention is priced (the effect Table 6
    quantifies).
    """
    if concurrent_jobs < 1:
        raise ValueError(f"need at least one job stream, got {concurrent_jobs}")
    if node.cpu_count < _JOB_CPUS:
        raise ValueError(
            f"a PRODLOAD job needs {_JOB_CPUS} CPUs, the node has {node.cpu_count}"
        )
    others = min((concurrent_jobs - 1) * _JOB_CPUS, node.cpu_count - _JOB_CPUS)
    return [
        (f"{name}/t106-3day", "T106L18", 3.0, T106_CPUS, others),
        (f"{name}/t42-20day-a", "T42L18", 20.0, T42_CPUS, others),
        (f"{name}/t42-20day-b", "T42L18", 20.0, T42_CPUS, others),
    ]


def prodload_job(node: Node, name: str, concurrent_jobs: int = 1) -> JobSpec:
    """One PRODLOAD job: HIPPI + T106 3-day + two T42 20-day runs, the
    CCM2 runs priced in one :func:`ccm2_components` call."""
    ccm2 = ccm2_components(node, ccm2_runs(node, name, concurrent_jobs))
    return JobSpec(name=name, components=(hippi_component(f"{name}/hippi"), *ccm2))
