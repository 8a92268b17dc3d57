"""PRODLOAD: the production-workload benchmark (Section 4.6).

Four tests, run one after another, each measured start-of-first-job to
end-of-last-job:

1. one sequence of four jobs run one after another,
2. two such sequences run concurrently,
3. four such sequences run concurrently (28 of 32 CPUs busy),
4. two CCM2 2-day runs at T170 executing concurrently.

"The performance measurement in this benchmark is the wall clock time
required to complete the entire benchmark."  The NEC SX-4/32 completed
it in 93 minutes and 28 seconds (5608 s) with the 9.2 ns clock.

The simulation runs on the discrete-event engine with the node's CPUs as
a counted resource; job components acquire their CPUs, run for their
cost-model durations, and release.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

from repro.events import Acquire, Release, Resource, Simulator
from repro.machine.node import Node
from repro.machine.presets import sx4_node
from repro.perfmon.collector import replay as perfmon_replay
from repro.perfmon.collector import sim_tracer
from repro.perfmon.collector import tape as perfmon_tape
from repro.scheduler.jobs import JobSpec, ccm2_component, prodload_job

__all__ = ["ProdloadResult", "run_prodload", "PAPER_TOTAL_SECONDS"]

#: The paper's result: 93 minutes 28 seconds.
PAPER_TOTAL_SECONDS = 93 * 60 + 28


@dataclass
class ProdloadResult:
    """Per-test and total wall-clock times."""

    test_seconds: dict[str, float] = field(default_factory=dict)
    job_records: list[tuple[str, float, float]] = field(default_factory=list)

    @property
    def total_seconds(self) -> float:
        return sum(self.test_seconds.values())

    @property
    def total_minutes(self) -> float:
        return self.total_seconds / 60.0


def _run_concurrent_sequences(
    sequences: list[list[JobSpec]], cpu_count: int
) -> tuple[float, list[tuple[str, float, float]]]:
    """Simulate sequences of jobs; each sequence runs its jobs serially,
    sequences run concurrently, components contend for the CPU pool."""
    sim = Simulator(tracer=sim_tracer(prefix="prodload"))
    cpus = Resource(cpu_count, "cpus")
    records: list[tuple[str, float, float]] = []

    def component_proc(comp):
        yield Acquire(cpus, comp.cpus)
        start = sim.now
        yield comp.duration_s
        yield Release(cpus, comp.cpus)
        records.append((comp.name, start, sim.now))
        return comp.name

    def job_proc(job: JobSpec):
        children = [
            sim.spawn(component_proc(c), name=c.name) for c in job.components
        ]
        for child in children:
            yield child
        return job.name

    def sequence_proc(jobs: list[JobSpec]):
        for job in jobs:
            done = sim.spawn(job_proc(job), name=job.name)
            yield done
        return len(jobs)

    procs = [
        sim.spawn(sequence_proc(jobs), name=f"seq{i}")
        for i, jobs in enumerate(sequences)
    ]
    sim.run()
    wall = max(p.finish_time for p in procs)
    return wall, records


def _priced_once(price: Callable[[str], JobSpec], names: list[str]) -> list[JobSpec]:
    """``price(names[0])``, then renamed copies of it for the other names.

    Every job of a test is the same job spec, so it is priced once.
    Under a :mod:`repro.perfmon` profile each copy replays the pricing's
    counter records, so the profile still counts every job.
    """
    with perfmon_tape() as counters:
        first = price(names[0])
    copies = [first]
    for name in names[1:]:
        perfmon_replay(counters)
        copies.append(first.renamed(name))
    return copies


def run_prodload(node: Node | None = None, jobs_per_sequence: int = 4) -> ProdloadResult:
    """Run all four PRODLOAD tests and report wall-clock times.

    Job durations are priced with the contention appropriate to each
    test's concurrency (test 3's four streams see the most).
    """
    node = node or sx4_node()
    if jobs_per_sequence < 1:
        raise ValueError(f"need at least one job per sequence, got {jobs_per_sequence}")
    result = ProdloadResult()

    for test_name, streams in (("test1", 1), ("test2", 2), ("test3", 4)):
        jobs = _priced_once(
            lambda name: prodload_job(node, name, concurrent_jobs=streams),
            [
                f"{test_name}/s{s}j{j}"
                for s in range(streams)
                for j in range(jobs_per_sequence)
            ],
        )
        sequences = [
            jobs[s * jobs_per_sequence : (s + 1) * jobs_per_sequence]
            for s in range(streams)
        ]
        wall, records = _run_concurrent_sequences(sequences, node.cpu_count)
        result.test_seconds[test_name] = wall
        result.job_records.extend(records)

    # Test 4: two concurrent 2-day T170 runs, half the node each.
    half = node.cpu_count // 2
    t170 = _priced_once(
        lambda name: JobSpec(
            name=name,
            components=(
                ccm2_component(
                    node, name, "T170L18", 2.0, half,
                    other_active_cpus=node.cpu_count - half,
                ),
            ),
        ),
        [f"test4/t170-{k}" for k in range(2)],
    )
    wall, records = _run_concurrent_sequences([[job] for job in t170], node.cpu_count)
    result.test_seconds["test4"] = wall
    result.job_records.extend(records)
    return result
