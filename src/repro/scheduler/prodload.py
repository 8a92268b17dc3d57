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

from dataclasses import dataclass, field
from itertools import islice

from repro.events import Acquire, Release, Resource, Simulator
from repro.machine.node import Node
from repro.machine.presets import sx4_node
from repro.perfmon.collector import sim_tracer
from repro.scheduler.jobs import JobSpec, ccm2_components, ccm2_runs, hippi_component

__all__ = ["ProdloadResult", "run_prodload", "JOBS_PER_SEQUENCE", "PAPER_TOTAL_SECONDS"]

#: The paper's result: 93 minutes 28 seconds.
PAPER_TOTAL_SECONDS = 93 * 60 + 28
#: "One sequence of four jobs run one after another".
JOBS_PER_SEQUENCE = 4
#: Tests 1-3 and the job sequences each runs concurrently.
_STREAMS = (("test1", 1), ("test2", 2), ("test3", 4))


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


def run_prodload(node: Node | None = None) -> ProdloadResult:
    """Run all four PRODLOAD tests and report wall-clock times.

    Job durations are priced with the contention appropriate to each
    test's concurrency (test 3's four streams see the most).  Every CCM2
    run of the benchmark is priced in one
    :func:`~repro.scheduler.jobs.ccm2_components` call: each job of tests
    1-3 in turn, in sequence-slot order, then test 4's two T170 runs.
    """
    node = node or sx4_node()
    names = {
        test: [f"{test}/s{s}j{j}" for s in range(streams) for j in range(JOBS_PER_SEQUENCE)]
        for test, streams in _STREAMS
    }
    runs = [
        run
        for test, streams in _STREAMS
        for name in names[test]
        for run in ccm2_runs(node, name, concurrent_jobs=streams)
    ]
    # Test 4: two concurrent 2-day T170 runs, half the node each.
    half = node.cpu_count // 2
    runs += [
        (f"test4/t170-{k}", "T170L18", 2.0, half, node.cpu_count - half) for k in range(2)
    ]
    ccm2 = iter(ccm2_components(node, runs))
    result = ProdloadResult()
    for test, streams in _STREAMS:
        jobs = [
            # Each job's T106 run and two T42 runs, as ccm2_runs lists them.
            JobSpec(name, (hippi_component(f"{name}/hippi"), *islice(ccm2, 3)))
            for name in names[test]
        ]
        sequences = [
            jobs[s * JOBS_PER_SEQUENCE : (s + 1) * JOBS_PER_SEQUENCE] for s in range(streams)
        ]
        wall, records = _run_concurrent_sequences(sequences, node.cpu_count)
        result.test_seconds[test] = wall
        result.job_records.extend(records)
    wall, records = _run_concurrent_sequences(
        [[JobSpec(t170.name, (t170,))] for t170 in ccm2], node.cpu_count
    )
    result.test_seconds["test4"] = wall
    result.job_records.extend(records)
    return result
