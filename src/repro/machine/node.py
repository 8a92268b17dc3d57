"""Shared-memory node model: up to 32 processors on one crossbar.

A single SX-4 node is a UMA shared-memory multiprocessor; parallel codes
in the paper (CCM2, MOM, PRODLOAD) run as multitasked jobs inside one
node.  The node model adds exactly the effects the paper's scalability
results exhibit:

* **work distribution with block imbalance** — parallel loops over
  latitudes (CCM2) or latitude rows (MOM) hand out whole rows, so a CPU
  count that does not divide the row count leaves some CPUs idle
  (:func:`block_shares` deals them, :func:`block_imbalance` is the
  busiest CPU's dilation),
* **synchronisation cost per parallel region** — growing mildly with the
  number of CPUs (communications-register test-set style barriers),
* **serial sections** — e.g. MOM's every-10-timesteps diagnostics print,
  which is what caps its Table 7 speedup near 9× on 32 CPUs,
* **memory contention** — only on strided/indexed traffic, via
  :meth:`~repro.machine.memory.BankedMemory.contention_factor`; unit-stride
  is conflict-free from all 32 CPUs, which is why the ensemble test
  (Table 6) degrades by only ~2%.

:meth:`Node.run_parallel_all` costs a list of :class:`ParallelStep` in one
:meth:`~repro.machine.processor.Processor.execute_all` call, so a
CPU-count scan (Figure 8, Tables 6 and 7) is one lowering;
:meth:`Node.run_parallel` is its one-step call.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field
from itertools import islice

from repro.machine.operations import Trace
from repro.machine.processor import ExecutionReport, Processor
from repro.units import MEGA

__all__ = ["Node", "ParallelReport", "ParallelStep", "block_imbalance", "block_shares"]


def block_imbalance(units: int, cpus: int) -> float:
    """Wall-time dilation from dealing ``units`` indivisible work items
    to ``cpus`` workers in blocks: ``ceil(units/cpus) / (units/cpus)``.

    Equals 1.0 when ``cpus`` divides ``units``; equals ``cpus/units`` in the
    degenerate case of fewer items than workers.
    """
    if units < 1 or cpus < 1:
        raise ValueError(f"need positive units and cpus, got {units}, {cpus}")
    ideal = units / cpus
    actual = math.ceil(ideal)
    return actual / ideal


def block_shares(units: int, cpus: int) -> list[float]:
    """Fractions of ``units`` indivisible work items each CPU receives
    under block dealing: ``units mod cpus`` CPUs carry the ceiling share,
    the rest the floor share.  Sums to 1 exactly — total work is
    conserved; only the *maximum* share (wall time) reflects imbalance."""
    if units < 1 or cpus < 1:
        raise ValueError(f"need positive units and cpus, got {units}, {cpus}")
    base, rem = divmod(units, cpus)
    return [(base + (1 if i < rem else 0)) / units for i in range(cpus)]


@dataclass(frozen=True)
class ParallelStep:
    """One parallel step to cost on a node: a trace per CPU, run
    concurrently, then an optional serial section; ``regions`` parallel
    regions of barriers, and ``other_active_cpus`` CPUs busy with
    unrelated jobs."""

    cpu_traces: Sequence[Trace]
    serial: Trace | None = None
    regions: float = 1.0
    other_active_cpus: int = 0
    trace_name: str | None = None


@dataclass
class ParallelReport:
    """Outcome of a parallel execution on a node."""

    machine: str
    trace_name: str
    cpus: int
    seconds: float
    serial_seconds: float
    parallel_seconds: float
    sync_seconds: float
    raw_flops: float
    flop_equivalents: float
    per_cpu_seconds: list[float] = field(default_factory=list)

    @property
    def mflops(self) -> float:
        if self.seconds == 0:
            return 0.0
        return self.flop_equivalents / self.seconds / MEGA

    @property
    def gflops(self) -> float:
        return self.mflops / 1e3


@dataclass
class Node:
    """A shared-memory node of ``cpu_count`` identical processors."""

    processor: Processor
    cpu_count: int = 32
    sync_base_cycles: float = 300.0
    sync_per_cpu_cycles: float = 40.0

    def __post_init__(self) -> None:
        if self.cpu_count < 1:
            raise ValueError(f"node needs at least one CPU, got {self.cpu_count}")
        if self.processor.memory is None:
            raise ValueError("node model requires a vector processor with banked memory")
        if self.sync_base_cycles < 0 or self.sync_per_cpu_cycles < 0:
            raise ValueError("synchronisation costs cannot be negative")

    @property
    def name(self) -> str:
        return f"{self.processor.name}/{self.cpu_count}"

    @property
    def peak_flops(self) -> float:
        """Aggregate peak (64 GFLOPS per node at the 8.0 ns clock)."""
        return self.processor.peak_flops * self.cpu_count

    @property
    def node_bandwidth_bytes_per_s(self) -> float:
        """Sustainable node memory bandwidth (512 GB/s for an SX-4/32)."""
        return self.processor.port_bandwidth_bytes_per_s * self.cpu_count

    def sync_seconds(self, cpus: int, regions: float) -> float:
        """Barrier cost for ``regions`` parallel regions across ``cpus``."""
        if cpus <= 1:
            return 0.0
        cycles = (self.sync_base_cycles + self.sync_per_cpu_cycles * cpus) * regions
        return self.processor.clock.seconds(cycles)

    def run_parallel(
        self,
        cpu_traces: Sequence[Trace],
        serial: Trace | None = None,
        regions: float = 1.0,
        other_active_cpus: int = 0,
        trace_name: str | None = None,
    ) -> ParallelReport:
        """Execute one trace per CPU concurrently, plus a serial section:
        :meth:`run_parallel_all` of that one :class:`ParallelStep`."""
        step = ParallelStep(cpu_traces, serial, regions, other_active_cpus, trace_name)
        return self.run_parallel_all([step])[0]

    def run_parallel_all(self, steps: Sequence[ParallelStep]) -> list[ParallelReport]:
        """Cost each step on this node: one report per step, in order.

        ``other_active_cpus`` of a step models unrelated jobs sharing the
        node (the ensemble test and PRODLOAD): they raise the contention
        the bank model sees but contribute no work to its report.

        Every step is checked before any is costed.  One
        :meth:`~repro.machine.processor.Processor.execute_all` call runs
        step 1's CPU traces at its contention dilation, its serial trace
        undilated, then step 2's, and so on: the order in which costing
        the steps one by one records counters under a
        :mod:`repro.perfmon` profile.  It costs a trace object once per
        dilation however many entries hold it, so builders hand CPUs with
        the same share one trace object, and a scan's steps one serial
        trace.
        """
        for step in steps:
            self._check(step)
        assert self.processor.memory is not None  # enforced in __post_init__
        contention = self.processor.memory.contention_factor
        # The contention dilation needs each step's traffic before costing.
        # Each distinct trace object's sums are read once; each fsum still
        # reads one value per CPU, so the totals are bit-identical to
        # summing each CPU's trace afresh.
        traffic: dict[int, tuple[float, float]] = {}
        entries: list[Trace] = []
        dilations: list[float] = []
        for step in steps:
            for trace in step.cpu_traces:
                if id(trace) not in traffic:
                    traffic[id(trace)] = (trace.words_moved, trace.irregular_words)
            words, irregular_words = (
                math.fsum(column)
                for column in zip(*(traffic[id(t)] for t in step.cpu_traces))
            )
            irregular = 0.0 if words == 0 else irregular_words / words
            cpus = len(step.cpu_traces)
            entries += step.cpu_traces
            dilations += [contention(cpus + step.other_active_cpus, irregular)] * cpus
            if step.serial is not None:
                entries.append(step.serial)
                dilations.append(1.0)
        reports = iter(self.processor.execute_all(entries, dilations))
        return [self._report(step, reports) for step in steps]

    def _check(self, step: ParallelStep) -> None:
        if not step.cpu_traces:
            raise ValueError("a parallel step needs at least one per-CPU trace")
        if step.other_active_cpus < 0:
            raise ValueError(
                f"other_active_cpus cannot be negative, got {step.other_active_cpus}"
            )
        cpus = len(step.cpu_traces)
        if cpus + step.other_active_cpus > self.cpu_count:
            raise ValueError(
                f"{cpus}+{step.other_active_cpus} active CPUs exceed node size {self.cpu_count}"
            )

    def _report(self, step: ParallelStep, reports: Iterator[ExecutionReport]) -> ParallelReport:
        """``step``'s report from its CPUs' and serial trace's, the next
        entries of ``reports``."""
        cpus = len(step.cpu_traces)
        cpu_reports = list(islice(reports, cpus))
        per_cpu = [report.seconds for report in cpu_reports]
        raw = math.fsum(report.raw_flops for report in cpu_reports)
        equiv = math.fsum(report.flop_equivalents for report in cpu_reports)
        parallel_seconds = max(per_cpu)
        serial_seconds = 0.0
        if step.serial is not None:
            serial_report = next(reports)
            serial_seconds = serial_report.seconds
            raw += serial_report.raw_flops
            equiv += serial_report.flop_equivalents
        sync = self.sync_seconds(cpus, step.regions)
        total = parallel_seconds + serial_seconds + sync
        return ParallelReport(
            machine=self.name,
            trace_name=step.trace_name or step.cpu_traces[0].name,
            cpus=cpus,
            seconds=total,
            serial_seconds=serial_seconds,
            parallel_seconds=parallel_seconds,
            sync_seconds=sync,
            raw_flops=raw,
            flop_equivalents=equiv,
            per_cpu_seconds=per_cpu,
        )
