"""Shared-memory node model: up to 32 processors on one crossbar.

A single SX-4 node is a UMA shared-memory multiprocessor; parallel codes
in the paper (CCM2, MOM, PRODLOAD) run as multitasked jobs inside one
node.  The node model adds exactly the effects the paper's scalability
results exhibit:

* **work distribution with block imbalance** — parallel loops over
  latitudes (CCM2) or latitude rows (MOM) hand out whole rows, so a CPU
  count that does not divide the row count leaves some CPUs idle
  (:func:`block_imbalance`),
* **synchronisation cost per parallel region** — growing mildly with the
  number of CPUs (communications-register test-set style barriers),
* **serial sections** — e.g. MOM's every-10-timesteps diagnostics print,
  which is what caps its Table 7 speedup near 9× on 32 CPUs,
* **memory contention** — only on strided/indexed traffic, via
  :meth:`~repro.machine.memory.BankedMemory.contention_factor`; unit-stride
  is conflict-free from all 32 CPUs, which is why the ensemble test
  (Table 6) degrades by only ~2%.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.machine.operations import Trace
from repro.machine.processor import ExecutionReport, Processor
from repro.units import MEGA

__all__ = ["Node", "ParallelReport", "block_imbalance"]


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
        cpu_traces: list[Trace],
        serial: Trace | None = None,
        regions: float = 1.0,
        other_active_cpus: int = 0,
        trace_name: str | None = None,
    ) -> ParallelReport:
        """Execute one trace per CPU concurrently, plus a serial section.

        ``other_active_cpus`` models unrelated jobs sharing the node (the
        ensemble test and PRODLOAD): they raise the contention the bank
        model sees but contribute no work to this report.

        The CPUs' traces are costed in one
        :meth:`~repro.machine.processor.Processor.execute_all` call at
        the contention dilation, and the serial trace in a second call
        undilated.  ``execute_all`` lowers and costs a trace object
        once however many CPUs hold it, and under a :mod:`repro.perfmon`
        profile still records counters for every CPU, in CPU order.
        Builders hand CPUs with the same share of the work one trace
        object.
        """
        if not cpu_traces:
            raise ValueError("run_parallel needs at least one per-CPU trace")
        cpus = len(cpu_traces)
        if cpus + other_active_cpus > self.cpu_count:
            raise ValueError(
                f"{cpus}+{other_active_cpus} active CPUs exceed node size {self.cpu_count}"
            )
        # The contention dilation needs the CPUs' traffic before costing.
        # Each distinct trace object's sums are read once; each fsum still
        # reads one value per CPU, so the totals are bit-identical to
        # summing each CPU's trace afresh.
        distinct = {id(trace): trace for trace in cpu_traces}
        traffic = {key: (t.words_moved, t.irregular_words) for key, t in distinct.items()}
        words, irregular_words = (
            math.fsum(column) for column in zip(*(traffic[id(t)] for t in cpu_traces))
        )
        irregular = 0.0 if words == 0 else irregular_words / words
        assert self.processor.memory is not None  # enforced in __post_init__
        dilation = self.processor.memory.contention_factor(
            cpus + other_active_cpus, irregular
        )
        reports = self.processor.execute_all(cpu_traces, memory_dilation=dilation)
        per_cpu = [report.seconds for report in reports]
        raw = math.fsum(report.raw_flops for report in reports)
        equiv = math.fsum(report.flop_equivalents for report in reports)
        parallel_seconds = max(per_cpu)
        serial_seconds = 0.0
        if serial is not None:
            serial_report = self.processor.execute(serial)
            serial_seconds = serial_report.seconds
            raw += serial_report.raw_flops
            equiv += serial_report.flop_equivalents
        sync = self.sync_seconds(cpus, regions)
        total = parallel_seconds + serial_seconds + sync
        return ParallelReport(
            machine=self.name,
            trace_name=trace_name or cpu_traces[0].name,
            cpus=cpus,
            seconds=total,
            serial_seconds=serial_seconds,
            parallel_seconds=parallel_seconds,
            sync_seconds=sync,
            raw_flops=raw,
            flop_equivalents=equiv,
            per_cpu_seconds=per_cpu,
        )

    def run_replicated(
        self, trace: Trace, cpus: int, regions: float = 1.0, other_active_cpus: int = 0
    ) -> ParallelReport:
        """The same per-CPU trace on ``cpus`` processors, costed once."""
        return self.run_parallel(
            [trace] * cpus,
            regions=regions,
            other_active_cpus=other_active_cpus,
            trace_name=trace.name,
        )

    def run_serial(self, trace: Trace) -> ExecutionReport:
        """Single-CPU execution on an otherwise idle node."""
        return self.processor.execute(trace)
