"""The per-op oracle the columnar costing path is checked against.

:meth:`~repro.machine.processor.Processor.per_op_cycles` costs each op
through the per-op ``vector_op_cycles``/``scalar_op_cycles`` methods.
:func:`oracle_report` reduces that list the way ``Processor.execute``
must (``math.fsum``), and :func:`oracle_counters` records every op's
per-op ``perfmon_counters*`` in a fresh profile, so a test can compare
``execute`` against both, bit for bit.
"""

import math

import numpy as np

from repro.machine.operations import VectorOp
from repro.machine.processor import ExecutionReport
from repro.perfmon.collector import profile
from repro.perfmon.collector import record as perfmon_record


def oracle_report(processor, trace, memory_dilation=1.0) -> ExecutionReport:
    """The report ``processor.execute(trace, memory_dilation)`` must equal."""
    op_cycles = processor.per_op_cycles(trace, memory_dilation)
    cycles = math.fsum(op_cycles)
    return ExecutionReport(
        machine=processor.name,
        trace_name=trace.name,
        cycles=cycles,
        seconds=processor.clock.seconds(cycles),
        raw_flops=trace.raw_flops,
        flop_equivalents=trace.flop_equivalents,
        words_moved=trace.words_moved,
        op_names=tuple(op.name for op in trace),
        op_cycles=np.array(op_cycles, dtype=np.float64),
    )


def oracle_counters(processor, trace, memory_dilation=1.0) -> dict:
    """Profile counters from recording each op's per-op counters in turn."""
    cycles_of = processor.per_op_cycles(trace, memory_dilation)
    with profile() as prof:
        perfmon_record("processor", {"traces": 1.0})
        for op, cycles in zip(trace, cycles_of):
            if isinstance(op, VectorOp):
                if processor.vector is not None:
                    perfmon_record("vector_unit", processor.vector.perfmon_counters(op))
                    perfmon_record(
                        "memory", processor.memory.perfmon_counters(op, memory_dilation)
                    )
                else:
                    scalar, cache = processor.scalar.perfmon_vector_counters(op)
                    perfmon_record("scalar_unit", scalar)
                    perfmon_record("cache", cache)
                kind = "vector"
            else:
                scalar, cache = processor.scalar.perfmon_scalar_counters(op)
                perfmon_record("scalar_unit", scalar)
                perfmon_record("cache", cache)
                kind = "scalar"
            perfmon_record(
                "processor",
                {
                    "ops": 1.0,
                    f"{kind}_ops": 1.0,
                    "cycles": cycles,
                    f"{kind}_cycles": cycles,
                    "seconds": processor.clock.seconds(cycles),
                },
            )
    return prof.counters.to_dict()


def assert_matches_oracle(report, processor, trace, memory_dilation=1.0) -> None:
    """``report`` equals the oracle field for field, per-op cycles included."""
    oracle = oracle_report(processor, trace, memory_dilation)
    assert report == oracle  # dataclass ==: cycles, seconds, totals
    assert report.mflops == oracle.mflops
    assert report.bandwidth_bytes_per_s == oracle.bandwidth_bytes_per_s
    assert tuple(report.op_names) == oracle.op_names
    assert np.asarray(report.op_cycles).tolist() == oracle.op_cycles.tolist()
