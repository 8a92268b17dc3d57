"""PROGINF acceptance tests.

The acceptance criterion of the observability subsystem: for each of
the 13 kernel traces, the counter-derived vector-operation ratio,
average vector length, and Mflops must match values derived
*independently* — straight from the operation descriptors in the trace
(strip-mining arithmetic by hand) and from an unprofiled
``Processor.execute`` run.
"""

import math

import pytest

from repro.analysis.traces import TRACE_BUILDERS
from repro.machine.operations import VectorOp
from repro.machine.presets import sx4_processor
from repro.perfmon.proginf import (
    APPLICATION_IDS,
    KERNEL_IDS,
    ProginfMetrics,
    profile_kernels,
    profile_trace,
    proginf_report,
    render_proginf,
)
from repro.units import MEGA


def expected_from_trace(trace, processor):
    """(ratio, avg VL, mflops) derived from trace ops alone.

    This deliberately re-implements the definitions instead of calling
    any perfmon code: vector instructions by strip-mining each loop into
    register_length chunks, scalar instructions straight off ScalarOp
    descriptors, Mflops from an unprofiled execute() run.
    """
    register_length = processor.vector.register_length
    vector_elements = 0.0
    vector_instructions = 0.0
    scalar_instructions = 0.0
    for op in trace:
        if isinstance(op, VectorOp):
            vector_elements += op.length * op.count
            vector_instructions += math.ceil(op.length / register_length) * op.count
        else:
            scalar_instructions += op.instructions * op.count
    seconds = processor.execute(trace).seconds  # no profile active
    denom = vector_elements + scalar_instructions
    ratio = vector_elements / denom if denom else 0.0
    avg_vl = vector_elements / vector_instructions if vector_instructions else 0.0
    flop_equivalents = math.fsum(op.flop_equivalents for op in trace)
    mflops = flop_equivalents / seconds / MEGA if seconds else 0.0
    return ratio, avg_vl, mflops


class TestKernelRegistry:
    def test_exactly_thirteen_kernels(self):
        assert len(KERNEL_IDS) == 13

    def test_applications_excluded(self):
        assert set(APPLICATION_IDS) == {"ccm2", "mom", "pop"}
        assert not set(KERNEL_IDS) & set(APPLICATION_IDS)
        assert set(KERNEL_IDS) | set(APPLICATION_IDS) == set(TRACE_BUILDERS)


class TestCountersMatchTraceDerivation:
    """The tentpole assertion: counters reproduce trace-derived truth."""

    @pytest.mark.parametrize("trace_id", KERNEL_IDS)
    def test_ratio_avg_vl_and_mflops(self, trace_id):
        processor = sx4_processor()
        trace = TRACE_BUILDERS[trace_id][1]()
        ratio, avg_vl, mflops = expected_from_trace(trace, processor)

        kernel = profile_kernels([trace_id])[trace_id]
        metrics = kernel.metrics
        assert metrics.vector_op_ratio == pytest.approx(ratio)
        assert metrics.avg_vector_length == pytest.approx(avg_vl)
        assert metrics.mflops == pytest.approx(mflops)

    @pytest.mark.parametrize("trace_id", KERNEL_IDS)
    def test_real_time_matches_execution_report(self, trace_id):
        trace = TRACE_BUILDERS[trace_id][1]()
        report, prof = profile_trace(trace)
        metrics = ProginfMetrics.from_counters(prof.counters)
        assert metrics.real_time_s == pytest.approx(report.seconds)
        assert metrics.flop_equivalents == pytest.approx(report.flop_equivalents)

    def test_profiling_does_not_change_reported_time(self):
        trace = TRACE_BUILDERS["stream"][1]()
        processor = sx4_processor()
        bare = processor.execute(trace).seconds
        profiled, _ = profile_trace(trace, processor)
        assert profiled.seconds == bare


class TestMetricShapes:
    def test_ratio_bounded_and_times_partition(self):
        for trace_id in KERNEL_IDS:
            kernel = profile_kernels([trace_id])[trace_id]
            m = kernel.metrics
            assert 0.0 <= m.vector_op_ratio <= 1.0, trace_id
            assert m.bank_conflict_s >= 0.0, trace_id
            assert m.vector_time_s + m.scalar_time_s == pytest.approx(
                m.real_time_s
            ), trace_id

    def test_vectorized_radabs_beats_scalar_radabs(self):
        kernels = profile_kernels(["radabs", "radabs-scalar"])
        assert (
            kernels["radabs"].metrics.vector_op_ratio
            > kernels["radabs-scalar"].metrics.vector_op_ratio
        )
        assert kernels["radabs"].metrics.mflops > kernels["radabs-scalar"].metrics.mflops


class TestRendering:
    def test_proginf_block_has_classic_rows(self):
        kernel = profile_kernels(["stream"])["stream"]
        text = render_proginf(kernel.metrics, title="stream")
        assert "Program Information" in text
        for row in ("Real Time (sec)", "Vector Time (sec)", "V. Element Count",
                    "MFLOPS", "Average Vector Length", "Vector Op. Ratio (%)",
                    "Bank Conflict Time (sec)"):
            assert row in text, row

    def test_report_sections_per_kernel(self):
        kernels = profile_kernels(["copy", "stream"])
        text = proginf_report(kernels)
        assert text.count("Program Information") == 2
        assert "copy" in text and "stream" in text

    def test_unknown_kernel_id_raises(self):
        with pytest.raises(KeyError, match="nonsense"):
            profile_kernels(["nonsense"])
