"""Tests for the processor and SMP node models."""

import pytest

from repro.machine.clock import Clock
from repro.machine.node import block_imbalance, block_shares
from repro.machine.operations import ScalarOp, Trace, VectorOp
from repro.machine.presets import sx4_node, sx4_processor
from repro.machine.processor import Processor
from repro.machine.scalar_unit import ScalarUnit


def axpy_trace(length=10_000, count=10):
    return Trace(
        [
            VectorOp(
                "axpy",
                length=length,
                count=count,
                flops_per_element=2.0,
                loads_per_element=2.0,
                stores_per_element=1.0,
            )
        ],
        name="axpy",
    )


class TestProcessor:
    def test_sx4_peaks(self):
        proc = sx4_processor(period_ns=8.0)
        assert proc.peak_flops == pytest.approx(2e9)
        assert proc.port_bandwidth_bytes_per_s == pytest.approx(16e9)

    def test_benchmark_clock_peak(self):
        proc = sx4_processor(period_ns=9.2)
        assert proc.peak_flops == pytest.approx(16 / 9.2e-9, rel=1e-6)

    def test_execute_reports_consistent_rates(self):
        proc = sx4_processor()
        report = proc.execute(axpy_trace())
        assert report.seconds > 0
        assert report.mflops == pytest.approx(
            report.flop_equivalents / report.seconds / 1e6
        )
        assert report.mflops <= proc.peak_flops / 1e6

    def test_long_vectors_closer_to_peak(self):
        proc = sx4_processor()
        short = proc.execute(axpy_trace(length=16, count=10_000))
        long = proc.execute(axpy_trace(length=160_000, count=1))
        assert long.mflops > 4 * short.mflops

    def test_memory_dilation_stretches_memory_bound_ops(self):
        proc = sx4_processor()
        copy = Trace([VectorOp("copy", length=100_000,
                               loads_per_element=1, stores_per_element=1)])
        base = proc.time(copy)
        stretched = proc.time(copy, memory_dilation=1.5)
        assert stretched > base

    def test_memory_dilation_cannot_shrink(self):
        proc = sx4_processor()
        with pytest.raises(ValueError):
            proc.time(axpy_trace(), memory_dilation=0.5)

    def test_scalar_op_on_vector_machine(self):
        proc = sx4_processor()
        trace = Trace([ScalarOp("diag", instructions=1000, count=10)])
        report = proc.execute(trace)
        assert report.seconds > 0

    def test_breakdown_names_and_dominant(self):
        proc = sx4_processor()
        trace = axpy_trace() + Trace([ScalarOp("tiny", instructions=1)])
        report = proc.execute(trace)
        assert report.op_names == ("axpy", "tiny")
        assert len(report.op_cycles) == 2
        assert report.dominant_op() == "axpy"

    def test_vector_unit_requires_memory_model(self):
        from repro.machine.vector_unit import VectorUnit

        with pytest.raises(ValueError):
            Processor(
                name="broken",
                clock=Clock(period_ns=8.0),
                scalar=ScalarUnit(),
                vector=VectorUnit(),
                memory=None,
            )

    def test_empty_trace(self):
        proc = sx4_processor()
        report = proc.execute(Trace([]))
        assert report.seconds == 0.0
        assert report.mflops == 0.0
        assert report.bandwidth_bytes_per_s == 0.0
        assert report.dominant_op() == "<empty>"


class TestBlockImbalance:
    def test_divisible_is_perfect(self):
        assert block_imbalance(64, 32) == 1.0

    def test_remainder_dilates(self):
        # 33 rows on 32 CPUs: one CPU does 2, wall time doubles vs ideal.
        assert block_imbalance(33, 32) == pytest.approx(2 / (33 / 32))

    def test_fewer_items_than_cpus(self):
        assert block_imbalance(4, 32) == pytest.approx(32 / 4)

    def test_validation(self):
        with pytest.raises(ValueError):
            block_imbalance(0, 4)
        with pytest.raises(ValueError):
            block_imbalance(4, 0)


class TestBlockShares:
    def test_remainder_cpus_carry_the_ceiling_share(self):
        shares = block_shares(33, 32)
        assert shares[0] == 2 / 33 and set(shares[1:]) == {1 / 33}
        assert sum(shares) == pytest.approx(1.0)

    def test_busiest_share_matches_the_imbalance(self):
        for units, cpus in ((64, 32), (33, 32), (4, 32), (43, 29)):
            assert max(block_shares(units, cpus)) * cpus == pytest.approx(
                block_imbalance(units, cpus)
            )

    def test_validation(self):
        with pytest.raises(ValueError):
            block_shares(0, 4)
        with pytest.raises(ValueError):
            block_shares(4, 0)


class TestNode:
    def test_node_peaks(self):
        node = sx4_node(cpus=32, period_ns=8.0)
        assert node.peak_flops == pytest.approx(64e9)
        assert node.node_bandwidth_bytes_per_s == pytest.approx(512e9)

    def test_cpu_count_bounds(self):
        with pytest.raises(ValueError):
            sx4_node(cpus=0)
        with pytest.raises(ValueError):
            sx4_node(cpus=33)

    def test_parallel_speedup_bounded_by_cpus(self):
        node = sx4_node()
        whole = axpy_trace(count=320)
        serial = node.processor.execute(whole).seconds
        per_cpu = whole.scaled(1 / 32)
        par = node.run_parallel([per_cpu] * 32)
        speedup = serial / par.seconds
        assert 1.0 < speedup <= 32.0
        assert speedup > 20.0  # clean unit-stride work scales well

    def test_replicated_jobs_degrade_little(self):
        """Ensemble-style: unit-stride work from all CPUs is nearly free of
        interference (Table 6 measured 1.89% for CCM2)."""
        node = sx4_node()
        trace = axpy_trace(count=1000)  # large enough that sync is noise
        one = node.run_parallel([trace])
        all32 = node.run_parallel([trace] * 32)
        degradation = all32.seconds / one.seconds - 1.0
        assert degradation < 0.05

    def test_gathered_work_degrades_more_than_unit_stride(self):
        node = sx4_node()
        seq = Trace([VectorOp("seq", length=10_000, count=1000,
                              loads_per_element=1, stores_per_element=1)])
        idx = Trace([VectorOp("idx", length=10_000, count=1000,
                              gather_loads_per_element=1, stores_per_element=1)])

        def degradation(trace):
            one = node.run_parallel([trace]).seconds
            full = node.run_parallel([trace] * 32).seconds
            return full / one - 1.0

        assert degradation(idx) > degradation(seq)

    def test_serial_section_and_sync_accounted(self):
        node = sx4_node()
        per_cpu = axpy_trace(count=1)
        serial = Trace([ScalarOp("diag", instructions=1e6)])
        report = node.run_parallel([per_cpu] * 8, serial=serial, regions=100)
        assert report.serial_seconds > 0
        assert report.sync_seconds > 0
        assert report.seconds == pytest.approx(
            report.parallel_seconds + report.serial_seconds + report.sync_seconds
        )

    def test_sync_grows_with_cpus(self):
        node = sx4_node()
        assert node.sync_seconds(32, 1) > node.sync_seconds(2, 1)
        assert node.sync_seconds(1, 10) == 0.0

    def test_oversubscription_rejected(self):
        node = sx4_node(cpus=4)
        with pytest.raises(ValueError):
            node.run_parallel([axpy_trace()] * 5)
        with pytest.raises(ValueError):
            node.run_parallel([axpy_trace()] * 2, other_active_cpus=3)

    def test_empty_parallel_rejected(self):
        with pytest.raises(ValueError):
            sx4_node().run_parallel([])

    def test_flops_aggregated_across_cpus(self):
        node = sx4_node()
        trace = axpy_trace(count=1)
        report = node.run_parallel([trace] * 4)
        one = node.processor.execute(trace)
        assert report.flop_equivalents == pytest.approx(4 * one.flop_equivalents)
        assert report.gflops == pytest.approx(report.mflops / 1e3)
