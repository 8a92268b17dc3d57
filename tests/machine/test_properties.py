"""Property-based tests (hypothesis) for machine-model invariants."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine.memory import BankedMemory
from repro.machine.operations import Trace, VectorOp
from repro.machine.presets import sx4_node, sx4_processor

lengths = st.integers(min_value=1, max_value=2_000_000)
strides = st.integers(min_value=1, max_value=4096)
cpus = st.integers(min_value=1, max_value=32)


@given(length=lengths)
def test_time_positive_and_finite(length):
    proc = sx4_processor()
    trace = Trace([VectorOp("v", length=length, loads_per_element=1,
                            stores_per_element=1, flops_per_element=2)])
    t = proc.time(trace)
    assert t > 0 and math.isfinite(t)


@given(length=st.integers(min_value=1, max_value=100_000),
       factor=st.integers(min_value=2, max_value=16))
def test_longer_vectors_never_slower_per_element(length, factor):
    """Amortising startup over a longer vector cannot hurt per-element cost."""
    proc = sx4_processor()

    def per_element_time(n):
        trace = Trace([VectorOp("v", length=n, loads_per_element=1,
                                stores_per_element=1)])
        return proc.time(trace) / n

    assert per_element_time(length * factor) <= per_element_time(length) * (1 + 1e-9)


@given(stride=strides)
def test_stride_factor_at_least_one(stride):
    mem = BankedMemory()
    assert mem.stride_factor(stride) >= 1.0


@given(stride=strides)
def test_unit_stride_is_never_beaten(stride):
    mem = BankedMemory()
    assert mem.stride_factor(stride) >= mem.stride_factor(1)


@given(active=cpus, frac=st.floats(min_value=0.0, max_value=1.0,
                                   allow_nan=False))
def test_contention_factor_bounds(active, frac):
    mem = BankedMemory()
    f = mem.contention_factor(active, frac)
    assert 1.0 <= f <= 1.0 + mem.contention_base_slope + mem.contention_slope


@given(active=st.integers(min_value=2, max_value=32),
       frac=st.floats(min_value=0.01, max_value=1.0, allow_nan=False))
def test_contention_monotone_in_cpus(active, frac):
    mem = BankedMemory()
    assert mem.contention_factor(active, frac) >= mem.contention_factor(active - 1, frac)


@settings(max_examples=25)
@given(n_cpus=st.integers(min_value=1, max_value=32))
def test_parallel_wall_time_monotone_decreasing_in_cpus(n_cpus):
    """Splitting a fixed embarrassingly-parallel workload over more CPUs
    never increases wall time by more than the sync overhead."""
    node = sx4_node()
    whole = Trace([VectorOp("work", length=10_000, count=64,
                            loads_per_element=1, stores_per_element=1,
                            flops_per_element=2)])
    per_cpu = whole.scaled(1.0 / n_cpus)
    report = node.run_parallel([per_cpu] * n_cpus)
    serial = node.processor.execute(whole).seconds
    # Never faster than perfect speedup, never slower than serial + sync.
    assert report.seconds >= serial / n_cpus * 0.999
    assert report.seconds <= serial + node.sync_seconds(n_cpus, 1) + 1e-9


@settings(max_examples=25)
@given(length=st.integers(min_value=8, max_value=100_000),
       count=st.integers(min_value=1, max_value=20))
def test_report_flops_match_trace(length, count):
    proc = sx4_processor()
    trace = Trace([VectorOp("v", length=length, count=count, flops_per_element=2,
                            loads_per_element=1, stores_per_element=1)])
    report = proc.execute(trace)
    (op,) = trace.ops
    assert report.raw_flops == op.raw_flops
    assert report.flop_equivalents == op.flop_equivalents
    assert report.mflops <= proc.peak_flops / 1e6 * (1 + 1e-9)


@settings(max_examples=25)
@given(scale=st.floats(min_value=0.1, max_value=100.0, allow_nan=False))
def test_trace_scaling_scales_time_linearly(scale):
    proc = sx4_processor()
    trace = Trace([VectorOp("v", length=1000, count=10, flops_per_element=2,
                            loads_per_element=1, stores_per_element=1)])
    t1 = proc.time(trace)
    t2 = proc.time(trace.scaled(scale))
    assert t2 == proc.clock.seconds(proc.clock.cycles(t1) * scale) or \
        abs(t2 - t1 * scale) <= 1e-12 + 1e-9 * t1 * scale
