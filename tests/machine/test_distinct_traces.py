"""Each builder call lowers its traces together, each distinct trace once.

``Processor.execute_all`` lowers a list of traces in one
``compile_trace`` call and costs a trace object once however many
entries hold it.  The node model costs all its CPUs in one such call
and the serial trace in another, the CCM2 and MOM cost models hand
every CPU with the same share one trace object, the scan builders cost
all their points in one call, and PRODLOAD prices each test's job once.
These tests pin the saving as counts of what the program calls, and pin
that the reports and the perfmon counters match costing every CPU
afresh, bit for bit.  A trace holds its ops as columns, so they also
count the op objects a pass constructs: scaling, joining, lowering and
costing a trace construct none.
"""

import dataclasses

import pytest

import repro.machine.processor as processor_module
from repro.apps.ccm2 import costmodel as ccm2_cost
from repro.apps.mom import costmodel as mom_cost
from repro.kernels import linpack
from repro.machine.compiled import compile_trace
from repro.machine.operations import ScalarOp, Trace, VectorOp
from repro.machine.presets import sx4_node, sx4_processor
from repro.perfmon.collector import profile
from repro.scheduler.prodload import run_prodload
from repro.suite.runner import run_suite

#: Lowerings (``compile_trace`` calls) one run_suite() pass makes; together
#: they lower 431 traces, of 310 distinct.
SUITE_LOWERINGS = 102
#: The ``VectorOp`` objects a warm run_suite() pass constructs (2,839
#: when a trace was a list of ops): builders still describe most loops
#: as ops, but scaling, joining and lowering a trace make none, and
#: LINPACK's 999 elimination axpys go in as columns.
SUITE_VECTOR_OPS = 990


def _counting(monkeypatch, module, name: str) -> list:
    """Wrap ``module.name`` so each call appends its positional arguments."""
    original = getattr(module, name)
    calls = []

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def _counting_ops(monkeypatch) -> dict[str, int]:
    """Count each ``VectorOp``/``ScalarOp`` constructed from now on, by
    class name."""
    counts = {"VectorOp": 0, "ScalarOp": 0}
    for kind in (VectorOp, ScalarOp):
        def counted(op, original=kind.__post_init__, name=kind.__name__):
            counts[name] += 1
            original(op)

        monkeypatch.setattr(kind, "__post_init__", counted)
    return counts


@pytest.fixture
def made(monkeypatch) -> dict[str, int]:
    """The op objects constructed while the test runs, by class name."""
    return _counting_ops(monkeypatch)


@pytest.fixture
def lowered(monkeypatch):
    """Each ``compile_trace`` call the processor makes while the test
    runs: the tuple of traces that one lowering covers."""
    return _counting(monkeypatch, processor_module, "compile_trace")


def _ids(lowerings) -> list[list[int]]:
    return [[id(trace) for trace in traces] for traces in lowerings]


def _copy(trace: Trace) -> Trace:
    return Trace(list(trace.ops), name=trace.name)


def _hex_fields(report) -> dict:
    def as_hex(value):
        if isinstance(value, float):
            return value.hex()
        if isinstance(value, list):
            return [as_hex(v) for v in value]
        return value

    return {
        f.name: as_hex(getattr(report, f.name)) for f in dataclasses.fields(report)
    }


def _hex_counters(prof) -> dict:
    return {
        component: {name: value.hex() for name, value in bucket.items()}
        for component, bucket in prof.counters.to_dict().items()
    }


def _step_traces() -> tuple[Trace, Trace]:
    cost = ccm2_cost.step_trace("T42L18")
    return cost.spectral + cost.grid, cost.grid.scaled(0.5) + cost.serial


class TestRunParallel:
    def test_a_shared_trace_lowers_once(self, lowered):
        trace, _ = _step_traces()
        sx4_node().run_parallel([trace] * 32)
        assert _ids(lowered) == [[id(trace)]]

    def test_a_shared_trace_equals_distinct_copies(self, lowered):
        trace, _ = _step_traces()
        node = sx4_node()
        shared = node.run_parallel([trace] * 32, regions=12.0, trace_name=trace.name)
        assert len(lowered) == 1
        copies = node.run_parallel(
            [_copy(trace) for _ in range(32)], regions=12.0, trace_name=trace.name
        )
        # All 32 copies are distinct objects, lowered in one call.
        assert [len(traces) for traces in lowered] == [1, 32]
        assert _hex_fields(shared) == _hex_fields(copies)

    def test_profiled_counters_equal_distinct_copies(self):
        trace, _ = _step_traces()
        node = sx4_node()
        with profile() as shared:
            node.run_parallel([trace] * 32)
        with profile() as copies:
            node.run_parallel([_copy(trace) for _ in range(32)])
        assert _hex_counters(shared) == _hex_counters(copies)
        assert shared.counters.get("processor", "traces") == 32.0

    def test_interleaved_traces_replay_in_cpu_order(self, lowered):
        a, b = _step_traces()
        node = sx4_node()
        order = [a, b, a, a, b, a]
        with profile() as shared:
            shared_report = node.run_parallel(order, serial=b, regions=3.0)
        # One lowering for the CPUs, each distinct trace once in CPU
        # order, and one for the serial trace.
        assert _ids(lowered) == [[id(a), id(b)], [id(b)]]
        with profile() as fresh:
            fresh_report = node.run_parallel(
                [_copy(t) for t in order], serial=_copy(b), regions=3.0
            )
        assert _hex_fields(shared_report) == _hex_fields(fresh_report)
        assert _hex_counters(shared) == _hex_counters(fresh)


class TestBuilders:
    def test_ccm2_step_lowers_one_trace_per_distinct_share(self, lowered):
        report = ccm2_cost.parallel_step(sx4_node(), "T170L18", 32)
        # One lowering of the three distinct (spectral, grid) shares, and
        # one of the serial trace.
        assert [len(traces) for traces in lowered] == [3, 1]
        assert len(report.per_cpu_seconds) == 32

    def test_mom_step_lowers_one_trace_per_distinct_share(self, lowered):
        report = mom_cost.parallel_step(sx4_node(), cpus=32)
        # One lowering of the two distinct row shares, and one of the
        # diagnostics trace.
        assert [len(traces) for traces in lowered] == [2, 1]
        assert len(report.per_cpu_seconds) == 32

    def test_prodload_prices_seven_ccm2_steps(self, monkeypatch):
        steps = _counting(monkeypatch, ccm2_cost, "parallel_step")
        run_prodload()
        # One job per test (a T106 and a T42 step each) and one T170 step.
        assert len(steps) == 7

    def test_prodload_copies_keep_every_job_name(self):
        names = {name for name, _, _ in run_prodload().job_records}
        assert "test3/s3j3/t42-20day-b" in names
        assert "test4/t170-1" in names
        assert len(names) == 114

    def test_suite_pass_lowering_count(self, lowered):
        run_suite()
        assert len(lowered) == SUITE_LOWERINGS
        assert sum(len(traces) for traces in lowered) == 431

    def test_suite_pass_vector_op_count(self, monkeypatch):
        run_suite()  # warm: first-call set-up is not part of a pass
        made = _counting_ops(monkeypatch)
        run_suite()
        assert made["VectorOp"] <= SUITE_VECTOR_OPS


class TestNoOpObjects:
    """Trace operations work on columns: they construct no op object."""

    def test_scaling_joining_lowering_and_costing(self, monkeypatch):
        cost = ccm2_cost.step_trace("T42L18")
        made = _counting_ops(monkeypatch)
        trace = (cost.spectral.scaled(0.25) + cost.grid.scaled(0.5)) * 3.0
        compiled = compile_trace(trace, cost.serial)
        sx4_processor().execute_all([trace, cost.serial])
        sx4_node().run_parallel([trace, trace], serial=cost.serial)
        assert trace.irregular_words < trace.words_moved < compiled.totals[0][1]
        assert made == {"VectorOp": 0, "ScalarOp": 0}

    def test_linpack_builds_two_ops(self, made):
        trace = linpack.build_trace(1000)
        assert len(trace) == 1001
        assert made == {"VectorOp": 1, "ScalarOp": 1}
