"""Columnar costing: exact parity with the per-op oracle, no stale lowering."""

import dataclasses

import numpy as np
import pytest

from repro.analysis.traces import TRACE_BUILDERS, build_registered_trace
from repro.explore.engine import cost_suite_grid
from repro.machine.compiled import (
    SORTED_INTRINSICS,
    CompiledTrace,
    compile_trace,
    fsum,
)
from repro.machine.grid import MachineGrid, cost_suite_trace_grid, cost_trace_grid
from repro.machine.operations import INTRINSICS, ScalarOp, Trace, VectorOp
from repro.machine.presets import canonical_machines, sx4_processor
from repro.machine.suitebatch import SuiteColumns
from repro.perfmon.collector import profile
from tests.oracle import assert_matches_oracle, oracle_counters, oracle_report

ALL_MACHINES = list(canonical_machines().values())


def mixed_trace():
    return Trace(
        [
            VectorOp("axpy", length=500, count=3, flops_per_element=2.0,
                     loads_per_element=2.0, stores_per_element=1.0),
            ScalarOp("diag", instructions=1000, flops=50, memory_words=20, count=2),
            VectorOp("gath", length=64, count=5, gather_loads_per_element=1.0,
                     stores_per_element=1.0, load_stride=7,
                     intrinsic_calls=(("exp", 1.0), ("sqrt", 0.5))),
        ],
        name="mixed",
    )


class TestExactParity:
    @pytest.mark.parametrize(
        ("trace_id", "dilation"),
        [
            pytest.param(trace_id, dilation,
                         id=trace_id if dilation == 1.0 else f"{trace_id}-{dilation}")
            for dilation in (1.0, 1.37)
            for trace_id in sorted(TRACE_BUILDERS)
        ],
    )
    def test_registered_traces_all_machines(self, trace_id, dilation):
        trace = build_registered_trace(trace_id)
        for proc in ALL_MACHINES:
            assert_matches_oracle(proc.execute(trace, dilation), proc, trace, dilation)

    @pytest.mark.parametrize("dilation", [1.0, 1.37, 2.5])
    def test_memory_dilation_parity(self, dilation):
        proc = sx4_processor()
        trace = mixed_trace()
        assert_matches_oracle(proc.execute(trace, dilation), proc, trace, dilation)

    def test_cache_machine_parity(self):
        # A cache machine (no vector unit) routes vector ops through the
        # scalar unit's model; the columnar path must match there too.
        proc = next(m for m in ALL_MACHINES if m.vector is None)
        assert_matches_oracle(proc.execute(mixed_trace()), proc, mixed_trace())

    def test_dominant_op_agrees(self):
        proc = sx4_processor()
        trace = mixed_trace()
        assert (oracle_report(proc, trace).dominant_op()
                == proc.execute(trace).dominant_op())

    def test_empty_trace(self):
        proc = sx4_processor()
        report = proc.execute(Trace([]))
        assert report.cycles == 0.0
        assert report.seconds == 0.0
        assert report.dominant_op() == "<empty>"

    def test_dilation_validated_even_when_cached(self):
        proc = sx4_processor()
        trace = mixed_trace()
        proc.execute(trace, 1.0)  # populate caches
        with pytest.raises(ValueError):
            proc.execute(trace, 0.5)

    def test_nan_dilation_rejected_on_every_path(self):
        proc = sx4_processor()
        grid = MachineGrid.from_processors([proc])
        # hint has no vector ops, so the check cannot ride on the
        # vector-op path.
        for trace in (mixed_trace(), build_registered_trace("hint")):
            suite = SuiteColumns.from_traces([(trace.name, trace)])
            for dilation in (float("nan"), 0.5):
                with pytest.raises(ValueError, match="cannot shrink"):
                    proc.execute(trace, dilation)
                with pytest.raises(ValueError, match="cannot shrink"):
                    proc.per_op_cycles(trace, dilation)
                with pytest.raises(ValueError, match="cannot shrink"):
                    cost_trace_grid(trace, grid, dilation)
                with pytest.raises(ValueError, match="cannot shrink"):
                    cost_suite_trace_grid(suite, grid, dilation)
                with pytest.raises(ValueError, match="cannot shrink"):
                    cost_suite_grid(grid, trace_ids=("hint",), memory_dilation=dilation)

    def test_perfmon_counters_match_legacy_shape_and_totals(self):
        """Column-reduced counters equal per-op recording (the oracle).

        Every canonical preset, so both the vector-unit/memory counters
        and the cache machines' scalar-loop/cache counters are covered,
        on every registered trace, undilated and dilated.
        """
        for trace_id in TRACE_BUILDERS:
            trace = build_registered_trace(trace_id)
            for proc in ALL_MACHINES:
                for dilation in (1.0, 1.5):
                    with profile() as compiled_prof:
                        proc.execute(trace, dilation)
                    oracle = oracle_counters(proc, trace, dilation)
                    compiled_counters = compiled_prof.counters.to_dict()
                    where = f"{proc.name} / {trace_id} / dilation {dilation}"
                    assert oracle.keys() == compiled_counters.keys(), where
                    for component, counters in oracle.items():
                        assert counters.keys() == compiled_counters[component].keys(), where
                        for name, value in counters.items():
                            got = compiled_counters[component][name]
                            assert got == pytest.approx(value, rel=1e-12, abs=1e-12), (
                                f"{where}: {component}.{name}"
                            )


class TestCompileCaching:
    """Nothing is cached: every lowering and aggregate reads the ops as
    they are at that moment."""

    def test_append_invalidates(self):
        trace = mixed_trace()
        first = compile_trace(trace)
        trace.append(ScalarOp("extra", instructions=10))
        second = compile_trace(trace)
        assert second.n_ops == first.n_ops + 1

    def test_in_place_edit_is_seen(self):
        proc = sx4_processor()
        trace = mixed_trace()
        before = proc.execute(trace)
        compile_trace(trace)
        assert trace.raw_flops == before.raw_flops
        trace.ops[0] = VectorOp("axpy", length=4096, count=40, flops_per_element=2.0,
                                loads_per_element=2.0, stores_per_element=1.0)
        fresh = Trace(list(trace.ops), name=trace.name)
        assert (compile_trace(trace).vector.length.tolist()
                == compile_trace(fresh).vector.length.tolist() == [4096.0, 64.0])
        after = proc.execute(trace)
        assert after.cycles == proc.execute(fresh).cycles != before.cycles
        assert trace.raw_flops == fresh.raw_flops == after.raw_flops != before.raw_flops

    def test_distinct_machines_do_not_share_costs(self):
        trace = mixed_trace()
        reports = [proc.execute(trace) for proc in ALL_MACHINES]
        assert len({report.cycles for report in reports}) > 1

    def test_pickled_trace_costs_the_same(self):
        import pickle

        trace = mixed_trace()
        clone = pickle.loads(pickle.dumps(trace))
        assert sx4_processor().execute(clone).cycles == pytest.approx(
            sx4_processor().execute(trace).cycles
        )


class TestPlainValues:
    """Costing is a pure function of the columns: it stores nothing on
    them, and every result owns its arrays."""

    def test_compiled_trace_is_frozen(self):
        compiled = compile_trace(mixed_trace())
        with pytest.raises(dataclasses.FrozenInstanceError):
            compiled.names = ()

    def test_report_owns_its_op_cycles(self):
        proc = sx4_processor()
        trace = build_registered_trace("linpack")
        first = proc.execute(trace, 1.37)
        first.op_cycles[:] = 0.0
        second = proc.execute(trace, 1.37)
        assert second.op_cycles.tolist() == proc.per_op_cycles(trace, 1.37)
        assert fsum(second.op_cycles) == second.cycles


class TestColumns:
    def test_column_layout(self):
        compiled = compile_trace(mixed_trace())
        assert isinstance(compiled, CompiledTrace)
        assert compiled.n_ops == 3
        assert compiled.vector.n == 2
        assert compiled.scalar.n == 1
        assert compiled.vector.intrinsics.shape == (2, len(INTRINSICS))
        assert SORTED_INTRINSICS == tuple(sorted(INTRINSICS))
        # gath: exp at 1.0/elem, sqrt at 0.5/elem, in the sorted columns.
        row = compiled.vector.intrinsics[1]
        assert row[SORTED_INTRINSICS.index("exp")] == 1.0
        assert row[SORTED_INTRINSICS.index("sqrt")] == 0.5
        assert row.sum() == 1.5

    def test_aggregate_totals_match_trace(self):
        trace = mixed_trace()
        compiled = compile_trace(trace)
        assert compiled.raw_flops_total == trace.raw_flops
        assert compiled.flop_equivalents_total == trace.flop_equivalents
        assert compiled.words_moved_total == trace.words_moved

    def test_scatter_restores_trace_order(self):
        compiled = compile_trace(mixed_trace())
        out = compiled.scatter_cycles(
            np.array([1.0, 3.0]), np.array([2.0])
        )
        assert out.tolist() == [1.0, 2.0, 3.0]


def test_fsum_matches_math_fsum():
    values = [0.1, 0.2, 0.3, 1e16, -1e16, 0.1]
    import math

    assert fsum(np.array(values)) == math.fsum(values)
    assert fsum(values) == math.fsum(values)
