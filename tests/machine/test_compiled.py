"""Columnar costing: exact parity with the per-op oracle, no stale lowering."""

import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest

from repro.analysis.traces import TRACE_BUILDERS, build_registered_trace
from repro.explore.engine import cost_suite_grid
from repro.machine import costmodel
from repro.machine.compiled import SORTED_INTRINSICS, CompiledTrace, compile_trace
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

    @pytest.mark.parametrize(
        "dilation", [1.0, 1.37, (1.0, 1.37, 2.5)], ids=["1.0", "1.37", "per-entry"]
    )
    def test_execute_all_equals_each_execute(self, dilation):
        """One batched call over every registered trace, an empty trace
        and one trace object repeated and interleaved equals costing
        each entry alone: every report field, the per-op cycles, and
        the profiled counters, hex for hex.  A tuple of dilations is
        cycled over the entries, one each, so the repeated trace is
        listed at two dilations (twice at one of them)."""
        traces = [build_registered_trace(trace_id) for trace_id in sorted(TRACE_BUILDERS)]
        repeated = traces[5]
        batch = [repeated, Trace([], name="empty"), *traces[:8], repeated,
                 *traces[8:], repeated]
        if isinstance(dilation, tuple):
            dilation = [dilation[i % len(dilation)] for i in range(len(batch))]
            assert {d for t, d in zip(batch, dilation) if t is repeated} == {1.0, 1.37}
            dilations = dilation
        else:
            dilations = [dilation] * len(batch)
        for proc in ALL_MACHINES:
            with profile() as batched:
                reports = proc.execute_all(batch, dilation)
            with profile() as alone:
                expected = [proc.execute(trace, d) for trace, d in zip(batch, dilations)]
            assert [_hex_report(r) for r in reports] == [_hex_report(r) for r in expected]
            assert _hex_counters(batched) == _hex_counters(alone), proc.name
            # No two entries share an op_cycles array, repeats included.
            for i, report in enumerate(reports):
                for other in reports[i + 1:]:
                    assert not np.shares_memory(report.op_cycles, other.op_cycles)

    def test_execute_all_of_nothing(self):
        with profile() as prof:
            assert sx4_processor().execute_all([]) == []
        assert prof.counters.to_dict() == {}

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
            compiled = SuiteColumns.from_traces([(trace.name, trace)]).compiled
            for dilation in (float("nan"), 0.5):
                with pytest.raises(ValueError, match="cannot shrink"):
                    proc.execute(trace, dilation)
                with pytest.raises(ValueError, match="cannot shrink"):
                    proc.execute_all([trace, trace], [1.0, dilation])
                with pytest.raises(ValueError, match="cannot shrink"):
                    proc.per_op_cycles(trace, dilation)
                with pytest.raises(ValueError, match="cannot shrink"):
                    cost_trace_grid(trace, grid, dilation)
                with pytest.raises(ValueError, match="cannot shrink"):
                    cost_suite_trace_grid(compiled, grid, dilation)
                with pytest.raises(ValueError, match="cannot shrink"):
                    cost_suite_grid(grid, trace_ids=("hint",), memory_dilation=dilation)
            with pytest.raises(ValueError, match="3 memory dilations for 2 traces"):
                proc.execute_all([trace, trace], [1.0, 1.0, 1.0])

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


def _hex_report(report) -> dict:
    fields = {
        f.name: getattr(report, f.name) for f in dataclasses.fields(report)
    }
    fields["op_cycles"] = [value.hex() for value in np.asarray(report.op_cycles).tolist()]
    return {
        name: value.hex() if isinstance(value, float) else value
        for name, value in fields.items()
    }


def _hex_counters(prof) -> dict:
    return {
        component: {name: value.hex() for name, value in bucket.items()}
        for component, bucket in prof.counters.to_dict().items()
    }


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
        """A trace's columns are its only state: its ``ops`` are a
        read-only view, so no edit can leave stale columns behind, and
        an edit goes through a trace rebuilt from the edited rows."""
        proc = sx4_processor()
        trace = mixed_trace()
        before = proc.execute(trace)
        assert compile_trace(trace).totals == ((
            before.raw_flops, before.flop_equivalents, before.words_moved
        ),)
        edit = VectorOp("axpy", length=4096, count=40, flops_per_element=2.0,
                        loads_per_element=2.0, stores_per_element=1.0)
        with pytest.raises(TypeError):
            trace.ops[0] = edit
        assert proc.execute(trace) == before
        rows = list(trace.ops)
        rows[0] = edit
        fresh = Trace(rows, name=trace.name)
        assert compile_trace(fresh).vector.length.tolist() == [4096.0, 64.0]
        after = proc.execute(fresh)
        assert_matches_oracle(after, proc, fresh)
        assert after.cycles != before.cycles
        assert compile_trace(fresh).totals[0][0] == after.raw_flops != before.raw_flops

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
        assert math.fsum(second.op_cycles.tolist()) == second.cycles


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
        traces = [mixed_trace(), Trace([], name="empty"), build_registered_trace("hint")]
        compiled = compile_trace(*traces)
        assert compiled.trace_names == tuple(trace.name for trace in traces)
        for trace, totals in zip(traces, compiled.totals):
            assert totals == tuple(
                math.fsum(getattr(op, total) for op in trace.ops)
                for total in ("raw_flops", "flop_equivalents", "words_moved")
            )

    def test_segment_sums_reduce_each_trace_over_both_kinds(self):
        compiled = compile_trace(mixed_trace(), Trace([], name="empty"), mixed_trace())
        vector = np.array([[1.0, 2.0, 4.0, 8.0], [0.5, 0.5, 0.5, 0.5]])
        scalar = np.array([[16.0, 32.0], [0.25, 0.25]])
        assert compiled.segment_sums(vector, scalar) == [[19.0, 1.25], [0.0, 0.0], [44.0, 1.25]]
        assert compiled.segment_sums(vector) == [[3.0, 1.0], [0.0, 0.0], [12.0, 1.0]]
        assert compiled.segment_sums(scalar=scalar) == [[16.0, 0.25], [0.0, 0.0], [32.0, 0.25]]

    def test_scatter_restores_trace_order(self):
        compiled = compile_trace(mixed_trace())
        out = compiled.scatter_cycles(
            np.array([1.0, 3.0]), np.array([2.0])
        )
        assert out.tolist() == [1.0, 2.0, 3.0]


def _hex_compiled(compiled) -> dict:
    """Every field of a compiled trace, arrays as lists of ``float.hex``."""
    def as_hex(value):
        if isinstance(value, np.ndarray):
            return [as_hex(v) for v in value.tolist()]
        if isinstance(value, list):
            return [as_hex(v) for v in value]
        if isinstance(value, float):
            return value.hex()
        return value

    out = {"names": compiled.names, "offsets": (
        compiled.op_offsets, compiled.vector_offsets, compiled.scalar_offsets),
        "totals": as_hex([list(totals) for totals in compiled.totals])}
    for kind in ("vector", "scalar"):
        columns = getattr(compiled, kind)
        for f in dataclasses.fields(columns):
            out[f"{kind}.{f.name}"] = as_hex(getattr(columns, f.name))
    return out


def _linpack_ops(n: int) -> list:
    """LINPACK's trace as op objects, one per row."""
    ops: list = [
        VectorOp(f"dgefa axpy len {length}", length=length, count=float(length),
                 flops_per_element=2.0, loads_per_element=1.0, stores_per_element=1.0)
        for length in range(n - 1, 0, -1)
    ]
    ops.append(ScalarOp("pivot search + scale", instructions=30.0, count=float(n)))
    ops.append(VectorOp("dgesl substitution", length=max(1, n // 2), count=float(4 * n),
                        flops_per_element=1.0, loads_per_element=1.0,
                        stores_per_element=1.0))
    return ops


class TestColumnTraces:
    """A trace's columns are its only state; the ops are a view of them."""

    def test_linpack_columns_equal_the_same_ops(self):
        from repro.kernels import linpack

        built = linpack.build_trace(1000)
        by_ops = Trace(_linpack_ops(1000), name="LINPACK n=1000")
        assert len(built) == len(by_ops) == 1001
        assert built.ops == by_ops.ops
        assert _hex_compiled(compile_trace(built)) == _hex_compiled(compile_trace(by_ops))
        for total in ("words_moved", "irregular_words"):
            assert getattr(built, total).hex() == getattr(by_ops, total).hex(), total
        for proc in ALL_MACHINES:
            assert _hex_report(proc.execute(built)) == _hex_report(proc.execute(by_ops))

    def test_pickle_round_trip(self):
        import pickle

        trace = mixed_trace() + build_registered_trace("linpack").scaled(0.5)
        clone = pickle.loads(pickle.dumps(trace))
        assert clone.name == trace.name
        assert clone.ops == trace.ops
        assert _hex_compiled(compile_trace(clone)) == _hex_compiled(compile_trace(trace))
        proc = sx4_processor()
        assert _hex_report(proc.execute(clone)) == _hex_report(proc.execute(trace))
        clone.append(ScalarOp("extra", instructions=1.0))
        assert len(clone) == len(trace) + 1

    def test_ops_are_a_read_only_view(self):
        trace = mixed_trace()
        assert isinstance(trace.ops, tuple)
        with pytest.raises(AttributeError):
            trace.ops = []
        assert trace.ops is not trace.ops  # rebuilt on every read
        assert list(trace) == list(trace.ops)

    @pytest.mark.parametrize("with_calls", [False, True], ids=["no-intrinsics", "intrinsics"])
    def test_signed_zeros_match_the_oracle(self, with_calls):
        """Absent intrinsics add one exact ``+ 0.0``: a zero's sign comes
        out as the per-op oracle's, on every preset, also in a batch
        where no row calls an intrinsic and every column is skipped."""
        ops = [
            VectorOp("negzero flops", length=64, count=3.0, flops_per_element=-0.0,
                     loads_per_element=1.0),
            VectorOp("negzero count", length=64, count=-0.0, flops_per_element=2.0,
                     loads_per_element=1.0, stores_per_element=1.0),
            VectorOp("both", length=8, count=-0.0, flops_per_element=-0.0),
            ScalarOp("negzero scalar", instructions=10.0, count=-0.0),
        ]
        if with_calls:
            ops.append(VectorOp.make("calls", 16, count=-0.0, flops_per_element=-0.0,
                                     intrinsics={"exp": 1.0}))
        trace = Trace(ops)
        vector_ops = [op for op in ops if isinstance(op, VectorOp)]
        columns = compile_trace(trace).vector
        for proc in ALL_MACHINES:
            for dilation in (1.0, 1.37):
                report = proc.execute(trace, dilation)
                oracle = oracle_report(proc, trace, dilation)
                assert _hex_report(report) == _hex_report(oracle), proc.name
            # The per-execution terms, before a positive startup or loop
            # overhead hides a zero's sign.
            params = SimpleNamespace(**costmodel.parameter_row(proc))
            if proc.vector is not None:
                terms = costmodel.arithmetic_cycles(params, columns)
                expected = [proc.vector.arithmetic_cycles(op) for op in vector_ops]
            else:
                terms = costmodel.vector_loop_cycles(params, columns)
                expected = [proc.scalar.vector_op_cycles(op) for op in vector_ops]
            assert [t.hex() for t in terms.tolist()] == [e.hex() for e in expected], proc.name

