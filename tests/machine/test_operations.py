"""Tests for operation descriptors and traces."""

import pytest

from repro.machine.compiled import SORTED_INTRINSICS, compile_trace
from repro.machine.operations import (
    INTRINSIC_FLOP_EQUIV,
    ScalarOp,
    Trace,
    VectorOp,
)


class TestVectorOp:
    def test_elements_accounting(self):
        op = VectorOp("v", length=100, count=5, flops_per_element=2.0)
        assert op.elements == 500
        assert op.raw_flops == 1000

    def test_flop_equivalents_include_intrinsics(self):
        op = VectorOp.make(
            "v", 10, count=2, flops_per_element=1.0, intrinsics={"exp": 1.0}
        )
        expected = 10 * 2 * (1.0 + INTRINSIC_FLOP_EQUIV["exp"])
        assert op.flop_equivalents == pytest.approx(expected)

    def test_words_moved_counts_data_not_indices(self):
        op = VectorOp(
            "gather",
            length=100,
            loads_per_element=0.0,
            stores_per_element=1.0,
            gather_loads_per_element=1.0,
        )
        # 1 gathered load + 1 store per element; index words excluded.
        assert op.words_moved == pytest.approx(200)

    def test_scaled_multiplies_count(self):
        op = VectorOp("v", length=8, count=3.0)
        assert op.scaled(4.0).count == pytest.approx(12.0)

    def test_intrinsics_sorted_and_filtered(self):
        op = VectorOp.make("v", 4, intrinsics={"sqrt": 0.5, "exp": 0.0})
        assert op.intrinsic_calls == (("sqrt", 0.5),)

    def test_unknown_intrinsic_rejected(self):
        with pytest.raises(ValueError):
            VectorOp.make("v", 4, intrinsics={"tanh": 1.0})  # repolint: skip

    def test_invalid_length_rejected(self):
        with pytest.raises(ValueError):
            VectorOp("v", length=0)

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            VectorOp("v", length=4, count=-1)
        with pytest.raises(ValueError):
            VectorOp("v", length=4, flops_per_element=-1)

    def test_invalid_stride_rejected(self):
        with pytest.raises(ValueError):
            VectorOp("v", length=4, load_stride=0)

    def test_frozen(self):
        op = VectorOp("v", length=4)
        with pytest.raises(AttributeError):
            op.length = 8


class TestScalarOp:
    def test_accounting(self):
        op = ScalarOp("s", instructions=10, flops=2, memory_words=3, count=7)
        assert op.raw_flops == 14
        assert op.words_moved == 21
        assert op.flop_equivalents == op.raw_flops

    def test_flops_cannot_exceed_instructions(self):
        with pytest.raises(ValueError):
            ScalarOp("s", instructions=1, flops=2)

    def test_scaled(self):
        op = ScalarOp("s", instructions=10, count=2)
        assert op.scaled(3).count == pytest.approx(6)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            ScalarOp("s", instructions=-1)


class TestTrace:
    def make_trace(self):
        return Trace(
            [
                VectorOp("a", length=10, count=2, flops_per_element=2.0,
                         loads_per_element=1.0, stores_per_element=1.0),
                ScalarOp("b", instructions=100, flops=10, memory_words=5, count=3),
            ],
            name="t",
        )

    def test_aggregates(self):
        trace = self.make_trace()
        raw, _, words = compile_trace(trace).totals[0]
        assert raw == pytest.approx(10 * 2 * 2 + 10 * 3)
        assert words == trace.words_moved == pytest.approx(10 * 2 * 2 + 5 * 3)

    def test_concatenation(self):
        t1, t2 = self.make_trace(), self.make_trace()
        combined = t1 + t2
        assert len(combined) == 4
        (raw, _, _), (raw1, _, _) = compile_trace(combined, t1).totals
        assert raw == pytest.approx(2 * raw1)

    def test_scaling_by_timesteps(self):
        trace = self.make_trace()
        raw = [totals[0] for totals in compile_trace(trace, trace * 12, 3 * trace).totals]
        assert raw[1] == pytest.approx(12 * raw[0])
        assert raw[2] == pytest.approx(3 * raw[0])

    def test_gather_fraction(self):
        trace = Trace(
            [
                VectorOp("seq", length=100, loads_per_element=1.0, stores_per_element=1.0),
                VectorOp("idx", length=100, gather_loads_per_element=1.0,
                         stores_per_element=1.0),
            ]
        )
        # 100 of 400 data words are gathered (200 copy + 100 gather + 100 store).
        columns = compile_trace(trace).vector
        gathered = (columns.indexed_words * columns.count).sum()
        assert gathered / trace.words_moved == pytest.approx(100 / 400)

    def test_intrinsic_totals(self):
        trace = Trace(
            [
                VectorOp.make("a", 10, count=2, intrinsics={"exp": 1.0, "sqrt": 0.5}),
                VectorOp.make("b", 5, intrinsics={"exp": 2.0}),
            ]
        )
        columns = compile_trace(trace).vector
        totals = (columns.intrinsics * columns.elements[:, None]).sum(axis=0)
        assert totals[SORTED_INTRINSICS.index("exp")] == pytest.approx(10 * 2 * 1.0 + 5 * 2.0)
        assert totals[SORTED_INTRINSICS.index("sqrt")] == pytest.approx(10 * 2 * 0.5)

    def test_append_type_checked(self):
        trace = Trace([])
        with pytest.raises(TypeError):
            trace.append("not an op")
        with pytest.raises(TypeError):
            Trace(["junk"])


NAN = float("nan")

#: Every numeric VectorOp field with a valid value; NaN must be rejected
#: in each, with the message a negative value gets.
VECTOR_FIELDS = {
    "length": (8, "vector length must be >= 1"),
    "count": (1.0, "count cannot be negative"),
    "flops_per_element": (1.0, "flops_per_element cannot be negative"),
    "loads_per_element": (1.0, "loads_per_element cannot be negative"),
    "stores_per_element": (1.0, "stores_per_element cannot be negative"),
    "load_stride": (1, "strides are positive element counts"),
    "store_stride": (1, "strides are positive element counts"),
    "gather_loads_per_element": (1.0, "gather_loads_per_element cannot be negative"),
    "scatter_stores_per_element": (1.0, "scatter_stores_per_element cannot be negative"),
}


class TestNaNRejected:
    @pytest.mark.parametrize("field", sorted(VECTOR_FIELDS))
    def test_vector_op_field(self, field):
        values = {name: value for name, (value, _) in VECTOR_FIELDS.items()}
        values[field] = NAN
        with pytest.raises(ValueError, match=VECTOR_FIELDS[field][1]):
            VectorOp("a", **values)

    def test_vector_op_intrinsic_calls(self):
        with pytest.raises(ValueError, match="intrinsic call count cannot be negative"):
            VectorOp.make("a", 8, intrinsics={"exp": NAN})

    @pytest.mark.parametrize("field", ["instructions", "flops", "memory_words", "count"])
    def test_scalar_op_field(self, field):
        values = {"instructions": 10.0, "flops": 1.0, "memory_words": 1.0, "count": 1.0}
        values[field] = NAN
        with pytest.raises(ValueError, match=f"{field} cannot be negative"):
            ScalarOp("s", **values)

    @pytest.mark.parametrize("field", sorted(VECTOR_FIELDS))
    def test_bulk_append_field(self, field):
        values = {name: [value, value] for name, (value, _) in VECTOR_FIELDS.items()}
        values[field] = [values[field][0], NAN]
        trace = Trace(name="t")
        with pytest.raises(ValueError, match=VECTOR_FIELDS[field][1]):
            trace.append_vectors(["a", "b"], **values)
        assert len(trace) == 0

    @pytest.mark.parametrize("ops", [[], [VectorOp("a", 4)], [ScalarOp("s", 1.0)]])
    @pytest.mark.parametrize("factor", [NAN, -1.0])
    def test_scale_factor(self, ops, factor):
        trace = Trace(ops)
        with pytest.raises(ValueError, match="scale factor cannot be negative"):
            trace.scaled(factor)
        for op in ops:
            with pytest.raises(ValueError, match="scale factor cannot be negative"):
                op.scaled(factor)


class TestAppendVectors:
    def test_rows_equal_the_same_ops(self):
        trace = Trace([ScalarOp("s", instructions=5.0)], name="t")
        trace.append_vectors(
            ["x", "y", "z"],
            [4, 8, 16],
            count=[1.0, 2.0, 0.0],
            flops_per_element=2.0,
            load_stride=[1, 3, 1],
        )
        assert trace.ops == (
            ScalarOp("s", instructions=5.0),
            VectorOp("x", 4, count=1.0, flops_per_element=2.0),
            VectorOp("y", 8, count=2.0, flops_per_element=2.0, load_stride=3),
            VectorOp("z", 16, count=0.0, flops_per_element=2.0),
        )

    def test_no_rows(self):
        trace = Trace(name="t")
        trace.append_vectors([], [], count=2.0)
        assert trace.ops == ()

    def test_column_lengths_must_match(self):
        with pytest.raises(ValueError, match="count has 1 values for 2 rows"):
            Trace().append_vectors(["a", "b"], 8, count=[1.0])

    def test_unknown_field(self):
        with pytest.raises(TypeError, match="flops"):
            Trace().append_vectors(["a"], 8, flops=1.0)


class TestColumns:
    def test_scaled_and_joined_traces_do_not_share_edits(self):
        base = Trace([VectorOp("a", 4, count=2.0)], name="base")
        scaled = base.scaled(3.0)
        joined = base + scaled
        base.append(ScalarOp("s", 1.0))
        scaled.append_vectors(["b"], 2)
        assert [op.name for op in base] == ["a", "s"]
        assert [op.name for op in scaled] == ["a", "b"]
        assert [(op.name, op.count) for op in joined] == [("a", 2.0), ("a", 6.0)]

    def test_failed_extend_appends_nothing(self):
        trace = Trace([VectorOp("a", 4)])
        with pytest.raises(TypeError):
            trace.extend([VectorOp("b", 4), "junk"])
        assert [op.name for op in trace] == ["a"]
