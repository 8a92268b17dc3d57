"""Property-based parity tests: columnar costing vs the per-op oracle.

``Processor.execute``'s contract is bit-parity with the per-op methods,
so these properties assert *equality* on the ExecutionReport (per-op
cycles included) for arbitrary generated traces, and ulp-scale agreement
on perfmon counter totals (the one place the two sides accumulate in a
different order: fsum versus sequential addition).
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine.compiled import compile_trace
from repro.machine.operations import INTRINSICS, ScalarOp, Trace, VectorOp
from repro.machine.presets import sx4_processor, table1_machines
from repro.perfmon.collector import profile
from tests.oracle import assert_matches_oracle, oracle_counters

SX4 = sx4_processor()
#: A Table 1 machine without a vector unit: vector ops cost through the
#: scalar/cache model, the other half of the columnar model.
CACHE_MACHINE = next(m for m in table1_machines().values() if m.vector is None)

rates = st.floats(min_value=0.0, max_value=8.0, allow_nan=False)

intrinsic_mixes = st.dictionaries(
    st.sampled_from(sorted(INTRINSICS)),
    st.floats(min_value=0.0, max_value=4.0, allow_nan=False),
    max_size=3,
).map(lambda mix: tuple(sorted(mix.items())))

vector_ops = st.builds(
    VectorOp,
    name=st.sampled_from(["a", "b", "c"]),
    length=st.integers(min_value=1, max_value=200_000),
    count=st.integers(min_value=0, max_value=5_000),
    flops_per_element=rates,
    loads_per_element=rates,
    stores_per_element=rates,
    gather_loads_per_element=rates,
    scatter_stores_per_element=rates,
    load_stride=st.integers(min_value=1, max_value=2048),
    store_stride=st.integers(min_value=1, max_value=2048),
    intrinsic_calls=intrinsic_mixes,
)


@st.composite
def scalar_ops(draw):
    instructions = draw(st.floats(min_value=0.0, max_value=1e6, allow_nan=False))
    flops = draw(st.floats(min_value=0.0, max_value=1.0, allow_nan=False)) * instructions
    return ScalarOp(
        name=draw(st.sampled_from(["s", "t"])),
        instructions=instructions,
        flops=flops,
        memory_words=draw(st.floats(min_value=0.0, max_value=1e5, allow_nan=False)),
        count=draw(st.integers(min_value=0, max_value=100)),
    )


traces = st.lists(vector_ops | scalar_ops(), max_size=8).map(
    lambda ops: Trace(ops, name="rand")
)

dilations = st.floats(min_value=1.0, max_value=4.0, allow_nan=False)


def ulps_apart(a: float, b: float) -> float:
    if a == b:
        return 0.0
    return abs(a - b) / math.ulp(max(abs(a), abs(b)))


def assert_report_parity(processor, trace, dilation=1.0):
    assert_matches_oracle(processor.execute(trace, dilation), processor, trace, dilation)


@given(trace=traces)
def test_vector_machine_report_parity(trace):
    assert_report_parity(SX4, trace)


@given(trace=traces)
def test_cache_machine_report_parity(trace):
    assert_report_parity(CACHE_MACHINE, trace)


@given(trace=traces, dilation=dilations)
@settings(max_examples=50)
def test_dilated_report_parity(trace, dilation):
    assert_report_parity(SX4, trace, dilation)


def assert_counter_parity(processor, trace, dilation=1.0):
    """Counter key sets match exactly; totals agree to ulp scale."""
    with profile() as compiled_prof:
        processor.execute(trace, dilation)
    oracle = oracle_counters(processor, trace, dilation)
    compiled = compiled_prof.counters.to_dict()
    assert oracle.keys() == compiled.keys()
    for component, counters in oracle.items():
        assert counters.keys() == compiled[component].keys(), component
        for name, value in counters.items():
            got = compiled[component][name]
            # fsum vs sequential accumulation: allow a sliver of drift
            # proportional to the number of contributing ops.
            assert ulps_apart(value, got) <= 64.0 * max(1, len(trace)), (
                f"{component}.{name}: oracle={value!r} compiled={got!r}"
            )


@given(trace=traces)
@settings(max_examples=50)
def test_perfmon_counter_totals_parity(trace):
    assert_counter_parity(SX4, trace)


@given(trace=traces, dilation=dilations)
@settings(max_examples=50)
def test_cache_machine_perfmon_counter_totals_parity(trace, dilation):
    assert_counter_parity(CACHE_MACHINE, trace, dilation)


@given(trace=traces)
@settings(max_examples=25)
def test_compiled_matches_trace_aggregates(trace):
    report = SX4.execute(trace)
    ops = trace.ops
    assert report.raw_flops == math.fsum(op.raw_flops for op in ops)
    assert report.flop_equivalents == math.fsum(op.flop_equivalents for op in ops)
    assert report.words_moved == trace.words_moved


# -- column operations against the row view ---------------------------------
# A trace stores its ops as columns, and ``Trace.ops`` rebuilds them as a
# read-only row view.  Scaling and joining work on the columns alone; each
# must equal the same operation done op by op on the row view, as
# ``float.hex``, so no signed zero or last bit may differ.

factors = st.floats(min_value=0.0, max_value=1e3, allow_nan=False) | st.just(0.0)


def _as_hex(value):
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, tuple):
        return tuple(_as_hex(v) for v in value)
    return value


def _rows(trace) -> list[tuple]:
    """Each op of the row view as (kind, every field), floats as hex."""
    return [
        (type(op).__name__, *(_as_hex(getattr(op, f)) for f in op.__dataclass_fields__))
        for op in trace.ops
    ]


def _hex_costs(processor, trace) -> tuple:
    report = processor.execute(trace)
    return (
        [value.hex() for value in report.op_cycles.tolist()],
        report.raw_flops.hex(),
        report.flop_equivalents.hex(),
        report.words_moved.hex(),
    )


@given(trace=traces, factor=factors)
@settings(max_examples=60)
def test_scaled_equals_scaling_each_op(trace, factor):
    by_ops = Trace([op.scaled(factor) for op in trace.ops], name=trace.name)
    scaled = trace.scaled(factor)
    assert _rows(scaled) == _rows(by_ops)
    for processor in (SX4, CACHE_MACHINE):
        assert _hex_costs(processor, scaled) == _hex_costs(processor, by_ops)


@given(first=traces, second=traces)
@settings(max_examples=60)
def test_join_equals_joining_the_ops(first, second):
    by_ops = Trace([*first.ops, *second.ops], name=first.name)
    joined = first + second
    assert _rows(joined) == _rows(by_ops)
    for processor in (SX4, CACHE_MACHINE):
        assert _hex_costs(processor, joined) == _hex_costs(processor, by_ops)


@given(trace=traces, f1=factors, f2=factors)
@settings(max_examples=40)
def test_scaled_twice_keeps_the_association(trace, f1, f2):
    twice = trace.scaled(f1).scaled(f2)
    assert [_as_hex(op.count) for op in twice.ops] == [
        _as_hex((op.count * f1) * f2) for op in trace.ops
    ]


@given(trace=traces)
@settings(max_examples=60)
def test_aggregates_equal_fsum_of_the_row_view(trace):
    ops = trace.ops
    vector = [op for op in ops if isinstance(op, VectorOp)]
    assert trace.words_moved.hex() == math.fsum(op.words_moved for op in ops).hex()
    assert trace.irregular_words.hex() == math.fsum(op.irregular_words for op in vector).hex()
    (totals,) = compile_trace(trace).totals
    assert [total.hex() for total in totals] == [
        math.fsum(getattr(op, total) for op in ops).hex()
        for total in ("raw_flops", "flop_equivalents", "words_moved")
    ]
