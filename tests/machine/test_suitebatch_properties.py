"""Property-based parity: stacked suite grid costing vs per-trace execute.

The machine grid's stacked pass promises *bit* parity for arbitrary
suites, not just the 16 registered traces — any multiset of traces
stacked in any order must cost, trace by trace, to the same doubles
``Processor.execute`` produces for each trace alone.  Hypothesis
explores both faces: random *subsets/permutations of the registered
suite* (the shape sweeps actually stack) and fully random synthetic
traces (the shape that would expose a kernel that stopped being
elementwise).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.traces import TRACE_BUILDERS, build_registered_trace
from repro.machine.grid import MachineGrid, cost_suite_trace_grid
from repro.machine.operations import INTRINSICS, ScalarOp, Trace, VectorOp
from repro.machine.presets import sx4_processor, table1_machines
from repro.machine.suitebatch import SuiteColumns

SX4 = sx4_processor()
#: A Table 1 machine without a vector unit: vector ops cost through the
#: scalar/cache model, the other half of the columnar model.
CACHE_MACHINE = next(m for m in table1_machines().values() if m.vector is None)

ALL_TRACE_IDS = tuple(TRACE_BUILDERS)

#: Registered traces are built once and reused across examples.
REGISTERED = {tid: build_registered_trace(tid) for tid in ALL_TRACE_IDS}

registered_subsets = st.lists(
    st.sampled_from(ALL_TRACE_IDS), min_size=1, max_size=6, unique=True
)

dilations = st.floats(min_value=1.0, max_value=4.0, allow_nan=False)

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


random_traces = st.lists(
    st.lists(vector_ops | scalar_ops(), max_size=6).map(
        lambda ops: Trace(ops, name="rand")
    ),
    min_size=1,
    max_size=5,
)


def stacked_costs(processor, pairs, dilation=1.0):
    """Per-trace costs of one stacked grid pass on a one-machine grid."""
    grid = MachineGrid.from_processors([processor])
    return cost_suite_trace_grid(SuiteColumns.from_traces(pairs), grid, dilation)


def assert_suite_parity(processor, pairs, dilation=1.0):
    """Stacked costing == per-trace execute, field for field."""
    costs = stacked_costs(processor, pairs, dilation)
    assert len(costs) == len(pairs)
    for cost, (_, trace) in zip(costs, pairs):
        expected = processor.execute(trace, dilation)
        assert cost.trace_name == expected.trace_name
        assert cost.cycles[0] == expected.cycles
        assert cost.seconds[0] == expected.seconds
        assert cost.raw_flops == expected.raw_flops
        assert cost.flop_equivalents == expected.flop_equivalents
        assert cost.words_moved == expected.words_moved
        assert cost.mflops[0] == expected.mflops
        assert cost.bandwidth_bytes_per_s[0] == expected.bandwidth_bytes_per_s


@given(subset=registered_subsets, dilation=dilations)
@settings(max_examples=50, deadline=None)
def test_registered_subsets_cost_bit_identically(subset, dilation):
    pairs = [(tid, REGISTERED[tid]) for tid in subset]
    assert_suite_parity(SX4, pairs, dilation)


@given(subset=registered_subsets)
@settings(max_examples=25, deadline=None)
def test_registered_subsets_on_a_cache_machine(subset):
    pairs = [(tid, REGISTERED[tid]) for tid in subset]
    assert_suite_parity(CACHE_MACHINE, pairs)


@given(traces=random_traces, dilation=dilations)
@settings(max_examples=50, deadline=None)
def test_random_synthetic_suites_cost_bit_identically(traces, dilation):
    pairs = [(f"t{i}", trace) for i, trace in enumerate(traces)]
    assert_suite_parity(SX4, pairs, dilation)


@given(subset=registered_subsets)
@settings(max_examples=25, deadline=None)
def test_stack_order_does_not_change_any_report(subset):
    """Reversing the stacking order leaves every trace's cost equal:
    segment reductions are exactly rounded, so neighbours can't leak."""
    pairs = [(tid, REGISTERED[tid]) for tid in subset]
    forward = {c.trace_name: c for c in stacked_costs(SX4, pairs)}
    backward = {c.trace_name: c for c in stacked_costs(SX4, pairs[::-1])}
    assert forward.keys() == backward.keys()
    for name, cost in forward.items():
        assert cost.cycles.tolist() == backward[name].cycles.tolist()
        assert cost.seconds.tolist() == backward[name].seconds.tolist()
