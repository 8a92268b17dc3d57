"""Property-based grid parity: random machines, random traces, exact equality.

Two directions of randomness pin the grid down where example tests
cannot:

* a random *grid point* (random clock/pipes/banks/cache geometry around
  the calibrated presets) must cost every trace bit-identically to
  building that machine as a :class:`Processor` and executing it —
  the grid is the same model over any parameters, not
  just the six the presets happen to use;
* a random *trace* against the canonical grid must match per-machine
  execution — the op side of the broadcast is as arbitrary as the
  machine side.

A smaller sample additionally compares the grid with the per-op oracle
directly (execute==oracle is already pinned elsewhere; the grid and
``execute`` share one columnar model, so the oracle is the independent
side).
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.traces import build_registered_trace
from repro.machine.grid import MachineGrid, cost_trace_grid
from repro.machine.operations import INTRINSICS, ScalarOp, Trace, VectorOp
from repro.machine.presets import canonical_machines, sun_sparc20, sx4_processor

CANONICAL = list(canonical_machines().values())

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


@st.composite
def grid_points(draw):
    """A random machine as (base preset index, column overrides)."""
    vector = draw(st.booleans())
    overrides = {"period_ns": draw(st.floats(min_value=0.5, max_value=50.0))}
    if vector:
        overrides.update(
            pipes=float(draw(st.integers(min_value=1, max_value=32))),
            concurrent_sets=float(draw(st.integers(min_value=1, max_value=4))),
            startup_cycles=draw(st.floats(min_value=0.0, max_value=200.0)),
            register_length=float(draw(st.integers(min_value=8, max_value=512))),
            stripmine_cycles=draw(st.floats(min_value=0.0, max_value=50.0)),
            banks=draw(st.integers(min_value=1, max_value=4096)),
            bank_busy_cycles=draw(st.floats(min_value=0.25, max_value=16.0)),
            port_words_per_cycle=draw(st.floats(min_value=0.5, max_value=32.0)),
        )
    else:
        overrides.update(
            issue_width=draw(st.floats(min_value=0.5, max_value=8.0)),
            flops_per_cycle=draw(st.floats(min_value=0.25, max_value=8.0)),
            cache_size_bytes=draw(st.integers(min_value=1024, max_value=1 << 24)),
            cache_line_bytes=8 * draw(st.integers(min_value=1, max_value=64)),
            cache_hit_cycles_per_word=draw(st.floats(min_value=0.25, max_value=8.0)),
            cache_mem_words_per_cycle=draw(st.floats(min_value=0.1, max_value=8.0)),
        )
    return vector, overrides


def build_point_grid(vector: bool, overrides: dict) -> MachineGrid:
    base = sx4_processor() if vector else sun_sparc20()
    grid = MachineGrid.from_processors([base])
    for column, value in overrides.items():
        array = getattr(grid, column)
        array[0] = value if array.dtype != np.int64 else int(value)
    grid.validate()
    return grid


@given(point=grid_points(), trace=traces)
@settings(max_examples=40, deadline=None)
def test_random_grid_point_matches_direct_processor(point, trace):
    vector, overrides = point
    grid = build_point_grid(vector, overrides)
    cost = cost_trace_grid(trace, grid)
    processor = grid.materialize(0)
    report = processor.execute(trace)
    assert cost.cycles[0] == report.cycles
    assert cost.seconds[0] == report.seconds
    assert cost.mflops[0] == report.mflops
    assert cost.bandwidth_bytes_per_s[0] == report.bandwidth_bytes_per_s


@given(point=grid_points())
@settings(max_examples=10, deadline=None)
def test_random_grid_point_chains_to_legacy(point):
    vector, overrides = point
    grid = build_point_grid(vector, overrides)
    trace = build_registered_trace("hint")
    cost = cost_trace_grid(trace, grid)
    processor = grid.materialize(0)
    oracle = math.fsum(processor.per_op_cycles(trace))
    assert cost.cycles[0] == oracle
    assert cost.seconds[0] == processor.clock.seconds(oracle)


@given(trace=traces, dilation=st.floats(min_value=1.0, max_value=4.0, allow_nan=False))
@settings(max_examples=25, deadline=None)
def test_random_trace_matches_per_machine_execution(trace, dilation):
    grid = MachineGrid.from_processors(CANONICAL)
    cost = cost_trace_grid(trace, grid, memory_dilation=dilation)
    for j, processor in enumerate(CANONICAL):
        report = processor.execute(trace, memory_dilation=dilation)
        assert cost.cycles[j] == report.cycles
        assert cost.mflops[j] == report.mflops
