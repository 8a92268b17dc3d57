"""MachineGrid: structure, materialization, and bit-exact costing parity.

The grid's contract is that it is a *faster spelling* of the per-machine
compiled path, never a different model — so the core tests here assert
``==`` on floats, not ``approx``: every registered trace, costed against
a grid holding all six canonical presets, must reproduce each machine's
compiled ``ExecutionReport`` bit-for-bit on cycles, seconds, Mflops, and
bandwidth.
"""

import numpy as np
import pytest

from repro.analysis.traces import TRACE_BUILDERS, build_registered_trace
from repro.machine.grid import MachineGrid, cost_trace_grid
from repro.machine.presets import canonical_machines, cray_ymp, sx4_processor

ALL_TRACE_IDS = tuple(TRACE_BUILDERS)

#: Every grid column but the clock: the ones that determine cycles.
CYCLE_COLUMNS = tuple(
    name for name, _ in MachineGrid.from_processors([sx4_processor()])._cycle_columns()
)


def nudge(column: np.ndarray, row: int) -> None:
    """Change one row of a grid column, whatever its dtype."""
    column[row] = ~column[row] if column.dtype == bool else column[row] + 1


@pytest.fixture(scope="module")
def machines():
    return canonical_machines()


@pytest.fixture(scope="module")
def grid(machines):
    return MachineGrid.from_processors(list(machines.values()))


class TestStructure:
    def test_names_and_shape(self, grid, machines):
        assert grid.names == tuple(machines)
        assert grid.n_machines == 6
        assert grid.period_ns.shape == (6,)
        assert grid.vector_intrinsic_rates.shape == (6, 6)

    def test_has_vector_split(self, grid, machines):
        expected = tuple(m.vector is not None for m in machines.values())
        assert tuple(grid.has_vector) == expected

    def test_subset_reorders_and_repeats(self, grid):
        sub = grid.subset(np.array([4, 4, 0]))
        assert sub.n_machines == 3
        assert sub.names == (grid.names[4], grid.names[4], grid.names[0])
        assert sub.period_ns[0] == sub.period_ns[1] == grid.period_ns[4]

    def test_concat_round_trip(self, grid):
        front = grid.subset(np.arange(3))
        back = grid.subset(np.arange(3, 6))
        glued = MachineGrid.concat([front, back])
        assert glued.names == grid.names
        assert (glued.banks == grid.banks).all()

    def test_validate_accepts_built_grid(self, grid):
        grid.validate()

    def test_validate_rejects_bad_column(self, grid):
        broken = grid.subset(np.arange(6))
        broken.pipes[2] = -1.0
        with pytest.raises(ValueError, match="pipes"):
            broken.validate()

    def test_from_processors_needs_machines(self):
        with pytest.raises(ValueError):
            MachineGrid.from_processors([])


class TestFingerprint:
    def test_stable_and_name_independent(self, grid):
        again = MachineGrid.from_processors(list(canonical_machines().values()))
        assert grid.fingerprint() == again.fingerprint()
        renamed = grid.subset(np.arange(6))
        renamed = MachineGrid(
            names=tuple(f"m{i}" for i in range(6)),
            **{k: v for k, v in renamed._columns()},
        )
        assert renamed.fingerprint() == grid.fingerprint()

    def test_sensitive_to_values(self, grid):
        tweaked = grid.subset(np.arange(6))
        tweaked.pipes[0] *= 2.0
        assert tweaked.fingerprint() != grid.fingerprint()
        # A chunk stores cycles and clock-free totals; no cycle reads the clock.
        clocked = grid.subset(np.arange(6))
        clocked.period_ns[0] *= 2.0
        assert clocked.fingerprint() == grid.fingerprint()

    @pytest.mark.parametrize("name", CYCLE_COLUMNS)
    def test_sensitive_to_every_cycle_column(self, grid, name):
        tweaked = grid.subset(np.arange(6))
        nudge(getattr(tweaked, name), 0)
        assert tweaked.fingerprint() != grid.fingerprint()

    def test_sensitive_to_order(self, grid):
        assert grid.subset(np.arange(5, -1, -1)).fingerprint() != grid.fingerprint()


class TestDistinctRows:
    def test_rows_that_differ_only_in_clock_merge(self, grid):
        repeated = grid.subset(np.array([0, 1, 0, 2, 1, 0]))
        repeated.period_ns[:] = [9.2, 8.0, 4.0, 6.0, 12.5, 16.0]
        index, inverse = repeated.distinct_rows()
        assert sorted(index.tolist()) == [0, 1, 3]
        assert index[inverse].tolist() == [0, 1, 0, 3, 1, 0]
        distinct = repeated.subset(index)
        for name, column in repeated._cycle_columns():
            assert np.array_equal(getattr(distinct, name)[inverse], column)

    def test_permuted_rows_have_the_same_distinct_rows(self, grid):
        # Sweeps that list the same machines in another axis order share chunks.
        permuted = grid.subset(np.array([3, 5, 0, 2, 4, 1]))
        assert grid.subset(grid.distinct_rows()[0]).fingerprint() == (
            permuted.subset(permuted.distinct_rows()[0]).fingerprint()
        )

    def test_canonical_presets_share_one_sx4_row(self, grid):
        # The SX-4 at 9.2 ns and at 8.0 ns differ only in clock.
        index, inverse = grid.distinct_rows()
        assert len(index) == 5
        sx4 = [j for j, name in enumerate(grid.names) if name.startswith("NEC SX-4")]
        assert len(sx4) == 2 and inverse[sx4[0]] == inverse[sx4[1]]

    @pytest.mark.parametrize("name", CYCLE_COLUMNS)
    def test_every_cycle_column_separates_rows(self, grid, name):
        pair = grid.subset(np.array([0, 0]))
        nudge(getattr(pair, name), 1)
        assert sorted(pair.distinct_rows()[0].tolist()) == [0, 1]

    def test_rows_compare_on_exact_bytes(self, grid):
        pair = grid.subset(np.array([0, 0]))
        pair.startup_cycles[:] = [0.0, -0.0]
        assert sorted(pair.distinct_rows()[0].tolist()) == [0, 1]


class TestMaterialize:
    def test_round_trips_each_preset(self, grid, machines):
        for index, (name, processor) in enumerate(machines.items()):
            rebuilt = grid.materialize(index)
            assert rebuilt.name == name
            trace = build_registered_trace("hint")
            assert rebuilt.execute(trace) == processor.execute(trace)

    def test_integral_parameters_are_ints(self, grid, machines):
        sx4 = grid.materialize(list(machines).index("NEC SX-4 (9.2 ns)"))
        assert isinstance(sx4.vector.pipes, int)
        assert isinstance(sx4.memory.banks, int)


class TestExactParity:
    """The tentpole contract: grid == per-machine execute, bit for bit."""

    @pytest.mark.parametrize("trace_id", ALL_TRACE_IDS)
    def test_all_traces_all_presets(self, grid, machines, trace_id):
        trace = build_registered_trace(trace_id)
        cost = cost_trace_grid(trace, grid)
        for j, processor in enumerate(machines.values()):
            report = processor.execute(trace)
            assert cost.cycles[j] == report.cycles
            assert cost.seconds[j] == report.seconds
            assert cost.mflops[j] == report.mflops
            assert cost.bandwidth_bytes_per_s[j] == report.bandwidth_bytes_per_s

    @pytest.mark.parametrize("dilation", [1.0, 1.37, 2.5])
    def test_dilated_parity(self, grid, machines, dilation):
        trace = build_registered_trace("radabs")
        cost = cost_trace_grid(trace, grid, memory_dilation=dilation)
        for j, processor in enumerate(machines.values()):
            report = processor.execute(trace, memory_dilation=dilation)
            assert cost.cycles[j] == report.cycles
            assert cost.seconds[j] == report.seconds

    def test_report_matches_processor_report(self, grid, machines):
        trace = build_registered_trace("linpack")
        cost = cost_trace_grid(trace, grid)
        for j, processor in enumerate(machines.values()):
            report = cost.report(j)
            direct = processor.execute(trace)
            assert report.cycles == direct.cycles
            assert report.seconds == direct.seconds
            assert report.machine == direct.machine

    def test_repeated_costing_is_identical(self, grid):
        trace = build_registered_trace("hint")
        first = cost_trace_grid(trace, grid)
        second = cost_trace_grid(trace, grid)
        assert (first.cycles == second.cycles).all()

    def test_grid_costs_own_their_cycles(self, grid):
        trace = build_registered_trace("linpack")
        first = cost_trace_grid(trace, grid)
        expected = first.cycles.tolist()
        first.cycles[:] = 0.0
        second = cost_trace_grid(trace, grid)
        assert second.cycles.tolist() == expected


class TestHomogeneousGrids:
    def test_vector_only_grid(self):
        grid = MachineGrid.from_processors([sx4_processor(), cray_ymp()])
        trace = build_registered_trace("stream")
        cost = cost_trace_grid(trace, grid)
        assert cost.cycles[0] == sx4_processor().execute(trace).cycles
        assert cost.cycles[1] == cray_ymp().execute(trace).cycles

    def test_single_machine_grid(self):
        grid = MachineGrid.from_processors([sx4_processor()])
        trace = build_registered_trace("nas-ep")
        cost = cost_trace_grid(trace, grid)
        assert cost.n_machines == 1
        assert cost.cycles[0] == sx4_processor().execute(trace).cycles
