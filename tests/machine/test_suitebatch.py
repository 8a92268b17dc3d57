"""Suite stacking: structure and bit-exact parity of the stacked grid pass.

A :class:`SuiteColumns` stack holds one lowering of the suite, which the
machine grid costs in one ``(n_ops, n_machines)`` pass.  It is a *faster
spelling* of the same model, never a different one, so the core tests
assert exact equality between every stacked (trace, machine) cost and
``Processor.execute`` on that trace alone — across every registered
trace, every canonical preset and multiple dilations.
"""

import dataclasses

import numpy as np
import pytest

from repro.analysis.traces import TRACE_BUILDERS, build_registered_trace
from repro.machine.compiled import compile_trace
from repro.machine.grid import MachineGrid, cost_suite_trace_grid, cost_trace_grid
from repro.machine.presets import canonical_machines, sx4_processor
from repro.machine.suitebatch import SuiteColumns
from repro.perfmon.collector import profile

ALL_TRACE_IDS = tuple(TRACE_BUILDERS)

DILATIONS = (1.0, 2.0)


@pytest.fixture(scope="module")
def machines():
    return canonical_machines()


@pytest.fixture(scope="module")
def suite_pairs():
    return [(tid, build_registered_trace(tid)) for tid in ALL_TRACE_IDS]


@pytest.fixture(scope="module")
def stacked(suite_pairs):
    return SuiteColumns.from_traces(suite_pairs)


def assert_costs_match_execute(costs, pairs, processors, dilation=1.0):
    """Each stacked (trace, machine) cost == that machine's execute."""
    assert len(costs) == len(pairs)
    for cost, (_, trace) in zip(costs, pairs):
        for j, processor in enumerate(processors):
            report = processor.execute(trace, dilation)
            assert cost.trace_name == report.trace_name
            assert cost.cycles[j] == report.cycles
            assert cost.seconds[j] == report.seconds
            assert cost.mflops[j] == report.mflops
            assert cost.bandwidth_bytes_per_s[j] == report.bandwidth_bytes_per_s
        assert cost.raw_flops == report.raw_flops
        assert cost.flop_equivalents == report.flop_equivalents
        assert cost.words_moved == report.words_moved


class TestStructure:
    def test_stack_shape(self, stacked, suite_pairs):
        assert stacked.n_traces == len(ALL_TRACE_IDS)
        assert stacked.trace_ids == ALL_TRACE_IDS
        compiled = stacked.compiled
        assert compiled.trace_names == tuple(trace.name for _, trace in suite_pairs)
        total_ops = sum(len(trace.ops) for _, trace in suite_pairs)
        assert compiled.vector.n + compiled.scalar.n == total_ops
        assert compiled.vector_offsets[0] == 0
        assert compiled.vector_offsets[-1] == compiled.vector.n
        assert compiled.scalar_offsets[-1] == compiled.scalar.n

    def test_trace_columns_map_to_their_segment(self, stacked, suite_pairs):
        # Each trace's segment spans exactly its own vector/scalar rows.
        vo, so = stacked.compiled.vector_offsets, stacked.compiled.scalar_offsets
        for i, (_, trace) in enumerate(suite_pairs):
            solo = compile_trace(trace)
            assert vo[i + 1] - vo[i] == solo.vector.n
            assert so[i + 1] - so[i] == solo.scalar.n

    def test_rows_bit_identical_to_solo_compile(self, stacked, suite_pairs):
        compiled = stacked.compiled
        vo, so, oo = compiled.vector_offsets, compiled.scalar_offsets, compiled.op_offsets
        for i, (_, trace) in enumerate(suite_pairs):
            solo = compile_trace(trace)
            vector = slice(vo[i], vo[i + 1])
            scalar = slice(so[i], so[i + 1])
            assert (compiled.vector.index[vector] - oo[i]).tolist() == solo.vector.index.tolist()
            assert compiled.vector.length[vector].tolist() == solo.vector.length.tolist()
            assert (
                compiled.vector.raw_flops[vector].tolist() == solo.vector.raw_flops.tolist()
            )
            assert (
                compiled.scalar.instructions[scalar].tolist()
                == solo.scalar.instructions.tolist()
            )


class TestExactParity:
    def test_all_traces_all_machines_all_dilations(
        self, stacked, suite_pairs, machines
    ):
        """16 traces x 6 presets x 2 dilations: stacked == execute, exactly."""
        processors = list(machines.values())
        grid = MachineGrid.from_processors(processors)
        for dilation in DILATIONS:
            costs = cost_suite_trace_grid(stacked.compiled, grid, dilation)
            assert_costs_match_execute(costs, suite_pairs, processors, dilation)

    def test_derived_rates_match_exactly(self, stacked, suite_pairs, machines):
        processor = machines["Cray J90"]
        costs = cost_suite_trace_grid(
            stacked.compiled, MachineGrid.from_processors([processor])
        )
        for cost, (_, trace) in zip(costs, suite_pairs):
            expected = processor.execute(trace)
            assert cost.mflops[0] == expected.mflops
            assert cost.bandwidth_bytes_per_s[0] == expected.bandwidth_bytes_per_s

    def test_subset_suite_parity(self, machines):
        pairs = [(tid, build_registered_trace(tid)) for tid in ("linpack", "xpose", "ia")]
        processor = machines["NEC SX-4 (9.2 ns)"]
        costs = cost_suite_trace_grid(
            SuiteColumns.from_traces(pairs).compiled, MachineGrid.from_processors([processor])
        )
        assert_costs_match_execute(costs, pairs, [processor])

    def test_empty_suite(self):
        suite = SuiteColumns.from_traces([])
        assert suite.n_traces == 0
        assert suite.compiled.vector.n == suite.compiled.scalar.n == 0
        grid = MachineGrid.from_processors([sx4_processor()])
        assert cost_suite_trace_grid(suite.compiled, grid) == []


class TestPlainValues:
    def test_stack_is_frozen(self, stacked):
        with pytest.raises(dataclasses.FrozenInstanceError):
            stacked.trace_ids = ()

    def test_costs_own_their_cycles(self, stacked):
        grid = MachineGrid.from_processors([sx4_processor()])
        first = cost_suite_trace_grid(stacked.compiled, grid, 1.5)
        expected = [cost.cycles.tolist() for cost in first]
        for cost in first:
            cost.cycles[:] = 0.0
        second = cost_suite_trace_grid(stacked.compiled, grid, 1.5)
        assert [cost.cycles.tolist() for cost in second] == expected


class TestCounters:
    def test_perfmon_counts_machine_traces(self):
        pairs = [(tid, build_registered_trace(tid)) for tid in ("copy", "stream")]
        compiled = SuiteColumns.from_traces(pairs).compiled
        grid = MachineGrid.from_processors([sx4_processor()])
        with profile() as prof:
            cost_suite_trace_grid(compiled, grid)
            cost_suite_trace_grid(compiled, grid)
        counters = prof.counters.to_dict()["grid"]
        assert counters["machine_traces"] == 4.0


class TestSegmentReductions:
    def test_trace_totals_match_compiled_totals(self, stacked, suite_pairs):
        for i, (_, trace) in enumerate(suite_pairs):
            assert stacked.compiled.totals[i] == compile_trace(trace).totals[0]


class TestGridFusion:
    def test_suite_grid_matches_per_trace_grid(self, stacked, suite_pairs, machines):
        grid = MachineGrid.from_processors(list(machines.values()))
        fused = cost_suite_trace_grid(stacked.compiled, grid)
        assert len(fused) == len(suite_pairs)
        for cost, (_, trace) in zip(fused, suite_pairs):
            solo = cost_trace_grid(trace, grid)
            assert cost.trace_name == solo.trace_name
            assert cost.machine_names == solo.machine_names
            assert np.asarray(cost.cycles).tolist() == np.asarray(solo.cycles).tolist()
            assert (
                np.asarray(cost.seconds).tolist()
                == np.asarray(solo.seconds).tolist()
            )
            assert np.asarray(cost.mflops).tolist() == np.asarray(solo.mflops).tolist()
