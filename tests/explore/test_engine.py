"""Suite-level grid costing: aggregates, chunk caching, cache-key hygiene."""

import json
import math

import numpy as np
import pytest

from repro.engine.deps import dependency_closure
from repro.engine.store import ChunkStore
from repro.explore.engine import (
    CHUNK_KEY_SEEDS,
    CHUNK_NAMESPACE,
    cost_suite_grid,
    grid_chunk_key,
    suite_trace_ids,
)
from repro.explore.sweep import ParameterSweep, explicit_axis, linear_axis
from repro.machine.grid import MachineGrid
from repro.machine.presets import canonical_machines

TRACE_SUBSET = ("hint", "radabs", "stream")


@pytest.fixture(scope="module")
def grid():
    return MachineGrid.from_processors(list(canonical_machines().values()))


@pytest.fixture(scope="module")
def sweep_grid():
    return ParameterSweep(
        "sx4",
        (linear_axis("clock.period_ns", 6.0, 12.0, 5),
         explicit_axis("vector.pipes", [4, 8, 16])),
        include_presets=True,
    ).build()


class TestAggregates:
    def test_suite_seconds_is_fsum_of_traces(self, grid):
        result = cost_suite_grid(grid, trace_ids=TRACE_SUBSET)
        for j in range(grid.n_machines):
            expected = math.fsum(result.traces[t].seconds[j] for t in TRACE_SUBSET)
            assert result.suite_seconds[j] == expected

    def test_suite_rates_from_totals(self, grid):
        result = cost_suite_grid(grid, trace_ids=TRACE_SUBSET)
        total_fe = math.fsum(result.traces[t].flop_equivalents for t in TRACE_SUBSET)
        for j in range(grid.n_machines):
            assert result.suite_mflops[j] == total_fe / result.suite_seconds[j] / 1e6

    def test_default_is_full_registry(self, grid):
        result = cost_suite_grid(grid)
        assert result.trace_ids == suite_trace_ids()
        assert len(result.trace_ids) == 16

    def test_per_machine_suite_matches_per_machine_execution(self, grid):
        from repro.analysis.traces import build_registered_trace

        result = cost_suite_grid(grid, trace_ids=TRACE_SUBSET)
        machines = list(canonical_machines().values())
        for j, processor in enumerate(machines):
            expected = math.fsum(
                processor.execute(build_registered_trace(t)).seconds
                for t in TRACE_SUBSET
            )
            assert result.suite_seconds[j] == expected

    def test_unknown_trace_rejected(self, grid):
        with pytest.raises(ValueError, match="unknown trace ids"):
            cost_suite_grid(grid, trace_ids=("hint", "bogus"))

    def test_empty_trace_list_rejected(self, grid):
        with pytest.raises(ValueError, match="at least one trace"):
            cost_suite_grid(grid, trace_ids=())

    def test_bad_chunk_size_rejected(self, grid):
        with pytest.raises(ValueError, match="chunk_machines"):
            cost_suite_grid(grid, store=None, chunk_machines=0)


class TestChunkCaching:
    def test_warm_pass_is_bit_identical(self, sweep_grid, tmp_path):
        store = ChunkStore(root=tmp_path)
        cold = cost_suite_grid(
            sweep_grid, trace_ids=TRACE_SUBSET, store=store, chunk_machines=4
        )
        warm = cost_suite_grid(
            sweep_grid, trace_ids=TRACE_SUBSET, store=store, chunk_machines=4
        )
        assert cold.chunk_hits == 0 and cold.chunk_misses > 1
        assert warm.chunk_misses == 0 and warm.chunk_hits == cold.chunk_misses
        for trace_id in TRACE_SUBSET:
            for field in ("cycles", "seconds", "mflops", "bandwidth_bytes_per_s"):
                a = getattr(cold.traces[trace_id], field)
                b = getattr(warm.traces[trace_id], field)
                assert (a == b).all()
        assert (cold.suite_seconds == warm.suite_seconds).all()
        assert (cold.suite_mflops == warm.suite_mflops).all()

    def test_chunked_equals_unchunked(self, sweep_grid, tmp_path):
        chunked = cost_suite_grid(
            sweep_grid,
            trace_ids=TRACE_SUBSET,
            store=ChunkStore(root=tmp_path),
            chunk_machines=5,
        )
        plain = cost_suite_grid(sweep_grid, trace_ids=TRACE_SUBSET)
        for trace_id in TRACE_SUBSET:
            assert (chunked.traces[trace_id].cycles == plain.traces[trace_id].cycles).all()
        assert (chunked.suite_seconds == plain.suite_seconds).all()

    def test_corrupt_chunk_is_recomputed(self, sweep_grid, tmp_path):
        store = ChunkStore(root=tmp_path)
        cold = cost_suite_grid(
            sweep_grid, trace_ids=("hint",), store=store, chunk_machines=4
        )
        victim = next(store.root.joinpath("chunks").glob("explore.*.json"))
        victim.write_text('{"not": "a chunk"}', encoding="utf-8")
        again = cost_suite_grid(
            sweep_grid, trace_ids=("hint",), store=store, chunk_machines=4
        )
        assert again.chunk_misses == 1
        assert again.chunk_hits == cold.chunk_misses - 1
        assert (again.traces["hint"].cycles == cold.traces["hint"].cycles).all()

    @pytest.mark.parametrize(
        "damage",
        [
            lambda chunk: chunk.update(traces=[]),
            lambda chunk: chunk.update(traces="nope"),
            lambda chunk: chunk["traces"].update(hint=[]),
            # as long as the chunk, so only its type is wrong
            lambda chunk: chunk["traces"]["hint"].update(cycles="x" * chunk["n_machines"]),
            lambda chunk: chunk["traces"]["hint"].pop("raw_flops"),
        ],
        ids=["traces-list", "traces-string", "entry-list", "cycles-string", "no-raw-flops"],
    )
    def test_checksummed_chunk_of_wrong_shape_is_a_miss(self, sweep_grid, tmp_path, damage):
        # The checksum is recomputed, so the store hands the payload over
        # and the sweep itself must reject its shape.
        store = ChunkStore(root=tmp_path)
        kwargs = {"trace_ids": ("hint",), "store": store, "chunk_machines": 4}
        cold = cost_suite_grid(sweep_grid, **kwargs)
        victim = store.entries()[0]
        chunk = store.get(CHUNK_NAMESPACE, victim.key)
        damage(chunk)
        store.put(CHUNK_NAMESPACE, victim.key, chunk)
        again = cost_suite_grid(sweep_grid, **kwargs)
        plain = cost_suite_grid(sweep_grid, trace_ids=("hint",))
        assert again.chunk_misses == 1
        assert np.array_equal(again.traces["hint"].cycles, plain.traces["hint"].cycles)
        assert np.array_equal(again.suite_seconds, plain.suite_seconds)
        warm = cost_suite_grid(sweep_grid, **kwargs)
        assert warm.chunk_misses == 0 and warm.chunk_hits == cold.chunk_misses

    def test_dilation_partitions_the_cache(self, sweep_grid, tmp_path):
        store = ChunkStore(root=tmp_path)
        cost_suite_grid(sweep_grid, trace_ids=("hint",), store=store)
        dilated = cost_suite_grid(
            sweep_grid, trace_ids=("hint",), store=store, memory_dilation=1.5
        )
        assert dilated.chunk_hits == 0


class TestChunkKeys:
    def test_key_depends_on_grid_values(self, grid):
        tweaked = grid.subset(np.arange(grid.n_machines))
        tweaked.period_ns[0] *= 2.0
        assert grid_chunk_key(grid, TRACE_SUBSET, 1.0) != grid_chunk_key(
            tweaked, TRACE_SUBSET, 1.0
        )

    def test_key_depends_on_traces_and_dilation(self, grid):
        base = grid_chunk_key(grid, TRACE_SUBSET, 1.0)
        assert grid_chunk_key(grid, ("hint",), 1.0) != base
        assert grid_chunk_key(grid, TRACE_SUBSET, 1.5) != base

    def test_key_depends_on_source_code(self, grid):
        key = grid_chunk_key(grid, TRACE_SUBSET, 1.0, code_digest="0" * 64)
        assert key != grid_chunk_key(grid, TRACE_SUBSET, 1.0, code_digest="1" * 64)

    @pytest.mark.parametrize(
        "module",
        [
            "repro.machine.costmodel",
            "repro.machine.processor",
            "repro.machine.vector_unit",
            "repro.machine.memory",
            "repro.machine.scalar_unit",
            "repro.machine.cache",
        ],
    )
    def test_key_closure_covers_every_cost_expression(self, module):
        # Editing a cost term must invalidate stored sweep chunks, so
        # every module holding one is in the code digest's closure.
        assert module in dependency_closure(CHUNK_KEY_SEEDS)

    def test_payloads_are_json_round_trippable(self, grid, tmp_path):
        store = ChunkStore(root=tmp_path)
        cost_suite_grid(grid, trace_ids=("hint",), store=store)
        entry = next(store.root.joinpath("chunks").glob(f"{CHUNK_NAMESPACE}.*.json"))
        payload = json.loads(entry.read_text(encoding="utf-8"))
        assert payload["namespace"] == CHUNK_NAMESPACE
        assert payload["chunk"]["n_machines"] == grid.n_machines
