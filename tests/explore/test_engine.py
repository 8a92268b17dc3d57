"""Suite-level grid costing: aggregates, chunk caching, cache-key hygiene."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.traces import build_registered_trace
from repro.engine.deps import dependency_closure
from repro.engine.store import ChunkStore
from repro.explore.engine import (
    CHUNK_KEY_SEEDS,
    CHUNK_NAMESPACE,
    cost_suite_grid,
    grid_chunk_key,
    suite_trace_ids,
)
from repro.explore import engine
from repro.explore.sweep import ParameterSweep, explicit_axis, linear_axis, log_axis
from repro.machine.grid import MachineGrid
from repro.machine.presets import canonical_machines
from repro.perfmon.collector import profile

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
            lambda chunk: chunk["traces"]["hint"].pop("trace_name"),
            lambda chunk: chunk["traces"]["hint"].update(trace_name=7),
        ],
        ids=["traces-list", "traces-string", "entry-list", "cycles-string", "no-raw-flops",
             "no-trace-name", "trace-name-int"],
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


TRACE_FIELDS = ("cycles", "seconds", "mflops", "bandwidth_bytes_per_s")
TOTAL_FIELDS = ("trace_name", "raw_flops", "flop_equivalents", "words_moved")
SUITE_FIELDS = ("suite_seconds", "suite_mflops", "suite_bandwidth_bytes_per_s")


def assert_rows_match_alone(grid, result, trace_ids, dilation):
    """Every field of every row equals that row costed on a one-row grid."""
    assert result.machine_names == grid.names
    for j in range(grid.n_machines):
        alone = cost_suite_grid(grid.subset([j]), trace_ids=trace_ids, memory_dilation=dilation)
        for name in SUITE_FIELDS:
            assert getattr(result, name)[j] == getattr(alone, name)[0], (j, name)
        for trace_id in trace_ids:
            ours, theirs = result.traces[trace_id], alone.traces[trace_id]
            assert ours.machine_names == grid.names
            for name in TRACE_FIELDS:
                assert getattr(ours, name)[j] == getattr(theirs, name)[0], (j, trace_id, name)
                assert getattr(ours, name).dtype == np.float64
            for name in TOTAL_FIELDS:
                assert getattr(ours, name) == getattr(theirs, name)


class TestDistinctRowCosting:
    """Rows that differ only in clock are costed once, then re-clocked."""

    @pytest.fixture(scope="class")
    def repeated_grid(self, grid):
        rows = grid.subset(np.array([0, 3, 0, 4, 3, 0, 5, 4]))
        rows.period_ns[:] = [9.2, 4.0, 8.0, 16.0, 6.5, 9.2, 3.25, 11.0]
        return rows

    @pytest.mark.parametrize("dilation", [1.0, 1.5])
    @pytest.mark.parametrize("with_store", [False, True], ids=["no-store", "store"])
    def test_each_row_equals_the_row_costed_alone(
        self, repeated_grid, tmp_path, dilation, with_store
    ):
        store = ChunkStore(root=tmp_path) if with_store else None
        for _ in range(2 if with_store else 1):  # cold, then warm
            result = cost_suite_grid(
                repeated_grid, trace_ids=TRACE_SUBSET, memory_dilation=dilation,
                store=store, chunk_machines=2,
            )
            # SPARC20, Y-MP and SX-4: both SX-4 presets are one row re-clocked
            assert result.distinct_machines == 3
            assert_rows_match_alone(repeated_grid, result, TRACE_SUBSET, dilation)
        if with_store:
            assert (result.chunk_hits, result.chunk_misses) == (2, 0)

    @pytest.mark.parametrize("reordered", [False, True], ids=["same-order", "reordered"])
    def test_new_clock_axis_is_all_chunk_hits(self, tmp_path, reordered):
        def sweep(start, stop, steps, clock_last=False):
            axes = (linear_axis("clock.period_ns", start, stop, steps),
                    linear_axis("vector.pipes", 2, 16, 8),
                    log_axis("memory.banks", 128, 2048, 5))
            return ParameterSweep(
                "sx4", axes[1:] + axes[:1] if clock_last else axes, include_presets=True
            ).build()

        store = ChunkStore(root=tmp_path)
        filled = cost_suite_grid(sweep(4, 16, 25), trace_ids=("hint",), store=store)
        assert filled.distinct_machines == 44 and filled.chunk_misses == 1
        reclocked = sweep(5, 15, 7, clock_last=reordered)
        warm = cost_suite_grid(reclocked, trace_ids=("hint",), store=store)
        assert (warm.chunk_hits, warm.chunk_misses) == (filled.chunk_misses, 0)
        plain = cost_suite_grid(reclocked, trace_ids=("hint",))
        for name in TRACE_FIELDS:
            assert np.array_equal(getattr(warm.traces["hint"], name),
                                  getattr(plain.traces["hint"], name))
        assert np.array_equal(warm.suite_seconds, plain.suite_seconds)

    def test_warm_sweep_builds_no_traces(self, sweep_grid, tmp_path, monkeypatch):
        store = ChunkStore(root=tmp_path)
        cold = cost_suite_grid(sweep_grid, trace_ids=TRACE_SUBSET, store=store)

        def refuse(trace_id):
            raise AssertionError(f"a warm sweep built {trace_id!r}")

        monkeypatch.setattr(engine, "build_registered_trace", refuse)
        warm = cost_suite_grid(sweep_grid, trace_ids=TRACE_SUBSET, store=store)
        assert warm.chunk_misses == 0
        for trace_id in TRACE_SUBSET:
            assert warm.traces[trace_id].trace_name == cold.traces[trace_id].trace_name
        assert np.array_equal(warm.suite_seconds, cold.suite_seconds)

    def test_counter_and_span_record_distinct_machines(self, sweep_grid):
        with profile() as prof:
            result = cost_suite_grid(sweep_grid, trace_ids=("hint",))
        # 6 presets + 5 clocks x 3 pipe counts: 5 distinct preset rows, and
        # the 4- and 16-pipe SX-4 (the 8-pipe rows are the preset re-clocked)
        assert result.distinct_machines == 7
        assert prof.counters.get("explore", "machines") == sweep_grid.n_machines
        assert prof.counters.get("explore", "distinct_machines") == 7
        (span,) = [s for s in prof.spans if s.name == "explore:cost_suite_grid"]
        assert span.attrs["machines"] == sweep_grid.n_machines
        assert span.attrs["distinct_machines"] == 7


@st.composite
def reclocked_presets(draw):
    """Canonical-preset rows, repeated, each at a random clock."""
    rows = draw(st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=8))
    clocks = draw(st.lists(
        st.floats(min_value=0.5, max_value=50.0), min_size=len(rows), max_size=len(rows)
    ))
    return rows, clocks


@given(drawn=reclocked_presets(), dilation=st.sampled_from([1.0, 1.5]))
@settings(max_examples=15, deadline=None)
def test_reclocked_presets_equal_each_row_alone(drawn, dilation):
    rows, clocks = drawn
    grid = MachineGrid.from_processors(list(canonical_machines().values())).subset(rows)
    grid.period_ns[:] = clocks
    result = cost_suite_grid(grid, trace_ids=TRACE_SUBSET, memory_dilation=dilation)
    assert result.distinct_machines == len(grid.distinct_rows()[0])
    assert_rows_match_alone(grid, result, TRACE_SUBSET, dilation)


class TestChunkKeys:
    def test_key_depends_on_grid_values(self, grid):
        tweaked = grid.subset(np.arange(grid.n_machines))
        tweaked.pipes[0] *= 2.0
        assert grid_chunk_key(grid, TRACE_SUBSET, 1.0) != grid_chunk_key(
            tweaked, TRACE_SUBSET, 1.0
        )
        clocked = grid.subset(np.arange(grid.n_machines))
        clocked.period_ns[0] *= 2.0
        assert grid_chunk_key(grid, TRACE_SUBSET, 1.0) == grid_chunk_key(
            clocked, TRACE_SUBSET, 1.0
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
        # Six presets, five distinct rows: the two SX-4 presets (9.2 and
        # 8.0 ns) differ only in clock.
        assert payload["chunk"]["n_machines"] == 5
        trace_name = payload["chunk"]["traces"]["hint"]["trace_name"]
        assert trace_name == build_registered_trace("hint").name
