"""Golden sweep pin: the 1006-machine SX-4 sweep's absolute results.

The SX-4 sweep with the six presets embedded (clock 4-16 ns in 25
steps x vector pipes 2-16 in 8 x memory banks 128-2048 in 5 log steps)
is costed three ways: without a chunk store, cold against a
``ChunkStore`` in chunks of 8 distinct machines, and warm against that
same store.  Each way's ``suite_seconds``, ``suite_mflops``,
``suite_bandwidth_bytes_per_s`` and every trace's ``cycles`` must hash,
as ``float.hex`` strings, to the sha256 digests in ``golden_sweep.json``.
Parity tests only check that the costing paths agree with each other;
this file catches a change that moves all of them together.

An intended model change regenerates the file and arrives as a
reviewed diff::

    PYTHONPATH=src python tests/explore/test_golden_sweep.py
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.engine.store import ChunkStore
from repro.explore.engine import cost_suite_grid
from repro.explore.sweep import ParameterSweep, linear_axis, log_axis

GOLDEN = Path(__file__).with_name("golden_sweep.json")

CHUNK_MACHINES = 8


def sweep_grid():
    return ParameterSweep(
        anchor="sx4",
        axes=(
            linear_axis("clock.period_ns", 4.0, 16.0, 25),
            linear_axis("vector.pipes", 2, 16, 8),
            log_axis("memory.banks", 128, 2048, 5),
        ),
        include_presets=True,
    ).build()


def _digest(values) -> str:
    """sha256 of the values' ``float.hex`` strings, one per line."""
    text = "\n".join(float(value).hex() for value in values)
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def digests(result) -> dict:
    """The golden file's entries for one costed sweep."""
    return {
        "machines": result.n_machines,
        "distinct_machines": result.distinct_machines,
        "suite_seconds": _digest(result.suite_seconds),
        "suite_mflops": _digest(result.suite_mflops),
        "suite_bandwidth_bytes_per_s": _digest(result.suite_bandwidth_bytes_per_s),
        "cycles": {
            trace_id: _digest(cost.cycles) for trace_id, cost in result.traces.items()
        },
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def store(tmp_path_factory) -> ChunkStore:
    return ChunkStore(tmp_path_factory.mktemp("golden-sweep-chunks"))


def test_without_a_store_matches_golden(golden):
    assert digests(cost_suite_grid(sweep_grid())) == golden


def test_cold_then_warm_chunk_store_match_golden(golden, store):
    cold = cost_suite_grid(sweep_grid(), store=store, chunk_machines=CHUNK_MACHINES)
    assert cold.chunk_hits == 0 and cold.chunk_misses > 1
    assert digests(cold) == golden
    warm = cost_suite_grid(sweep_grid(), store=store, chunk_machines=CHUNK_MACHINES)
    assert (warm.chunk_hits, warm.chunk_misses) == (cold.chunk_misses, 0)
    assert digests(warm) == golden


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(digests(cost_suite_grid(sweep_grid())), indent=1) + "\n")
    print(f"wrote {GOLDEN}")
