"""Golden costing pin: absolute cycles and seconds, not just parity.

Every registered trace is costed on every canonical preset at two
memory dilations, and the ``cycles``/``seconds`` doubles are compared,
as ``float.hex`` strings, against ``golden_costing.json``.  Parity
tests only check that two costing paths agree with each other; this
file catches a model change that moves both of them together.

An intended model change regenerates the file and arrives as a
reviewed diff::

    PYTHONPATH=src python tests/machine/test_golden_costing.py
"""

import json
from pathlib import Path

import pytest

from repro.analysis.traces import TRACE_BUILDERS, build_registered_trace
from repro.explore.engine import cost_suite_grid
from repro.machine.grid import MachineGrid
from repro.machine.presets import CANONICAL_PRESET_IDS, preset_processor

GOLDEN = Path(__file__).with_name("golden_costing.json")

DILATIONS = (1.0, 1.5)


def _entry(cycles: float, seconds: float) -> dict[str, str]:
    return {"cycles": float(cycles).hex(), "seconds": float(seconds).hex()}


def compute_golden() -> dict:
    """trace id -> preset id -> dilation -> hex cycles and seconds."""
    processors = {preset_id: preset_processor(preset_id) for preset_id in CANONICAL_PRESET_IDS}
    costs: dict = {}
    for trace_id in TRACE_BUILDERS:
        trace = build_registered_trace(trace_id)
        per_preset = costs[trace_id] = {}
        for preset_id, processor in processors.items():
            per_dilation = per_preset[preset_id] = {}
            for dilation in DILATIONS:
                report = processor.execute(trace, dilation)
                per_dilation[repr(dilation)] = _entry(report.cycles, report.seconds)
    return {
        "presets": list(CANONICAL_PRESET_IDS),
        "dilations": [repr(d) for d in DILATIONS],
        "costs": costs,
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_processor_execute_matches_golden(golden):
    assert compute_golden() == golden


@pytest.mark.parametrize("dilation", DILATIONS)
def test_cost_suite_grid_matches_golden(golden, dilation):
    grid = MachineGrid.from_processors(
        [preset_processor(preset_id) for preset_id in CANONICAL_PRESET_IDS]
    )
    result = cost_suite_grid(grid, memory_dilation=dilation)
    assert result.trace_ids == tuple(TRACE_BUILDERS)
    for trace_id, cost in result.traces.items():
        for row, preset_id in enumerate(CANONICAL_PRESET_IDS):
            expected = golden["costs"][trace_id][preset_id][repr(dilation)]
            assert _entry(cost.cycles[row], cost.seconds[row]) == expected, (
                trace_id, preset_id, dilation
            )


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(compute_golden(), indent=1) + "\n")
    print(f"wrote {GOLDEN}")
