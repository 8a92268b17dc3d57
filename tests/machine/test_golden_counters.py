"""Golden perfmon counters: absolute totals, not just parity.

Every registered trace is costed on every canonical preset at memory
dilation 1.5 inside a fresh profile, and every counter total the
columnar path records is compared, as a ``float.hex`` string, against
``golden_counters.json``.  The oracle comparison in
``test_compiled.py`` only checks that the column reductions agree with
per-op recording; this file catches a change that moves both.

An intended model change regenerates the file and arrives as a
reviewed diff::

    PYTHONPATH=src python tests/machine/test_golden_counters.py
"""

import json
from pathlib import Path

import pytest

from repro.analysis.traces import TRACE_BUILDERS, build_registered_trace
from repro.machine.presets import CANONICAL_PRESET_IDS, preset_processor
from repro.perfmon.collector import profile

GOLDEN = Path(__file__).with_name("golden_counters.json")

DILATION = 1.5


def compute_golden() -> dict:
    """trace id -> preset id -> component -> counter -> hex total."""
    processors = {preset_id: preset_processor(preset_id) for preset_id in CANONICAL_PRESET_IDS}
    counters: dict = {}
    for trace_id in TRACE_BUILDERS:
        trace = build_registered_trace(trace_id)
        per_preset = counters[trace_id] = {}
        for preset_id, processor in processors.items():
            with profile() as prof:
                processor.execute(trace, DILATION)
            per_preset[preset_id] = {
                component: {name: float(value).hex() for name, value in bucket.items()}
                for component, bucket in prof.counters.to_dict().items()
            }
    return {
        "presets": list(CANONICAL_PRESET_IDS),
        "dilation": repr(DILATION),
        "counters": counters,
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_counter_totals_match_golden(golden):
    computed = compute_golden()
    assert computed.keys() == golden.keys()
    assert computed["presets"] == golden["presets"]
    assert computed["dilation"] == golden["dilation"]
    for trace_id, per_preset in golden["counters"].items():
        for preset_id, expected in per_preset.items():
            assert computed["counters"][trace_id][preset_id] == expected, (
                trace_id, preset_id
            )
    assert computed["counters"].keys() == golden["counters"].keys()


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(compute_golden(), indent=1) + "\n")
    print(f"wrote {GOLDEN}")
