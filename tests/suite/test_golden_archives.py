"""Golden archives: every experiment's bytes and counters, absolutely.

Each of the experiments in ``EXPERIMENTS`` is built inside a fresh
:func:`repro.perfmon.collector.profile`, and ``golden_archives.json``
holds, per experiment:

* ``bytes_sha256`` — the sha256 of the result's ``canonical_bytes``,
  the form the engine stores and compares;
* ``counters_sha256`` — the sha256 of the counters the profile
  recorded, as canonical JSON with every value a ``float.hex`` string
  and components and counter names sorted.

Cycle and counter goldens (``tests/machine``) pin each trace's costing;
this file pins what the builders make of it, so a change to how a
builder prices its traces (which CPUs share a trace, how a job is
copied) is caught even where every per-trace cost still matches.

An experiment whose bytes carry host arithmetic is listed in
``HOST_DEPENDENT`` with the reason, and pins its check verdicts in place
of its bytes; its counters stay pinned.

An intended change regenerates the file and arrives as a reviewed
diff::

    PYTHONPATH=src python tests/suite/test_golden_archives.py
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.engine.store import canonical_bytes
from repro.perfmon.collector import profile
from repro.suite.experiments import EXPERIMENTS

GOLDEN = Path(__file__).with_name("golden_archives.json")

#: Experiments whose bytes depend on the host, each with the reason.
HOST_DEPENDENT = {
    "sec4.1": (
        "its ELEFUNT rows report the host NumPy's measured ULP errors, which "
        "depend on the SIMD code path NumPy dispatches to: with "
        "NPY_DISABLE_CPU_FEATURES='AVX512_SPR AVX512_ICL X86_V4' the same "
        "host writes different bytes (sin's error changes) and the same "
        "check verdicts"
    ),
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def counters_digest(counters: dict) -> str:
    """sha256 of a profile's counters as sorted, ``float.hex`` JSON."""
    canonical = {
        component: {name: float(value).hex() for name, value in bucket.items()}
        for component, bucket in counters.items()
    }
    return _sha256(json.dumps(canonical, sort_keys=True).encode("utf-8"))


def golden_entry(exp_id: str) -> dict:
    """Build one experiment under a profile and digest what it made."""
    with profile() as prof:
        experiment = EXPERIMENTS[exp_id]()
    entry = {"counters_sha256": counters_digest(prof.counters.to_dict())}
    if exp_id in HOST_DEPENDENT:
        entry["verdicts"] = [[c.description, c.passed] for c in experiment.checks]
    else:
        entry["bytes_sha256"] = _sha256(canonical_bytes(experiment))
    return entry


def compute_golden() -> dict:
    return {
        "host_dependent": dict(HOST_DEPENDENT),
        "experiments": {exp_id: golden_entry(exp_id) for exp_id in EXPERIMENTS},
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_every_experiment_is_pinned(golden):
    assert list(golden["experiments"]) == list(EXPERIMENTS)
    assert golden["host_dependent"] == HOST_DEPENDENT


@pytest.mark.parametrize("exp_id", list(EXPERIMENTS))
def test_experiment_matches_golden(golden, exp_id):
    assert golden_entry(exp_id) == golden["experiments"][exp_id]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(compute_golden(), indent=1) + "\n")
    print(f"wrote {GOLDEN}")
