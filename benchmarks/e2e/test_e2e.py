"""Smoke test of the end-to-end benchmark: every workload at tiny op counts.

    PYTHONPATH=src python -m pytest benchmarks/e2e

Each workload runs one warm-up round and one measured round
(``--seconds 0``), untraced once (with its five set-up probes) and
traced twice, through the real command line.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

#: Counts that follow the client's poll timing, not the op mix.
POLL_DEPENDENT = {
    "service.http.handle.calls",
    "service.status.calls",
    "service.spool.get.calls",
    "service.status_polls_per_job",
}


def _run(workload: str, trace: int, out: Path) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run_e2e.py"), "--workload", workload, "--seed", "7",
         "--seconds", "0", "--trace", str(trace), "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-4000:]
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    return last, json.loads(out.read_text())["workloads"][workload]["report"]


@pytest.fixture(scope="module")
def untraced(tmp_path_factory) -> dict:
    out = tmp_path_factory.mktemp("untraced")
    return {w: _run(w, 0, out / f"{w}.json") for w in WORKLOADS}


@pytest.fixture(scope="module")
def traced(tmp_path_factory) -> dict:
    out = tmp_path_factory.mktemp("traced")
    return {w: [_run(w, 1, out / f"{w}-{i}.json") for i in range(2)] for w in WORKLOADS}


def _assert_clean(last: dict, spec_metrics: list) -> None:
    assert last["correct"] is True
    assert last["failed"] == 0
    assert last["attempted"] >= 1
    emitted = {name: m["unit"] for name, m in last["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in spec_metrics}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_emits_every_end_to_end_metric(untraced, workload):
    last, report = untraced[workload]
    _assert_clean(last, SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in last["metrics"].values()), last["metrics"]
    assert report["probes"] and all(p["ok"] for p in report["probes"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_runs_emit_per_layer_metrics_with_identical_counts(traced, workload):
    (first, _), (second, _) = traced[workload]
    for last in (first, second):
        _assert_clean(last, SPEC["per_layer"])

    def counts(last):
        return {name: m["value"] for name, m in last["metrics"].items()
                if m["unit"] == "count" and name not in POLL_DEPENDENT}

    assert counts(first) == counts(second)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_wrapped_seam_caught_a_call(traced, workload):
    _, report = traced[workload][0]
    silent = sorted(target for target, calls in report["hits"].items() if calls < 1)
    assert not silent, f"seams that no longer resolve to the called name: {silent}"


def test_every_per_layer_metric_is_measured_by_some_workload(traced):
    """A per-layer name no workload moves is a typo or a dead seam."""
    always_zero = {"engine.colcache.leaked_segments"}
    for metric in SPEC["per_layer"]:
        name = metric["name"]
        values = [traced[w][0][0]["metrics"][name]["value"] for w in WORKLOADS]
        if name in always_zero:
            assert values == [0] * len(values), (name, values)
        else:
            assert any(values), name


def test_engine_reports_the_warm_read_baseline(traced):
    (_, report), _ = traced["engine"]
    assert report["layers"]["engine.warm_one_over_get"] > 1
    assert report["layers"]["engine.store.bare_get_ms"] > 0


def test_service_observers_see_queue_waits_and_worker_time(traced):
    (_, report), _ = traced["service"]
    assert report["layers"]["service.queue_wait_ms"] > 0
    assert report["layers"]["floor_ms"] > 0


def test_breakdown_table_shows_floor_layers_and_unattributed(traced):
    for workload in WORKLOADS:
        lines = traced[workload][0][1]["table"].splitlines()
        assert lines[1].startswith("pure-compute floor:")
        assert any(line.startswith("| unattributed") for line in lines)
        assert any(line.startswith("tracing overhead:") for line in lines)


def test_no_wrapper_is_left_installed():
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    try:
        import run_e2e
        from tracer import installed_wrappers
        from workloads import WORKLOADS as CLASSES

        for trace in (True, False):
            result = run_e2e.run_workload("regen", 7, 0, trace=trace, probes=1)
            assert result["failed"] == 0
            for cls in CLASSES.values():
                seams = cls(ROOT, ROOT, 7).seams()
                assert installed_wrappers(seams) == [], cls.name
    finally:
        del sys.path[:2]
