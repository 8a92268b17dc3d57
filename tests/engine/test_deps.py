"""Tests for static dependency tracing and content-addressed digests."""

import builtins
import functools
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import textwrap
import threading
from pathlib import Path

import pytest

from repro.engine import ResultStore, deps, run_engine
from repro.engine.deps import (
    EXPERIMENTS_MODULE,
    closure_digest,
    code_mismatch,
    dependency_closure,
    experiment_code,
    experiment_dependencies,
    experiment_digest,
    machine_fingerprint,
    module_path,
    package_root,
    suite_digests,
)
from repro.explore.engine import CHUNK_KEY_SEEDS
from repro.perfmon.collector import profile
from repro.suite.experiments import EXPERIMENTS


class TestModuleResolution:
    def test_module_and_package(self):
        assert module_path("repro.units").name == "units.py"
        assert module_path("repro.kernels").name == "__init__.py"

    def test_non_repro_names(self):
        assert module_path("numpy") is None
        assert module_path("os.path") is None
        assert module_path("repro.no_such_module") is None


class TestClosure:
    def test_seeds_and_their_imports_included(self):
        closure = dependency_closure(["repro.kernels.rfft"])
        assert "repro.kernels.rfft" in closure
        # rfft builds on the shared FFTPACK core and the machine model.
        assert "repro.kernels.fftpack" in closure
        assert "repro.machine.processor" in closure

    def test_ancestor_packages_hashed_not_traversed(self):
        closure = dependency_closure(["repro.kernels.rfft"])
        # The kernels package __init__ re-exports every kernel; it must be
        # *in* the closure (it runs on import) without dragging them in.
        assert "repro.kernels" in closure
        assert "repro.kernels.radabs" not in closure

    def test_no_traverse_is_hash_only(self):
        closure = dependency_closure(
            [EXPERIMENTS_MODULE], no_traverse={EXPERIMENTS_MODULE}
        )
        assert EXPERIMENTS_MODULE in closure
        # experiments imports every kernel; none may leak through.
        assert not any(n.startswith("repro.kernels.") for n in closure)


class TestExperimentDependencies:
    def test_per_experiment_precision(self):
        table1 = experiment_dependencies("table1")
        figure6 = experiment_dependencies("figure6")
        assert "repro.kernels.hint" in table1
        assert "repro.kernels.hint" not in figure6
        assert "repro.kernels.rfft" in figure6
        assert "repro.kernels.rfft" not in table1

    def test_experiments_module_always_included(self):
        for exp_id in ("table1", "sec4.6", "figure8"):
            assert EXPERIMENTS_MODULE in experiment_dependencies(exp_id)

    def test_local_helpers_followed(self):
        # table5 reaches the machine presets only through the _node helper.
        assert "repro.machine.presets" in experiment_dependencies("table5")

    def test_function_local_imports_followed(self):
        # table4 imports the CCM2 resolutions inside the builder body.
        assert "repro.apps.ccm2.resolutions" in experiment_dependencies("table4")

    def test_unknown_experiment(self):
        with pytest.raises(KeyError):
            experiment_dependencies("nonsense")


class TestDigests:
    def test_digest_is_stable(self):
        assert experiment_digest("table1") == experiment_digest("table1")

    def test_digest_covers_experiment_id(self):
        assert experiment_digest("table1").key != experiment_digest("table2").key

    def test_source_edit_changes_only_importers(self):
        edit = {"repro.kernels.rfft": b"# hypothetically edited"}
        assert (
            experiment_digest("figure6", sources=edit).key
            != experiment_digest("figure6").key
        )
        assert (
            experiment_digest("table1", sources=edit).key
            == experiment_digest("table1").key
        )

    def test_experiments_module_edit_changes_everything(self):
        edit = {EXPERIMENTS_MODULE: b"# edited"}
        for exp_id, digest in suite_digests(sources=edit).items():
            assert digest.key != experiment_digest(exp_id).key

    def test_suite_digests_cover_registry(self):
        digests = suite_digests()
        assert set(digests) == set(EXPERIMENTS)
        assert len({d.key for d in digests.values()}) == len(digests)

    def test_machine_fingerprint_stable(self):
        assert machine_fingerprint() == machine_fingerprint()
        assert len(machine_fingerprint()) == 64


class TestBuilderEntryPoints:
    def test_covers_every_registered_experiment(self):
        from repro.engine.deps import builder_entry_points

        ids = {exp_id for exp_id, _, _ in builder_entry_points()}
        assert set(EXPERIMENTS) <= ids

    def test_service_resolvers_are_entry_points(self):
        # The service's request-resolution path is held to the same
        # determinism contract as the experiment builders (DET001-006).
        from repro.engine.deps import SERVICE_RESOLVE_MODULE, builder_entry_points

        service = {
            (exp_id, func)
            for exp_id, module, func in builder_entry_points()
            if module == SERVICE_RESOLVE_MODULE
        }
        assert service == {
            ("service:suite", "resolve_suite"),
            ("service:sweep", "resolve_sweep"),
        }

    def test_entries_name_real_functions(self):
        import importlib

        from repro.engine.deps import builder_entry_points

        for _exp_id, module, func in builder_entry_points():
            assert callable(getattr(importlib.import_module(module), func))


def _digest_document() -> dict:
    return {
        "suite": {exp_id: d.key for exp_id, d in suite_digests().items()},
        "chunk": closure_digest(CHUNK_KEY_SEEDS),
    }


def _empty_tables(monkeypatch) -> None:
    """The digest tables of a process that has not digested anything yet."""
    for table in ("_PINS", "_UNPARSED", "_IMPORT_EDGES", "_BUILDER_SEEDS",
                  "_EXPERIMENT_DIGESTS", "_CLOSURE_DIGESTS"):
        monkeypatch.setattr(deps, table, {})


def _copy_tree(tmp_path: Path) -> Path:
    """A private copy of the ``repro`` sources; returns its import root."""
    src = tmp_path / "src"
    shutil.copytree(package_root(), src / "repro",
                    ignore=shutil.ignore_patterns("__pycache__"))
    return src


def _run_on(src: Path, script: str) -> dict:
    """Run ``script`` in a fresh process importing ``repro`` from ``src``.

    No bytecode is written: the edits below keep file sizes, so a fresh
    process could otherwise load a stale ``.pyc`` written the same
    second.  Returns the JSON object the script prints last.
    """
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(script)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-4000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


#: Table 2's disk capacity, and an edit that keeps the file's size.
SPECS_LINE = "disk_capacity_gb=282.0"
SPECS_EDIT = "disk_capacity_gb=999.0"


def _edit_specs(src: Path) -> str:
    """A statement that makes the edit, for a script run on ``src``."""
    specs = src / "repro" / "machine" / "specs.py"
    assert SPECS_LINE in specs.read_text()
    return (f"specs = pathlib.Path({str(specs)!r}); "
            f"specs.write_text(specs.read_text().replace({SPECS_LINE!r}, {SPECS_EDIT!r}))")


class TestContentKeyedMemo:
    """Sources are pinned by content once per process; digests are memoised."""

    def test_edit_is_drift_here_and_a_miss_in_a_fresh_process(self, tmp_path):
        src = _copy_tree(tmp_path)
        store = tmp_path / "store"
        running = _run_on(src, f"""
            import json, pathlib
            from repro.engine import ResultStore, canonical_bytes, run_engine
            from repro.engine.deps import code_drift
            store = ResultStore({str(store)!r})
            first = run_engine(["table2"], store=store)
            {_edit_specs(src)}
            second = run_engine(["table2"], store=store, verify=True)
            text = canonical_bytes(second.experiments[0]).decode()
            print(json.dumps({{
                "keys": [first.plan.entries[0].digest.key, second.plan.entries[0].digest.key],
                "status": second.plan.entries[0].status,
                "source": second.results[0].source,
                "282": "282 GB" in text, "999": "999 GB" in text,
                "drift": list(code_drift()),
            }}))
        """)
        # The running process: a sound hit under its pinned key, and the
        # drift named.
        assert running["keys"][0] == running["keys"][1]
        assert (running["status"], running["source"]) == ("hit", "cache")
        assert running["282"] and not running["999"]
        assert running["drift"] == ["repro.machine.specs"]

        fresh = _run_on(src, f"""
            import json
            from repro.engine import ResultStore, canonical_bytes, run_engine
            report = run_engine(["table2"], store=ResultStore({str(store)!r}))
            text = canonical_bytes(report.experiments[0]).decode()
            print(json.dumps({{
                "key": report.plan.entries[0].digest.key,
                "status": report.plan.entries[0].status,
                "source": report.results[0].source,
                "282": "282 GB" in text, "999": "999 GB" in text,
            }}))
        """)
        # A fresh process keys the edit: a miss, built from the new code.
        assert fresh["key"] != running["keys"][0]
        assert (fresh["status"], fresh["source"]) == ("stale", "executed")
        assert fresh["999"] and not fresh["282"]
        entries = {entry.key: entry.path for entry in ResultStore(store).entries()}
        assert set(entries) == {running["keys"][0], fresh["key"]}
        assert "282 GB" in entries[running["keys"][0]].read_text()
        assert "282 GB" not in entries[fresh["key"]].read_text()
        assert "999 GB" in entries[fresh["key"]].read_text()

    def test_warm_digests_equal_a_fresh_process(self):
        script = (
            "import json\n"
            "from repro.engine.deps import closure_digest, suite_digests\n"
            "from repro.explore.engine import CHUNK_KEY_SEEDS\n"
            "print(json.dumps({'suite': {i: d.key for i, d in suite_digests().items()},"
            " 'chunk': closure_digest(CHUNK_KEY_SEEDS)}))\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(package_root().parent)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        fresh = subprocess.run([sys.executable, "-c", script], env=env,
                               capture_output=True, text=True, check=True, timeout=120)
        expected = json.loads(fresh.stdout)
        assert len(expected["suite"]) == len(EXPERIMENTS) == 18
        first = _digest_document()
        second = _digest_document()
        assert first == second == expected

    def test_a_warm_digest_opens_stats_and_hashes_nothing(self, monkeypatch):
        expected = _digest_document()
        calls = []

        def spy(owner, name):
            real = getattr(owner, name)

            def wrapper(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)

            monkeypatch.setattr(owner, name, wrapper)

        for owner, name in ((builtins, "open"), (io, "open"), (os, "stat"),
                            (os, "fstat"), (hashlib, "sha256")):
            spy(owner, name)
        with profile() as prof:
            warm = _digest_document()
        seen = list(calls)
        monkeypatch.undo()
        assert warm == expected
        assert seen == []
        assert prof.counters.component("deps") == {}

    def test_first_digest_hashes_each_module_once(self, monkeypatch):
        _empty_tables(monkeypatch)
        opened = []
        real_open = builtins.open

        def spy(file, *args, **kwargs):
            opened.append(str(file))
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", spy)
        with profile() as prof:
            document = _digest_document()
        monkeypatch.setattr(builtins, "open", real_open)
        modules = set(dependency_closure(CHUNK_KEY_SEEDS)).union(
            *(d.modules for d in suite_digests().values()))
        files = sorted(sys.modules[name].__file__ for name in modules)
        assert sorted(opened) == files
        assert prof.counters.get("deps", "modules_hashed") == len(modules)
        # Every module but the hash-only package __init__ files is parsed
        # once, and its bytes are then dropped.
        parsed = {name for name in modules
                  if not sys.modules[name].__file__.endswith("__init__.py")}
        assert prof.counters.get("deps", "modules_parsed") == len(parsed)
        assert set(deps._IMPORT_EDGES) == parsed
        assert set(deps._UNPARSED) == modules - parsed
        assert len(document["suite"]) == 18

    def test_second_warm_run_engine_parses_nothing(self, tmp_path):
        store = ResultStore(tmp_path)
        run_engine(["table2"], jobs=1, store=store)
        with profile():
            run_engine(["table2"], jobs=1, store=store)
        with profile() as prof:
            report = run_engine(["table2"], jobs=1, store=store)
        assert report.cache_counts()["hits"] == 1
        assert prof.counters.get("deps", "modules_hashed") == 0
        assert prof.counters.get("deps", "modules_parsed") == 0

    def test_threads_racing_on_an_empty_memo_agree(self, monkeypatch):
        """The service plans on its worker thread while sweep jobs digest."""

        def digests():
            return (
                {i: d.key for i, d in suite_digests(["table2", "figure6", "table5"]).items()},
                closure_digest(CHUNK_KEY_SEEDS),
            )

        expected = digests()
        _empty_tables(monkeypatch)
        results = []
        threads = [threading.Thread(target=lambda: results.append(digests())) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert results == [expected] * len(threads)
        # Every pin belongs to the bytes on disk, and no parsed module
        # keeps its bytes.
        assert deps._PINS
        for pin in deps._PINS.values():
            assert pin.sha256 == hashlib.sha256(Path(pin.path).read_bytes()).digest()
        assert not set(deps._UNPARSED) & set(deps._IMPORT_EDGES)

    def test_a_wrapped_builder_keeps_its_digest(self, monkeypatch):
        before = experiment_digest("table2")
        builder = EXPERIMENTS["table2"]
        monkeypatch.setitem(EXPERIMENTS, "table2", functools.wraps(builder)(lambda: builder()))
        assert experiment_digest("table2") is before

    def test_a_builder_from_another_module_gets_its_own_digest(self, monkeypatch):
        before = experiment_digest("table2")
        builder = EXPERIMENTS["table2"]

        def table2():
            return builder()

        table2.__module__ = "repro.kernels.rfft"
        monkeypatch.setitem(EXPERIMENTS, "table2", table2)
        moved = experiment_digest("table2")
        assert moved.key != before.key
        assert "repro.kernels.rfft" in moved.modules
        monkeypatch.undo()
        assert experiment_digest("table2") is before


class TestCodeDrift:
    def test_health_and_engine_cli_report_a_touched_source(self, tmp_path):
        src = _copy_tree(tmp_path)
        out = _run_on(src, f"""
            import contextlib, io, json, os, sys
            from repro.engine import cli, deps
            from repro.service.app import ServiceApp
            app = ServiceApp({str(tmp_path / "service")!r})
            health = lambda: json.loads(app.handle("GET", "/v1/health", b"").body)
            deps.pin_loaded()
            before = health()
            path = sys.modules["repro.machine.specs"].__file__
            stat = os.stat(path)
            os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns + 10**9))
            after = health()
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = cli.main(["plan", "table2", "--cache-dir", {str(tmp_path / "cache")!r}])
            print(json.dumps({{"before": before, "after": after, "stderr": err.getvalue(),
                               "code": code}}))
        """)
        assert out["before"]["status"] == "ready"
        assert (out["before"]["reasons"], out["before"]["code_drift"]) == ([], [])
        assert out["after"]["status"] == "degraded"
        assert out["after"]["reasons"] == ["code_drift"]
        assert out["after"]["code_drift"] == ["repro.machine.specs"]
        assert out["after"]["degraded"] is False  # no serial fallback
        assert out["code"] == 0
        assert "warning" in out["stderr"] and "repro.machine.specs" in out["stderr"]


class TestWorkerCodeCheck:
    def test_pins_match_the_loaded_code(self):
        code = experiment_code("table2")
        assert [name for name, _ in code] == list(experiment_digest("table2").modules)
        assert code_mismatch(code) == ()
        name = code[0][0]
        assert code_mismatch(((name, bytes(32)),)) == (name,)

    def test_a_spawned_worker_refuses_drifted_code(self, tmp_path):
        src = _copy_tree(tmp_path)
        store = tmp_path / "store"
        out = _run_on(src, f"""
            import json, multiprocessing, pathlib
            from repro.engine import ResultStore, executor, plan_suite
            from repro.faults.retry import chaos_retry_policy
            executor._pool_context = lambda: multiprocessing.get_context("spawn")
            store = ResultStore({str(store)!r})
            plan_suite(store, ["table2"])
            clean = executor.execute_jobs(["table2"], jobs=2)[0]
            {_edit_specs(src)}
            report = executor.run_engine(["table2"], jobs=2, store=store,
                                         retry=chaos_retry_policy())
            failure = report.results[0]
            print(json.dumps({{
                "clean": type(clean).__name__,
                "kind": getattr(failure, "kind", None),
                "message": getattr(failure, "message", ""),
                "attempts": report.attempts,
                "stored": len(store.entries()),
            }}))
        """)
        assert out["clean"] == "JobResult"
        assert out["kind"] == "code_drift"
        assert "repro.machine.specs" in out["message"]
        assert out["attempts"] == {"table2": 1}
        assert out["stored"] == 0
