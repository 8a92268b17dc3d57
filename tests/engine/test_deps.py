"""Tests for static dependency tracing and content-addressed digests."""

import hashlib
import json
import os
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro.engine import ResultStore, deps, run_engine
from repro.engine.deps import (
    EXPERIMENTS_MODULE,
    closure_digest,
    dependency_closure,
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


class TestContentKeyedMemo:
    """Import edges and builder seeds are memoised by source bytes."""

    def test_edit_is_seen_in_the_same_process(self, tmp_path, monkeypatch):
        copy = tmp_path / "repro"
        shutil.copytree(package_root(), copy, ignore=shutil.ignore_patterns("__pycache__"))
        monkeypatch.setattr(deps, "package_root", lambda: copy)
        rfft = copy / "kernels" / "rfft.py"
        original = rfft.read_bytes()
        closure = dependency_closure(["repro.kernels.rfft"])
        digest = closure_digest(["repro.kernels.rfft"])
        assert "repro.kernels.radabs" not in closure

        rfft.write_bytes(original + b"\nimport repro.kernels.radabs\n")
        with profile() as prof:
            assert closure_digest(["repro.kernels.rfft"]) != digest
        assert prof.counters.get("deps", "modules_parsed") >= 1
        assert "repro.kernels.radabs" in dependency_closure(["repro.kernels.rfft"])

        rfft.write_bytes(original)
        assert dependency_closure(["repro.kernels.rfft"]) == closure
        assert closure_digest(["repro.kernels.rfft"]) == digest

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

    def test_one_call_reads_each_file_once(self, monkeypatch):
        union = set().union(*(d.modules for d in suite_digests().values()))
        read = []
        real_read_bytes = Path.read_bytes

        def spy(path):
            read.append(path)
            return real_read_bytes(path)

        monkeypatch.setattr(Path, "read_bytes", spy)
        with profile() as prof:
            suite_digests()
        assert len(read) == len(set(read)) == len(union)
        assert prof.counters.get("deps", "modules_hashed") == len(union)
        assert prof.counters.get("deps", "modules_parsed") == 0

    def test_second_warm_run_engine_parses_nothing(self, tmp_path):
        store = ResultStore(tmp_path)
        run_engine(["table2"], jobs=1, store=store)
        with profile():
            run_engine(["table2"], jobs=1, store=store)
        with profile() as prof:
            report = run_engine(["table2"], jobs=1, store=store)
        assert report.cache_counts()["hits"] == 1
        assert prof.counters.component("deps") == {
            "modules_hashed": float(len(experiment_dependencies("table2"))),
            "modules_parsed": 0.0,
        }

    def test_threads_racing_on_an_empty_memo_agree(self, monkeypatch):
        """The service plans on its worker thread while sweep jobs digest."""

        def digests():
            return (
                {i: d.key for i, d in suite_digests(["table2", "figure6", "table5"]).items()},
                closure_digest(CHUNK_KEY_SEEDS),
            )

        expected = digests()
        monkeypatch.setattr(deps, "_IMPORT_EDGES", {})
        monkeypatch.setattr(deps, "_BUILDER_SEEDS", {})
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
        # Every surviving memo entry belongs to the bytes on disk.
        for name, (digest, _) in deps._IMPORT_EDGES.items():
            assert digest == hashlib.sha256(module_path(name).read_bytes()).digest()
