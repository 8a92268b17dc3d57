"""Tests for the incremental planner."""

import ast

from repro.engine.deps import EXPERIMENTS_MODULE, experiment_digest
from repro.engine.plan import HIT, MISS, STALE, plan_suite
from repro.engine.store import ResultStore
from repro.suite.experiments import EXPERIMENTS


class TestPlanStates:
    def test_cold_store_is_all_misses(self, tmp_path):
        plan = plan_suite(ResultStore(tmp_path), ["table2", "table3"])
        assert [e.status for e in plan.entries] == [MISS, MISS]
        assert plan.counts() == {"hit": 0, "miss": 2, "stale": 0, "total": 2}
        assert len(plan.to_run) == 2

    def test_stored_result_is_a_hit(self, tmp_path):
        store = ResultStore(tmp_path)
        digest = experiment_digest("table2")
        store.put(digest, EXPERIMENTS["table2"](), 0.01)
        plan = plan_suite(store, ["table2"])
        assert plan.entries[0].status == HIT
        assert plan.to_run == ()

    def test_changed_source_makes_stale_not_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put(experiment_digest("table2"), EXPERIMENTS["table2"](), 0.01)
        edited = {"repro.machine.specs": b"# hypothetically edited"}
        plan = plan_suite(store, ["table2"], sources=edited)
        assert plan.entries[0].status == STALE
        assert plan.entries[0].needs_run

    def test_default_plan_covers_whole_suite_in_paper_order(self, tmp_path):
        plan = plan_suite(ResultStore(tmp_path))
        assert [e.exp_id for e in plan.entries] == list(EXPERIMENTS)

    def test_kernel_edit_invalidates_only_importers(self, tmp_path):
        """The acceptance criterion: an edit to one kernel file leaves
        experiments that never import it untouched."""
        store = ResultStore(tmp_path)
        for exp_id in ("table1", "figure6"):
            store.put(experiment_digest(exp_id), EXPERIMENTS[exp_id](), 0.01)
        edited = {"repro.kernels.rfft": b"# edited"}
        plan = plan_suite(store, ["table1", "figure6"], sources=edited)
        by_id = {e.exp_id: e.status for e in plan.entries}
        assert by_id == {"table1": HIT, "figure6": STALE}

    def test_experiments_module_edit_invalidates_everything(self, tmp_path):
        store = ResultStore(tmp_path)
        for exp_id in ("table1", "table2"):
            store.put(experiment_digest(exp_id), EXPERIMENTS[exp_id](), 0.01)
        edited = {EXPERIMENTS_MODULE: b"# edited"}
        plan = plan_suite(store, ["table1", "table2"], sources=edited)
        assert all(e.status == STALE for e in plan.entries)


class TestPlanReporting:
    def test_summary_mentions_counts(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put(experiment_digest("table2"), EXPERIMENTS["table2"](), 0.01)
        plan = plan_suite(store, ["table2", "table3"])
        text = plan.summary()
        assert "1 cached" in text
        assert "1 never run" in text
        assert "1 to execute" in text


class TestWarmPlanIsFree:
    """A plan on a warm store reads sources and probes keys, nothing more."""

    IDS = ["table2", "table3"]

    @staticmethod
    def _spies(monkeypatch) -> dict[str, int]:
        calls = {"parse": 0, "entries": 0}
        real_parse = ast.parse
        real_entries = ResultStore.entries

        def parse(*args, **kwargs):
            calls["parse"] += 1
            return real_parse(*args, **kwargs)

        def entries(self):
            calls["entries"] += 1
            return real_entries(self)

        monkeypatch.setattr(ast, "parse", parse)
        monkeypatch.setattr(ResultStore, "entries", entries)
        return calls

    def _warm_store(self, tmp_path) -> ResultStore:
        store = ResultStore(tmp_path)
        for exp_id in self.IDS:
            store.put(experiment_digest(exp_id), EXPERIMENTS[exp_id](), 0.01)
        assert all(e.status == HIT for e in plan_suite(store, self.IDS).entries)
        return store

    def test_second_plan_parses_and_scans_nothing(self, tmp_path, monkeypatch):
        store = self._warm_store(tmp_path)
        calls = self._spies(monkeypatch)
        plan = plan_suite(store, self.IDS)
        assert [e.status for e in plan.entries] == [HIT, HIT]
        assert calls == {"parse": 0, "entries": 0}

    def test_a_stale_entry_still_scans_and_classifies_stale(self, tmp_path, monkeypatch):
        store = self._warm_store(tmp_path)
        calls = self._spies(monkeypatch)
        edited = {"repro.machine.specs": b"# hypothetically edited"}
        plan = plan_suite(store, self.IDS + ["table1"], sources=edited)
        assert [e.status for e in plan.entries] == [STALE, HIT, MISS]
        assert calls == {"parse": 0, "entries": 1}
