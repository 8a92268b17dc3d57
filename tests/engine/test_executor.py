"""Tests for parallel execution, crash isolation, and the orchestrator."""

import multiprocessing
import os
import threading
import time

import pytest

from repro.engine.executor import (
    CACHE,
    EXECUTED,
    JobFailure,
    JobResult,
    execute_jobs,
    run_engine,
)
from repro.engine.store import ResultStore, canonical_bytes
from repro.suite.experiments import EXPERIMENTS
from repro.suite.results import Experiment

_HAS_FORK = "fork" in multiprocessing.get_all_start_methods()

needs_fork = pytest.mark.skipif(
    not _HAS_FORK, reason="pool tests inject builders via fork inheritance"
)

FAST_IDS = ["table1", "table2", "table3", "sec4.4"]


def _broken_builder():
    raise RuntimeError("synthetic builder failure")


def _sleepy_builder():
    time.sleep(1.5)
    return Experiment(exp_id="sleepy", title="never finishes in time")


def _dying_builder():
    os._exit(13)  # simulates a segfaulting / OOM-killed worker


def _pool_manager_threads() -> set[threading.Thread]:
    return {
        thread
        for thread in threading.enumerate()
        if type(thread).__name__ == "_ExecutorManagerThread"
    }


class TestExecuteJobs:
    def test_serial_runs_inline(self):
        results = execute_jobs(["table2"], jobs=1)
        assert isinstance(results[0], JobResult)
        assert results[0].exp_id == "table2"
        assert results[0].source == EXECUTED
        assert results[0].experiment.passed

    @needs_fork
    def test_parallel_matches_serial_byte_for_byte(self):
        serial = execute_jobs(FAST_IDS, jobs=1)
        parallel = execute_jobs(FAST_IDS, jobs=4)
        for s, p in zip(serial, parallel):
            assert isinstance(s, JobResult) and isinstance(p, JobResult)
            assert canonical_bytes(s.experiment) == canonical_bytes(p.experiment)

    @needs_fork
    def test_results_come_back_in_request_order(self):
        results = execute_jobs(list(reversed(FAST_IDS)), jobs=3)
        assert [r.exp_id for r in results] == list(reversed(FAST_IDS))

    def test_builder_exception_is_an_error_failure(self, monkeypatch):
        monkeypatch.setitem(EXPERIMENTS, "boom", _broken_builder)
        results = execute_jobs(["table2", "boom"], jobs=1)
        assert isinstance(results[0], JobResult)
        failure = results[1]
        assert isinstance(failure, JobFailure)
        assert failure.kind == "error"
        assert "synthetic builder failure" in failure.message
        assert "RuntimeError" in failure.traceback

    @needs_fork
    def test_builder_exception_in_worker_does_not_kill_the_run(self, monkeypatch):
        monkeypatch.setitem(EXPERIMENTS, "boom", _broken_builder)
        results = execute_jobs(["boom", "table2"], jobs=2)
        assert isinstance(results[0], JobFailure)
        assert results[0].kind == "error"
        assert isinstance(results[1], JobResult)
        assert results[1].experiment.passed

    @needs_fork
    def test_dying_worker_is_a_crash_failure(self, monkeypatch):
        monkeypatch.setitem(EXPERIMENTS, "dies", _dying_builder)
        results = execute_jobs(["dies"], jobs=2)
        assert isinstance(results[0], JobFailure)
        assert results[0].kind == "crash"

    @needs_fork
    def test_timeout_is_a_timeout_failure(self, monkeypatch):
        monkeypatch.setitem(EXPERIMENTS, "sleepy", _sleepy_builder)
        results = execute_jobs(["sleepy", "table2"], jobs=2, timeout_s=0.2)
        assert isinstance(results[0], JobFailure)
        assert results[0].kind == "timeout"
        assert isinstance(results[1], JobResult)

    @needs_fork
    def test_pool_is_shut_down_before_returning(self):
        # A pool still shutting down when the call returns races the
        # interpreter's exit hook, which writes to the wake-up pipe the
        # pool's manager thread is closing ("Bad file descriptor").
        before = _pool_manager_threads()
        execute_jobs(["table2", "sec2"], jobs=2)
        assert not _pool_manager_threads() - before

    @needs_fork
    def test_a_timed_out_job_does_not_hold_the_caller(self, monkeypatch):
        monkeypatch.setitem(EXPERIMENTS, "sleepy", _sleepy_builder)
        start = time.perf_counter()
        results = execute_jobs(["sleepy"], jobs=2, timeout_s=0.2)
        assert results[0].kind == "timeout"
        assert time.perf_counter() - start < 1.5  # the sleeper's own length

    def test_validation(self):
        with pytest.raises(ValueError):
            execute_jobs(["table2"], jobs=0)
        assert execute_jobs([], jobs=4) == []


class TestRunEngine:
    def test_cold_then_warm(self, tmp_path):
        store = ResultStore(tmp_path)
        cold = run_engine(FAST_IDS, store=store)
        assert [r.source for r in cold.successes] == [EXECUTED] * len(FAST_IDS)
        warm = run_engine(FAST_IDS, store=store)
        assert [r.source for r in warm.successes] == [CACHE] * len(FAST_IDS)
        for c, w in zip(cold.successes, warm.successes):
            assert canonical_bytes(c.experiment) == canonical_bytes(w.experiment)

    def test_cache_hit_preserves_original_elapsed(self, tmp_path):
        store = ResultStore(tmp_path)
        cold = run_engine(["table2"], store=store)
        warm = run_engine(["table2"], store=store)
        assert warm.successes[0].elapsed_s == cold.successes[0].elapsed_s

    def test_no_cache_neither_reads_nor_writes(self, tmp_path):
        store = ResultStore(tmp_path)
        run_engine(["table2"], store=store, use_cache=False)
        assert store.entries() == []
        run_engine(["table2"], store=store)  # populate
        report = run_engine(["table2"], store=store, use_cache=False)
        assert report.successes[0].source == EXECUTED

    def test_verify_passes_on_the_real_suite(self, tmp_path):
        run_engine(["table2", "table7"], store=ResultStore(tmp_path), verify=True)
        # And again through the cache-hit path.
        run_engine(["table2", "table7"], store=ResultStore(tmp_path), verify=True)

    def test_failures_are_not_cached(self, tmp_path, monkeypatch):
        monkeypatch.setitem(EXPERIMENTS, "boom", _broken_builder)
        store = ResultStore(tmp_path)
        report = run_engine(["boom", "table2"], store=store)
        assert len(report.failures) == 1
        assert len(report.executed) == 1
        assert {e.exp_id for e in store.entries()} == {"table2"}

    def test_report_counts_and_summary(self, tmp_path):
        store = ResultStore(tmp_path)
        run_engine(["table1", "table2"], store=store)
        report = run_engine(["table1", "table2", "table3"], store=store)
        assert report.cache_counts() == {
            "hits": 2, "executed": 1, "failed": 0, "total": 3,
        }
        assert "2 cache hits" in report.summary()
        assert "1 executed" in report.summary()


def _injector(*actions):
    from repro.faults.inject import FaultAction, FaultInjector

    return FaultInjector(actions=tuple(FaultAction(**a) for a in actions))


def _fast_retry(**overrides):
    from repro.faults.retry import RetryPolicy

    defaults = dict(
        max_attempts=4,
        base_delay_s=0.001,
        max_delay_s=0.01,
        transient_kinds=("error", "crash", "timeout"),
        sleep=lambda _: None,
    )
    defaults.update(overrides)
    return RetryPolicy(**defaults)


class TestFaultInjection:
    """Injected faults surface as structured failures; retry absorbs them."""

    def test_injected_error_fails_the_first_attempt_only(self):
        injector = _injector(
            dict(site="executor_job", exp_id="table2", kind="error", attempt=0)
        )
        first = execute_jobs(["table2"], jobs=1, injector=injector)
        assert isinstance(first[0], JobFailure) and first[0].kind == "error"
        second = execute_jobs(["table2"], jobs=1, injector=injector)
        assert isinstance(second[0], JobResult)

    def test_injected_timeout_names_the_job_and_elapsed_time(self):
        injector = _injector(
            dict(site="executor_job", exp_id="table2", kind="timeout",
                 attempt=0, delay_s=0.01)
        )
        results = execute_jobs(["table2"], jobs=1, injector=injector)
        failure = results[0]
        assert isinstance(failure, JobFailure) and failure.kind == "timeout"
        assert "table2" in failure.message
        assert " s" in failure.message  # carries the measured elapsed time

    def test_injected_crash_is_simulated_in_serial_mode(self):
        injector = _injector(
            dict(site="executor_job", exp_id="table2", kind="crash", attempt=0)
        )
        results = execute_jobs(["table2"], jobs=1, injector=injector)
        assert isinstance(results[0], JobFailure)
        assert results[0].kind == "crash"  # the engine survived to report it

    def test_injected_slow_fault_still_succeeds(self):
        injector = _injector(
            dict(site="executor_job", exp_id="table2", kind="slow",
                 attempt=0, delay_s=0.001)
        )
        results = execute_jobs(["table2"], jobs=1, injector=injector)
        assert isinstance(results[0], JobResult)

    @needs_fork
    def test_injected_crash_really_kills_a_pool_worker(self):
        injector = _injector(
            dict(site="executor_job", exp_id="table2", kind="crash", attempt=0)
        )
        results = execute_jobs(["table2"], jobs=2, injector=injector)
        assert isinstance(results[0], JobFailure)
        assert results[0].kind == "crash"


class TestRetry:
    def test_transient_failures_are_retried_to_success(self, tmp_path):
        injector = _injector(
            dict(site="executor_job", exp_id="table2", kind="error", attempt=0),
            dict(site="executor_job", exp_id="table2", kind="crash", attempt=1),
        )
        report = run_engine(
            ["table1", "table2"], store=ResultStore(tmp_path),
            retry=_fast_retry(), injector=injector,
        )
        assert not report.failures
        assert report.attempts == {"table1": 1, "table2": 3}
        assert report.retried == ["table2"]
        assert report.retry_rounds == 2
        assert "1 retried" in report.summary()

    def test_attempt_budget_is_bounded(self, tmp_path):
        injector = _injector(*[
            dict(site="executor_job", exp_id="table2", kind="error", attempt=n)
            for n in range(6)
        ])
        report = run_engine(
            ["table2"], store=ResultStore(tmp_path),
            retry=_fast_retry(max_attempts=3), injector=injector,
        )
        assert len(report.failures) == 1
        assert report.attempts == {"table2": 3}

    def test_non_transient_kinds_are_not_retried(self, tmp_path):
        injector = _injector(
            dict(site="executor_job", exp_id="table2", kind="error", attempt=0)
        )
        report = run_engine(
            ["table2"], store=ResultStore(tmp_path),
            retry=_fast_retry(transient_kinds=("crash", "timeout")),
            injector=injector,
        )
        assert len(report.failures) == 1
        assert report.attempts == {"table2": 1}

    def test_backoff_sleeps_are_taken_from_the_policy(self, tmp_path):
        slept = []
        injector = _injector(
            dict(site="executor_job", exp_id="table2", kind="error", attempt=0)
        )
        run_engine(
            ["table2"], store=ResultStore(tmp_path),
            retry=_fast_retry(sleep=slept.append), injector=injector,
        )
        assert len(slept) == 1 and slept[0] > 0

    def test_retried_success_is_byte_identical_and_cached(self, tmp_path):
        store = ResultStore(tmp_path)
        reference = run_engine(["table2"], store=ResultStore(tmp_path / "ref"))
        injector = _injector(
            dict(site="executor_job", exp_id="table2", kind="crash", attempt=0)
        )
        report = run_engine(
            ["table2"], store=store, retry=_fast_retry(), injector=injector,
        )
        assert canonical_bytes(report.successes[0].experiment) == canonical_bytes(
            reference.successes[0].experiment
        )
        assert {e.exp_id for e in store.entries()} == {"table2"}

    @needs_fork
    def test_repeated_pool_crashes_degrade_to_serial(self, tmp_path):
        injector = _injector(
            dict(site="executor_job", exp_id="table2", kind="crash", attempt=0),
            dict(site="executor_job", exp_id="table2", kind="crash", attempt=1),
        )
        report = run_engine(
            ["table2"], store=ResultStore(tmp_path), jobs=2,
            retry=_fast_retry(crash_rounds_before_serial=2), injector=injector,
        )
        assert not report.failures
        assert report.serial_fallback
        assert "(serial fallback)" in report.summary()
