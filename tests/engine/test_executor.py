"""Tests for parallel execution, crash isolation, and the orchestrator."""

import multiprocessing
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.engine.executor import (
    CACHE,
    EXECUTED,
    JobFailure,
    JobResult,
    WorkerPool,
    execute_jobs,
    run_engine,
)
from repro.engine.store import ResultStore, canonical_bytes
from repro.perfmon.collector import active, profile
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


def _profile_probe_builder():
    return Experiment(exp_id="probe", title="probe", notes=f"active={active() is not None}")


#: A file the slowish builder creates as it starts, when set.
_SLOWISH_STARTED = None


def _slowish_builder():
    if _SLOWISH_STARTED is not None:
        _SLOWISH_STARTED.touch()
    time.sleep(0.5)
    return Experiment(exp_id="slowish", title="finishes in half a second")


def _pool_children() -> set[int]:
    return {process.pid for process in multiprocessing.active_children()}


@pytest.fixture
def registered_builders(monkeypatch):
    """Register the test builders.  Kept workers see the registry as it
    was when they forked, so this comes before a pool's first use."""
    for exp_id, builder in (
        ("probe", _profile_probe_builder),
        ("slowish", _slowish_builder),
        ("sleepy", _sleepy_builder),
        ("dies", _dying_builder),
    ):
        monkeypatch.setitem(EXPERIMENTS, exp_id, builder)


@pytest.fixture
def kept_pool(registered_builders):
    """A two-worker :class:`WorkerPool`, closed after the test."""
    pool = WorkerPool(2)
    yield pool
    pool.close()


@pytest.fixture
def one_worker(registered_builders):
    """A one-worker :class:`WorkerPool`: a busy worker holds up the rest."""
    pool = WorkerPool(1)
    yield pool
    pool.close()


@needs_fork
class TestWorkerStart:
    """Every pool worker starts with no profile, whoever forked it."""

    def test_a_one_call_pool_worker_has_no_active_profile(self, monkeypatch):
        monkeypatch.setitem(EXPERIMENTS, "probe", _profile_probe_builder)
        with profile() as prof:
            results = execute_jobs(["probe"], jobs=2)
        assert results[0].experiment.notes == "active=False"
        assert [s.name for s in prof.spans] == ["engine:job:probe"]

    def test_a_kept_pool_worker_has_no_active_profile(self, kept_pool):
        for _ in range(2):
            with profile() as prof:
                results = execute_jobs(["probe"], jobs=2, pool=kept_pool)
            assert results[0].experiment.notes == "active=False"
            assert [s.name for s in prof.spans] == ["engine:job:probe"]
            assert prof.spans[0].attrs["status"] == "ok"


@needs_fork
class TestWorkerPool:
    def test_calls_share_the_workers(self, kept_pool):
        before = _pool_children()
        first = execute_jobs(["table2", "sec2"], jobs=2, pool=kept_pool)
        workers = _pool_children() - before
        second = execute_jobs(["table2", "sec2"], jobs=2, pool=kept_pool)
        assert len(workers) == 2
        assert _pool_children() - before == workers
        assert {r.worker_pid for r in first + second} <= workers
        for a, b in zip(first, second):
            assert canonical_bytes(a.experiment) == canonical_bytes(b.experiment)

    def test_a_crash_is_followed_by_fresh_workers(self, kept_pool):
        before = _pool_children()
        execute_jobs(["table2"], jobs=2, pool=kept_pool)
        old_workers = _pool_children() - before
        assert execute_jobs(["dies"], jobs=2, pool=kept_pool)[0].kind == "crash"
        after = execute_jobs(["table2"], jobs=2, pool=kept_pool)[0]
        assert isinstance(after, JobResult)
        assert after.worker_pid not in old_workers

    def test_a_timeout_is_followed_by_fresh_workers(self, one_worker):
        timed_out = execute_jobs(["sleepy"], jobs=2, pool=one_worker, timeout_s=0.2)
        assert timed_out[0].kind == "timeout"
        start = time.perf_counter()
        after = execute_jobs(["table2"], jobs=2, pool=one_worker)[0]
        assert isinstance(after, JobResult)
        assert time.perf_counter() - start < 1.0  # the sleeper has ~1.3 s left

    def test_a_replacement_fails_no_job_of_another_thread(
        self, one_worker, tmp_path, monkeypatch
    ):
        """A stale service worker's job survives its successor's timeout.

        The stale call's jobs are running, queued to the worker, and not
        yet queued when the replacement comes; all of them still finish.
        """
        started = tmp_path / "slowish-started"
        monkeypatch.setitem(globals(), "_SLOWISH_STARTED", started)  # before the fork
        ids = ["slowish", "table1", "table2", "table3", "sec2"]
        # Fork the worker and key every job first, so the stale call's
        # jobs are all submitted while the slow one runs.
        execute_jobs([*ids[1:], "sec4.4"], jobs=2, pool=one_worker)
        outcomes = []
        stale = threading.Thread(
            target=lambda: outcomes.extend(execute_jobs(ids, jobs=2, pool=one_worker))
        )
        stale.start()
        deadline = time.monotonic() + 30
        while not started.exists() and time.monotonic() < deadline:
            time.sleep(0.005)
        timed_out = execute_jobs(["sec4.4"], jobs=2, pool=one_worker, timeout_s=0.1)
        stale.join(timeout=30)
        assert not stale.is_alive()
        assert timed_out[0].kind == "timeout"
        assert [type(o).__name__ for o in outcomes] == ["JobResult"] * len(ids)
        assert execute_jobs(["table2"], jobs=2, pool=one_worker)[0].experiment.passed

    def test_close_leaves_no_manager_thread_and_no_worker(self, kept_pool):
        threads = _pool_manager_threads()
        before = _pool_children()
        execute_jobs(["table2", "sec2"], jobs=2, pool=kept_pool)
        assert _pool_children() - before
        kept_pool.close()
        assert not _pool_manager_threads() - threads
        assert not _pool_children() - before

    def test_a_closed_pool_forks_again_on_use(self, kept_pool):
        execute_jobs(["table2"], jobs=2, pool=kept_pool)
        kept_pool.close()
        assert execute_jobs(["table2"], jobs=2, pool=kept_pool)[0].experiment.passed

    def test_run_engine_rounds_use_the_pool(self, kept_pool, tmp_path):
        before = _pool_children()
        report = run_engine(["table2", "sec2"], jobs=2, store=ResultStore(tmp_path),
                            pool=kept_pool)
        workers = _pool_children() - before
        assert {r.worker_pid for r in report.executed} <= workers
        assert len(workers) == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            WorkerPool(0)


#: Times out a 30 s builder on a one-call pool or on a kept pool that it
#: then closes without waiting.  The builder prints its worker's pid; the
#: last line is the outcome and the pool's children before the close.
_STUCK_JOB = """
import multiprocessing, os, sys, time
from repro.engine.executor import WorkerPool, execute_jobs
from repro.suite.experiments import EXPERIMENTS

def stuck():
    print("worker", os.getpid(), flush=True)
    time.sleep(30)

EXPERIMENTS["stuck"] = stuck
pool = WorkerPool(2) if sys.argv[1] == "kept" else None
outcome = execute_jobs(["stuck"], jobs=2, timeout_s=0.2, pool=pool)[0]
print(outcome.kind, *(p.pid for p in multiprocessing.active_children()), flush=True)
if pool is not None:
    pool.close(wait=False)
"""


def _alive(pid: int) -> bool:
    """Whether ``pid`` runs: a zombie left to an init that never reaps is not."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    try:
        return Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return True


@needs_fork
@pytest.mark.parametrize("pool", ["one-call", "kept"])
def test_a_timed_out_job_does_not_hold_up_the_process_exit(pool, tmp_path):
    script = tmp_path / "stuck_job.py"
    script.write_text(_STUCK_JOB)
    src = Path(__file__).resolve().parents[2] / "src"
    path = os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, "PYTHONPATH": path}
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(script), pool], env=env, capture_output=True, text=True, timeout=60
    )
    exited_s = time.monotonic() - start
    *workers, last = proc.stdout.split("\n")[:-1]
    kind, *children = last.split()
    pids = {int(line.split()[1]) for line in workers} | set(map(int, children))
    assert (proc.returncode, kind) == (0, "timeout"), proc.stderr
    assert pids
    assert exited_s < 3.0
    time.sleep(1.0)
    assert not [pid for pid in pids if _alive(pid)]
