"""Parallel experiment execution with crash isolation and retry.

``execute_jobs`` fans experiment builders out over the workers of a
:class:`WorkerPool` (forked where the platform has fork).  A caller that
makes many engine calls, such as the service, keeps one pool for its
lifetime; without one, each call forks a pool and shuts it down before
it returns, so its workers see the registry exactly as the parent does
at that call.  Kept workers see the registry and the source pins as
they were when the pool forked.  The isolation contract:

* a builder that **raises** comes back as a structured
  :class:`JobFailure` (kind ``error``) carrying the traceback;
* a worker process that **dies** (segfault, ``os._exit``, OOM-kill)
  surfaces as kind ``crash``;
* a job that exceeds its **timeout** surfaces as kind ``timeout``,
  naming the job and the measured elapsed time;
* a worker whose loaded source differs from the pinned source the job
  was keyed on (a ``spawn`` worker importing an edited tree) refuses
  the job as kind ``code_drift``; nothing is stored and it is not
  retried;
* in every case the remaining jobs keep running and results come back
  in the order the ids were requested — never completion order.

``run_engine`` is the orchestrator the CLI and the suite runner call:
plan against the store, execute only stale/missing experiments,
persist what ran, and splice cache hits back in.  Given a
:class:`~repro.faults.retry.RetryPolicy` it re-runs transient failures
in backoff-spaced rounds, degrading from the process pool to serial
in-process execution when the pool keeps dying — the host-side
analogue of NQS requeueing (Section 2.6.3).  A
:class:`~repro.faults.inject.FaultInjector` threads seeded faults
through both the submission path and the store writes; all injection
decisions are made in the parent, so runs are reproducible.

With ``verify=True`` every result (executed or cached) is re-derived
serially in-process and byte-compared against
:func:`repro.engine.store.canonical_bytes` — the simulator is
deterministic, and this asserts it.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import threading
import time
import traceback
from collections.abc import Iterable
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field

from repro.engine.deps import ExperimentDigest, code_mismatch, experiment_code
from repro.engine.plan import HIT, ExecutionPlan, plan_suite
from repro.engine.store import ResultStore, canonical_bytes
from repro.perfmon.collector import deactivate as perfmon_deactivate
from repro.perfmon.collector import record as perfmon_record
from repro.perfmon.collector import span as perfmon_span
from repro.perfmon.counters import declare_counters
from repro.suite.results import Experiment

__all__ = [
    "EXECUTED",
    "CACHE",
    "JobResult",
    "JobFailure",
    "DeterminismError",
    "EngineReport",
    "WorkerPool",
    "execute_jobs",
    "run_engine",
]

EXECUTED = "executed"
CACHE = "cache"

declare_counters("fault", ("retries", "backoff_s", "serial_fallbacks"))

#: How often a pool worker checks that the process that forked it lives.
OWNER_POLL_S = 0.25


@dataclass(frozen=True)
class JobResult:
    """One experiment that produced a result."""

    exp_id: str
    experiment: Experiment
    elapsed_s: float  # wall seconds the (original) execution took
    source: str  # EXECUTED or CACHE
    worker_pid: int = 0
    #: wall seconds this run spent obtaining the result (queue + execute
    #: for executed jobs, store read for cache hits); ``elapsed_s`` can
    #: predate this run when the result came from cache.
    host_elapsed_s: float | None = None


@dataclass(frozen=True)
class JobFailure:
    """One experiment that did not: error, crash, or timeout.

    A failure never propagates as an exception out of the executor —
    it is a value in the result list, in the failed job's slot.
    """

    exp_id: str
    kind: str  # "error" | "crash" | "timeout" | "code_drift"
    message: str
    traceback: str = ""

    def summary_line(self) -> str:
        return f"FAIL {self.exp_id:<10} [{self.kind}] {self.message}"


class DeterminismError(AssertionError):
    """Serial, parallel, and cached bytes disagreed — should be impossible."""


def _apply_worker_fault(exp_id: str, fault: dict, start: float) -> dict | None:
    """Act on an injected fault directive inside the worker.

    Returns a failure payload, or None when the job should proceed
    (``slow`` faults stall, then run normally).  A ``crash`` really
    kills the process only when the directive says we are a pool
    worker; in the parent (serial mode) it is simulated as data —
    taking down the whole engine is not part of the model.
    """
    kind = fault["kind"]
    if kind == "slow":
        time.sleep(fault.get("delay_s", 0.0))
        return None
    if kind == "error":
        message = "InjectedFault: builder error (fault injection)"
        return {"ok": False, "exp_id": exp_id, "kind": "error",
                "message": message, "traceback": message}
    if kind == "crash":
        if fault.get("in_worker"):
            os._exit(70)
        return {
            "ok": False,
            "exp_id": exp_id,
            "kind": "crash",
            "message": "worker died: injected crash (simulated in-process)",
            "traceback": "",
        }
    if kind == "timeout":
        time.sleep(fault.get("delay_s", 0.0))
        elapsed = time.perf_counter() - start
        return {
            "ok": False,
            "exp_id": exp_id,
            "kind": "timeout",
            "message": (
                f"job {exp_id} exceeded its injected time limit "
                f"after {elapsed:.2f} s"
            ),
            "traceback": "",
        }
    raise ValueError(f"unknown fault kind {kind!r}")


def _execute_job(
    exp_id: str, fault: dict | None = None, code: tuple[tuple[str, bytes], ...] = ()
) -> dict:
    """Worker entry: build one experiment, serialized for the pipe.

    Returns a plain dict (picklable regardless of what the builder
    touched); builder exceptions are caught here so they come back as
    data, not as a poisoned future.  ``fault`` is an injected-fault
    directive decided by the parent (see :mod:`repro.faults.inject`).
    ``code`` is the parent's ``(module, sha256)`` pins for the job's
    key (:func:`~repro.engine.deps.experiment_code`); a worker that
    loaded other source refuses the job.
    """
    from repro.suite.archive import experiment_to_dict
    from repro.suite.experiments import EXPERIMENTS

    start = time.perf_counter()
    drifted = code_mismatch(code)
    if drifted:
        return {
            "ok": False,
            "exp_id": exp_id,
            "kind": "code_drift",
            "message": (
                "worker loaded other source than the job is keyed on: "
                + ", ".join(drifted)
            ),
            "traceback": "",
        }
    if fault is not None:
        payload = _apply_worker_fault(exp_id, fault, start)
        if payload is not None:
            return payload
    try:
        experiment = EXPERIMENTS[exp_id]()
        return {
            "ok": True,
            "exp_id": exp_id,
            "experiment": experiment_to_dict(experiment),
            "elapsed_s": time.perf_counter() - start,
            "pid": os.getpid(),
        }
    except Exception as exc:
        return {
            "ok": False,
            "exp_id": exp_id,
            "kind": "error",
            "message": f"{type(exc).__name__}: {exc}",
            "traceback": traceback.format_exc(),
        }


def _from_payload(payload: dict) -> JobResult | JobFailure:
    from repro.suite.archive import experiment_from_dict

    if payload["ok"]:
        return JobResult(
            exp_id=payload["exp_id"],
            experiment=experiment_from_dict(payload["experiment"]),
            elapsed_s=payload["elapsed_s"],
            source=EXECUTED,
            worker_pid=payload["pid"],
        )
    return JobFailure(
        exp_id=payload["exp_id"],
        kind=payload.get("kind", "error"),
        message=payload["message"],
        traceback=payload.get("traceback", ""),
    )


def _job_code(exp_id: str) -> tuple[tuple[str, bytes], ...]:
    """The pins a pool job carries; none for an id the registry lacks
    (the worker reports that as the job's error)."""
    try:
        return experiment_code(exp_id)
    except KeyError:
        return ()


def _pool_context():
    """Fork where available: workers inherit the parent's module state."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:
        return multiprocessing.get_context()


def _start_worker(owner_pid: int) -> None:
    """Pool-worker initializer: no inherited profile, no life past the owner.

    A worker forked inside a perfmon profile would record counters and
    spans nobody reads, and a kept worker would pile them up job after
    job.  The watch thread ends a worker whose owner died without
    shutting its pool down (``kill -9``).
    """
    perfmon_deactivate()
    threading.Thread(
        target=_exit_with_owner, args=(owner_pid,), name="repro-owner-watch", daemon=True
    ).start()


def _exit_with_owner(owner_pid: int) -> None:
    while os.getppid() == owner_pid:
        time.sleep(OWNER_POLL_S)
    os._exit(0)


class WorkerPool:
    """Engine worker processes kept across calls, replaced when they break.

    The workers fork on the first submission.  A pool is replaced by a
    fresh one, again forked on its next use, when a worker died
    (``BrokenProcessPool``), when a job overran its timeout (its worker
    may stay busy past it), and in a process other than the one that
    made it (a forked owner).  Jobs already handed to the old workers,
    from any thread, still finish there.  :meth:`close` shuts the
    workers down; a later submission forks new ones.
    """

    def __init__(self, jobs: int) -> None:
        if jobs < 1:
            raise ValueError(f"need at least one worker, got {jobs}")
        self.jobs = jobs
        self._lock = threading.Lock()
        self._executor: ProcessPoolExecutor | None = None
        self._owner_pid = 0
        #: the workers of retired executors that may still run a job:
        #: ``shutdown`` drops an executor's process handles.
        self._retired: list = []

    def _live(self) -> ProcessPoolExecutor:
        if self._owner_pid != os.getpid():  # a forked owner's workers are not ours
            self._owner_pid, self._executor, self._retired = os.getpid(), None, []
        if self._executor is None:
            self._executor = ProcessPoolExecutor(
                max_workers=self.jobs,
                mp_context=_pool_context(),
                initializer=_start_worker,
                initargs=(self._owner_pid,),
            )
        return self._executor

    def submit(self, fn, /, *args) -> Future:
        """Queue ``fn(*args)`` on the workers, forking them if there are none.

        Workers that broke since the last call (one died while idle)
        are replaced first, so the job does not fail for their death.
        """
        with self._lock:
            try:
                return self._live().submit(fn, *args)
            except BrokenProcessPool:
                self._retire()
                return self._live().submit(fn, *args)

    def replace(self) -> None:
        """Retire the live workers: the next submission forks new ones.

        Nothing queued is cancelled and nothing is waited for, so a job
        of another thread still finishes in the old workers, and a hung
        one holds up no later call.
        """
        with self._lock:
            self._retire()

    def _retire(self) -> None:
        executor, self._executor = self._executor, None
        if executor is not None and self._owner_pid == os.getpid():
            self._retired = [p for p in self._retired if p.is_alive()]
            self._retired += executor._processes.values()
            executor.shutdown(wait=False)

    def close(self, wait: bool = True) -> None:
        """Shut the workers down, cancelling the jobs none of them started.

        ``wait`` blocks until they have exited.  A caller that abandoned
        a running job passes False: every worker the pool started that
        is still running, retired ones included, is then killed, so no
        overrun job holds up this process's exit.  SIGKILL, because a
        worker forked from a serving process ignores SIGTERM.
        """
        with self._lock:
            executor, self._executor = self._executor, None
            if self._owner_pid != os.getpid():
                return
            if not wait:
                live = [] if executor is None else list(executor._processes.values())
                for process in self._retired + live:
                    if process.is_alive():
                        process.kill()
                self._retired = []
            if executor is None:
                return
        # Waiting lets the pool's manager thread close its wake-up pipe
        # before the interpreter's exit hook writes to it.
        executor.shutdown(wait=wait, cancel_futures=True)


def _finish_span(span, outcome: JobResult | JobFailure, queue_s: float | None = None):
    """Annotate an engine:job span with how the job went (span may be
    None when no profile is active)."""
    if span is None:
        return
    if isinstance(outcome, JobResult):
        span.attrs["status"] = "ok"
        span.attrs["execute_s"] = outcome.elapsed_s
    else:
        span.attrs["status"] = outcome.kind
    if queue_s is not None:
        span.attrs["queue_s"] = queue_s


def _poll_fault(injector, exp_id: str, in_worker: bool) -> dict | None:
    """The parent-side injection decision for one job submission."""
    if injector is None:
        return None
    from repro.faults.inject import fault_point

    action = fault_point("executor_job", injector, exp_id)
    return None if action is None else action.directive(in_worker)


def execute_jobs(
    exp_ids: Iterable[str],
    jobs: int = 1,
    timeout_s: float | None = None,
    cache_status: dict[str, str] | None = None,
    injector=None,
    pool: WorkerPool | None = None,
) -> list[JobResult | JobFailure]:
    """Run builders, ``jobs`` at a time; results in request order.

    ``jobs=1`` runs inline in this process (no pool, no pickling) —
    the serial reference path the parallel one must byte-match.
    Otherwise the jobs run in ``pool``'s workers, or, without one, in a
    :class:`WorkerPool` of ``min(jobs, len(exp_ids))`` workers made for
    this call and shut down before it returns.
    ``timeout_s`` is per job, measured while the engine waits on it.
    ``cache_status`` (exp_id -> plan status, e.g. ``miss``/``stale``)
    only annotates the perfmon spans; execution ignores it.
    ``injector`` (a :class:`~repro.faults.inject.FaultInjector`)
    threads planned faults into submissions; decisions happen here in
    the parent, in request order, so runs replay identically.

    When a :mod:`repro.perfmon` profile is active, every job gets an
    ``engine:job:<exp_id>`` host span with cache/status/queue/execute
    attributes, and each :class:`JobResult` carries ``host_elapsed_s``
    (submit-to-result wall time as seen by this process).
    """
    ids = list(exp_ids)
    if jobs < 1:
        raise ValueError(f"need at least one job slot, got {jobs}")
    if not ids:
        return []
    status_of = cache_status or {}
    if jobs == 1:
        results: list[JobResult | JobFailure] = []
        for exp_id in ids:
            start = time.perf_counter()
            fault = _poll_fault(injector, exp_id, in_worker=False)
            with perfmon_span(
                f"engine:job:{exp_id}",
                exp_id=exp_id,
                source=EXECUTED,
                cache=status_of.get(exp_id, "bypass"),
            ) as job_span:
                outcome = _from_payload(_execute_job(exp_id, fault))
            _finish_span(job_span, outcome, queue_s=0.0)
            if isinstance(outcome, JobResult):
                outcome = dataclasses.replace(
                    outcome, host_elapsed_s=time.perf_counter() - start
                )
            results.append(outcome)
        return results

    results = []
    # Pinned before a one-call pool forks, so its workers inherit every pin.
    codes = {exp_id: _job_code(exp_id) for exp_id in ids}
    owned = WorkerPool(min(jobs, len(ids))) if pool is None else None
    workers = owned or pool
    timed_out = False
    try:
        submitted = time.perf_counter()
        futures = [
            (
                exp_id,
                workers.submit(
                    _execute_job,
                    exp_id,
                    _poll_fault(injector, exp_id, in_worker=True),
                    codes[exp_id],
                ),
            )
            for exp_id in ids
        ]
        for exp_id, future in futures:
            with perfmon_span(
                f"engine:job:{exp_id}",
                exp_id=exp_id,
                source=EXECUTED,
                cache=status_of.get(exp_id, "bypass"),
            ) as job_span:
                try:
                    outcome = _from_payload(future.result(timeout=timeout_s))
                except FutureTimeoutError:
                    future.cancel()
                    if not timed_out:
                        workers.replace()  # the overrunning worker may stay busy
                    timed_out = True
                    elapsed = time.perf_counter() - submitted
                    outcome = JobFailure(
                        exp_id=exp_id,
                        kind="timeout",
                        message=(
                            f"job {exp_id} exceeded the {timeout_s:g} s limit "
                            f"after {elapsed:.2f} s"
                        ),
                    )
                except Exception as exc:  # worker died: BrokenProcessPool etc.
                    outcome = JobFailure(
                        exp_id=exp_id,
                        kind="crash",
                        message=f"worker died: {type(exc).__name__}: {exc}",
                    )
            host_elapsed = time.perf_counter() - submitted
            if isinstance(outcome, JobResult):
                queue_s = max(0.0, host_elapsed - outcome.elapsed_s)
                _finish_span(job_span, outcome, queue_s=queue_s)
                outcome = dataclasses.replace(outcome, host_elapsed_s=host_elapsed)
            else:
                _finish_span(job_span, outcome)
            results.append(outcome)
    finally:
        if owned is not None:
            # After a timeout a hung worker must not block the caller.
            owned.close(wait=not timed_out)
    return results


@dataclass
class EngineReport:
    """Everything one engine invocation did, in deterministic order."""

    plan: ExecutionPlan
    results: list[JobResult | JobFailure] = field(default_factory=list)
    jobs: int = 1
    wall_s: float = 0.0
    #: executions per exp_id (only ids that ran; 1 = first try sufficed).
    attempts: dict[str, int] = field(default_factory=dict)
    retry_rounds: int = 0
    serial_fallback: bool = False

    @property
    def successes(self) -> list[JobResult]:
        return [r for r in self.results if isinstance(r, JobResult)]

    @property
    def failures(self) -> list[JobFailure]:
        return [r for r in self.results if isinstance(r, JobFailure)]

    @property
    def cache_hits(self) -> list[JobResult]:
        return [r for r in self.successes if r.source == CACHE]

    @property
    def executed(self) -> list[JobResult]:
        return [r for r in self.successes if r.source == EXECUTED]

    @property
    def experiments(self) -> list[Experiment]:
        return [r.experiment for r in self.successes]

    @property
    def retried(self) -> list[str]:
        return [exp_id for exp_id, n in self.attempts.items() if n > 1]

    def cache_counts(self) -> dict[str, int]:
        return {
            "hits": len(self.cache_hits),
            "executed": len(self.executed),
            "failed": len(self.failures),
            "total": len(self.results),
        }

    def summary(self) -> str:
        c = self.cache_counts()
        plan = self.plan.counts()
        retries = (
            f", {len(self.retried)} retried"
            f"{' (serial fallback)' if self.serial_fallback else ''}"
            if self.retried
            else ""
        )
        return (
            f"engine: {c['total']} experiments — {c['hits']} cache hits, "
            f"{c['executed']} executed ({plan['stale']} stale, "
            f"{plan['miss']} new), {c['failed']} failed{retries} "
            f"[jobs={self.jobs}, {self.wall_s:.2f}s]"
        )


def _verify_results(report: EngineReport) -> None:
    """Re-derive every success serially; byte-compare against it."""
    mismatched = []
    for result in report.successes:
        reference = _from_payload(_execute_job(result.exp_id))
        if isinstance(reference, JobFailure):
            mismatched.append(f"{result.exp_id} (re-run failed: {reference.message})")
        elif canonical_bytes(reference.experiment) != canonical_bytes(result.experiment):
            mismatched.append(f"{result.exp_id} ({result.source} path)")
    if mismatched:
        raise DeterminismError(
            "results are not byte-identical to a serial re-run: "
            + ", ".join(mismatched)
        )


def run_engine(
    exp_ids: Iterable[str] | None = None,
    jobs: int = 1,
    use_cache: bool = True,
    store: ResultStore | None = None,
    timeout_s: float | None = None,
    verify: bool = False,
    retry=None,
    injector=None,
    pool: WorkerPool | None = None,
) -> EngineReport:
    """Plan, execute what's stale, persist, splice cache hits back in.

    ``retry`` (a :class:`~repro.faults.retry.RetryPolicy`) re-runs
    transient failures in backoff-spaced rounds until they succeed or
    the attempt budget runs out; repeated crash rounds degrade the
    pool to serial execution.  ``injector`` threads a seeded fault
    plan through submissions and store writes; with neither set the
    behavior is exactly the pre-resilience engine.  ``pool`` is the
    caller's kept :class:`WorkerPool` for rounds run at ``jobs > 1``
    (see :func:`execute_jobs`).
    """
    store = store if store is not None else ResultStore()
    if injector is not None:
        store.fault_injector = injector
    start = time.perf_counter()
    plan = plan_suite(store, exp_ids)
    digests: dict[str, ExperimentDigest] = {
        e.exp_id: e.digest for e in plan.entries
    }

    by_id: dict[str, JobResult | JobFailure] = {}
    run_ids = []
    cache_status = {e.exp_id: e.status for e in plan.entries}
    for entry in plan.entries:
        if use_cache and entry.status == HIT:
            read_start = time.perf_counter()
            with perfmon_span(
                f"engine:job:{entry.exp_id}",
                exp_id=entry.exp_id,
                source=CACHE,
                cache="hit",
                status="ok",
            ):
                cached = store.get(entry.digest)
        else:
            cached = None
        if cached is not None:
            by_id[entry.exp_id] = JobResult(
                exp_id=cached.exp_id,
                experiment=cached.experiment,
                elapsed_s=cached.elapsed_s,
                source=CACHE,
                host_elapsed_s=time.perf_counter() - read_start,
            )
        else:
            run_ids.append(entry.exp_id)

    attempts: dict[str, int] = {exp_id: 0 for exp_id in run_ids}

    def run_round(ids: list[str], round_jobs: int) -> list[JobResult | JobFailure]:
        outcomes = execute_jobs(
            ids, jobs=round_jobs, timeout_s=timeout_s,
            cache_status=cache_status, injector=injector, pool=pool,
        )
        for outcome in outcomes:
            attempts[outcome.exp_id] += 1
            by_id[outcome.exp_id] = outcome
            if use_cache and isinstance(outcome, JobResult):
                store.put(
                    digests[outcome.exp_id], outcome.experiment, outcome.elapsed_s
                )
        return outcomes

    def round_crashed(outcomes: list[JobResult | JobFailure]) -> bool:
        return any(isinstance(o, JobFailure) and o.kind == "crash" for o in outcomes)

    outcomes = run_round(run_ids, jobs)
    retry_rounds = 0
    serial_fallback = False
    if retry is not None and run_ids:
        current_jobs = jobs
        crash_streak = 1 if round_crashed(outcomes) else 0
        while True:
            pending = [
                exp_id
                for exp_id in run_ids
                if isinstance(by_id[exp_id], JobFailure)
                and retry.is_transient(by_id[exp_id].kind)
                and attempts[exp_id] < retry.max_attempts
            ]
            if not pending:
                break
            if current_jobs > 1 and crash_streak >= retry.crash_rounds_before_serial:
                current_jobs = 1
                serial_fallback = True
                perfmon_record("fault", {"serial_fallbacks": 1.0})
            delay = max(retry.delay_s(exp_id, attempts[exp_id]) for exp_id in pending)
            if delay > 0:
                retry.sleep(delay)
            perfmon_record(
                "fault", {"retries": float(len(pending)), "backoff_s": delay}
            )
            retry_rounds += 1
            outcomes = run_round(pending, current_jobs)
            crash_streak = crash_streak + 1 if round_crashed(outcomes) else 0

    report = EngineReport(
        plan=plan,
        results=[by_id[e.exp_id] for e in plan.entries],
        jobs=jobs,
        wall_s=time.perf_counter() - start,
        attempts=dict(attempts),
        retry_rounds=retry_rounds,
        serial_fallback=serial_fallback,
    )
    if verify:
        _verify_results(report)
    return report
