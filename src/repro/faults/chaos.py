"""The chaos harness: run the suite under faults, assert the invariants.

One :func:`run_chaos` call is the whole resilience story end to end:

1. **Clean reference** — the suite through the engine, no faults; its
   canonical archive bytes are the yardstick.
2. **Chaos run** — same suite, fresh store, under a seeded
   :class:`~repro.faults.plan.FaultPlan` and the chaos retry policy,
   inside a perfmon profile.  Invariants: every job completes within
   the retry budget, archives are **byte-identical** to the clean run,
   and the ``fault.*`` counters agree with what the injector reports.
3. **Store recovery** — a warm re-run over the store the chaos run
   corrupted: every damaged entry must be quarantined (not silently
   overwritten) and recomputed, archives again byte-identical.
4. **Degraded parity** — presets × degradations × kernel traces,
   ``Processor.execute`` must agree bit-exactly with the per-op oracle
   (:meth:`~repro.machine.processor.Processor.per_op_cycles`) on every
   degraded machine.
5. **Recovery** — CCM2/MOM/POP killed at a seeded step and restored
   from checkpoint finish bit-identical to uninterrupted integrations;
   conservation diagnostics stay healthy.
6. **NQS requeue** — a seeded batch workload across node faults: every
   job finishes, requeue accounting adds up.
7. **Service lifecycle** — the benchmark service walked through its
   resilience story on a logical clock: a lapsed deadline fails fast, a
   wedged worker's job is requeued behind an epoch fence, an injected
   heartbeat fault is supervised, a mid-job drain checkpoints/bounces/
   journals, and the restarted app finishes the checkpointed job
   byte-identical to an uninterrupted one.

Everything derived from the seed is deterministic — the report
contains no wall-clock times, so two runs with the same seed produce
byte-identical report JSON (CI diffs them).  The engine stages default
to ``jobs=1``: with a process pool, which jobs a dying worker takes
down with it depends on scheduling, which would make attempt counts
run-dependent.
"""

from __future__ import annotations

import math
import random
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

from repro.engine.executor import run_engine
from repro.engine.store import ResultStore, canonical_bytes
from repro.faults.plan import FaultPlan
from repro.faults.recovery import app_factories, run_with_recovery, states_identical
from repro.faults.retry import chaos_retry_policy
from repro.perfmon.collector import profile as perfmon_profile
from repro.suite.experiments import EXPERIMENTS
from repro.superux.nqs import BatchJob, NQSQueue, QueueComplex

__all__ = [
    "CHAOS_SCHEMA",
    "QUICK_EXPERIMENTS",
    "DEGRADED_TRACES",
    "ChaosCheck",
    "ChaosReport",
    "run_chaos",
]

CHAOS_SCHEMA = 1

#: The ``--quick`` subset: cheap experiments spanning kernels, apps and
#: multinode models, enough to exercise every fault kind.
QUICK_EXPERIMENTS = ("sec2", "table1", "figure6", "table3", "sec4.4", "table7")

#: Kernel traces the degraded-parity sweep prices on every machine.
DEGRADED_TRACES = ("copy", "ia", "stream", "rfft", "radabs")
_QUICK_TRACES = ("copy", "rfft")


@dataclass(frozen=True)
class ChaosCheck:
    """One asserted invariant and how it went."""

    name: str
    passed: bool
    detail: str

    def to_dict(self) -> dict:
        return {"name": self.name, "passed": self.passed, "detail": self.detail}


@dataclass
class ChaosReport:
    """Everything one chaos run established (no wall-clock anywhere)."""

    seed: int
    quick: bool
    jobs: int
    exp_ids: tuple[str, ...]
    plan: FaultPlan
    stages: dict[str, dict] = field(default_factory=dict)
    checks: list[ChaosCheck] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(check.passed for check in self.checks)

    def check(self, name: str, passed: bool, detail: str) -> None:
        self.checks.append(ChaosCheck(name=name, passed=bool(passed), detail=detail))

    def to_dict(self) -> dict:
        return {
            "schema": CHAOS_SCHEMA,
            "seed": self.seed,
            "quick": self.quick,
            "jobs": self.jobs,
            "exp_ids": list(self.exp_ids),
            "plan": self.plan.to_dict(),
            "stages": self.stages,
            "checks": [check.to_dict() for check in self.checks],
            "passed": self.passed,
        }

    def summary(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        failed = [check.name for check in self.checks if not check.passed]
        tail = f" — failing: {', '.join(failed)}" if failed else ""
        return (
            f"chaos (seed {self.seed}{', quick' if self.quick else ''}): "
            f"{verdict}, {len(self.checks)} invariants over "
            f"{len(self.exp_ids)} experiments{tail}"
        )


def _archive_bytes(report) -> dict[str, bytes]:
    return {r.exp_id: canonical_bytes(r.experiment) for r in report.successes}


def _engine_stages(chaos: ChaosReport, workdir: Path) -> None:
    """Stages 1-3: clean reference, chaos run, store recovery."""
    exp_ids = list(chaos.exp_ids)
    clean = run_engine(exp_ids, jobs=chaos.jobs,
                       store=ResultStore(workdir / "clean"))
    reference = _archive_bytes(clean)
    chaos.check("clean_run_succeeds", not clean.failures,
                f"{len(clean.failures)} failures in the fault-free run")
    chaos.stages["clean"] = {"experiments": len(exp_ids),
                             "failures": len(clean.failures)}

    injector = chaos.plan.injector()
    chaos_store = ResultStore(workdir / "chaos")
    with perfmon_profile(kind="chaos", seed=chaos.seed) as prof:
        report = run_engine(
            exp_ids, jobs=chaos.jobs, store=chaos_store,
            retry=chaos_retry_policy(), injector=injector,
        )
    failed = [f.exp_id for f in report.failures]
    chaos.check(
        "every_job_completes_within_retry_budget", not failed,
        f"failed after retries: {', '.join(failed) or 'none'}",
    )
    faulted = _archive_bytes(report)
    identical = [i for i in reference if faulted.get(i) == reference[i]]
    chaos.check(
        "chaos_archives_byte_identical", len(identical) == len(reference),
        f"{len(identical)}/{len(reference)} archives byte-identical to clean run",
    )
    injected = prof.counters.get("fault", "injected")
    chaos.check(
        "fault_counters_match_injector",
        injected == float(len(injector.applied)),
        f"fault.injected={injected:g} vs {len(injector.applied)} applied actions",
    )
    chaos.check(
        "whole_plan_applied", not injector.unapplied(),
        f"{len(injector.unapplied())} planned actions never fired",
    )
    planned_failures: dict[str, int] = {}
    for action in chaos.plan.actions:
        if action.site == "executor_job" and action.kind != "slow":
            planned_failures[action.exp_id] = planned_failures.get(action.exp_id, 0) + 1
    expected = {i: planned_failures.get(i, 0) + 1 for i in exp_ids}
    chaos.check(
        "attempts_match_plan", report.attempts == expected,
        "attempt counts equal planned failures + 1 for every job",
    )
    chaos.stages["chaos"] = {
        "failures": len(failed),
        "retry_rounds": report.retry_rounds,
        "serial_fallback": report.serial_fallback,
        "attempts": {i: n for i, n in sorted(report.attempts.items())},
        "injected_by_site": injector.applied_counts(),
        "fault_counters": {
            "injected": injected,
            "retries": prof.counters.get("fault", "retries"),
            "executor_job": prof.counters.get("fault", "executor_job"),
            "store_entry": prof.counters.get("fault", "store_entry"),
        },
    }

    # Stage 3: the chaos run corrupted entries *after* writing them; a
    # warm pass must quarantine and recompute exactly those.
    corrupted = [a.exp_id for a in injector.applied if a.kind == "corrupt"]
    warm_store = ResultStore(workdir / "chaos")
    warm = run_engine(exp_ids, jobs=chaos.jobs, store=warm_store)
    warm_bytes = _archive_bytes(warm)
    chaos.check(
        "corrupt_entries_quarantined",
        len(warm_store.quarantine_log) == len(corrupted),
        f"{len(warm_store.quarantine_log)} quarantined vs "
        f"{len(corrupted)} corrupted",
    )
    recomputed = [r.exp_id for r in warm.executed]
    chaos.check(
        "corrupt_entries_recomputed", sorted(recomputed) == sorted(corrupted),
        f"recomputed {', '.join(sorted(recomputed)) or 'nothing'}",
    )
    identical_warm = [i for i in reference if warm_bytes.get(i) == reference[i]]
    chaos.check(
        "recovered_archives_byte_identical",
        len(identical_warm) == len(reference) and not warm.failures,
        f"{len(identical_warm)}/{len(reference)} archives identical after recovery",
    )
    chaos.stages["store"] = {
        "corrupted": sorted(corrupted),
        "quarantined": len(warm_store.quarantine_log),
        "recomputed": sorted(recomputed),
    }


def _degraded_stage(chaos: ChaosReport) -> None:
    """Stage 4: execute/per-op-oracle bit-parity on every degraded machine."""
    from repro.analysis.traces import build_registered_trace
    from repro.faults.degraded import PRESETS, DegradedMachine, standard_degradations

    presets = ("sx4",) if chaos.quick else tuple(sorted(PRESETS))
    trace_ids = _QUICK_TRACES if chaos.quick else DEGRADED_TRACES
    traces = {trace_id: build_registered_trace(trace_id) for trace_id in trace_ids}
    cases = 0
    mismatches: list[str] = []
    for preset in presets:
        for degradation in standard_degradations(preset):
            processor = DegradedMachine(preset, degradation).processor()
            for trace_id, trace in traces.items():
                report = processor.execute(trace)
                oracle = math.fsum(processor.per_op_cycles(trace))
                cases += 1
                if (report.cycles != oracle
                        or report.seconds != processor.clock.seconds(oracle)):
                    mismatches.append(f"{preset}/{degradation.name}/{trace_id}")
    chaos.check(
        "degraded_costing_parity_bit_exact", not mismatches,
        f"{cases} preset x degradation x trace cases"
        + (f"; mismatched: {', '.join(mismatches)}" if mismatches else ""),
    )
    chaos.stages["degraded"] = {
        "presets": list(presets),
        "traces": list(trace_ids),
        "cases": cases,
        "mismatches": mismatches,
    }


def _recovery_stage(chaos: ChaosReport) -> None:
    """Stage 5: kill-and-restore is bit-identical; conservation holds."""
    rng = random.Random(f"{chaos.seed}:recovery")
    factories = app_factories()
    plans = {"ccm2": (8, 3), "mom": (10, 4), "pop": (6, 2)}
    apps = ("ccm2",) if chaos.quick else tuple(plans)
    stage: dict[str, dict] = {}
    for app in apps:
        steps, every = plans[app]
        kill_after = rng.randint(1, steps)
        make = factories[app]
        recovered, report = run_with_recovery(
            make, steps=steps, checkpoint_every=every, kill_after_step=kill_after
        )
        uninterrupted = make()
        uninterrupted.run(steps)
        identical = states_identical(recovered, uninterrupted)
        healthy = all(d.healthy for d in uninterrupted.diagnostics)
        chaos.check(
            f"recovery_bit_identical_{app}", identical,
            f"killed after step {kill_after}/{steps}, replayed "
            f"{report.replayed_steps} steps",
        )
        chaos.check(
            f"conservation_diagnostics_healthy_{app}", healthy,
            f"{len(uninterrupted.diagnostics)} diagnostic records",
        )
        stage[app] = dict(report.to_dict(), identical=identical, healthy=healthy)
    # The explicit conservation law: dynamics-only CCM2 conserves mass.
    from repro.apps.ccm2.gaussian import GaussianGrid
    from repro.apps.ccm2.model import CCM2Model

    model = CCM2Model(GaussianGrid(32, 64), trunc=21, nlev=4, physics_coupling=0.0)
    diags = model.run(5)
    drift = abs(diags[-1].mass - diags[0].mass) / abs(diags[0].mass)
    chaos.check(
        "ccm2_mass_conserved", drift < 1e-11,
        f"relative mass drift {drift:.3e} over 5 dynamics-only steps",
    )
    stage["ccm2_mass_rel_drift"] = {"drift": drift}
    chaos.stages["recovery"] = stage


def _nqs_stage(chaos: ChaosReport) -> None:
    """Stage 6: node faults requeue batch work, nothing is lost."""
    rng = random.Random(f"{chaos.seed}:nqs")
    complex_ = QueueComplex(
        queues=[
            NQSQueue(name="express", priority=10, run_limit=2,
                     max_cpus_per_job=16, max_run_seconds=3600.0),
            NQSQueue(name="batch", priority=0, run_limit=4,
                     max_cpus_per_job=32, max_run_seconds=86400.0),
        ],
        node_cpus=32,
    )
    jobs = []
    for i in range(5):
        job = BatchJob(
            name=f"chaos-job-{i}",
            cpus=rng.randint(2, 12),
            memory_gb=round(rng.uniform(0.5, 4.0), 3),
            duration_s=round(rng.uniform(120.0, 600.0), 1),
            submit_time=round(rng.uniform(0.0, 60.0), 1),
            checkpoint_interval_s=45.0 if i % 2 == 0 else None,
        )
        jobs.append(job)
        complex_.submit(job, "express" if job.cpus <= 16 and i % 3 == 0 else "batch")
    faults = sorted(round(rng.uniform(60.0, 400.0), 1) for _ in range(2))
    makespan = complex_.run(node_faults=faults, fault_downtime_s=30.0)
    finished = all(job.finish_time is not None for job in jobs)
    requeues = sum(job.requeues for job in jobs)
    accounted = sorted(record.job for record in complex_.accounting)
    chaos.check(
        "nqs_requeued_jobs_all_finish",
        finished and accounted == sorted(job.name for job in jobs),
        f"{len(jobs)} jobs, {requeues} requeues across "
        f"{len(faults)} node faults, makespan {makespan:g} s",
    )
    chaos.stages["nqs"] = {
        "jobs": len(jobs),
        "node_faults": list(faults),
        "requeues": requeues,
        "makespan_s": makespan,
        "accounting": [
            {"job": r.job, "queue": r.queue, "requeues": r.requeues,
             "ran_s": r.ran_s, "cpu_seconds": r.cpu_seconds}
            for r in sorted(complex_.accounting, key=lambda r: r.job)
        ],
    }


def _service_stage(chaos: ChaosReport, workdir: Path) -> None:
    """Stage 7: the service lifecycle on a logical clock.

    One single-threaded walk through the whole resilience story of
    DESIGN.md §5k — no sockets, no threads, no wall clock anywhere the
    report can see, so two seeded runs produce byte-identical stage
    dicts:

    * a job whose ``deadline_s`` lapses while queued fails as a timeout
      without spending engine time;
    * a worker that claims a job and stops heartbeating is caught by
      the watchdog: the job is requeued, the epoch fences the wedged
      worker's late write, and a fresh epoch completes the job;
    * an injected ``worker_heartbeat`` fault crashes the loop body and
      the supervisor restarts it (the job still completes);
    * a drain mid-job checkpoints the RUNNING record back to PENDING,
      bounces new submissions with ``503 + Retry-After``, sweeps orphan
      column segments, and journals a drain record (through the
      ``service_drain`` fault site);
    * a restarted app resumes the checkpointed job and finishes it
      **byte-identical** to an app that was never interrupted.
    """
    from repro.faults.inject import FaultAction, FaultInjector
    from repro.service.app import ServiceApp
    from repro.service.requests import DEFAULT_TENANT

    import json

    now = [0.0]

    def clock() -> float:
        return now[0]

    # Two *distinct* cheap experiments: the second job must get its own
    # content digest, or the drain walk would hit the first job's cache.
    distinct = list(dict.fromkeys(chaos.exp_ids + ("table1", "table2")))
    exp_a, exp_b = distinct[0], distinct[1]

    def submit(app: ServiceApp, ids: list[str], deadline_s: float | None = None):
        payload: dict = {"kind": "suite", "suite": {"ids": ids}}
        if deadline_s is not None:
            payload["deadline_s"] = deadline_s
        response = app.submit(json.dumps(payload).encode("utf-8"))
        return response, json.loads(response.body)

    app = ServiceApp(root=workdir / "service", clock=clock)

    # --- deadline: lapses while queued, fails without engine time -----
    _, submitted = submit(app, [exp_a], deadline_s=5.0)
    job_deadline = submitted["job_id"]
    now[0] = 10.0
    app.run_pending(1, epoch=app.worker_epoch)
    expired = app.spool.get(DEFAULT_TENANT, job_deadline)
    chaos.check(
        "service_deadline_expires_before_start",
        expired is not None
        and expired.state == "failed"
        and (expired.error or "").startswith("timeout"),
        f"queued job failed as: {expired.error if expired else 'missing'}",
    )

    # --- watchdog: wedge, requeue, fence, recover ---------------------
    _, submitted = submit(app, [exp_a])  # same digest; resubmits the failure
    job_a = submitted["job_id"]
    stale_epoch = app.worker_epoch
    claimed = app.next_pending()
    record = app.spool.get(*claimed)
    app.spool.mark_running(record)
    app.running_job = claimed  # a worker claimed the job, then wedged
    now[0] = 10.0 + app.stall_timeout_s + 1.0
    event = app.watchdog_check()
    chaos.check(
        "service_watchdog_requeues_wedged_job",
        event is not None and event["requeued"] == [job_a],
        f"watchdog event: {event}",
    )
    stale_write = app.run_one(DEFAULT_TENANT, job_a, epoch=stale_epoch)
    chaos.check(
        "service_stale_epoch_write_fenced",
        stale_write is None
        and app.profile.counters.get("watchdog", "fenced") == 1.0,
        "the wedged worker's late write was discarded behind the epoch fence",
    )

    # --- heartbeat fault: the supervisor restarts the loop ------------
    app.injector = FaultInjector(actions=(
        FaultAction(site="worker_heartbeat", exp_id="worker", kind="error"),
        FaultAction(site="service_drain", exp_id="drain", kind="slow",
                    delay_s=0.0),
    ))
    supervised = False
    try:
        app.run_pending(1, epoch=app.worker_epoch)
    except RuntimeError:
        app.note_worker_restart()  # what the server's worker loop does
        supervised = True
    app.run_pending(1, epoch=app.worker_epoch)
    done_a = app.spool.get(DEFAULT_TENANT, job_a)
    chaos.check(
        "service_worker_fault_supervised",
        supervised and done_a is not None and done_a.state == "done",
        f"injected heartbeat fault restarted the loop; job ended "
        f"{done_a.state if done_a else 'missing'}",
    )

    # --- drain mid-job: checkpoint, bounce, journal -------------------
    _, submitted = submit(app, [exp_b])
    job_b = submitted["job_id"]
    claimed = app.next_pending()
    app.spool.mark_running(app.spool.get(*claimed))
    app.running_job = claimed  # in flight as the signal lands
    outcome = app.drain(timeout_s=0.0, reason="chaos")
    journal = app.last_drain()
    chaos.check(
        "service_drain_checkpoints_and_journals",
        outcome["checkpointed"] == [job_b]
        and outcome["journaled"]
        and journal is not None
        and journal["checkpointed"] == [job_b],
        f"drain outcome: {outcome}",
    )
    bounced, payload = submit(app, [exp_a, exp_b])
    chaos.check(
        "service_drain_rejects_with_retry_after",
        bounced.status == 503
        and payload.get("reason") == "draining"
        and any(name == "Retry-After" for name, _ in bounced.headers),
        f"mid-drain submission answered {bounced.status} "
        f"(reason {payload.get('reason')!r})",
    )

    # --- restart: resume the checkpointed job, byte-identical ---------
    restarted = ServiceApp(root=workdir / "service", clock=clock)
    resumed = restarted.recover()
    restarted.run_pending(epoch=restarted.worker_epoch)
    done_b = restarted.spool.get(DEFAULT_TENANT, job_b)
    chaos.check(
        "service_restart_resumes_checkpointed_job",
        [r.job_id for r in resumed] == [job_b]
        and done_b is not None
        and done_b.state == "done"
        and restarted.profile.counters.get("drain", "resumed") == 1.0,
        f"resumed {len(resumed)} job(s); checkpointed job ended "
        f"{done_b.state if done_b else 'missing'}",
    )

    clean = ServiceApp(root=workdir / "service-clean", clock=clock)
    for ids in ([exp_a], [exp_b]):
        submit(clean, ids)
    clean.run_pending(epoch=clean.worker_epoch)
    identical = [
        job_id
        for job_id in (job_a, job_b)
        if clean.job_result(job_id, DEFAULT_TENANT).body
        == restarted.job_result(job_id, DEFAULT_TENANT).body
    ]
    chaos.check(
        "service_archives_byte_identical",
        identical == [job_a, job_b],
        f"{len(identical)}/2 interrupted-chain results byte-identical "
        f"to the uninterrupted app",
    )
    leaked = restarted.sweep_orphan_columns() + clean.sweep_orphan_columns()
    chaos.check(
        "service_no_orphan_segments", leaked == 0,
        f"{leaked} orphan column-cache segments after drain + restart",
    )

    counters = app.profile.counters
    chaos.stages["service"] = {
        "deadline": {
            name: counters.get("deadline", name)
            for name in ("admitted", "expired", "exceeded")
        },
        "watchdog": {
            name: counters.get("watchdog", name)
            for name in ("stalls", "requeues", "restarts", "fenced")
        },
        "drain": {
            name: counters.get("drain", name)
            for name in ("begun", "rejected", "checkpointed", "completed")
        },
        "resumed": restarted.profile.counters.get("drain", "resumed"),
        "checkpointed": outcome["checkpointed"],
        "injected_by_site": app.injector.applied_counts(),
        "byte_identical": identical,
    }


def run_chaos(
    seed: int,
    quick: bool = False,
    jobs: int = 1,
    workdir: str | Path | None = None,
    exp_ids: tuple[str, ...] | None = None,
) -> ChaosReport:
    """Run every chaos stage under one seeded fault plan.

    ``workdir`` holds the throwaway result stores (a temp directory,
    removed afterwards, unless one is given).  ``jobs`` above 1
    exercises the process pool at the cost of report determinism
    (crash collateral depends on pool scheduling).
    """
    ids = tuple(exp_ids) if exp_ids else (
        QUICK_EXPERIMENTS if quick else tuple(EXPERIMENTS)
    )
    plan = FaultPlan.sample(seed, ids)
    chaos = ChaosReport(seed=seed, quick=quick, jobs=jobs, exp_ids=ids, plan=plan)
    owns_workdir = workdir is None
    workdir = Path(tempfile.mkdtemp(prefix="repro-chaos-")) if owns_workdir \
        else Path(workdir)
    try:
        _engine_stages(chaos, workdir)
        _degraded_stage(chaos)
        _recovery_stage(chaos)
        _nqs_stage(chaos)
        _service_stage(chaos, workdir)
    finally:
        if owns_workdir:
            shutil.rmtree(workdir, ignore_errors=True)
    return chaos
