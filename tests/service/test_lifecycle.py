"""Tests for the service lifecycle layer (DESIGN.md §5k).

The resilience acceptance properties live here: graceful drain that
loses zero jobs (bounce, checkpoint, journal, resume byte-identically),
deadline budgets propagated into the engine and enforced on both sides
of execution, the per-(tenant, kind) circuit breaker, and the worker
watchdog with its epoch fence.  Everything runs on a logical clock —
no sleeps, no wall-clock flake.
"""

import json
import threading
import time

import pytest

import repro.service.app as app_module
from repro.engine.executor import run_engine
from repro.service.app import ServiceApp
from repro.service.lifecycle import (
    BREAKER_CLOSED,
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
    CircuitBreaker,
    retry_after_header,
)
from repro.service.requests import DEFAULT_TENANT
from repro.service.spool import DONE, FAILED, PENDING, JobSpool

SUITE = {"kind": "suite", "suite": {"ids": ["table2"]}}

KEY = ("public", "suite")


def submit(app, body=SUITE, **extra):
    response = app.handle("POST", "/v1/jobs", json.dumps({**body, **extra}).encode())
    return response, json.loads(response.body)


@pytest.fixture
def clocked(tmp_path):
    """(app, now) — a service app driven entirely by a logical clock."""
    now = [0.0]
    app = ServiceApp(root=tmp_path / "cache", clock=lambda: now[0])
    return app, now


class TestCircuitBreaker:
    def test_closed_admits(self):
        breaker = CircuitBreaker()
        decision = breaker.admit(KEY, now=0.0)
        assert decision.allowed and decision.state == BREAKER_CLOSED

    def test_trips_after_consecutive_failures(self):
        breaker = CircuitBreaker(failure_threshold=3, cooldown_s=10.0)
        assert breaker.record_failure(KEY, now=0.0) is None
        assert breaker.record_failure(KEY, now=1.0) is None
        assert breaker.record_failure(KEY, now=2.0) == "opened"
        assert breaker.state(KEY) == BREAKER_OPEN

    def test_success_resets_the_streak(self):
        breaker = CircuitBreaker(failure_threshold=2)
        breaker.record_failure(KEY, now=0.0)
        breaker.record_success(KEY)
        assert breaker.record_failure(KEY, now=1.0) is None  # streak restarted
        assert breaker.state(KEY) == BREAKER_CLOSED

    def test_open_fast_fails_with_remaining_cooldown(self):
        breaker = CircuitBreaker(failure_threshold=1, cooldown_s=10.0)
        breaker.record_failure(KEY, now=0.0)
        decision = breaker.admit(KEY, now=4.0)
        assert not decision.allowed
        assert decision.state == BREAKER_OPEN
        assert decision.retry_after_s == pytest.approx(6.0)

    def test_cooldown_elapsed_admits_one_probe(self):
        breaker = CircuitBreaker(failure_threshold=1, cooldown_s=10.0)
        breaker.record_failure(KEY, now=0.0)
        probe = breaker.admit(KEY, now=11.0)
        assert probe.allowed and probe.event == "probe"
        assert probe.state == BREAKER_HALF_OPEN
        # While the probe is out, everything else still bounces.
        follower = breaker.admit(KEY, now=11.5)
        assert not follower.allowed and follower.state == BREAKER_HALF_OPEN

    def test_probe_success_closes(self):
        breaker = CircuitBreaker(failure_threshold=1, cooldown_s=10.0)
        breaker.record_failure(KEY, now=0.0)
        breaker.admit(KEY, now=11.0)
        assert breaker.record_success(KEY) == "closed"
        assert breaker.admit(KEY, now=12.0).allowed

    def test_probe_failure_reopens_immediately(self):
        breaker = CircuitBreaker(failure_threshold=3, cooldown_s=10.0)
        for t in range(3):
            breaker.record_failure(KEY, now=float(t))
        breaker.admit(KEY, now=13.0)  # half-open probe goes out
        assert breaker.record_failure(KEY, now=14.0) == "opened"
        assert not breaker.admit(KEY, now=15.0).allowed

    def test_keys_are_independent(self):
        breaker = CircuitBreaker(failure_threshold=1)
        breaker.record_failure(KEY, now=0.0)
        assert breaker.admit(("public", "sweep"), now=1.0).allowed
        assert not breaker.admit(KEY, now=1.0).allowed

    def test_snapshot_lists_only_interesting_slots(self):
        breaker = CircuitBreaker(failure_threshold=2)
        breaker.admit(KEY, now=0.0)  # clean slot: not listed
        breaker.record_failure(("acme", "suite"), now=0.0)
        snapshot = breaker.snapshot()
        assert list(snapshot) == ["acme/suite"]
        assert snapshot["acme/suite"]["consecutive_failures"] == 1

    def test_validation(self):
        with pytest.raises(ValueError, match="failure_threshold"):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(ValueError, match="cooldown_s"):
            CircuitBreaker(cooldown_s=0.0)

    def test_retry_after_header_rounds_up_to_at_least_one(self):
        assert retry_after_header(0.2) == (("Retry-After", "1"),)
        assert retry_after_header(4.3) == (("Retry-After", "5"),)


class TestDeadlines:
    def test_deadline_is_excluded_from_the_job_id(self, clocked):
        app, _ = clocked
        _, with_deadline = submit(app, deadline_s=60.0)
        app.queue.clear()
        other = ServiceApp(root=app.root.parent / "other")
        _, without = submit(other)
        assert with_deadline["job_id"] == without["job_id"]

    def test_bad_deadline_is_400(self, clocked):
        app, _ = clocked
        for bad in (0, -5, "soon", True, float("nan")):
            response, payload = submit(app, deadline_s=bad)
            assert response.status == 400, bad
            assert payload["reason"] == "bad_request"

    def test_status_reports_remaining_budget(self, clocked):
        app, now = clocked
        _, payload = submit(app, deadline_s=60.0)
        now[0] = 15.0
        status = json.loads(
            app.handle("GET", f"/v1/jobs/{payload['job_id']}", b"").body
        )
        assert status["deadline_s"] == 60.0
        assert status["deadline_remaining_s"] == pytest.approx(45.0)
        assert app.profile.counters.get("deadline", "admitted") == 1.0

    def test_expired_in_queue_fails_without_the_engine(self, clocked, monkeypatch):
        app, now = clocked

        def forbidden(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("engine ran for an already-dead job")

        monkeypatch.setattr(app_module, "run_engine", forbidden)
        _, payload = submit(app, deadline_s=5.0)
        now[0] = 10.0
        assert app.run_pending(1, epoch=app.worker_epoch) == 1
        record = app.spool.get(DEFAULT_TENANT, payload["job_id"])
        assert record.state == FAILED
        assert record.error.startswith("timeout")
        assert app.profile.counters.get("deadline", "expired") == 1.0

    def test_remaining_budget_propagates_as_engine_timeout(
        self, clocked, monkeypatch
    ):
        app, now = clocked
        seen = {}

        def spying(*args, **kwargs):
            seen["timeout_s"] = kwargs.get("timeout_s")
            return run_engine(*args, **kwargs)

        monkeypatch.setattr(app_module, "run_engine", spying)
        _, payload = submit(app, deadline_s=60.0)
        now[0] = 20.0
        app.run_pending(1, epoch=app.worker_epoch)
        assert seen["timeout_s"] == pytest.approx(40.0)
        assert app.spool.get(DEFAULT_TENANT, payload["job_id"]).state == DONE

    def test_overrun_fails_as_timeout_and_skips_the_breaker(
        self, clocked, monkeypatch
    ):
        app, now = clocked

        def slow(*args, **kwargs):
            now[0] += 100.0  # the job ran long past its budget
            return run_engine(*args, **kwargs)

        monkeypatch.setattr(app_module, "run_engine", slow)
        _, payload = submit(app, deadline_s=30.0)
        app.run_pending(1, epoch=app.worker_epoch)
        record = app.spool.get(DEFAULT_TENANT, payload["job_id"])
        assert record.state == FAILED
        assert "exceeded" in record.error
        assert app.profile.counters.get("deadline", "exceeded") == 1.0
        # A lapsed client budget says nothing about builder health.
        assert app.profile.counters.get("breaker", "failures") == 0.0
        assert app.breaker.state(KEY) == BREAKER_CLOSED


class TestBreakerInApp:
    @pytest.fixture
    def tripping(self, tmp_path):
        now = [0.0]
        app = ServiceApp(
            root=tmp_path / "cache",
            clock=lambda: now[0],
            breaker=CircuitBreaker(failure_threshold=2, cooldown_s=30.0),
        )
        return app, now

    def _fail_engine(self, monkeypatch):
        def failing(*args, **kwargs):
            raise RuntimeError("builder exploded")

        monkeypatch.setattr(app_module, "run_engine", failing)

    def test_consecutive_failures_open_and_fast_fail(self, tripping, monkeypatch):
        app, now = tripping
        self._fail_engine(monkeypatch)
        for i in range(2):
            _, payload = submit(app, tag=f"boom-{i}")
            app.run_pending(1, epoch=app.worker_epoch)
        assert app.profile.counters.get("breaker", "opened") == 1.0
        response, payload = submit(app, tag="doomed")
        assert response.status == 503
        assert payload["reason"] == "breaker_open"
        assert any(name == "Retry-After" for name, _ in response.headers)
        assert app.profile.counters.get("breaker", "fast_fails") == 1.0
        assert len(app.queue) == 0  # the bounced job was never spooled

    def test_probe_after_cooldown_closes_on_success(self, tripping, monkeypatch):
        app, now = tripping
        self._fail_engine(monkeypatch)
        for i in range(2):
            submit(app, tag=f"boom-{i}")
            app.run_pending(1, epoch=app.worker_epoch)
        monkeypatch.setattr(app_module, "run_engine", run_engine)  # healed
        now[0] = 31.0
        response, payload = submit(app, tag="probe")
        assert response.status == 202  # the half-open probe is admitted
        assert app.profile.counters.get("breaker", "probes") == 1.0
        app.run_pending(1, epoch=app.worker_epoch)
        assert app.profile.counters.get("breaker", "closed") == 1.0
        assert submit(app, tag="after")[0].status == 202

    def test_hits_and_pending_twins_bypass_an_open_breaker(
        self, tripping, monkeypatch
    ):
        app, now = tripping
        _, done = submit(app, tag="good")
        app.run_pending(1, epoch=app.worker_epoch)
        self._fail_engine(monkeypatch)
        for i in range(2):
            submit(app, tag=f"boom-{i}")
            app.run_pending(1, epoch=app.worker_epoch)
        # The breaker is open, but completed work is already paid for.
        response, payload = submit(app, tag="good")
        assert response.status == 200
        assert payload["cache"] == "hit"


class TestDrain:
    def test_draining_bounces_submissions_with_retry_after(self, clocked):
        app, _ = clocked
        app.begin_drain("test")
        response, payload = submit(app)
        assert response.status == 503
        assert payload["reason"] == "draining"
        assert ("Retry-After", "5") in response.headers
        assert app.profile.counters.get("drain", "rejected") == 1.0

    def test_reads_still_work_while_draining(self, clocked):
        app, _ = clocked
        _, payload = submit(app)
        app.run_pending(1, epoch=app.worker_epoch)
        app.begin_drain("test")
        status = app.handle("GET", f"/v1/jobs/{payload['job_id']}", b"")
        result = app.handle("GET", f"/v1/jobs/{payload['job_id']}/result", b"")
        assert status.status == 200 and result.status == 200

    def test_drain_journals_a_record(self, clocked):
        app, now = clocked
        now[0] = 42.0
        outcome = app.drain(timeout_s=0.0, reason="test")
        assert outcome["journaled"]
        journal = app.last_drain()
        assert journal["reason"] == "test"
        assert journal["drained_at"] == 42.0
        assert journal["checkpointed"] == []
        assert app.profile.counters.get("drain", "begun") == 1.0
        assert app.profile.counters.get("drain", "completed") == 1.0

    def test_drain_timeout_checkpoints_the_running_job(self, clocked):
        app, _ = clocked
        _, payload = submit(app)
        claimed = app.next_pending()
        app.spool.mark_running(app.spool.get(*claimed))
        app.running_job = claimed  # a worker is mid-job as the signal lands
        epoch_before = app.worker_epoch
        outcome = app.drain(timeout_s=0.0, reason="test")
        assert outcome["checkpointed"] == [payload["job_id"]]
        record = app.spool.get(DEFAULT_TENANT, payload["job_id"])
        assert record.state == PENDING
        assert app.worker_epoch == epoch_before + 1  # the late write is fenced

    def test_restart_resumes_checkpointed_jobs_byte_identically(self, tmp_path):
        now = [0.0]
        app = ServiceApp(root=tmp_path / "cache", clock=lambda: now[0])
        _, finished = submit(app)
        app.run_pending(1, epoch=app.worker_epoch)
        _, interrupted = submit(app, tag="cut-short")
        claimed = app.next_pending()
        app.spool.mark_running(app.spool.get(*claimed))
        app.running_job = claimed
        app.drain(timeout_s=0.0, reason="test")

        restarted = ServiceApp(root=tmp_path / "cache", clock=lambda: now[0])
        resumed = restarted.recover()
        assert [r.job_id for r in resumed] == [interrupted["job_id"]]
        assert restarted.profile.counters.get("drain", "resumed") == 1.0
        restarted.run_pending(epoch=restarted.worker_epoch)

        clean = ServiceApp(root=tmp_path / "clean", clock=lambda: now[0])
        submit(clean)
        submit(clean, tag="cut-short")
        clean.run_pending(epoch=clean.worker_epoch)
        for job_id in (finished["job_id"], interrupted["job_id"]):
            ours = restarted.handle("GET", f"/v1/jobs/{job_id}/result", b"")
            theirs = clean.handle("GET", f"/v1/jobs/{job_id}/result", b"")
            assert ours.status == theirs.status == 200
            assert ours.body == theirs.body

    def test_burst_drain_loses_zero_jobs(self, tmp_path):
        """A drain mid-burst: finished jobs stay done, queued jobs stay
        pending, and the restart finishes every one of them."""
        now = [0.0]
        app = ServiceApp(root=tmp_path / "cache", clock=lambda: now[0])
        ids = [submit(app, tag=f"burst-{i}")[1]["job_id"] for i in range(10)]
        app.run_pending(3, epoch=app.worker_epoch)  # burst partially served
        app.drain(timeout_s=0.0, reason="test")
        restarted = ServiceApp(root=tmp_path / "cache", clock=lambda: now[0])
        assert len(restarted.recover()) == 7
        restarted.run_pending(epoch=restarted.worker_epoch)
        states = [restarted.spool.get(DEFAULT_TENANT, j).state for j in ids]
        assert states == [DONE] * 10

    def test_drain_is_idempotent(self, clocked):
        app, _ = clocked
        app.begin_drain("first")
        app.begin_drain("second")
        assert app.drain_reason == "first"
        assert app.profile.counters.get("drain", "begun") == 1.0


class TestDrainSignal:
    def test_drain_waits_for_the_running_job_to_settle(self, tmp_path, monkeypatch):
        """The drain ends once the job's outcome is journaled: the job
        finishes done, not checkpointed and recomputed."""
        app = ServiceApp(root=tmp_path / "cache")

        def slow(*args, **kwargs):
            time.sleep(0.3)
            return run_engine(*args, **kwargs)

        monkeypatch.setattr(app_module, "run_engine", slow)
        _, payload = submit(app)
        worker = threading.Thread(target=app.run_pending, args=(1, app.worker_epoch))
        worker.start()
        deadline = time.monotonic() + 10
        while app.running_job is None and time.monotonic() < deadline:
            time.sleep(0.005)
        start = time.monotonic()
        outcome = app.drain(timeout_s=30.0, reason="test")
        worker.join(timeout=30)
        assert time.monotonic() - start < 10.0
        assert outcome["checkpointed"] == []
        assert app.spool.get(DEFAULT_TENANT, payload["job_id"]).state == DONE

    def test_drain_lists_no_spool(self, tmp_path, monkeypatch):
        """Checkpoint and journal stream the spool a record at a time."""
        app = ServiceApp(root=tmp_path / "cache")
        for i in range(3):
            submit(app, tag=f"t{i}")
        app.run_pending(1, epoch=app.worker_epoch)

        def listed(*args, **kwargs):
            raise AssertionError("the drain built a list of every record")

        monkeypatch.setattr(JobSpool, "records", listed)
        outcome = app.drain(timeout_s=0.0, reason="test")
        assert outcome["journaled"]
        assert app.last_drain()["job_states"] == {"done": 1, "pending": 2}


@pytest.fixture
def listened(clocked):
    """(app, now, settled): ``settled`` logs each ``(tenant, job_id)``
    the app announces as settled."""
    app, now = clocked
    settled: list[tuple[str, str]] = []
    app.on_settle = lambda *key: settled.append(key)
    return app, now, settled


class TestSettling:
    """However a job ends, ``run_one`` announces it (the long polls' cue)."""

    def test_done(self, listened):
        app, _, settled = listened
        _, payload = submit(app)
        app.run_pending(1, epoch=app.worker_epoch)
        assert settled == [(DEFAULT_TENANT, payload["job_id"])]
        assert app.running_job is None

    def test_failed(self, listened, monkeypatch):
        app, _, settled = listened

        def broken(*args, **kwargs):
            raise RuntimeError("builder bug")

        monkeypatch.setattr(app_module, "run_engine", broken)
        _, payload = submit(app)
        app.run_pending(1, epoch=app.worker_epoch)
        assert app.spool.get(DEFAULT_TENANT, payload["job_id"]).state == FAILED
        assert settled == [(DEFAULT_TENANT, payload["job_id"])]
        assert app.running_job is None

    def test_deadline_expired(self, listened):
        app, now, settled = listened
        _, payload = submit(app, deadline_s=5.0)
        now[0] = 10.0
        app.run_pending(1, epoch=app.worker_epoch)
        assert app.spool.get(DEFAULT_TENANT, payload["job_id"]).state == FAILED
        assert settled == [(DEFAULT_TENANT, payload["job_id"])]

    def test_fenced(self, listened, monkeypatch):
        """The watchdog fences the worker mid-job and a fresh worker
        claims a job; the stale worker's settle announces its job but
        leaves the fresh claim alone."""
        app, now, settled = listened
        _, payload = submit(app)
        stale_epoch = app.worker_epoch
        fresh_claim = (DEFAULT_TENANT, "cd" * 32)

        def wedged(*args, **kwargs):
            now[0] = app.stall_timeout_s + 5.0
            assert app.watchdog_check() is not None
            app.running_job = fresh_claim  # the restarted worker's job
            return run_engine(*args, **kwargs)

        monkeypatch.setattr(app_module, "run_engine", wedged)
        assert app.run_one(DEFAULT_TENANT, payload["job_id"], epoch=stale_epoch) is None
        assert settled == [(DEFAULT_TENANT, payload["job_id"])]
        assert app.running_job == fresh_claim


class TestWatchdog:
    def test_fresh_heartbeat_is_quiet(self, clocked):
        app, now = clocked
        now[0] = app.stall_timeout_s  # exactly at the limit: not stalled
        assert app.watchdog_check() is None

    def test_stall_requeues_and_fences(self, clocked):
        app, now = clocked
        _, payload = submit(app)
        stale_epoch = app.worker_epoch
        claimed = app.next_pending()
        app.spool.mark_running(app.spool.get(*claimed))
        app.running_job = claimed  # the worker claimed it, then wedged
        now[0] = app.stall_timeout_s + 1.0
        event = app.watchdog_check()
        assert event["requeued"] == [payload["job_id"]]
        assert event["epoch"] == stale_epoch + 1
        assert app.queue[0] == claimed  # requeued at the *front*
        assert app.spool.get(*claimed).state == PENDING
        # The wedged worker finally wakes: its write is discarded.
        assert app.run_one(*claimed, epoch=stale_epoch) is None
        assert app.profile.counters.get("watchdog", "fenced") == 1.0
        assert app.spool.get(*claimed).state == PENDING
        # The fresh epoch completes the job for real.
        assert app.run_pending(1, epoch=app.worker_epoch) == 1
        assert app.spool.get(*claimed).state == DONE

    def test_mid_execution_fence_discards_the_stale_result(
        self, clocked, monkeypatch
    ):
        """The watchdog fires *while* the old worker is inside the
        engine: the finished result must be discarded, not journaled."""
        app, now = clocked
        _, payload = submit(app)
        stale_epoch = app.worker_epoch

        def wedged(*args, **kwargs):
            now[0] = app.stall_timeout_s + 5.0
            assert app.watchdog_check() is not None  # fires mid-job
            return run_engine(*args, **kwargs)

        monkeypatch.setattr(app_module, "run_engine", wedged)
        claimed = (DEFAULT_TENANT, payload["job_id"])
        assert app.run_one(*claimed, epoch=stale_epoch) is None
        assert app.spool.get(*claimed).state == PENDING  # not overwritten
        assert app.profile.counters.get("watchdog", "fenced") == 1.0

    def test_watchdog_defers_to_drain(self, clocked):
        app, now = clocked
        app.begin_drain("test")
        now[0] = app.stall_timeout_s * 10
        assert app.watchdog_check() is None

    def test_heartbeat_fault_error_crashes_the_loop_body(self, tmp_path):
        from repro.faults.inject import FaultAction, FaultInjector

        app = ServiceApp(
            root=tmp_path / "cache",
            injector=FaultInjector(actions=(
                FaultAction(site="worker_heartbeat", exp_id="worker",
                            kind="error"),
            )),
        )
        with pytest.raises(RuntimeError, match="injected worker fault"):
            app.run_pending(1, epoch=app.worker_epoch)
        # The action fires once; the restarted loop beats on.
        assert app.run_pending(1, epoch=app.worker_epoch) == 0
        assert app.profile.counters.get("watchdog", "beats") == 2.0


class TestHealthAndMetrics:
    def test_health_states_are_truthful(self, clocked):
        app, _ = clocked
        assert json.loads(app.health().body)["status"] == "ready"
        app.degraded = True
        assert json.loads(app.health().body)["status"] == "degraded"
        app.begin_drain("test")  # draining outranks degraded
        assert json.loads(app.health().body)["status"] == "draining"

    def test_health_exposes_breakers_and_worker(self, clocked):
        app, now = clocked
        app.breaker.record_failure(KEY, now=0.0)
        now[0] = 7.0
        payload = json.loads(app.health().body)
        assert payload["breakers"] == {
            "public/suite": {"state": "closed", "consecutive_failures": 1}
        }
        assert payload["worker"] == {"epoch": 0, "heartbeat_age_s": 7.0}

    def test_metrics_export_the_lifecycle_surface_from_zero(self, clocked):
        app, _ = clocked
        text = app.metrics().body.decode()
        for needle in (
            'component="drain",counter="begun"} 0.0',
            'component="breaker",counter="opened"} 0.0',
            'component="watchdog",counter="requeues"} 0.0',
            'component="deadline",counter="exceeded"} 0.0',
        ):
            assert needle in text

    def test_metrics_reflect_a_drain(self, clocked):
        app, _ = clocked
        app.drain(timeout_s=0.0, reason="test")
        text = app.metrics().body.decode()
        assert 'component="drain",counter="begun"} 1.0' in text
        assert 'component="drain",counter="completed"} 1.0' in text
