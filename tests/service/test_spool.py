"""Tests for the durable ChunkStore-backed job spool."""

import tracemalloc
from pathlib import Path

import pytest

from repro.engine.store import ChunkStore
from repro.service.spool import DONE, FAILED, PENDING, RUNNING, JobRecord, JobSpool


def _record(job_id=None, tenant="public", state=PENDING, submitted_at=1.0):
    return JobRecord(
        job_id=job_id or ("ab" * 32),
        tenant=tenant,
        request={"kind": "suite", "suite": {"ids": []}},
        state=state,
        submitted_at=submitted_at,
    )


class TestJournal:
    def test_round_trip(self, tmp_path):
        spool = JobSpool(tmp_path)
        record = _record()
        spool.put(record)
        assert spool.get("public", record.job_id) == record

    def test_missing_is_none(self, tmp_path):
        assert JobSpool(tmp_path).get("public", "cd" * 32) is None

    def test_unknown_state_rejected(self):
        with pytest.raises(ValueError, match="unknown job state"):
            _record(state="paused")

    def test_records_ordered_by_submission(self, tmp_path):
        spool = JobSpool(tmp_path)
        spool.put(_record(job_id="bb" * 32, submitted_at=2.0))
        spool.put(_record(job_id="aa" * 32, submitted_at=1.0))
        assert [r.job_id for r in spool.records()] == ["aa" * 32, "bb" * 32]

    def test_tenants_are_isolated_namespaces(self, tmp_path):
        spool = JobSpool(tmp_path)
        spool.put(_record(tenant="public"))
        spool.put(_record(tenant="team-a"))
        assert len(spool.records("public")) == 1
        assert len(spool.records("team-a")) == 1
        assert spool.get("team-a", "ab" * 32).tenant == "team-a"

    def test_foreign_chunks_ignored(self, tmp_path):
        # Non-spool namespaces in the same ChunkStore are invisible.
        ChunkStore(tmp_path).put("explore-grid", "ef" * 32, {"x": 1})
        spool = JobSpool(tmp_path)
        spool.put(_record())
        assert len(spool.records()) == 1


class TestTransitions:
    def test_running_increments_attempts(self, tmp_path):
        spool = JobSpool(tmp_path)
        record = _record()
        spool.put(record)
        running = spool.mark_running(record)
        assert running.state == RUNNING
        assert running.attempts == 1
        assert spool.get("public", record.job_id).state == RUNNING

    def test_done_carries_result_and_ttl(self, tmp_path):
        spool = JobSpool(tmp_path)
        record = spool.mark_running(_record())
        done = spool.mark_done(
            record, result={"answer": 42}, meta={"wall_s": 0.1},
            now=100.0, ttl_s=50.0,
        )
        assert done.state == DONE
        assert done.expires_at == 150.0
        stored = spool.get("public", record.job_id)
        assert stored.result == {"answer": 42}
        assert stored.meta["wall_s"] == 0.1

    def test_failed_carries_error(self, tmp_path):
        spool = JobSpool(tmp_path)
        failed = spool.mark_failed(
            _record(), error="boom", meta={}, now=1.0, ttl_s=None
        )
        assert failed.state == FAILED
        assert failed.expires_at is None
        assert spool.get("public", failed.job_id).error == "boom"


class TestRecovery:
    def test_running_demoted_to_pending(self, tmp_path):
        spool = JobSpool(tmp_path)
        spool.put(_record(job_id="aa" * 32, state=RUNNING))
        spool.put(_record(job_id="bb" * 32, state=PENDING))
        resumed = spool.recover()
        assert sorted(r.job_id for r in resumed) == ["aa" * 32, "bb" * 32]
        assert all(r.state == PENDING for r in resumed)
        assert spool.get("public", "aa" * 32).state == PENDING

    def test_finished_jobs_not_resumed(self, tmp_path):
        spool = JobSpool(tmp_path)
        spool.mark_done(_record(), result={}, meta={}, now=1.0, ttl_s=None)
        assert spool.recover() == []

    def test_recovery_preserves_job_identity(self, tmp_path):
        # Same id, same request bytes across the simulated restart.
        spool = JobSpool(tmp_path)
        record = _record(state=RUNNING)
        spool.put(record)
        resumed = JobSpool(tmp_path).recover()[0]
        assert resumed.job_id == record.job_id
        assert resumed.request == record.request


class TestSweeping:
    def test_expired_finished_records_dropped(self, tmp_path):
        spool = JobSpool(tmp_path)
        spool.mark_done(
            _record(job_id="aa" * 32), result={}, meta={}, now=10.0, ttl_s=5.0
        )
        spool.mark_done(
            _record(job_id="bb" * 32), result={}, meta={}, now=10.0, ttl_s=500.0
        )
        swept = spool.sweep_expired(now=100.0)
        assert [r.job_id for r in swept] == ["aa" * 32]
        assert spool.get("public", "aa" * 32) is None
        assert spool.get("public", "bb" * 32) is not None

    def test_unfinished_never_swept(self, tmp_path):
        spool = JobSpool(tmp_path)
        spool.put(_record())
        assert spool.sweep_expired(now=1e18) == []

    def test_no_ttl_means_forever(self, tmp_path):
        spool = JobSpool(tmp_path)
        spool.mark_done(_record(), result={}, meta={}, now=1.0, ttl_s=None)
        assert spool.sweep_expired(now=1e18) == []

    def test_dry_run_keeps_records(self, tmp_path):
        spool = JobSpool(tmp_path)
        spool.mark_done(_record(), result={}, meta={}, now=1.0, ttl_s=1.0)
        swept = spool.sweep_expired(now=100.0, dry_run=True)
        assert len(swept) == 1
        assert spool.get("public", swept[0].job_id) is not None

    def test_clear_removes_all_tenants(self, tmp_path):
        spool = JobSpool(tmp_path)
        spool.put(_record(tenant="public"))
        spool.put(_record(tenant="team-a"))
        assert spool.clear() == 2
        assert spool.records() == []


class TestSweepResubmissionRace:
    """The TTL sweep racing a resubmission of the same digest."""

    def test_touch_on_hit_outruns_the_sweep(self, tmp_path):
        # A cache hit at t=14 refreshes the record that would have
        # expired at t=15; the sweep at t=20 must now spare it.
        spool = JobSpool(tmp_path)
        done = spool.mark_done(_record(), result={}, meta={}, now=10.0, ttl_s=5.0)
        spool.refresh_ttl(done, now=14.0, ttl_s=50.0)
        assert spool.sweep_expired(now=20.0) == []
        assert spool.get("public", done.job_id).expires_at == 64.0

    def test_refresh_is_a_noop_on_unfinished_records(self, tmp_path):
        spool = JobSpool(tmp_path)
        record = _record()
        spool.put(record)
        assert spool.refresh_ttl(record, now=5.0, ttl_s=1.0).expires_at is None
        assert spool.sweep_expired(now=1e18) == []

    def test_resubmission_after_sweep_starts_a_fresh_pending_job(self, tmp_path):
        # Sweep wins the race: the expired record is gone, and the
        # resubmission recreates the *same id* as a clean pending job.
        spool = JobSpool(tmp_path)
        done = spool.mark_done(_record(), result={"answer": 42}, meta={},
                               now=10.0, ttl_s=5.0)
        assert [r.job_id for r in spool.sweep_expired(now=100.0)] == [done.job_id]
        spool.put(_record(submitted_at=100.0))
        revived = spool.get("public", done.job_id)
        assert revived.state == PENDING
        assert revived.result is None

    def test_resubmission_demotion_shields_record_from_sweep(self, tmp_path):
        # Resubmission wins the race: the expired DONE record is demoted
        # back to PENDING for recompute before the sweep runs, and the
        # sweep must not delete the now-unfinished job out from under it.
        spool = JobSpool(tmp_path)
        done = spool.mark_done(_record(), result={}, meta={}, now=10.0, ttl_s=5.0)
        spool.mark_pending(done)
        assert spool.sweep_expired(now=100.0) == []
        assert spool.get("public", done.job_id).state == PENDING


class TestCheckpointDemotion:
    """RUNNING -> PENDING when a drain-timeout checkpoint fires mid-job."""

    def test_demotion_preserves_identity_and_attempts(self, tmp_path):
        spool = JobSpool(tmp_path)
        running = spool.mark_running(_record())
        demoted = spool.mark_pending(running)
        assert demoted.state == PENDING
        assert demoted.attempts == 1  # the aborted attempt still counts
        assert demoted.request == running.request
        assert spool.get("public", demoted.job_id).state == PENDING

    def test_demoted_job_reruns_under_the_same_id(self, tmp_path):
        spool = JobSpool(tmp_path)
        demoted = spool.mark_pending(spool.mark_running(_record()))
        rerun = spool.mark_running(demoted)
        assert rerun.job_id == demoted.job_id
        assert rerun.attempts == 2
        done = spool.mark_done(rerun, result={"ok": True}, meta={},
                               now=1.0, ttl_s=None)
        assert spool.get("public", done.job_id).state == DONE

    def test_demoted_job_survives_a_restart(self, tmp_path):
        # Checkpoint, then crash before the drain completes: recovery
        # must still surface the job exactly once, as PENDING.
        spool = JobSpool(tmp_path)
        spool.mark_pending(spool.mark_running(_record()))
        resumed = JobSpool(tmp_path).recover()
        assert [r.state for r in resumed] == [PENDING]

    def test_deadline_survives_the_demotion(self, tmp_path):
        spool = JobSpool(tmp_path)
        record = _record()
        record = JobRecord(
            job_id=record.job_id, tenant=record.tenant,
            request=record.request, state=PENDING,
            submitted_at=1.0, deadline_s=30.0,
        )
        spool.put(record)
        demoted = spool.mark_pending(spool.mark_running(record))
        assert demoted.deadline_s == 30.0
        assert demoted.deadline_at == 31.0


class TestStreaming:
    """Whole-spool passes hold one record at a time, and one tenant's
    pass never touches another tenant's records."""

    def test_counts_opens_and_stats_no_other_tenants_records(
        self, tmp_path, monkeypatch
    ):
        spool = JobSpool(tmp_path)
        for i in range(200):
            spool.put(_record(job_id=f"{i:064x}", tenant="b"))
        spool.put(_record(tenant="a", state=RUNNING))
        touched: list[str] = []
        real_stat, real_read_bytes = Path.stat, Path.read_bytes

        def stat(self, *args, **kwargs):
            touched.append(self.name)
            return real_stat(self, *args, **kwargs)

        def read_bytes(self):
            touched.append(self.name)
            return real_read_bytes(self)

        monkeypatch.setattr(Path, "stat", stat)
        monkeypatch.setattr(Path, "read_bytes", read_bytes)
        counts = spool.counts("a")
        assert counts["running"] == 1 and counts["total"] == 1
        assert not [name for name in touched if name.startswith("svcjob-b.")]

    def test_recover_and_sweep_list_nothing(self, tmp_path, monkeypatch):
        spool = JobSpool(tmp_path)
        spool.put(_record(job_id="bb" * 32, state=RUNNING, submitted_at=2.0))
        spool.put(_record(job_id="aa" * 32, submitted_at=1.0))
        spool.mark_done(_record(job_id="cc" * 32), result={"big": "x" * 100},
                        meta={}, now=1.0, ttl_s=1.0)

        def listed(*args, **kwargs):
            raise AssertionError("a whole-spool pass built a list of records")

        monkeypatch.setattr(JobSpool, "records", listed)
        # Still resumed oldest submission first.
        assert [r.job_id for r in spool.recover()] == ["aa" * 32, "bb" * 32]
        swept = spool.sweep_expired(now=100.0)
        assert [r.job_id for r in swept] == ["cc" * 32]
        assert swept[0].result is None  # nothing held for a deleted record

    @staticmethod
    def _pass_peak_bytes(root, records: int) -> int:
        """Peak bytes allocated by one recover pass over ``records``
        finished jobs, each with a ~20 kB result."""
        spool = JobSpool(root)
        result = {"rows": [f"{i:08d}" * 4 for i in range(500)]}
        for i in range(records):
            spool.mark_done(_record(job_id=f"{i:064x}"), result=result,
                            meta={}, now=1.0, ttl_s=None)
        tracemalloc.start()
        try:
            assert spool.recover() == []
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_a_pass_does_not_grow_with_the_spool(self, tmp_path):
        small = self._pass_peak_bytes(tmp_path / "small", 10)
        large = self._pass_peak_bytes(tmp_path / "large", 100)
        # Listing 10x the records costs a little per file name; holding
        # them would cost 10x the decoded results.
        assert large < 2 * small
