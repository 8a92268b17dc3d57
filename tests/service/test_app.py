"""Tests for the transport-free service application.

The acceptance properties of the service live here: submit-twice
byte-identity, cache hits that never touch the executor, quota
enforcement, restart recovery, TTL sweeping, and live progress in
status payloads.
"""

import json
import sys
import threading

import pytest

import repro.service.app as app_module
from repro.faults.inject import FaultAction, FaultInjector
from repro.service.app import CACHE_HIT, CACHE_MISS, CACHE_PENDING, ServiceApp
from repro.service.requests import request_job_id, validate_request
from repro.service.tenants import Tenant, TenantRegistry

SUITE_BODY = {"kind": "suite", "suite": {"ids": ["table2"]}}


#: Sweeps that pass request validation but fail ParameterSweep.build().
UNBUILDABLE_SWEEPS = [
    {"axes": [{"parameter": "clock.period_ns", "values": [-1]}]},
    {"axes": [{"parameter": "vector.pipes", "values": [float("nan")]}]},
    {"axes": [{"parameter": "memory.banks", "values": [float("inf")]}]},
    {"axes": [{"parameter": "degraded.offline_pipes", "values": [99]}]},
    {"anchor": "sparc20", "axes": [{"parameter": "vector.pipes", "values": [4]}]},
    # 10**18 points: the first grid column (8e18 bytes) cannot be allocated
    # on any 64-bit host, so nothing is touched.
    {"axes": [{"parameter": parameter, "values": [float(v) for v in range(1, 1001)]}
              for parameter in ("clock.period_ns", "vector.startup_cycles",
                                "vector.stripmine_cycles", "memory.bank_busy_cycles",
                                "scalar.issue_width", "scalar.flops_per_cycle")]},
]


def submit(app, body=SUITE_BODY):
    response = app.handle("POST", "/v1/jobs", json.dumps(body).encode())
    return response, json.loads(response.body)


@pytest.fixture
def app(tmp_path):
    return ServiceApp(root=tmp_path / "cache")


class TestSubmission:
    def test_first_submission_is_a_miss(self, app):
        response, payload = submit(app)
        assert response.status == 202
        assert payload["cache"] == CACHE_MISS
        assert payload["state"] == "pending"

    def test_job_id_is_the_request_digest(self, app):
        _, payload = submit(app)
        expected = request_job_id(validate_request(SUITE_BODY))
        assert payload["job_id"] == expected

    def test_resubmit_while_pending_dedupes(self, app):
        _, first = submit(app)
        response, second = submit(app)
        assert response.status == 202
        assert second["cache"] == CACHE_PENDING
        assert second["job_id"] == first["job_id"]
        assert len(app.queue) == 1

    def test_malformed_json_is_400(self, app):
        assert app.handle("POST", "/v1/jobs", b"{nope").status == 400

    def test_unresolvable_request_is_400_not_a_job(self, app):
        response, _ = submit(app, {"kind": "suite", "suite": {"ids": ["nope"]}})
        assert response.status == 400
        assert app.spool.records() == []

    @pytest.mark.parametrize(
        "body",
        [
            b'{"kind": "sweep", "sweep": {"dilation": "abc"}}',
            b'{"kind": "sweep", "sweep": {"dilation": NaN}}',
            b'{"kind": "sweep", "sweep": {"traces": 5}}',
            b'{"kind": "sweep", "sweep": {"anchor": "cray-2"}}',
        ],
    )
    def test_malformed_sweep_is_400_not_a_job(self, app, body):
        assert app.handle("POST", "/v1/jobs", body).status == 400
        assert app.spool.records() == []

    @pytest.mark.parametrize(
        "body",
        [
            b'{"kind": "suite", "suite": {"fault_plan": []}}',
            b"[" * 100_000,  # under the 1 MB limit, too deep for the parser
            b'{"kind": "suite", "deadline_s": 1e400}',  # parses as inf
        ],
        ids=["fault-plan-list", "deep-nesting", "infinite-deadline"],
    )
    def test_malformed_submission_is_400_not_a_job(self, app, body):
        response = app.handle("POST", "/v1/jobs", body)
        assert response.status == 400
        assert json.loads(response.body)["reason"] == "bad_request"
        assert app.spool.records() == []

    @pytest.mark.parametrize(
        "sweep",
        UNBUILDABLE_SWEEPS,
        ids=["negative-clock", "nan-pipes", "infinite-banks", "no-pipes-left", "cache-anchor",
             "too-large"],
    )
    def test_unbuildable_sweep_is_400_not_a_job(self, app, sweep):
        response, payload = submit(app, {"kind": "sweep", "sweep": sweep})
        assert response.status == 400
        assert payload["reason"] == "bad_request"
        assert app.spool.records() == []

    def test_unbuildable_sweeps_cannot_open_the_breaker(self, app):
        for sweep in UNBUILDABLE_SWEEPS:
            submit(app, {"kind": "sweep", "sweep": sweep})
        app.run_pending()
        valid = {"axes": [{"parameter": "vector.pipes", "values": [4, 8]}],
                 "traces": ["hint"]}
        response, payload = submit(app, {"kind": "sweep", "sweep": valid})
        assert response.status == 202
        assert payload["cache"] == CACHE_MISS

    def test_unknown_tenant_is_403(self, app):
        response, _ = submit(app, dict(SUITE_BODY, tenant="ghost"))
        assert response.status == 403

    def test_unknown_route_is_404(self, app):
        assert app.handle("GET", "/v1/nope", b"").status == 404


class TestCacheSemantics:
    def test_submit_twice_byte_identical_without_executor(self, app):
        _, first = submit(app)
        assert app.run_pending() == 1
        result_1 = app.handle("GET", f"/v1/jobs/{first['job_id']}/result", b"")
        assert result_1.status == 200

        # Second identical submission: served from the spool, marked
        # hit, and the executor never runs (monkeypatch-free proof —
        # the queue stays empty, so there is nothing to execute).
        response, second = submit(app)
        assert response.status == 200
        assert second["cache"] == CACHE_HIT
        assert second["job_id"] == first["job_id"]
        assert len(app.queue) == 0
        assert app.run_pending() == 0

        result_2 = app.handle("GET", f"/v1/jobs/{first['job_id']}/result", b"")
        assert result_2.body == result_1.body

    def test_hit_never_invokes_engine(self, app, monkeypatch):
        # A tag varies the job id, not the work: each tagged body is a
        # miss when cold, although the store already holds its result.
        bodies = [SUITE_BODY] + [dict(SUITE_BODY, tag=f"burst-{i}") for i in range(3)]
        for body in bodies:
            _, cold = submit(app, body)
            assert cold["cache"] == CACHE_MISS
            app.run_pending()

        def forbidden(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("cache hit reached the executor")

        monkeypatch.setattr(app_module, "run_engine", forbidden)
        for body in bodies:
            response, payload = submit(app, body)
            assert payload["cache"] == CACHE_HIT
            assert response.status == 200

    def test_result_payload_is_deterministic_content(self, app):
        _, payload = submit(app)
        app.run_pending()
        result = json.loads(
            app.handle("GET", f"/v1/jobs/{payload['job_id']}/result", b"").body
        )
        # Run-dependent data (timings, cache counts) must not leak into
        # the result payload — that would break byte-identity.
        assert "wall_s" not in result
        assert result["digests"].keys() == {"table2"}
        assert result["exp_ids"] == ["table2"]

    def test_result_by_digest_reads_store_directly(self, app):
        _, payload = submit(app)
        app.run_pending()
        result = json.loads(
            app.handle("GET", f"/v1/jobs/{payload['job_id']}/result", b"").body
        )
        digest = result["digests"]["table2"]
        response = app.handle("GET", f"/v1/results/{digest}", b"")
        assert response.status == 200
        body = json.loads(response.body)
        assert body["cache"] == CACHE_HIT
        assert body["experiment"]["exp_id"] == "table2"

    def test_result_by_unknown_digest_is_404(self, app):
        assert app.handle("GET", f"/v1/results/{'0' * 64}", b"").status == 404


class TestConcurrentHits:
    """Handlers run in threads, and every hit rewrites the finished
    record to renew its TTL.  Concurrent hits on one job must all be
    hits: no staging collision, no torn record, no re-queued job."""

    def test_threads_resubmitting_a_finished_job_all_hit(self, app):
        _, first = submit(app)
        assert app.run_pending() == 1
        answers = []

        def client():
            for _ in range(50):
                response, payload = submit(app)
                answers.append((response.status, payload.get("cache"), payload.get("job_id")))

        threads = [threading.Thread(target=client) for _ in range(4)]
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
        assert answers == [(200, CACHE_HIT, first["job_id"])] * 200
        assert app.spool.chunks.quarantine_log == []
        assert list((app.root / "quarantine").rglob("*.json")) == []
        assert len(app.queue) == 0


class TestUndecodableRecords:
    def test_recover_quarantines_an_undecodable_job_record(self, tmp_path):
        app_1 = ServiceApp(root=tmp_path / "cache")
        _, payload = submit(app_1)
        job_id = payload["job_id"]
        spool = app_1.spool
        spool.chunks.entry_path(spool.namespace("public"), job_id).write_bytes(b"\xff\xfe")

        app_2 = ServiceApp(root=tmp_path / "cache")
        assert app_2.recover() == []
        assert [reason for _, reason in app_2.spool.chunks.quarantine_log] == [
            "unparseable JSON"
        ]
        assert app_2.handle("GET", f"/v1/jobs/{job_id}", b"").status == 404
        response, again = submit(app_2)
        assert response.status == 202
        assert again["cache"] == CACHE_MISS


class TestTenantIsolation:
    @pytest.fixture
    def app(self, tmp_path):
        return ServiceApp(
            root=tmp_path / "cache",
            tenants=TenantRegistry(tenants=(
                Tenant(name="team-a", max_pending=1, max_records=2),
            )),
        )

    def test_same_work_distinct_jobs_per_tenant(self, app):
        _, a = submit(app, dict(SUITE_BODY, tenant="team-a"))
        _, b = submit(app)
        assert a["job_id"] != b["job_id"]

    def test_tenant_cannot_read_other_tenants_job(self, app):
        _, payload = submit(app, dict(SUITE_BODY, tenant="team-a"))
        app.run_pending()
        mine = app.handle(
            "GET", f"/v1/jobs/{payload['job_id']}?tenant=team-a", b""
        )
        theirs = app.handle("GET", f"/v1/jobs/{payload['job_id']}", b"")
        assert mine.status == 200
        assert theirs.status == 404

    def test_caches_do_not_leak_across_tenants(self, app):
        # team-a computes; public submitting identical work is a miss.
        _, a = submit(app, dict(SUITE_BODY, tenant="team-a"))
        app.run_pending()
        _, b = submit(app)
        assert b["cache"] == CACHE_MISS

    def test_pending_quota_is_429(self, app):
        submit(app, dict(SUITE_BODY, tenant="team-a"))
        body = dict(SUITE_BODY, tenant="team-a", tag="second")
        response, _ = submit(app, body)
        assert response.status == 429
        text = app.handle("GET", "/metrics", b"").body.decode()
        assert 'counter="quota_rejections"} 1.0' in text

    def test_record_quota_is_429(self, app):
        for tag in ("a", "b"):
            submit(app, dict(SUITE_BODY, tenant="team-a", tag=tag))
            app.run_pending()
        response, _ = submit(app, dict(SUITE_BODY, tenant="team-a", tag="c"))
        assert response.status == 429


class TestRecovery:
    def test_restart_resumes_same_job_id_and_digest(self, tmp_path):
        app_1 = ServiceApp(root=tmp_path / "cache")
        _, payload = submit(app_1)
        # the process "dies" here: nothing executed, queue lost

        app_2 = ServiceApp(root=tmp_path / "cache")
        resumed = app_2.recover()
        assert [r.job_id for r in resumed] == [payload["job_id"]]
        assert app_2.run_pending() == 1
        status = json.loads(
            app_2.handle("GET", f"/v1/jobs/{payload['job_id']}", b"").body
        )
        assert status["state"] == "done"

    def test_killed_mid_job_reruns_to_same_result(self, tmp_path):
        app_1 = ServiceApp(root=tmp_path / "cache")
        _, payload = submit(app_1)
        record = app_1.spool.get("public", payload["job_id"])
        app_1.spool.mark_running(record)  # simulate dying mid-execution

        app_2 = ServiceApp(root=tmp_path / "cache")
        app_2.recover()
        app_2.run_pending()
        result = app_2.handle("GET", f"/v1/jobs/{payload['job_id']}/result", b"")
        assert result.status == 200


class TestProgressAndMetrics:
    def test_status_embeds_live_profile(self, app):
        _, payload = submit(app)
        record = app.spool.get("public", payload["job_id"])

        captured = {}

        def spying_run_engine(*args, **kwargs):
            # Snapshot the status payload while the job is running.
            captured["status"] = json.loads(
                app.handle("GET", f"/v1/jobs/{record.job_id}", b"").body
            )
            raise RuntimeError("stop here")

        real = app_module.run_engine
        app_module.run_engine = spying_run_engine
        try:
            app.run_pending()
        finally:
            app_module.run_engine = real
        progress = captured["status"].get("progress")
        assert progress is not None
        assert "counters" in progress

    def test_finished_job_meta_has_perfmon_snapshot(self, app):
        _, payload = submit(app)
        app.run_pending()
        status = json.loads(
            app.handle("GET", f"/v1/jobs/{payload['job_id']}", b"").body
        )
        assert "perfmon" in status["meta"]
        assert "cache" in status["meta"]

    def test_metrics_exposition(self, app):
        submit(app)
        app.run_pending()
        submit(app)
        text = app.handle("GET", "/metrics", b"").body.decode()
        assert 'component="service",counter="hits"} 1.0' in text
        assert 'component="service",counter="misses"} 1.0' in text
        assert 'component="service",counter="completed"} 1.0' in text

    def test_health(self, app):
        body = json.loads(app.handle("GET", "/v1/health", b"").body)
        assert body["status"] == "ready"
        assert body["draining"] is False
        assert body["degraded"] is False
        assert body["breakers"] == {}
        assert body["worker"]["epoch"] == 0


class TestFaultsAndSweeping:
    def test_injected_submit_fault_is_503(self, tmp_path):
        job_id = request_job_id(validate_request(SUITE_BODY))
        injector = FaultInjector(actions=(
            FaultAction(site="service_submit", exp_id=job_id, kind="error"),
        ))
        app = ServiceApp(root=tmp_path / "cache", injector=injector)
        response, _ = submit(app)
        assert response.status == 503
        assert injector.applied_counts() == {"service_submit": 1}
        # the fault fired once; the retry goes through
        response, _ = submit(app)
        assert response.status == 202

    def test_suite_fault_plan_recovers_via_retry(self, app):
        body = {
            "kind": "suite",
            "suite": {
                "ids": ["table2"],
                "fault_plan": {
                    "schema": 1,
                    "seed": 0,
                    "actions": [{"site": "executor_job", "exp_id": "table2",
                                 "kind": "error", "attempt": 0}],
                },
            },
        }
        _, payload = submit(app, body)
        app.run_pending()
        status = json.loads(
            app.handle("GET", f"/v1/jobs/{payload['job_id']}", b"").body
        )
        assert status["state"] == "done"
        assert status["meta"]["retry_rounds"] >= 1

    def test_ttl_sweep_drops_expired_records(self, tmp_path):
        clock = {"now": 0.0}
        app = ServiceApp(
            root=tmp_path / "cache",
            tenants=TenantRegistry(tenants=(
                Tenant(name="public", result_ttl_s=10.0),
            )),
            clock=lambda: clock["now"],
        )
        _, payload = submit(app)
        app.run_pending()
        assert app.sweep_expired() == 0  # not expired yet
        clock["now"] = 100.0
        assert app.sweep_expired() == 1
        assert app.spool.get("public", payload["job_id"]) is None
