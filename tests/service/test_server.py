"""Tests for the asyncio HTTP front end, over real sockets.

One server per fixture on an OS-assigned port; the blocking
:class:`ServiceClient` runs in the test thread while the event loop
runs in a background thread — the same split a real deployment has.
The SIGTERM drain runs the real CLI in a subprocess.
"""

import asyncio
import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import repro.service.requests as requests_module
import repro.service.server as server_module
from repro.service.app import ServiceApp
from repro.service.client import ServiceClient, ServiceError
from repro.service.server import serve
from repro.service.tenants import Tenant, TenantRegistry

SUITE_BODY = {"kind": "suite", "suite": {"ids": ["table2"]}}


def slow_body(delay_s: float, tag: str = "slow") -> dict:
    """A table2 job whose engine stalls ``delay_s`` before building."""
    plan = {"schema": 1, "seed": 0, "actions": [
        {"site": "executor_job", "exp_id": "table2", "kind": "slow",
         "attempt": 0, "delay_s": delay_s},
    ]}
    return {"kind": "suite", "suite": {"ids": ["table2"], "fault_plan": plan},
            "tag": tag}


def timed(call, *args, **kwargs):
    """``(result, seconds)`` of one call."""
    start = time.monotonic()
    result = call(*args, **kwargs)
    return result, time.monotonic() - start


class _Server:
    """A served app on 127.0.0.1:<ephemeral>, stoppable from the test."""

    def __init__(self, app: ServiceApp, paused: bool = False) -> None:
        self.app = app
        self.paused = paused
        self.loop = asyncio.new_event_loop()
        self.task = None
        self.thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        asyncio.set_event_loop(self.loop)
        self.task = self.loop.create_task(
            serve(self.app, host="127.0.0.1", port=0, paused=self.paused,
                  ready_file=self.ready_file)
        )
        try:
            self.loop.run_until_complete(self.task)
        except asyncio.CancelledError:
            pass
        finally:
            self.loop.close()

    def start(self, tmp_path) -> ServiceClient:
        import json
        import time

        self.ready_file = tmp_path / "ready.json"
        self.ready_file.parent.mkdir(parents=True, exist_ok=True)
        self.thread.start()
        deadline = time.monotonic() + 10.0
        while not self.ready_file.exists():
            if time.monotonic() > deadline:  # pragma: no cover
                raise TimeoutError("server never became ready")
            time.sleep(0.01)
        bound = json.loads(self.ready_file.read_text())
        return ServiceClient(host=bound["host"], port=bound["port"])

    def stop(self) -> None:
        if self.task is not None:
            self.loop.call_soon_threadsafe(self.task.cancel)
        self.thread.join(timeout=10.0)


@pytest.fixture
def served(tmp_path):
    server = _Server(ServiceApp(root=tmp_path / "cache"))
    client = server.start(tmp_path)
    yield server.app, client
    server.stop()


@pytest.fixture
def paused(tmp_path):
    """A served app with no worker: every job stays pending."""
    server = _Server(ServiceApp(root=tmp_path / "cache"), paused=True)
    client = server.start(tmp_path)
    yield server.app, client
    server.stop()


class TestOverSockets:
    def test_health_and_metrics(self, served):
        _, client = served
        assert client.health()["status"] == "ready"
        assert "repro_perfmon_counter" in client.metrics()

    def test_submit_wait_result_roundtrip(self, served):
        _, client = served
        submitted = client.submit(SUITE_BODY)
        assert submitted["cache"] == "miss"
        final = client.wait(submitted["job_id"], timeout_s=60)
        assert final["state"] == "done"
        raw = client.result_bytes(submitted["job_id"])
        assert b'"table2"' in raw

    def test_second_submission_hits_byte_identical(self, served):
        _, client = served
        first = client.submit(SUITE_BODY)
        client.wait(first["job_id"], timeout_s=60)
        bytes_1 = client.result_bytes(first["job_id"])
        second = client.submit(SUITE_BODY)
        assert second["cache"] == "hit"
        assert second["job_id"] == first["job_id"]
        assert client.result_bytes(first["job_id"]) == bytes_1

    def test_error_statuses_raise(self, served):
        _, client = served
        with pytest.raises(ServiceError) as err:
            client.submit({"kind": "nope"})
        assert err.value.status == 400
        with pytest.raises(ServiceError) as err:
            client.status("f" * 64)
        assert err.value.status == 404

    def test_malformed_request_line_is_400(self, served):
        import socket

        _, client = served
        with socket.create_connection((client.host, client.port)) as sock:
            sock.sendall(b"garbage\r\n\r\n")
            response = sock.recv(4096)
        assert response.startswith(b"HTTP/1.1 400")


class TestPausedRestart:
    def test_paused_server_queues_without_executing(self, tmp_path):
        server = _Server(ServiceApp(root=tmp_path / "cache"), paused=True)
        client = server.start(tmp_path)
        try:
            submitted = client.submit(SUITE_BODY)
            assert submitted["state"] == "pending"
            status = client.status(submitted["job_id"])
            assert status["state"] == "pending"
        finally:
            server.stop()

        # "Restart": a fresh process-equivalent over the same root
        # resumes the pending job under the same id.
        restarted = _Server(ServiceApp(root=tmp_path / "cache"))
        client_2 = restarted.start(tmp_path / "restart-stage")
        try:
            final = client_2.wait(submitted["job_id"], timeout_s=60)
            assert final["state"] == "done"
        finally:
            restarted.stop()


class TestWorkerWake:
    def test_a_queued_job_starts_without_waiting_out_the_idle_sleep(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(server_module, "WORKER_IDLE_SLEEP_S", 30.0)
        server = _Server(ServiceApp(root=tmp_path / "cache"))
        client = server.start(tmp_path)
        try:
            time.sleep(0.2)  # the worker is idle, 30 s from its next beat
            start = time.monotonic()
            submitted = client.submit(SUITE_BODY)
            final = client.wait(submitted["job_id"], timeout_s=5)
            assert final["state"] == "done"
            assert time.monotonic() - start < 2.0
        finally:
            server.stop()

    def test_no_wake_is_lost_under_concurrent_submissions(self, tmp_path, monkeypatch):
        """Submitting threads race the idle worker; with a 30 s idle
        wait, a lost wake-up would leave a queued job stranded."""
        monkeypatch.setattr(server_module, "WORKER_IDLE_SLEEP_S", 30.0)
        app = ServiceApp(root=tmp_path / "cache",
                         tenants=TenantRegistry((Tenant("public", max_pending=64),)))
        stop = threading.Event()
        worker = threading.Thread(target=server_module._worker_loop,
                                  args=(app, app.worker_epoch, stop), daemon=True)
        worker.start()
        job_ids: list[str] = []

        def submit_some(thread: int) -> None:
            for i in range(5):
                body = {**SUITE_BODY, "tag": f"{thread}-{i}"}
                response = app.handle("POST", "/v1/jobs", json.dumps(body).encode())
                job_ids.append(json.loads(response.body)["job_id"])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            submitters = [threading.Thread(target=submit_some, args=(t,))
                          for t in range(8)]
            for thread in submitters:
                thread.start()
            for thread in submitters:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert len(job_ids) == 40
        deadline = time.monotonic() + 20
        while time.monotonic() < deadline:
            if all(app.spool.get("public", j).state == "done" for j in job_ids):
                break
            time.sleep(0.05)
        stop.set()
        assert [app.spool.get("public", j).state for j in job_ids] == ["done"] * 40


class TestLongPoll:
    def test_answers_when_the_job_settles(self, served):
        _, client = served
        submitted = client.submit(slow_body(0.5))
        status, took = timed(client.status, submitted["job_id"], wait_s=15)
        assert status["state"] == "done"
        assert took < 5.0  # the job's 0.5 s, not the 15 s bound

    def test_answers_the_current_state_at_its_bound(self, paused):
        _, client = paused
        submitted = client.submit(SUITE_BODY)
        status, took = timed(client.status, submitted["job_id"], wait_s=0.3)
        assert status["state"] == "pending"
        assert 0.3 <= took < 5.0
        assert 'component="service",counter="waits_expired"} 1.0' in client.metrics()

    def test_a_settled_job_answers_at_once(self, served):
        _, client = served
        submitted = client.submit(SUITE_BODY)
        client.wait(submitted["job_id"], timeout_s=60)
        status, took = timed(client.status, submitted["job_id"], wait_s=15)
        assert status["state"] == "done" and took < 5.0

    def test_the_bound_is_capped(self, paused, monkeypatch):
        _, client = paused
        monkeypatch.setattr(requests_module, "MAX_WAIT_S", 0.2)
        submitted = client.submit(SUITE_BODY)
        status, took = timed(client.status, submitted["job_id"], wait_s=60)
        assert status["state"] == "pending"
        assert 0.2 <= took < 5.0

    @pytest.mark.parametrize("raw", ["x", "-1", "nan", "inf"])
    def test_malformed_wait_is_400(self, served, raw):
        _, client = served
        status, body = client.request_bytes("GET", f"/v1/jobs/{'f' * 64}?wait_s={raw}")
        assert status == 400
        assert json.loads(body)["reason"] == "bad_request"

    def test_unknown_job_answers_404_at_once(self, served):
        _, client = served
        start = time.monotonic()
        with pytest.raises(ServiceError) as err:
            client.status("f" * 64, wait_s=15)
        assert err.value.status == 404 and time.monotonic() - start < 5.0

    def test_waiters_hold_no_threads(self, paused):
        """More long polls than the default executor has threads: a
        submission and a health check still answer at once."""
        _, client = paused
        job_id = client.submit(SUITE_BODY)["job_id"]
        states: list[str] = []

        def poll() -> None:
            states.append(client.status(job_id, wait_s=3)["state"])

        polls = [threading.Thread(target=poll) for _ in range(12)]
        for thread in polls:
            thread.start()
        time.sleep(0.5)  # every poll is waiting
        try:
            submitted, took = timed(client.submit, {**SUITE_BODY, "tag": "more"})
            assert submitted["cache"] == "miss" and took < 1.5
            health, took = timed(client.health)
            assert health["status"] == "ready" and took < 1.5
        finally:
            for thread in polls:
                thread.join(timeout=30)
        assert states == ["pending"] * 12


class TestDrainAnswersWaiters:
    def test_sigterm_answers_open_long_polls_and_exits(self, tmp_path):
        ready = tmp_path / "ready.json"
        src = Path(server_module.__file__).resolve().parents[2]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.service", "serve", "--port", "0",
             "--paused", "--cache-dir", str(tmp_path / "cache"),
             "--ready-file", str(ready)],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        )
        try:
            deadline = time.monotonic() + 60
            while not ready.exists():
                assert proc.poll() is None and time.monotonic() < deadline
                time.sleep(0.05)
            client = ServiceClient(port=json.loads(ready.read_text())["port"])
            job_id = client.submit(SUITE_BODY)["job_id"]
            answers: list[tuple[str, float]] = []

            def poll() -> None:
                answers.append(timed(client.status, job_id, wait_s=15))

            polls = [threading.Thread(target=poll) for _ in range(3)]
            for thread in polls:
                thread.start()
            time.sleep(0.5)  # every poll is waiting
            proc.send_signal(signal.SIGTERM)
            for thread in polls:
                thread.join(timeout=30)
            assert [state["state"] for state, _ in answers] == ["pending"] * 3
            assert all(took < 10.0 for _, took in answers)  # not the 15 s bound
            assert proc.wait(timeout=30) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
