"""Tests for the client half of the resilience layer.

All network I/O is monkeypatched at ``_request_once`` and every sleep
is recorded instead of slept, so the full retry/backoff schedule is
asserted in microseconds.
"""

import itertools
import json

import pytest

from repro.faults.retry import RetryPolicy
from repro.service.client import (
    ServiceClient,
    ServiceError,
    connect_retry_policy,
)
from repro.service.requests import MAX_WAIT_S


def scripted_client(monkeypatch, script, **kwargs):
    """A client whose transport replays ``script`` and records sleeps.

    ``script`` items are either an exception instance (raised) or a
    ``(status, headers, body_dict)`` tuple (returned).  Returns
    ``(client, sleeps, calls)``.
    """
    sleeps: list[float] = []
    calls: list[tuple[str, str]] = []
    replies = list(script)

    def fake_request_once(self, method, path, body):
        calls.append((method, path))
        step = replies.pop(0)
        if isinstance(step, BaseException):
            raise step
        status, headers, payload = step
        return status, headers, json.dumps(payload).encode()

    monkeypatch.setattr(ServiceClient, "_request_once", fake_request_once)
    client = ServiceClient("127.0.0.1", 9999, sleep=sleeps.append, **kwargs)
    return client, sleeps, calls


OK = (200, {}, {"state": "done"})


class TestConnectionRetries:
    def test_connection_errors_retry_with_deterministic_backoff(
        self, monkeypatch
    ):
        client, sleeps, calls = scripted_client(
            monkeypatch,
            [ConnectionRefusedError(), ConnectionRefusedError(), OK],
        )
        assert client.request("GET", "/v1/health") == {"state": "done"}
        assert len(calls) == 3
        policy = connect_retry_policy()
        identity = "127.0.0.1:9999:GET:/v1/health"
        assert sleeps == [
            policy.delay_s(identity, 1),
            policy.delay_s(identity, 2),
        ]
        # The schedule is pure arithmetic: a second client replays it.
        _, sleeps2, _ = scripted_client(
            monkeypatch,
            [ConnectionRefusedError(), ConnectionRefusedError(), OK],
        )
        client2 = ServiceClient("127.0.0.1", 9999, sleep=sleeps2.append)
        client2.request("GET", "/v1/health")
        assert sleeps2 == sleeps

    def test_exhausted_retries_reraise_the_os_error(self, monkeypatch):
        client, sleeps, calls = scripted_client(
            monkeypatch, [ConnectionRefusedError()] * 4
        )
        with pytest.raises(ConnectionRefusedError):
            client.request("GET", "/v1/health")
        assert len(calls) == connect_retry_policy().max_attempts
        assert len(sleeps) == connect_retry_policy().max_attempts - 1

    def test_custom_policy_bounds_attempts(self, monkeypatch):
        client, _, calls = scripted_client(
            monkeypatch,
            [ConnectionResetError()] * 2,
            retry=RetryPolicy(max_attempts=2, base_delay_s=0.01,
                              max_delay_s=0.1),
        )
        with pytest.raises(ConnectionResetError):
            client.request("GET", "/v1/health")
        assert len(calls) == 2

    def test_http_errors_are_not_retried(self, monkeypatch):
        client, sleeps, calls = scripted_client(
            monkeypatch, [(404, {}, {"error": "no such job"})]
        )
        with pytest.raises(ServiceError) as excinfo:
            client.request("GET", "/v1/jobs/zzz")
        assert excinfo.value.status == 404
        assert len(calls) == 1 and sleeps == []


class TestServiceError:
    def test_carries_reason_and_retry_after(self, monkeypatch):
        client, _, _ = scripted_client(
            monkeypatch,
            [(503, {"retry-after": "5"},
              {"error": "draining", "reason": "draining"})],
            busy_retries=0,
        )
        with pytest.raises(ServiceError) as excinfo:
            client.submit({"kind": "suite"})
        error = excinfo.value
        assert error.status == 503
        assert error.reason == "draining"
        assert error.retry_after_s == 5.0
        assert str(error) == "HTTP 503: draining"

    def test_unparseable_retry_after_is_none(self, monkeypatch):
        client, _, _ = scripted_client(
            monkeypatch, [(429, {"retry-after": "soon"}, {"error": "busy"})],
        )
        with pytest.raises(ServiceError) as excinfo:
            client.request("GET", "/v1/jobs")
        assert excinfo.value.retry_after_s is None


class TestSubmitHonorsRetryAfter:
    BUSY = (429, {"retry-after": "2"},
            {"error": "quota", "reason": "quota_pending"})

    def test_sleeps_the_hint_then_succeeds(self, monkeypatch):
        client, sleeps, calls = scripted_client(
            monkeypatch, [self.BUSY, (202, {}, {"job_id": "abc"})]
        )
        assert client.submit({"kind": "suite"}) == {"job_id": "abc"}
        assert sleeps == [2.0]
        assert [m for m, _ in calls] == ["POST", "POST"]

    def test_hint_is_capped_at_max_retry_after(self, monkeypatch):
        huge = (503, {"retry-after": "3600"}, {"error": "draining",
                                               "reason": "draining"})
        client, sleeps, _ = scripted_client(
            monkeypatch, [huge, OK], max_retry_after_s=1.5
        )
        client.submit({"kind": "suite"})
        assert sleeps == [1.5]

    def test_busy_retries_bound_the_loop(self, monkeypatch):
        client, sleeps, calls = scripted_client(
            monkeypatch, [self.BUSY] * 3, busy_retries=2
        )
        with pytest.raises(ServiceError) as excinfo:
            client.submit({"kind": "suite"})
        assert excinfo.value.reason == "quota_pending"
        assert len(calls) == 3 and len(sleeps) == 2

    def test_busy_without_hint_raises_immediately(self, monkeypatch):
        client, sleeps, _ = scripted_client(
            monkeypatch, [(503, {}, {"error": "draining"})]
        )
        with pytest.raises(ServiceError):
            client.submit({"kind": "suite"})
        assert sleeps == []

    def test_plain_errors_never_loop(self, monkeypatch):
        client, sleeps, calls = scripted_client(
            monkeypatch, [(400, {}, {"error": "bad body"})]
        )
        with pytest.raises(ServiceError):
            client.submit({"kind": "nope"})
        assert len(calls) == 1 and sleeps == []


class TestPollingBackoff:
    """``wait`` against a server that ignores ``wait_s``: it answers at
    once, so ``wait`` falls back to polling with backoff."""

    def test_wait_backs_off_geometrically(self, monkeypatch):
        pending = (200, {}, {"state": "pending"})
        client, sleeps, calls = scripted_client(
            monkeypatch, [pending] * 4 + [OK]
        )
        payload = client.wait("ab" * 32, poll_s=0.05, max_poll_s=1.0)
        assert payload["state"] == "done"
        assert sleeps == pytest.approx([0.05, 0.08, 0.128, 0.2048])
        # Every request still asked to wait: half the 30 s socket timeout.
        assert {path for _, path in calls} == {f"/v1/jobs/{'ab' * 32}?wait_s=15.0"}

    def test_wait_interval_is_capped(self, monkeypatch):
        pending = (200, {}, {"state": "running"})
        client, sleeps, _ = scripted_client(
            monkeypatch, [pending] * 6 + [OK]
        )
        client.wait("ab" * 32, poll_s=0.4, max_poll_s=0.5)
        assert sleeps == pytest.approx([0.4] + [0.5] * 5)

    def test_wait_times_out(self, monkeypatch):
        pending = (200, {}, {"state": "pending"})
        client, _, _ = scripted_client(monkeypatch, [pending] * 2)
        clock = iter([0.0, 0.0, 10.0])  # start, request sent, answer read
        monkeypatch.setattr(
            "repro.service.client.time.monotonic", lambda: next(clock)
        )
        with pytest.raises(TimeoutError, match="still 'pending'"):
            client.wait("ab" * 32, timeout_s=5.0)

    def test_wait_ready_retries_until_healthy(self, monkeypatch):
        client, sleeps, _ = scripted_client(
            monkeypatch,
            [ConnectionRefusedError(),
             (503, {}, {"error": "starting"}),
             (200, {}, {"status": "ready"})],
        )
        # Each refused *connection* itself burns the transport's retry
        # budget first, so feed a generous script via a 1-attempt policy.
        client.retry = RetryPolicy(max_attempts=1, base_delay_s=0.01,
                                   max_delay_s=0.1)
        assert client.wait_ready()["status"] == "ready"
        assert sleeps == pytest.approx([0.05, 0.08])

    def test_wait_ready_reraises_past_deadline(self, monkeypatch):
        client, _, _ = scripted_client(
            monkeypatch, [(503, {}, {"error": "starting"})] * 2
        )
        clock = iter([0.0, 10.0])
        monkeypatch.setattr(
            "repro.service.client.time.monotonic", lambda: next(clock)
        )
        with pytest.raises(ServiceError):
            client.wait_ready(timeout_s=5.0)


class TestLongPoll:
    """``wait`` against a server that holds each answer for ``wait_s``."""

    @staticmethod
    def long_polling_client(monkeypatch, states, timeout_s=30.0):
        """A client whose server answers each status request only once
        its ``wait_s`` has passed on a fake clock (or at once, settled).
        Returns ``(client, sleeps, asked)``: the ``wait_s`` of each request."""
        now = [0.0]
        asked: list[float] = []
        replies = iter(states)

        def fake_request_once(self, method, path, body):
            wait_s = float(path.partition("wait_s=")[2])
            asked.append(wait_s)
            state = next(replies)
            if state not in ("done", "failed"):
                now[0] += wait_s
            return 200, {}, json.dumps({"state": state}).encode()

        monkeypatch.setattr(ServiceClient, "_request_once", fake_request_once)
        monkeypatch.setattr("repro.service.client.time.monotonic", lambda: now[0])
        sleeps: list[float] = []
        client = ServiceClient("127.0.0.1", 9999, sleep=sleeps.append,
                               timeout_s=timeout_s)
        return client, sleeps, asked

    def test_asks_again_at_once_after_a_full_wait(self, monkeypatch):
        client, sleeps, asked = self.long_polling_client(
            monkeypatch, ["running", "running", "done"]
        )
        assert client.wait("ab" * 32, timeout_s=40.0)["state"] == "done"
        assert sleeps == []
        assert asked == [15.0, 15.0, 10.0]  # the last one is the time left

    def test_wait_is_bounded_by_the_service_cap(self, monkeypatch):
        client, _, asked = self.long_polling_client(
            monkeypatch, ["done"], timeout_s=300.0
        )
        client.wait("ab" * 32)
        assert asked == [MAX_WAIT_S]

    def test_times_out_after_waits_that_run_out(self, monkeypatch):
        client, sleeps, asked = self.long_polling_client(
            monkeypatch, itertools.repeat("pending")
        )
        with pytest.raises(TimeoutError, match="still 'pending'"):
            client.wait("ab" * 32, timeout_s=20.0)
        assert asked == [15.0, 5.0] and sleeps == []
