"""A small blocking client for the service, on :mod:`http.client`.

The CLI's ``submit``/``status`` commands, the latency benchmark, and
the CI smoke job all talk through this — one dependency-free wrapper
that knows the routes, raises :class:`ServiceError` for error statuses,
and hands back parsed JSON (or raw bytes, for the byte-identity
checks).

Resilience (the client half of DESIGN.md §5k): connection-level
``OSError`` failures are retried with the same bounded-exponential,
deterministically-jittered backoff arithmetic the engine uses
(:class:`repro.faults.retry.RetryPolicy` — a hash of the request
identity and attempt number, no entropy, so test runs replay
identically).  Overload responses (429/503) carrying ``Retry-After``
are honored on ``submit`` up to a bounded number of attempts.
:meth:`ServiceClient.wait` long-polls (``?wait_s=``), so it sees a job
settle the moment the server does; against a server that answers
before the bound without settling (one without the long poll, or a
draining one) it polls instead, and so does
:meth:`ServiceClient.wait_ready`, growing the interval geometrically
instead of spinning at a fixed 50 ms.
"""

from __future__ import annotations

import http.client
import json
import time

from repro.faults.retry import RetryPolicy
from repro.service.requests import MAX_WAIT_S

__all__ = [
    "ServiceError",
    "ServiceClient",
    "connect_retry_policy",
]

#: Poll intervals grow by this factor per iteration (wait/wait_ready).
_POLL_BACKOFF_FACTOR = 1.6


def connect_retry_policy() -> RetryPolicy:
    """Backoff for connection failures: 4 tries, 50 ms base, 1 s cap."""
    return RetryPolicy(max_attempts=4, base_delay_s=0.05, max_delay_s=1.0)


class ServiceError(RuntimeError):
    """A non-2xx response from the service.

    ``reason`` is the machine-readable error class the service includes
    for overload responses (``draining``, ``breaker_open``,
    ``quota_pending``, ...); ``retry_after_s`` mirrors the
    ``Retry-After`` header when the server sent one.
    """

    def __init__(
        self,
        status: int,
        message: str,
        reason: str | None = None,
        retry_after_s: float | None = None,
    ) -> None:
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.reason = reason
        self.retry_after_s = retry_after_s


class ServiceClient:
    """Blocking HTTP client bound to one server address.

    ``sleep`` and ``retry`` are injectable so tests drive the whole
    backoff schedule without waiting it out.  ``max_retry_after_s``
    bounds how long a server-sent ``Retry-After`` can make ``submit``
    sleep — a draining server's hint should delay a client, not park it.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8750,
        timeout_s: float = 30.0,
        retry: RetryPolicy | None = None,
        busy_retries: int = 2,
        max_retry_after_s: float = 5.0,
        sleep=time.sleep,
    ) -> None:
        self.host = host
        self.port = port
        self.timeout_s = timeout_s
        self.retry = retry if retry is not None else connect_retry_policy()
        self.busy_retries = busy_retries
        self.max_retry_after_s = max_retry_after_s
        self.sleep = sleep

    # ------------------------------------------------------------ plumbing
    def _request_once(
        self, method: str, path: str, body: bytes | None
    ) -> tuple[int, dict[str, str], bytes]:
        conn = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout_s
        )
        try:
            headers = {"Content-Type": "application/json"} if body else {}
            conn.request(method, path, body=body, headers=headers)
            response = conn.getresponse()
            header_map = {
                name.lower(): value for name, value in response.getheaders()
            }
            return response.status, header_map, response.read()
        finally:
            conn.close()

    def request_raw(
        self, method: str, path: str, body: bytes | None = None
    ) -> tuple[int, dict[str, str], bytes]:
        """One request with connection retries; (status, headers, body).

        Only :class:`OSError` (refused/reset/timeout — the server is
        restarting or the network hiccuped) is retried; HTTP-level
        errors are responses, not failures, and pass straight through.
        Every route here is idempotent by construction (submissions are
        content-addressed), so a retried request is always safe.
        """
        identity = f"{self.host}:{self.port}:{method}:{path}"
        attempt = 0
        while True:
            attempt += 1
            try:
                return self._request_once(method, path, body)
            except OSError:
                if attempt >= self.retry.max_attempts:
                    raise
                self.sleep(self.retry.delay_s(identity, attempt))

    def request_bytes(
        self, method: str, path: str, body: bytes | None = None
    ) -> tuple[int, bytes]:
        """One request; returns (status, raw body) without judging it."""
        status, _headers, raw = self.request_raw(method, path, body)
        return status, raw

    def request(self, method: str, path: str, payload: dict | None = None) -> dict:
        body = None if payload is None else json.dumps(payload).encode("utf-8")
        status, headers, raw = self.request_raw(method, path, body)
        parsed = _parse_json(raw)
        if status >= 400:
            raise _service_error(status, headers, parsed)
        return parsed

    # ------------------------------------------------------------- routes
    def submit(self, body: dict) -> dict:
        """POST a submission, honoring ``Retry-After`` on 429/503.

        A server that is briefly overloaded (quota pressure, open
        breaker, drain window) tells the client when to come back; up
        to ``busy_retries`` hints are obeyed (each capped at
        ``max_retry_after_s``) before the error propagates.
        """
        encoded = json.dumps(body).encode("utf-8")
        busy_attempts = 0
        while True:
            status, headers, raw = self.request_raw("POST", "/v1/jobs", encoded)
            parsed = _parse_json(raw)
            if status < 400:
                return parsed
            error = _service_error(status, headers, parsed)
            if (
                status in (429, 503)
                and error.retry_after_s is not None
                and busy_attempts < self.busy_retries
            ):
                busy_attempts += 1
                self.sleep(min(error.retry_after_s, self.max_retry_after_s))
                continue
            raise error

    def status(
        self, job_id: str, tenant: str | None = None, wait_s: float | None = None
    ) -> dict:
        """The job's status; with ``wait_s``, the server holds the answer
        until the job is done or failed, or for ``wait_s`` seconds."""
        return self.request("GET", f"/v1/jobs/{job_id}{_query(tenant, wait_s)}")

    def result_bytes(self, job_id: str, tenant: str | None = None) -> bytes:
        status, raw = self.request_bytes(
            "GET", f"/v1/jobs/{job_id}/result{_query(tenant)}"
        )
        if status != 200:
            raise ServiceError(status, raw.decode("utf-8", "replace"))
        return raw

    def result_by_digest(self, digest: str, tenant: str | None = None) -> dict:
        return self.request("GET", f"/v1/results/{digest}{_query(tenant)}")

    def jobs(self, tenant: str | None = None) -> dict:
        return self.request("GET", f"/v1/jobs{_query(tenant)}")

    def health(self) -> dict:
        return self.request("GET", "/v1/health")

    def metrics(self) -> str:
        status, raw = self.request_bytes("GET", "/metrics")
        if status != 200:
            raise ServiceError(status, raw.decode("utf-8", "replace"))
        return raw.decode("utf-8")

    # ------------------------------------------------------------ helpers
    def wait(
        self,
        job_id: str,
        tenant: str | None = None,
        timeout_s: float = 120.0,
        poll_s: float = 0.05,
        max_poll_s: float = 1.0,
    ) -> dict:
        """Wait until the job finishes; returns its final status payload.

        Each status request long-polls for up to ``MAX_WAIT_S``, half the
        socket timeout, or the time left, whichever is least, and is
        sent again at once if it comes back at its bound.  One that
        comes back sooner without the job finished (a server without
        the long poll, or a draining one) falls back to polling: the
        interval starts at ``poll_s`` and backs off geometrically to
        ``max_poll_s``.
        """
        deadline = time.monotonic() + timeout_s
        interval = poll_s
        while True:
            asked = time.monotonic()
            wait_s = max(0.0, min(MAX_WAIT_S, self.timeout_s / 2, deadline - asked))
            payload = self.status(job_id, tenant, wait_s=wait_s)
            if payload.get("state") in ("done", "failed"):
                return payload
            answered = time.monotonic()
            if answered >= deadline:
                raise TimeoutError(
                    f"job {job_id} still {payload.get('state')!r} "
                    f"after {timeout_s:.0f}s"
                )
            if answered - asked < wait_s:
                self.sleep(interval)
                interval = min(max_poll_s, interval * _POLL_BACKOFF_FACTOR)

    def wait_ready(
        self,
        timeout_s: float = 30.0,
        poll_s: float = 0.05,
        max_poll_s: float = 0.5,
    ) -> dict:
        """Poll /v1/health until the server accepts connections."""
        deadline = time.monotonic() + timeout_s
        interval = poll_s
        while True:
            try:
                return self.health()
            except (OSError, ServiceError):
                if time.monotonic() >= deadline:
                    raise
                self.sleep(interval)
                interval = min(max_poll_s, interval * _POLL_BACKOFF_FACTOR)


def _parse_json(raw: bytes) -> dict:
    try:
        return json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, ValueError):
        return {"error": raw.decode("utf-8", "replace")}


def _service_error(status: int, headers: dict[str, str], parsed: dict) -> ServiceError:
    retry_after: float | None = None
    raw_hint = headers.get("retry-after")
    if raw_hint is not None:
        try:
            retry_after = float(raw_hint)
        except ValueError:
            retry_after = None
    reason = parsed.get("reason") if isinstance(parsed, dict) else None
    message = parsed.get("error", parsed) if isinstance(parsed, dict) else parsed
    return ServiceError(
        status, str(message), reason=reason, retry_after_s=retry_after
    )


def _query(tenant: str | None, wait_s: float | None = None) -> str:
    params = [f"tenant={tenant}"] if tenant else []
    if wait_s is not None:
        params.append(f"wait_s={wait_s!r}")  # exact: early answers are told apart by it
    return f"?{'&'.join(params)}" if params else ""
