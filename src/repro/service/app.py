"""The service application: routing, admission, execution, observability.

:class:`ServiceApp` is the whole HTTP surface as one synchronous
``handle(method, path, body)`` function — the asyncio server
(:mod:`repro.service.server`) is a thin socket wrapper around it, and
tests (and the benchmark's direct mode) call it without a socket.

Request lifecycle::

    POST /v1/jobs
      -> validate_request     (400 on malformed bodies)
      -> tenant admission     (403 unknown tenant, 429 over quota)
      -> job id = request digest
      -> spool lookup:
           done     -> 200, ``cache: hit`` — no executor, one spool read
           unfinished -> 202, ``cache: pending`` — the existing handle
           absent   -> check_buildable (400 on a sweep that cannot build)
                    -> 202, ``cache: miss`` — journal + enqueue

The worker (``run_pending``; driven by the server's worker thread,
which the app wakes each time it queues a job, or called directly in
tests) pops pending jobs and executes them through the engine: suite
jobs via :func:`repro.engine.executor.run_engine` against the tenant's
own :class:`~repro.engine.store.ResultStore`, sweep jobs via
:func:`repro.explore.engine.cost_suite_grid` with the tenant's chunk
store.  Each job runs inside a :mod:`repro.perfmon` profile;
``GET /v1/jobs/{id}`` embeds a live snapshot of its counters and spans
while it runs, and ``GET /metrics`` serves the service-lifetime
counters in Prometheus exposition format.  With ``?wait_s=N`` the
status read is a long poll: the app checks ``N`` and answers the
current state, and the server holds the request until ``run_one``
announces the job settled (``on_settle``) or ``N`` runs out.

Result payloads are deterministic by construction (experiment dicts
and digest maps only — timings live in record ``meta``), serialized
with sorted keys and compact separators: identical requests produce
byte-identical result responses, which tests and the CI service-smoke
job assert with a plain byte compare.

The app also owns the **lifecycle layer** (:mod:`repro.service.lifecycle`,
DESIGN.md §5k): graceful drain (:meth:`ServiceApp.drain` — reject new
work with ``503 + Retry-After``, finish or checkpoint the in-flight
job, journal a drain record), per-request ``deadline_s`` budgets
propagated into the engine's per-job timeout, a per-``(tenant, kind)``
circuit breaker that fast-fails doomed submissions, and a worker
watchdog (:meth:`ServiceApp.beat` / :meth:`ServiceApp.watchdog_check`)
that requeues a wedged worker's job behind an epoch fence.  All of it
surfaces as ``drain.*``/``breaker.*``/``watchdog.*``/``deadline.*``
counters in ``/metrics`` and as ``ready``/``degraded``/``draining`` in
``/v1/health``, with the reasons for ``degraded``: a serial fallback, or
code drift (:func:`repro.engine.deps.code_drift`).
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

from repro.engine.deps import code_drift
from repro.engine.executor import run_engine
from repro.engine.store import DEFAULT_STORE_ROOT, ColumnCache, ResultStore
from repro.explore.engine import cost_suite_grid
from repro.faults.inject import FaultInjector, fault_point
from repro.faults.plan import FaultPlan
from repro.faults.retry import chaos_retry_policy
from repro.perfmon.collector import Profile
from repro.perfmon.collector import profile as perfmon_profile
from repro.perfmon.counters import declare_counters
from repro.perfmon.export import to_prometheus
from repro.service.lifecycle import (
    CODE_DRIFT,
    DEGRADED,
    DRAIN_NAMESPACE,
    DRAIN_SCHEMA,
    DRAINING,
    LIFECYCLE_COUNTERS,
    READY,
    SERIAL_FALLBACK,
    CircuitBreaker,
    drain_key,
    retry_after_header,
)
from repro.service.requests import (
    DEFAULT_TENANT,
    RequestError,
    check_buildable,
    request_job_id,
    validate_deadline,
    validate_request,
    validate_wait,
)
from repro.service.resolve import JOB_RESOLVERS
from repro.service.spool import (
    DONE,
    FAILED,
    RUNNING,
    JobRecord,
    JobSpool,
    state_counts,
)
from repro.service.tenants import Tenant, TenantRegistry, tenant_store_root
from repro.suite.archive import experiment_to_dict

__all__ = [
    "RESULT_SCHEMA",
    "CACHE_HIT",
    "CACHE_MISS",
    "CACHE_PENDING",
    "Response",
    "ServiceApp",
    "json_response",
    "canonical_json_bytes",
]

RESULT_SCHEMA = 1

CACHE_HIT = "hit"
CACHE_MISS = "miss"
CACHE_PENDING = "pending"

declare_counters(
    "service",
    (
        "requests",  # every handled HTTP request (and long-poll re-read)
        "submissions",  # POST /v1/jobs admitted (hit or miss)
        "hits",  # submissions answered from a completed record
        "misses",  # submissions that created a new job
        "completed",  # jobs finished successfully
        "failed",  # jobs finished in failure
        "quota_rejections",  # submissions bounced by tenant quotas
        "bad_requests",  # malformed submissions and status queries (HTTP 400)
        "swept",  # job records dropped by TTL sweeps
        "client_disconnects",  # connections dropped mid-request/response
        "waits_expired",  # status long polls answered at their bound, unsettled
    ),
)


@dataclass(frozen=True)
class Response:
    """One HTTP response, transport-agnostic."""

    status: int
    body: bytes
    content_type: str = "application/json"
    headers: tuple[tuple[str, str], ...] = ()


def canonical_json_bytes(payload: dict) -> bytes:
    """Sorted-key compact JSON — the byte-identity serialization."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")


def json_response(
    status: int, payload: dict, headers: tuple[tuple[str, str], ...] = ()
) -> Response:
    return Response(status=status, body=canonical_json_bytes(payload), headers=headers)


def _error(
    status: int,
    message: str,
    reason: str | None = None,
    retry_after_s: float | None = None,
) -> Response:
    """An error response; overload-class errors carry a machine-readable
    ``reason`` and a ``Retry-After`` header so clients can back off
    without parsing prose."""
    payload: dict = {"error": message}
    headers: tuple[tuple[str, str], ...] = ()
    if reason is not None:
        payload["reason"] = reason
    if retry_after_s is not None:
        payload["retry_after_s"] = retry_after_s
        headers = retry_after_header(retry_after_s)
    return json_response(status, payload, headers=headers)


class ServiceApp:
    """Benchmark-as-a-service over the content-addressed engine."""

    def __init__(
        self,
        root: str | Path = DEFAULT_STORE_ROOT,
        tenants: TenantRegistry | None = None,
        jobs: int = 1,
        injector: FaultInjector | None = None,
        clock=time.time,
        breaker: CircuitBreaker | None = None,
        stall_timeout_s: float = 30.0,
        drain_retry_after_s: float = 5.0,
    ) -> None:
        self.root = Path(root)
        self.spool = JobSpool(self.root)
        self.tenants = tenants if tenants is not None else TenantRegistry()
        self.jobs = jobs
        self.injector = injector
        self.clock = clock
        #: (tenant, job_id) FIFO the worker drains.
        self.queue: deque[tuple[str, str]] = deque()
        #: Notified each time a job is queued; an idle worker waits on it.
        self._queued = threading.Condition()
        #: Notified each time the worker lets go of a job; ``drain`` waits on it.
        self._settled = threading.Condition()
        #: Called with ``(tenant, job_id)`` from the worker's thread each
        #: time :meth:`run_one` settles a job (the server's long polls).
        self.on_settle: Callable[[str, str], None] | None = None
        #: live per-job profiles, for progress snapshots while running.
        self.job_profiles: dict[str, Profile] = {}
        #: service-lifetime profile behind ``GET /metrics``.
        self.profile = Profile(meta={"service": "repro", "root": str(self.root)})
        self.started_at = self.clock()
        # ----------------------------------------------- lifecycle state
        self.breaker = breaker if breaker is not None else CircuitBreaker()
        #: heartbeat-age limit before the watchdog declares the worker
        #: wedged, requeues its job, and fences its epoch.
        self.stall_timeout_s = stall_timeout_s
        #: Retry-After hint handed out while draining.
        self.drain_retry_after_s = drain_retry_after_s
        self.draining = False
        self.drain_reason: str | None = None
        #: True after a job fell back to serial execution (pool loss);
        #: cleared when a pooled suite job completes cleanly again.
        self.degraded = False
        #: Fencing token: bumped by the watchdog/checkpoint so a stale
        #: worker that wakes after a requeue cannot overwrite the spool.
        self.worker_epoch = 0
        #: (tenant, job_id) the worker currently executes, if any.
        self.running_job: tuple[str, str] | None = None
        self.heartbeat_at = self.clock()
        # Seed every lifecycle counter at zero so /metrics exports the
        # full drain/breaker/watchdog/deadline surface from first scrape.
        for component, names in LIFECYCLE_COUNTERS.items():
            self.profile.counters.add_many(component, dict.fromkeys(names, 0.0))

    # ------------------------------------------------------------ counters
    def _count(self, **increments: float) -> None:
        self.profile.counters.add_many(
            "service", {name: float(value) for name, value in increments.items()}
        )

    def _record(self, component: str, **increments: float) -> None:
        self.profile.counters.add_many(
            component, {name: float(value) for name, value in increments.items()}
        )

    # ------------------------------------------------------------ recovery
    def recover(self) -> list[JobRecord]:
        """Re-enqueue unfinished spool records (startup resume path)."""
        resumed = self.spool.recover()
        for record in resumed:
            self._enqueue(record.tenant, record.job_id)
        if self.last_drain() is not None:
            self._record("drain", resumed=1.0)
        return resumed

    # ------------------------------------------------------------ routing
    def handle(self, method: str, path: str, body: bytes = b"") -> Response:
        """Dispatch one request; never raises for client-side faults."""
        self._count(requests=1.0)
        parts, params = _split_target(path)
        try:
            if method == "POST" and parts == ["v1", "jobs"]:
                return self.submit(body)
            if method == "GET" and len(parts) == 3 and parts[:2] == ["v1", "jobs"]:
                if "wait_s" in params:
                    # The wait itself is the server's; here it is only checked.
                    try:
                        validate_wait(params["wait_s"])
                    except RequestError as exc:
                        return self._bad_request(str(exc))
                return self.job_status(parts[2], params.get("tenant"))
            if (
                method == "GET"
                and len(parts) == 4
                and parts[:2] == ["v1", "jobs"]
                and parts[3] == "result"
            ):
                return self.job_result(parts[2], params.get("tenant"))
            if method == "GET" and parts == ["v1", "jobs"]:
                return self.list_jobs(params.get("tenant"))
            if method == "GET" and len(parts) == 3 and parts[:2] == ["v1", "results"]:
                return self.result_by_digest(parts[2], params.get("tenant"))
            if method == "GET" and parts == ["metrics"]:
                return self.metrics()
            if method == "GET" and parts == ["v1", "health"]:
                return self.health()
        except Exception as exc:  # a handler bug must not kill the server
            return _error(500, f"{type(exc).__name__}: {exc}")
        return _error(404, f"no route for {method} /{'/'.join(parts)}")

    def long_poll(self, method: str, target: str) -> tuple[str, str, float] | None:
        """``(tenant, job_id, wait_s)`` when a request is a well-formed long
        poll, ``GET /v1/jobs/{id}?wait_s=N``; None for anything else,
        including a malformed ``wait_s``, which :meth:`handle` answers
        with a 400.  ``wait_s`` comes back capped at ``MAX_WAIT_S``.
        """
        parts, params = _split_target(target)
        if method != "GET" or len(parts) != 3 or parts[:2] != ["v1", "jobs"]:
            return None
        if "wait_s" not in params:
            return None
        try:
            wait_s = validate_wait(params["wait_s"])
        except RequestError:
            return None
        return params.get("tenant") or DEFAULT_TENANT, parts[2], wait_s

    # ------------------------------------------------------------ handlers
    def submit(self, body: bytes) -> Response:
        if self.draining:
            # Drain contract: nothing new is admitted, in-flight work
            # finishes, and the client is told when to come back — the
            # restarted process will serve the resubmission (or the
            # cached result, if a twin already completed).
            self._record("drain", rejected=1.0)
            return _error(
                503,
                "server is draining"
                + (f" ({self.drain_reason})" if self.drain_reason else "")
                + "; resubmit after restart",
                reason="draining",
                retry_after_s=self.drain_retry_after_s,
            )
        try:
            parsed = json.loads(body.decode("utf-8") or "null")
        except (RecursionError, ValueError):  # UnicodeDecodeError is a ValueError
            return self._bad_request("request body is not valid JSON")
        try:
            request = validate_request(parsed)
            deadline_s = validate_deadline(parsed)
        except RequestError as exc:
            return self._bad_request(str(exc))

        tenant = self.tenants.get(request["tenant"])
        if tenant is None:
            return _error(
                403,
                f"unknown tenant {request['tenant']!r}; provisioned: "
                f"{', '.join(self.tenants.names())}",
                reason="unknown_tenant",
            )

        job_id = request_job_id(request)
        action = fault_point("service_submit", self.injector, job_id)
        if action is not None:
            if action.kind == "slow":
                time.sleep(action.delay_s)
            else:
                return _error(
                    503,
                    "injected service fault (chaos harness)",
                    reason="fault_injection",
                    retry_after_s=self.drain_retry_after_s,
                )

        existing = self.spool.get(tenant.name, job_id)
        if existing is not None and existing.state == DONE:
            # The content-addressed fast path: one spool read, no
            # executor, no queue — the "costs ~0" case.  The touch
            # renews the TTL so a sweep racing this hit cannot delete
            # the handle we just handed out.
            existing = self.spool.refresh_ttl(
                existing, now=self.clock(), ttl_s=tenant.result_ttl_s
            )
            self._count(submissions=1.0, hits=1.0)
            return json_response(
                200, self._submission_payload(existing, CACHE_HIT)
            )
        if existing is not None and not existing.finished:
            self._count(submissions=1.0)
            return json_response(
                202, self._submission_payload(existing, CACHE_PENDING)
            )

        # Only genuinely new work is built and faces the breaker: hits
        # and pending twins above are already paid for.
        try:
            check_buildable(request)
        except RequestError as exc:
            return self._bad_request(str(exc))
        breaker_key = (tenant.name, request["kind"])
        decision = self.breaker.admit(breaker_key, self.clock())
        if decision.event == "probe":
            self._record("breaker", probes=1.0)
        if not decision.allowed:
            self._record("breaker", fast_fails=1.0)
            return _error(
                503,
                f"circuit breaker {decision.state} for tenant "
                f"{tenant.name!r} kind {request['kind']!r} after repeated "
                f"failures; retry later",
                reason="breaker_open",
                retry_after_s=decision.retry_after_s,
            )

        counts = self.spool.counts(tenant.name)
        unfinished = counts["pending"] + counts["running"]
        if existing is None and unfinished >= tenant.max_pending:
            self._count(quota_rejections=1.0)
            return _error(
                429,
                f"tenant {tenant.name!r} has {unfinished} unfinished jobs "
                f"(quota {tenant.max_pending})",
                reason="quota_pending",
                retry_after_s=self.drain_retry_after_s,
            )
        if existing is None and counts["total"] >= tenant.max_records:
            self._count(quota_rejections=1.0)
            return _error(
                429,
                f"tenant {tenant.name!r} holds {counts['total']} job records "
                f"(quota {tenant.max_records}); run gc or raise the quota",
                reason="quota_records",
                retry_after_s=self.drain_retry_after_s,
            )

        if deadline_s is not None:
            self._record("deadline", admitted=1.0)
        record = JobRecord(
            job_id=job_id,
            tenant=tenant.name,
            request=request,
            submitted_at=self.clock(),
            attempts=existing.attempts if existing is not None else 0,
            deadline_s=deadline_s,
        )
        self.spool.put(record)
        self._enqueue(tenant.name, job_id)
        self._count(submissions=1.0, misses=1.0)
        return json_response(202, self._submission_payload(record, CACHE_MISS))

    def _bad_request(self, message: str) -> Response:
        self._count(bad_requests=1.0)
        return _error(400, message, reason="bad_request")

    def _submission_payload(self, record: JobRecord, cache: str) -> dict:
        return {
            "job_id": record.job_id,
            "kind": record.kind,
            "tenant": record.tenant,
            "state": record.state,
            "cache": cache,
            "links": {
                "status": f"/v1/jobs/{record.job_id}?tenant={record.tenant}",
                "result": f"/v1/jobs/{record.job_id}/result?tenant={record.tenant}",
            },
        }

    def _lookup(self, job_id: str, tenant: str | None) -> JobRecord | None:
        try:
            return self.spool.get(tenant or DEFAULT_TENANT, job_id)
        except ValueError:  # not a tenant name or not a job id: no such job
            return None

    def job_status(self, job_id: str, tenant: str | None) -> Response:
        record = self._lookup(job_id, tenant)
        if record is None:
            return _error(404, f"no job {job_id!r} for tenant {tenant or DEFAULT_TENANT!r}")
        payload = {
            "job_id": record.job_id,
            "kind": record.kind,
            "tenant": record.tenant,
            "state": record.state,
            "attempts": record.attempts,
            "submitted_at": record.submitted_at,
            "finished_at": record.finished_at,
            "expires_at": record.expires_at,
            "error": record.error,
            "meta": record.meta,
        }
        if record.deadline_s is not None:
            payload["deadline_s"] = record.deadline_s
            if not record.finished:
                # Remaining budget is live information, only meaningful
                # while the job can still spend it.
                payload["deadline_remaining_s"] = record.deadline_remaining_s(
                    self.clock()
                )
        live = self.job_profiles.get(record.job_id)
        if live is not None:
            payload["progress"] = _progress_snapshot(live)
        return json_response(200, payload)

    def job_result(self, job_id: str, tenant: str | None) -> Response:
        record = self._lookup(job_id, tenant)
        if record is None:
            return _error(404, f"no job {job_id!r} for tenant {tenant or DEFAULT_TENANT!r}")
        if record.state == FAILED:
            return _error(500, record.error or "job failed")
        if record.result is None:
            return json_response(
                202,
                {"job_id": record.job_id, "state": record.state,
                 "error": "result not ready"},
            )
        return Response(status=200, body=canonical_json_bytes(record.result))

    def list_jobs(self, tenant: str | None) -> Response:
        name = tenant or DEFAULT_TENANT
        if self.tenants.get(name) is None:
            return _error(403, f"unknown tenant {name!r}")
        records = self.spool.records(name)
        return json_response(
            200,
            {
                "tenant": name,
                "jobs": [
                    {"job_id": r.job_id, "kind": r.kind, "state": r.state}
                    for r in records
                ],
                "counts": state_counts(records),
            },
        )

    def result_by_digest(self, digest: str, tenant: str | None) -> Response:
        """Direct content-addressed read: one store get, no job needed."""
        name = tenant or DEFAULT_TENANT
        if self.tenants.get(name) is None:
            return _error(403, f"unknown tenant {name!r}")
        store = ResultStore(tenant_store_root(self.root, name))
        for entry in store.entries():
            if entry.key != digest:
                continue
            cached = store.get(_entry_digest(entry.exp_id, entry.key))
            if cached is None:
                break  # corrupt: quarantined on read, report a miss
            return json_response(
                200,
                {
                    "schema": RESULT_SCHEMA,
                    "digest": digest,
                    "exp_id": cached.exp_id,
                    "cache": CACHE_HIT,
                    "experiment": experiment_to_dict(cached.experiment),
                },
            )
        return _error(404, f"no result under digest {digest!r} for tenant {name!r}")

    def metrics(self) -> Response:
        return Response(
            status=200,
            body=to_prometheus(self.profile).encode("utf-8"),
            content_type="text/plain; version=0.0.4",
        )

    def health(self) -> Response:
        drifted = code_drift()
        reasons = [SERIAL_FALLBACK] if self.degraded else []
        if drifted:
            reasons.append(CODE_DRIFT)
        if self.draining:
            status = DRAINING
        else:
            status = DEGRADED if reasons else READY
        return json_response(
            200,
            {
                "status": status,
                "reasons": reasons,
                "code_drift": list(drifted),
                "draining": self.draining,
                "degraded": self.degraded,
                "pending": len(self.queue),
                "running": sorted(self.job_profiles),
                "tenants": list(self.tenants.names()),
                "breakers": self.breaker.snapshot(),
                "worker": {
                    "epoch": self.worker_epoch,
                    "heartbeat_age_s": max(0.0, self.clock() - self.heartbeat_at),
                },
            },
        )

    # ------------------------------------------------------------ worker
    def _enqueue(self, tenant: str, job_id: str, front: bool = False) -> None:
        """Queue a job and wake an idle worker."""
        with self._queued:
            if front:
                self.queue.appendleft((tenant, job_id))
            else:
                self.queue.append((tenant, job_id))
            self._queued.notify_all()

    def wait_queued(self, timeout_s: float) -> None:
        """Block until a job is queued, or for ``timeout_s`` (an idle worker)."""
        with self._queued:
            self._queued.wait_for(lambda: self.queue, timeout_s)

    def next_pending(self) -> tuple[str, str] | None:
        try:
            return self.queue.popleft()
        except IndexError:
            return None

    def beat(self) -> None:
        """Stamp the worker heartbeat (one per drain cycle).

        The ``worker_heartbeat`` fault site lives here: a ``slow``
        action wedges the worker mid-beat (the watchdog's cue), an
        ``error`` action crashes the loop body (the supervisor's cue).
        """
        self.heartbeat_at = self.clock()
        self._record("watchdog", beats=1.0)
        action = fault_point("worker_heartbeat", self.injector, "worker")
        if action is not None:
            if action.kind == "slow":
                time.sleep(action.delay_s)
            else:
                raise RuntimeError("injected worker fault (chaos harness)")

    def _fenced(self, epoch: int | None) -> bool:
        return epoch is not None and epoch != self.worker_epoch

    def run_pending(self, max_jobs: int | None = None, epoch: int | None = None) -> int:
        """Drain the queue (the worker loop body); returns jobs run.

        ``epoch`` is the fencing token a supervised worker passes: the
        loop stops as soon as the watchdog (or a drain checkpoint) has
        moved the app to a newer epoch, so a stale worker never claims
        or completes work that was requeued away from it.
        """
        ran = 0
        while max_jobs is None or ran < max_jobs:
            self.beat()
            if self.draining or self._fenced(epoch):
                break
            item = self.next_pending()
            if item is None:
                break
            tenant, job_id = item
            self.run_one(tenant, job_id, epoch=epoch)
            ran += 1
        return ran

    def run_one(
        self, tenant_name: str, job_id: str, epoch: int | None = None
    ) -> JobRecord | None:
        """Execute one journaled job through the engine.

        However the job ends (done, failed, deadline-expired or fenced),
        the worker then lets go of it (:meth:`_settle`), after the spool
        holds its outcome.
        """
        try:
            return self._run(tenant_name, job_id, epoch)
        finally:
            self._settle(tenant_name, job_id, epoch)

    def _settle(self, tenant_name: str, job_id: str, epoch: int | None) -> None:
        """Release the worker's claim, wake a drain, and call ``on_settle``.

        A fenced worker's claim was already taken from it (and the job
        may be running again on the new epoch), so it clears nothing.
        """
        with self._settled:
            if not self._fenced(epoch):
                self.running_job = None
            self._settled.notify_all()
        on_settle = self.on_settle  # read once: the server may unset it meanwhile
        if on_settle is not None:
            on_settle(tenant_name, job_id)

    def _fence(self) -> None:
        """Move to a new worker epoch, abandoning the running claim."""
        with self._settled:
            self.worker_epoch += 1
            self.running_job = None
            self._settled.notify_all()

    def _run(
        self, tenant_name: str, job_id: str, epoch: int | None
    ) -> JobRecord | None:
        record = self.spool.get(tenant_name, job_id)
        if record is None or record.finished:
            return record
        if self._fenced(epoch):
            self._record("watchdog", fenced=1.0)
            return None
        tenant = self.tenants.get(tenant_name) or Tenant(name=tenant_name)
        breaker_key = (tenant_name, record.kind)

        remaining = record.deadline_remaining_s(self.clock())
        if remaining is not None and remaining <= 0:
            # Expired while queued: fail as timeout without spending
            # engine time on a result nobody is waiting for.
            # A lapsed budget says nothing about builder health, so the
            # breaker is not fed here (or on the exceeded path below).
            self._record("deadline", expired=1.0)
            self._count(failed=1.0)
            return self.spool.mark_failed(
                record,
                error=(
                    f"timeout: deadline of {record.deadline_s:g} s expired "
                    f"before execution started"
                ),
                meta={"attempts": record.attempts, "deadline_s": record.deadline_s},
                now=self.clock(),
                ttl_s=tenant.result_ttl_s,
            )

        record = self.spool.mark_running(record)
        self.running_job = (tenant_name, job_id)
        with perfmon_profile(job_id=job_id, tenant=tenant_name) as prof:
            self.job_profiles[job_id] = prof
            try:
                result, meta = self._execute(record, timeout_s=remaining)
            except Exception as exc:
                self.job_profiles.pop(job_id, None)
                if self._fenced(epoch):
                    self._record("watchdog", fenced=1.0)
                    return None
                self._count(failed=1.0)
                self._breaker_failure(breaker_key)
                return self.spool.mark_failed(
                    record,
                    error=f"{type(exc).__name__}: {exc}",
                    meta={"attempts": record.attempts},
                    now=self.clock(),
                    ttl_s=tenant.result_ttl_s,
                )
            finally:
                self.job_profiles.pop(job_id, None)
        meta["perfmon"] = _progress_snapshot(prof)
        if self._fenced(epoch):
            # The watchdog requeued this job while we were executing it:
            # our claim is stale, and writing now would race the worker
            # that legitimately owns the new epoch.  Discard.
            self._record("watchdog", fenced=1.0)
            return None
        if meta.get("serial_fallback"):
            # The engine abandoned its pool mid-job: still correct, but
            # the service is running in brownout until proven otherwise.
            self.degraded = True
            self._record("breaker", brownouts=1.0)
        elif record.kind == "suite" and self.jobs > 1 and result is not None:
            self.degraded = False
        over_deadline = (
            record.deadline_at is not None and self.clock() > record.deadline_at
        )
        if over_deadline:
            self._record("deadline", exceeded=1.0)
            self._count(failed=1.0)
            return self.spool.mark_failed(
                record,
                error=f"timeout: job exceeded its {record.deadline_s:g} s deadline",
                meta=meta,
                now=self.clock(),
                ttl_s=tenant.result_ttl_s,
            )
        if result is None:
            self._count(failed=1.0)
            self._breaker_failure(breaker_key)
            return self.spool.mark_failed(
                record,
                error=str(meta.get("failures") or "job failed"),
                meta=meta,
                now=self.clock(),
                ttl_s=tenant.result_ttl_s,
            )
        self._count(completed=1.0)
        if self.breaker.record_success(breaker_key) == "closed":
            self._record("breaker", closed=1.0)
        return self.spool.mark_done(
            record,
            result=result,
            meta=meta,
            now=self.clock(),
            ttl_s=tenant.result_ttl_s,
        )

    def _breaker_failure(self, key: tuple[str, str]) -> None:
        self._record("breaker", failures=1.0)
        if self.breaker.record_failure(key, self.clock()) == "opened":
            self._record("breaker", opened=1.0)

    # ----------------------------------------------------- server hooks
    def note_client_disconnect(self) -> None:
        """A connection died mid-request/response (observable, not fatal)."""
        self._count(client_disconnects=1.0)

    def note_worker_restart(self) -> None:
        """The supervised worker loop crashed and was restarted in place."""
        self._record("watchdog", restarts=1.0)

    def note_wait_expired(self) -> None:
        """A status long poll reached its bound before its job settled."""
        self._count(waits_expired=1.0)

    # ------------------------------------------------------------ executors
    def _execute(
        self, record: JobRecord, timeout_s: float | None = None
    ) -> tuple[dict | None, dict]:
        kind = record.kind
        payload = record.request.get(kind, {})
        if kind == "suite":
            return self._execute_suite(record, payload, timeout_s=timeout_s)
        if kind == "sweep":
            return self._execute_sweep(record, payload)
        raise ValueError(f"unknown job kind {kind!r}; know {', '.join(JOB_RESOLVERS)}")

    def _execute_suite(
        self, record: JobRecord, payload: dict, timeout_s: float | None = None
    ) -> tuple[dict | None, dict]:
        exp_ids = JOB_RESOLVERS["suite"](payload)
        store = ResultStore(tenant_store_root(self.root, record.tenant))
        injector = retry = None
        if payload.get("fault_plan") is not None:
            injector = FaultPlan.from_dict(payload["fault_plan"]).injector()
            retry = chaos_retry_policy()
        report = run_engine(
            exp_ids,
            jobs=self.jobs,
            store=store,
            timeout_s=timeout_s,  # the job's remaining deadline budget
            retry=retry,
            injector=injector,
        )
        meta = {
            "cache": report.cache_counts(),
            "plan": report.plan.counts(),
            "wall_s": report.wall_s,
            "attempts": record.attempts,
            "retry_rounds": report.retry_rounds,
            "serial_fallback": report.serial_fallback,
        }
        if report.failures:
            meta["failures"] = [f.summary_line() for f in report.failures]
            return None, meta
        digests = {e.exp_id: e.digest.key for e in report.plan.entries}
        result = {
            "schema": RESULT_SCHEMA,
            "kind": "suite",
            "job_id": record.job_id,
            "tenant": record.tenant,
            "exp_ids": list(exp_ids),
            "digests": {exp_id: digests[exp_id] for exp_id in exp_ids},
            "experiments": [
                experiment_to_dict(r.experiment) for r in report.successes
            ],
        }
        return result, meta

    def _execute_sweep(self, record: JobRecord, payload: dict) -> tuple[dict, dict]:
        from repro.engine.store import ChunkStore

        sweep = JOB_RESOLVERS["sweep"](payload)
        grid = sweep.build()
        trace_ids = tuple(payload.get("traces") or ()) or None
        chunk_store = ChunkStore(tenant_store_root(self.root, record.tenant))
        start = time.perf_counter()
        outcome = cost_suite_grid(
            grid,
            trace_ids=trace_ids,
            memory_dilation=float(payload.get("dilation", 1.0)),
            store=chunk_store,
        )
        meta = {
            "wall_s": time.perf_counter() - start,
            "attempts": record.attempts,
            "n_machines": outcome.n_machines,
        }
        result = {
            "schema": RESULT_SCHEMA,
            "kind": "sweep",
            "job_id": record.job_id,
            "tenant": record.tenant,
            "anchor": payload.get("anchor", "sx4"),
            "n_machines": outcome.n_machines,
            "trace_ids": list(outcome.trace_ids),
            "machines": [
                {
                    "name": outcome.machine_names[i],
                    "suite_seconds": float(outcome.suite_seconds[i]),
                    "suite_mflops": float(outcome.suite_mflops[i]),
                    "suite_bandwidth_bytes_per_s": float(
                        outcome.suite_bandwidth_bytes_per_s[i]
                    ),
                }
                for i in range(outcome.n_machines)
            ],
        }
        return result, meta

    # ------------------------------------------------------------ lifecycle
    def watchdog_check(self, now: float | None = None) -> dict | None:
        """Detect a wedged worker; requeue its job and fence its epoch.

        Called periodically by the server's monitor task (and directly
        by tests/chaos on a logical clock).  A worker is wedged when its
        heartbeat is older than ``stall_timeout_s``.  Recovery is pure
        state surgery: the RUNNING record goes back to PENDING at the
        *front* of the queue, the epoch bump fences any write the stale
        worker attempts if it ever wakes, and the caller restarts a
        fresh worker loop on the new epoch.
        """
        now = self.clock() if now is None else now
        if self.draining:
            return None  # drain owns the endgame; see checkpoint_running
        stalled_for = now - self.heartbeat_at
        if stalled_for <= self.stall_timeout_s:
            return None
        self._record("watchdog", stalls=1.0)
        requeued: list[str] = []
        busy = self.running_job
        if busy is not None:
            tenant_name, job_id = busy
            record = self.spool.get(tenant_name, job_id)
            if record is not None and record.state == RUNNING:
                self.spool.mark_pending(record)
                self._enqueue(tenant_name, job_id, front=True)
                requeued.append(job_id)
                self._record("watchdog", requeues=1.0)
            self.job_profiles.pop(job_id, None)
        self._fence()
        self.heartbeat_at = now
        self._record("watchdog", restarts=1.0)
        return {
            "stalled_for_s": stalled_for,
            "requeued": requeued,
            "epoch": self.worker_epoch,
        }

    def begin_drain(self, reason: str = "signal") -> None:
        """Flip into the draining state: new submissions bounce with 503."""
        if self.draining:
            return
        self.draining = True
        self.drain_reason = reason
        self._record("drain", begun=1.0)

    def checkpoint_running(self) -> list[str]:
        """Demote every RUNNING record to PENDING (drain-timeout path).

        The epoch bump makes the demotion safe against the very worker
        we are abandoning: if it finishes after the timeout, its
        ``mark_done`` is fenced and discarded, and the restarted server
        recomputes the job to the same content-addressed result.
        """
        self._fence()
        checkpointed = []
        for record in self.spool.iter_records():
            if record.state == RUNNING:
                self.spool.mark_pending(record)
                checkpointed.append(record.job_id)
        if checkpointed:
            self._record("drain", checkpointed=float(len(checkpointed)))
        return checkpointed

    def sweep_orphan_columns(self) -> int:
        """Sweep dead-owner shared-memory column segments, all tenants."""
        swept = 0
        for name in self.tenants.names():
            root = tenant_store_root(self.root, name)
            if root.exists():
                swept += len(ColumnCache(root).sweep_orphans())
        if swept:
            self._record("drain", orphan_segments=float(swept))
        return swept

    def journal_drain(self, checkpointed: list[str], swept_segments: int) -> dict | None:
        """Write the drain record; the restarted process reads it back.

        Journaled through the same ChunkStore discipline as job records
        (atomic replace, checksummed), under a fixed key — there is only
        ever one "latest drain".  The ``service_drain`` fault site lets
        chaos stall or bounce this write; a bounced write loses only the
        record, never jobs (the spool is already consistent).
        """
        action = fault_point("service_drain", self.injector, "drain")
        if action is not None:
            if action.kind == "slow":
                time.sleep(action.delay_s)
            else:
                return None
        states: dict[str, int] = {}
        for record in self.spool.iter_records():
            states[record.state] = states.get(record.state, 0) + 1
        payload = {
            "schema": DRAIN_SCHEMA,
            "reason": self.drain_reason,
            "drained_at": self.clock(),
            "job_states": states,
            "checkpointed": sorted(checkpointed),
            "orphan_segments_swept": swept_segments,
        }
        self.spool.chunks.put(DRAIN_NAMESPACE, drain_key(), payload)
        self._record("drain", completed=1.0)
        return payload

    def last_drain(self) -> dict | None:
        """The previous process's drain record, if it exited gracefully."""
        return self.spool.chunks.get(DRAIN_NAMESPACE, drain_key())

    def drain(self, timeout_s: float = 30.0, reason: str = "signal") -> dict:
        """The whole drain sequence, blocking up to ``timeout_s``.

        Waits for the in-flight job to settle (the worker's settled
        signal, so it ends the moment the job's outcome is journaled);
        past the timeout it is checkpointed back to PENDING instead.
        Either way the spool ends consistent, orphan column segments are
        swept, and a drain record is journaled — the graceful-exit
        contract the server's signal handler (and the lifecycle tests)
        rely on.
        """
        self.begin_drain(reason)
        with self._settled:
            self._settled.wait_for(lambda: self.running_job is None, timeout_s)
        checkpointed = self.checkpoint_running()
        swept = self.sweep_orphan_columns()
        journal = self.journal_drain(checkpointed, swept)
        return {
            "reason": reason,
            "checkpointed": checkpointed,
            "orphan_segments_swept": swept,
            "journaled": journal is not None,
        }

    # ------------------------------------------------------------ hygiene
    def sweep_expired(self, now: float | None = None) -> int:
        """TTL sweep over every tenant's finished job records."""
        swept = self.spool.sweep_expired(self.clock() if now is None else now)
        if swept:
            self._count(swept=float(len(swept)))
        return len(swept)


def _split_target(target: str) -> tuple[list[str], dict[str, str]]:
    """A request target's path segments and query parameters."""
    path, _, query = target.partition("?")
    return [p for p in path.split("/") if p], _parse_query(query)


def _parse_query(query: str) -> dict[str, str]:
    params: dict[str, str] = {}
    for pair in query.split("&"):
        if not pair:
            continue
        key, _, value = pair.partition("=")
        params[key] = value
    return params


def _entry_digest(exp_id: str, key: str):
    from repro.engine.deps import ExperimentDigest

    return ExperimentDigest(exp_id=exp_id, key=key, modules=())


def _progress_snapshot(prof: Profile) -> dict:
    """A point-in-time view of a job profile, safe to take mid-run."""
    spans = list(prof.spans)
    finished = [s for s in spans if s.end_s is not None]
    return {
        "counters": prof.counters.to_dict(),
        "spans_finished": len(finished),
        "spans_open": [s.name for s in spans if s.end_s is None],
        "last_span": finished[-1].name if finished else None,
        "cache_hits": sum(
            1 for s in finished if s.attrs.get("cache") == "hit"
        ),
    }
