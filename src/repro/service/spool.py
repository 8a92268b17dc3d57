"""Durable job spool: every job journaled to the content-addressed store.

Job records are JSON chunks in the engine's
:class:`~repro.engine.store.ChunkStore` (namespace ``svcjob-<tenant>``,
key = the job id, which is already a sha256 over the canonical request
body).  That buys the service the store's whole discipline for free:
atomic ``tmp/`` + ``os.replace`` writes staged per process and thread (a
crash mid-update leaves the previous complete record, never a torn one,
and handler threads renewing one record's TTL at once each leave a
complete record), payload checksums verified on read, and
quarantine-instead-of-silent-loss: a damaged record, undecodable bytes
included, moves to ``quarantine/chunks/`` and reads as absent, so
:meth:`JobSpool.recover` skips it and a resubmission starts the job
afresh.  The spool never builds chunk paths itself; records are written,
read, listed and deleted through the ``ChunkStore``.

State machine::

    pending -> running -> done
                      \\-> failed

Every transition rewrites the record atomically.  On startup the
server calls :meth:`JobSpool.recover`: ``running`` records are demoted
to ``pending`` (the previous process died mid-job) and everything
unfinished is handed back to the queue — same job ids, same request
bytes, so the resumed run recomputes the same digests and lands the
same results.

Finished records carry ``expires_at`` (completion time plus the
tenant's TTL); :meth:`JobSpool.sweep_expired` drops the expired ones —
``python -m repro.service gc`` and ``python -m repro.engine gc`` both
run it.
"""

from __future__ import annotations

import time
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field, replace
from pathlib import Path

from repro.engine.store import DEFAULT_STORE_ROOT, ChunkStore
from repro.service.tenants import TENANT_NAME_RE

__all__ = [
    "SPOOL_SCHEMA",
    "SPOOL_NAMESPACE_PREFIX",
    "PENDING",
    "RUNNING",
    "DONE",
    "FAILED",
    "JOB_STATES",
    "JobRecord",
    "JobSpool",
    "state_counts",
]

SPOOL_SCHEMA = 1

SPOOL_NAMESPACE_PREFIX = "svcjob-"

PENDING = "pending"
RUNNING = "running"
DONE = "done"
FAILED = "failed"

JOB_STATES = (PENDING, RUNNING, DONE, FAILED)


@dataclass(frozen=True)
class JobRecord:
    """One journaled job: identity, state, and (eventually) its result.

    ``result`` is the deterministic payload the result endpoint serves
    byte-for-byte; everything run-dependent (timings, cache counts,
    worker attempts) lives in ``meta`` so identical requests always
    produce identical result bytes.
    """

    job_id: str
    tenant: str
    request: dict
    state: str = PENDING
    submitted_at: float = 0.0
    finished_at: float | None = None
    expires_at: float | None = None
    attempts: int = 0
    result: dict | None = None
    error: str | None = None
    meta: dict = field(default_factory=dict)
    #: Optional execution budget in seconds, measured from submission.
    #: Deliberately *not* part of the request digest: the same work with
    #: a different deadline is the same content-addressed job.
    deadline_s: float | None = None

    def __post_init__(self) -> None:
        if self.state not in JOB_STATES:
            raise ValueError(f"unknown job state {self.state!r}; know {JOB_STATES}")

    @property
    def finished(self) -> bool:
        return self.state in (DONE, FAILED)

    @property
    def kind(self) -> str:
        return str(self.request.get("kind", ""))

    @property
    def deadline_at(self) -> float | None:
        """Absolute deadline (submission + budget); restart-stable."""
        if self.deadline_s is None:
            return None
        return self.submitted_at + self.deadline_s

    def deadline_remaining_s(self, now: float) -> float | None:
        if self.deadline_at is None:
            return None
        return self.deadline_at - now

    def to_dict(self) -> dict:
        return {
            "schema": SPOOL_SCHEMA,
            "job_id": self.job_id,
            "tenant": self.tenant,
            "request": self.request,
            "state": self.state,
            "submitted_at": self.submitted_at,
            "finished_at": self.finished_at,
            "expires_at": self.expires_at,
            "attempts": self.attempts,
            "result": self.result,
            "error": self.error,
            "meta": self.meta,
            "deadline_s": self.deadline_s,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> JobRecord:
        return cls(
            job_id=str(payload["job_id"]),
            tenant=str(payload["tenant"]),
            request=dict(payload["request"]),
            state=str(payload["state"]),
            submitted_at=float(payload.get("submitted_at", 0.0)),
            finished_at=(
                None
                if payload.get("finished_at") is None
                else float(payload["finished_at"])
            ),
            expires_at=(
                None
                if payload.get("expires_at") is None
                else float(payload["expires_at"])
            ),
            attempts=int(payload.get("attempts", 0)),
            result=payload.get("result"),
            error=payload.get("error"),
            meta=dict(payload.get("meta", {})),
            deadline_s=(
                None
                if payload.get("deadline_s") is None
                else float(payload["deadline_s"])
            ),
        )


def _submission_order(record: JobRecord) -> tuple[float, str]:
    return record.submitted_at, record.job_id


def state_counts(records: Iterable[JobRecord]) -> dict[str, int]:
    """Records per state, plus ``total``."""
    counts = dict.fromkeys(JOB_STATES, 0)
    for record in records:
        counts[record.state] += 1
    counts["total"] = sum(counts.values())
    return counts


class JobSpool:
    """The durable queue: job records keyed by deterministic job id."""

    def __init__(self, root: str | Path = DEFAULT_STORE_ROOT) -> None:
        self.root = Path(root)
        self.chunks = ChunkStore(self.root)

    # ------------------------------------------------------------ naming
    @staticmethod
    def namespace(tenant: str) -> str:
        if not TENANT_NAME_RE.match(tenant):
            raise ValueError(f"invalid tenant name {tenant!r}")
        return f"{SPOOL_NAMESPACE_PREFIX}{tenant}"

    @staticmethod
    def _tenant_of(namespace: str) -> str | None:
        if not namespace.startswith(SPOOL_NAMESPACE_PREFIX):
            return None
        return namespace[len(SPOOL_NAMESPACE_PREFIX):]

    # ------------------------------------------------------------ access
    def put(self, record: JobRecord) -> Path:
        """Journal one record atomically (create or state transition)."""
        payload = record.to_dict()
        return self.chunks.put(self.namespace(record.tenant), record.job_id, payload)

    def get(self, tenant: str, job_id: str) -> JobRecord | None:
        payload = self.chunks.get(self.namespace(tenant), job_id)
        if payload is None:
            return None
        try:
            return JobRecord.from_dict(payload)
        except (KeyError, TypeError, ValueError):
            return None  # pre-schema record: treat as absent, never crash

    def iter_records(self, tenant: str | None = None) -> Iterator[JobRecord]:
        """Every journaled record (or one tenant's), read one at a time.

        Nothing accumulates: a whole-spool pass holds one decoded
        record, results included, at a time.  One tenant's records are
        listed by file name, so other tenants' records are never opened.
        """
        namespace = None if tenant is None else self.namespace(tenant)
        for entry in self.chunks.entries(namespace):
            entry_tenant = self._tenant_of(entry.exp_id)
            if entry_tenant is None:
                continue
            record = self.get(entry_tenant, entry.key)
            if record is not None:
                yield record

    def records(self, tenant: str | None = None) -> list[JobRecord]:
        """Every journaled record, oldest submission first (job listings)."""
        return sorted(self.iter_records(tenant), key=_submission_order)

    def counts(self, tenant: str) -> dict[str, int]:
        """Records per state for one tenant (quota accounting)."""
        return state_counts(self.iter_records(tenant))

    # ------------------------------------------------------- transitions
    def mark_running(self, record: JobRecord) -> JobRecord:
        updated = replace(record, state=RUNNING, attempts=record.attempts + 1)
        self.put(updated)
        return updated

    def mark_pending(self, record: JobRecord) -> JobRecord:
        """Demote a claimed job back to the queue (checkpoint/watchdog).

        The journaled request bytes are untouched, so the demoted job
        re-executes under the same id to the same result — the property
        the drain-and-restart byte-identity tests pin down.
        """
        updated = replace(record, state=PENDING)
        self.put(updated)
        return updated

    def refresh_ttl(self, record: JobRecord, now: float, ttl_s: float | None) -> JobRecord:
        """Extend a finished record's expiry from ``now`` (touch-on-hit).

        Closes the TTL race: a cache hit served moments before a sweep
        would otherwise hand the client a handle the sweep immediately
        deletes.  Touching on every hit makes the sweep-after-hit
        ordering harmless.
        """
        if not record.finished:
            return record
        updated = replace(
            record, expires_at=None if ttl_s is None else now + ttl_s
        )
        self.put(updated)
        return updated

    def mark_done(
        self,
        record: JobRecord,
        result: dict,
        meta: dict,
        now: float,
        ttl_s: float | None,
    ) -> JobRecord:
        updated = replace(
            record,
            state=DONE,
            result=result,
            error=None,
            meta=meta,
            finished_at=now,
            expires_at=None if ttl_s is None else now + ttl_s,
        )
        self.put(updated)
        return updated

    def mark_failed(
        self,
        record: JobRecord,
        error: str,
        meta: dict,
        now: float,
        ttl_s: float | None,
    ) -> JobRecord:
        updated = replace(
            record,
            state=FAILED,
            error=error,
            meta=meta,
            finished_at=now,
            expires_at=None if ttl_s is None else now + ttl_s,
        )
        self.put(updated)
        return updated

    # ---------------------------------------------------------- recovery
    def recover(self) -> list[JobRecord]:
        """Unfinished jobs, ``running`` demoted to ``pending``.

        Called at server startup: a ``running`` record means the
        previous process was killed mid-job, so the work goes back in
        the queue under the same id.  Completed digests are still in
        the tenant's result store, so the resumed run re-executes only
        what never finished.
        """
        resumed: list[JobRecord] = []
        for record in self.iter_records():
            if record.finished:
                continue
            if record.state == RUNNING:
                record = self.mark_pending(record)
            resumed.append(record)
        resumed.sort(key=_submission_order)
        return resumed

    # ------------------------------------------------------------ sweeping
    def sweep_expired(
        self, now: float | None = None, dry_run: bool = False
    ) -> list[JobRecord]:
        """Drop finished records whose TTL has lapsed; returns them
        without their result payloads, which a sweep has no use for.

        Unfinished jobs are never swept — a queue that garbage-collects
        its own backlog is not a queue.
        """
        now = time.time() if now is None else now
        swept: list[JobRecord] = []
        for record in self.iter_records():
            if not record.finished:
                continue
            if record.expires_at is None or record.expires_at > now:
                continue
            if not dry_run:
                self.chunks.delete(self.namespace(record.tenant), record.job_id)
            swept.append(replace(record, result=None))
        return swept

    def clear(self) -> int:
        """Remove every job record (all tenants); returns how many."""
        removed = 0
        for entry in self.chunks.entries():
            if self._tenant_of(entry.exp_id) is None:
                continue
            self.chunks.delete(entry.exp_id, entry.key)
            removed += 1
        return removed
