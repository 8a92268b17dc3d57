"""Service lifecycle vocabulary: health states, breaker, drain journal.

The service's resilience story (DESIGN.md §5k) has four moving parts;
this module holds the state machines and constants they share so
:mod:`repro.service.app` stays the single wiring point:

* **Health states** — :data:`READY`/:data:`DEGRADED`/:data:`DRAINING`,
  what ``GET /v1/health`` truthfully reports.  ``degraded`` names its
  reasons: :data:`SERIAL_FALLBACK` (the engine abandoned its process
  pool on a recent job) and :data:`CODE_DRIFT` (a source file the
  server loaded has changed on disk since; its results stay keyed to
  the code it runs).  ``draining`` means a shutdown signal arrived and
  new submissions bounce with ``503 + Retry-After``.
* **Circuit breaker** — :class:`CircuitBreaker` tracks consecutive
  execution failures per ``(tenant, kind)`` key.  After
  ``failure_threshold`` consecutive failures the breaker *opens*:
  submissions for that key fast-fail with ``503 + Retry-After`` instead
  of queueing work that is going to fail anyway.  After ``cooldown_s``
  one **probe** submission is admitted (*half-open*); its outcome
  closes the breaker or re-opens it for another cooldown.
* **Drain journal** — :func:`drain_key` names the fixed
  :class:`~repro.engine.store.ChunkStore` slot
  (namespace :data:`DRAIN_NAMESPACE`) where the app journals its final
  drain record, so the restarted process can tell a graceful handoff
  from a crash.

Everything here is deterministic given an injected clock: no module in
this file reads the wall clock itself, which is what lets the chaos
harness drive the whole lifecycle on a logical clock and assert
byte-identical reports across seeded runs.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

from repro.perfmon.counters import declare_counters

__all__ = [
    "READY",
    "DEGRADED",
    "DRAINING",
    "HEALTH_STATES",
    "SERIAL_FALLBACK",
    "CODE_DRIFT",
    "BREAKER_CLOSED",
    "BREAKER_OPEN",
    "BREAKER_HALF_OPEN",
    "LIFECYCLE_COUNTERS",
    "DRAIN_NAMESPACE",
    "DRAIN_SCHEMA",
    "BreakerDecision",
    "CircuitBreaker",
    "drain_key",
    "retry_after_header",
]

# ------------------------------------------------------------- health
READY = "ready"
DEGRADED = "degraded"
DRAINING = "draining"

HEALTH_STATES = (READY, DEGRADED, DRAINING)

#: Reasons ``degraded`` gives, in the order the health payload lists them.
SERIAL_FALLBACK = "serial_fallback"
CODE_DRIFT = "code_drift"

# ------------------------------------------------------------ counters
#: Lifecycle counters by component.  The app seeds every name at zero
#: at startup so ``/metrics`` always exports the full lifecycle
#: surface, incremented or not.
LIFECYCLE_COUNTERS: dict[str, tuple[str, ...]] = {
    "drain": (
        "begun",  # drain sequences started (signal received)
        "rejected",  # submissions bounced while draining
        "checkpointed",  # RUNNING jobs demoted to PENDING at drain timeout
        "completed",  # drain records journaled (clean exits)
        "resumed",  # startups that found a prior drain record
        "orphan_segments",  # shared-memory column segments swept on drain
    ),
    "breaker": (
        "opened",  # closed/half-open -> open transitions
        "closed",  # open/half-open -> closed transitions (probe succeeded)
        "fast_fails",  # submissions bounced by an open breaker
        "probes",  # half-open probe submissions admitted
        "failures",  # execution failures fed to the breaker
        "brownouts",  # jobs that fell back to serial execution (degraded)
    ),
    "watchdog": (
        "beats",  # worker heartbeats stamped
        "stalls",  # heartbeat-age violations detected
        "requeues",  # RUNNING jobs requeued from a wedged worker
        "restarts",  # worker loops (re)started after a stall or crash
        "fenced",  # stale-epoch writes discarded after a requeue
    ),
    "deadline": (
        "admitted",  # submissions carrying a deadline_s
        "expired",  # jobs whose deadline lapsed before execution started
        "exceeded",  # jobs that ran past their deadline (failed as timeout)
    ),
}

for _component, _names in LIFECYCLE_COUNTERS.items():
    declare_counters(_component, _names)

# ------------------------------------------------------------- breaker
BREAKER_CLOSED = "closed"
BREAKER_OPEN = "open"
BREAKER_HALF_OPEN = "half_open"


@dataclass(frozen=True)
class BreakerDecision:
    """The breaker's verdict on one submission."""

    allowed: bool
    state: str
    #: seconds until a retry is worth attempting (open breakers only).
    retry_after_s: float | None = None
    #: "probe" when this admission is the half-open trial run.
    event: str | None = None


@dataclass
class _BreakerSlot:
    state: str = BREAKER_CLOSED
    consecutive_failures: int = 0
    opened_at: float = 0.0
    probing: bool = False


@dataclass
class CircuitBreaker:
    """Consecutive-failure breaker keyed by ``(tenant, kind)``.

    Purely clock-injected: every time-dependent decision takes ``now``
    from the caller, so tests and the chaos harness drive it on a
    logical clock and two seeded runs transition identically.
    """

    failure_threshold: int = 3
    cooldown_s: float = 30.0
    _slots: dict[tuple[str, str], _BreakerSlot] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if self.cooldown_s <= 0:
            raise ValueError("cooldown_s must be positive")

    def _slot(self, key: tuple[str, str]) -> _BreakerSlot:
        return self._slots.setdefault(key, _BreakerSlot())

    def state(self, key: tuple[str, str]) -> str:
        return self._slot(key).state

    def admit(self, key: tuple[str, str], now: float) -> BreakerDecision:
        """Decide one submission for ``key`` at time ``now``."""
        slot = self._slot(key)
        if slot.state == BREAKER_CLOSED:
            return BreakerDecision(allowed=True, state=BREAKER_CLOSED)
        remaining = slot.opened_at + self.cooldown_s - now
        if slot.state == BREAKER_OPEN and remaining <= 0:
            slot.state = BREAKER_HALF_OPEN
            slot.probing = True
            return BreakerDecision(
                allowed=True, state=BREAKER_HALF_OPEN, event="probe"
            )
        # Open and cooling down, or half-open with the probe still out:
        # fast-fail so the queue never accumulates doomed work.
        retry_after = max(remaining, 0.0) if slot.state == BREAKER_OPEN \
            else self.cooldown_s
        return BreakerDecision(
            allowed=False, state=slot.state, retry_after_s=retry_after
        )

    def record_success(self, key: tuple[str, str]) -> str | None:
        """An execution for ``key`` succeeded; returns "closed" on close."""
        slot = self._slot(key)
        was_open = slot.state != BREAKER_CLOSED
        slot.state = BREAKER_CLOSED
        slot.consecutive_failures = 0
        slot.probing = False
        return "closed" if was_open else None

    def record_failure(self, key: tuple[str, str], now: float) -> str | None:
        """An execution for ``key`` failed; returns "opened" on a trip."""
        slot = self._slot(key)
        slot.consecutive_failures += 1
        if slot.state == BREAKER_HALF_OPEN or (
            slot.state == BREAKER_CLOSED
            and slot.consecutive_failures >= self.failure_threshold
        ):
            slot.state = BREAKER_OPEN
            slot.opened_at = now
            slot.probing = False
            return "opened"
        return None

    def snapshot(self) -> dict[str, dict]:
        """Non-closed breakers, for the health payload (deterministic)."""
        return {
            f"{tenant}/{kind}": {
                "state": slot.state,
                "consecutive_failures": slot.consecutive_failures,
            }
            for (tenant, kind), slot in sorted(self._slots.items())
            if slot.state != BREAKER_CLOSED or slot.consecutive_failures
        }


# --------------------------------------------------------------- drain
DRAIN_SCHEMA = 1

#: ChunkStore namespace holding the (single) drain record.
DRAIN_NAMESPACE = "svclifecycle"


def drain_key() -> str:
    """The fixed 64-hex chunk key the drain record journals under."""
    return hashlib.sha256(b"service-drain").hexdigest()


def retry_after_header(retry_after_s: float) -> tuple[tuple[str, str], ...]:
    """A ``Retry-After`` header tuple (integer seconds, at least 1)."""
    return (("Retry-After", str(max(1, math.ceil(retry_after_s)))),)
