"""The active-profile context: counter recording and span tracing.

A :class:`Profile` is one observed run: a
:class:`~repro.perfmon.counters.CounterSet` the machine components
populate, a list of :class:`Span` records from the instrumented layers
(suite runner, engine executor, discrete-event simulator), and free-form
metadata.  Exactly one profile is *active* at a time (a contextvar, so
nested profiles stack correctly); every recording helper is a cheap
no-op when none is active, which is what keeps the instrumented hot
paths honest when profiling is off.

A *tape* lets a caller that computes a value once and hands it to many
consumers still count every consumer: :func:`tape` records the
:func:`record` calls its block makes, in order, and :func:`replay`
makes them again.  PRODLOAD prices a job once and replays it for every
copy, and a job prices its T42 twins once.  Replaying call by call, in
the order the calls were first made, keeps every counter total
bit-identical to costing each consumer afresh.

Two clocks coexist, deliberately:

* ``host`` spans measure wall time on the machine running the
  reproduction (``time.perf_counter``), relative to profile start;
* ``sim`` spans live on the simulated SX-4 timeline — the
  :class:`SimSpanTracer` plugs into :class:`repro.events.Simulator`
  and records process lifetimes in simulated seconds.

Like :mod:`repro.perfmon.counters`, this module is a leaf: it must not
import :mod:`repro.machine`.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Any

from repro.perfmon.counters import CounterSet

__all__ = [
    "HOST_CLOCK",
    "SIM_CLOCK",
    "Span",
    "Profile",
    "active",
    "deactivate",
    "profile",
    "record",
    "replay",
    "span",
    "SimSpanTracer",
    "sim_tracer",
    "tape",
]

HOST_CLOCK = "host"
SIM_CLOCK = "sim"


@dataclass
class Span:
    """One timed region on either timeline.

    ``start_s``/``end_s`` are seconds relative to profile start for
    ``host`` spans and simulated seconds for ``sim`` spans.  ``parent``
    indexes the enclosing span in ``Profile.spans`` (host spans only;
    simulated processes interleave and carry no nesting), ``None`` for
    roots.  ``end_s`` stays ``None`` while the span is open — exporters
    skip unfinished spans.
    """

    name: str
    clock: str = HOST_CLOCK
    start_s: float = 0.0
    end_s: float | None = None
    parent: int | None = None
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def duration_s(self) -> float | None:
        if self.end_s is None:
            return None
        return self.end_s - self.start_s

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "clock": self.clock,
            "start_s": self.start_s,
            "end_s": self.end_s,
            "parent": self.parent,
            "attrs": dict(self.attrs),
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "Span":
        return cls(
            name=str(payload["name"]),
            clock=str(payload.get("clock", HOST_CLOCK)),
            start_s=float(payload["start_s"]),
            end_s=None if payload.get("end_s") is None else float(payload["end_s"]),
            parent=payload.get("parent"),
            attrs=dict(payload.get("attrs", {})),
        )


@dataclass
class Profile:
    """Everything one observed run collected."""

    counters: CounterSet = field(default_factory=CounterSet)
    spans: list[Span] = field(default_factory=list)
    meta: dict[str, Any] = field(default_factory=dict)
    #: host-clock origin (``time.perf_counter`` at activation); span
    #: times are stored relative to it so profiles are comparable.
    origin_s: float = 0.0
    #: indices of the currently-open host spans (the nesting stack).
    _open: list[int] = field(default_factory=list, repr=False)
    #: the currently-open tapes, innermost last (see :func:`tape`).
    _tapes: list[list[tuple[str, dict[str, float]]]] = field(
        default_factory=list, init=False, repr=False
    )

    def now_s(self) -> float:
        """Host seconds since this profile was activated."""
        return time.perf_counter() - self.origin_s

    def finished_spans(self, clock: str | None = None) -> list[Span]:
        """Spans with both endpoints, optionally filtered by clock."""
        return [
            s
            for s in self.spans
            if s.end_s is not None and (clock is None or s.clock == clock)
        ]


_ACTIVE: ContextVar[Profile | None] = ContextVar("repro_perfmon_profile", default=None)


def active() -> Profile | None:
    """The currently active profile, or None — THE guard every
    instrumentation site checks before doing any work."""
    return _ACTIVE.get()


def deactivate() -> None:
    """Leave no profile active in the current context.

    A forked pool worker calls it first: it inherits the profile active
    in the thread that forked it, and what it recorded there would never
    reach the process that owns that profile.
    """
    _ACTIVE.set(None)


@contextmanager
def profile(**meta: Any):
    """Activate a fresh :class:`Profile` for the duration of the block.

    >>> with profile(run="demo") as prof:
    ...     pass
    >>> prof.meta["run"]
    'demo'
    """
    prof = Profile(meta=dict(meta), origin_s=time.perf_counter())
    token = _ACTIVE.set(prof)
    try:
        yield prof
    finally:
        _ACTIVE.reset(token)


def record(component: str, increments: dict[str, float]) -> None:
    """Fold counter increments into the active profile (no-op if none)."""
    prof = _ACTIVE.get()
    if prof is not None and increments:
        prof.counters.add_many(component, increments)
        if prof._tapes:
            prof._tapes[-1].append((component, dict(increments)))


@contextmanager
def tape():
    """Record the block's :func:`record` calls, in order, for :func:`replay`.

    Yields the list of ``(component, increments)`` pairs the block
    records into the active profile; the increments still land in the
    profile as they are made.  A tape opened inside another extends the
    outer one when it closes, so the outer tape holds every call its
    block made.  With no active profile nothing is recorded and the
    tape stays empty.
    """
    calls: list[tuple[str, dict[str, float]]] = []
    prof = _ACTIVE.get()
    if prof is None:
        yield calls
        return
    prof._tapes.append(calls)
    try:
        yield calls
    finally:
        prof._tapes.pop()
        if prof._tapes:
            prof._tapes[-1].extend(calls)


def replay(calls: list[tuple[str, dict[str, float]]]) -> None:
    """Make a tape's :func:`record` calls again, one by one, in order.

    A no-op with no active profile; inside an open tape the replayed
    calls extend it, as live calls would.
    """
    for component, increments in calls:
        record(component, increments)


@contextmanager
def span(name: str, **attrs: Any):
    """Open a host-clock span for the duration of the block.

    Nesting is tracked via the profile's open-span stack, so FTRACE
    reports can attribute exclusive time.  A no-op (yielding ``None``)
    when no profile is active.
    """
    prof = _ACTIVE.get()
    if prof is None:
        yield None
        return
    parent = prof._open[-1] if prof._open else None
    record_span = Span(
        name=name, clock=HOST_CLOCK, start_s=prof.now_s(), parent=parent, attrs=attrs
    )
    index = len(prof.spans)
    prof.spans.append(record_span)
    prof._open.append(index)
    try:
        yield record_span
    finally:
        record_span.end_s = prof.now_s()
        prof._open.pop()


class SimSpanTracer:
    """Adapter recording :class:`repro.events.Simulator` process
    lifetimes as ``sim``-clock spans in the active profile.

    The simulator calls :meth:`started` at each process's first step and
    :meth:`finished` when it returns; both carry the *simulated* time,
    so the recorded timeline is the deterministic one the event queue
    produced, independent of host speed.
    """

    def __init__(self, profile: Profile | None = None, prefix: str = "sim") -> None:
        self._profile = profile
        self.prefix = prefix
        self._open_by_id: dict[int, int] = {}

    def _target(self) -> Profile | None:
        return self._profile if self._profile is not None else _ACTIVE.get()

    def started(self, process: Any, now: float) -> None:
        prof = self._target()
        if prof is None:
            return
        name = f"{self.prefix}:{getattr(process, 'name', 'proc')}"
        self._open_by_id[id(process)] = len(prof.spans)
        prof.spans.append(Span(name=name, clock=SIM_CLOCK, start_s=now))

    def finished(self, process: Any, now: float) -> None:
        prof = self._target()
        if prof is None:
            return
        index = self._open_by_id.pop(id(process), None)
        if index is not None and index < len(prof.spans):
            prof.spans[index].end_s = now


def sim_tracer(prefix: str = "sim") -> SimSpanTracer | None:
    """A tracer for :class:`repro.events.Simulator`, or None when no
    profile is active (the simulator then skips all tracing calls)."""
    if _ACTIVE.get() is None:
        return None
    return SimSpanTracer(prefix=prefix)
