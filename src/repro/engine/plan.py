"""Incremental planner: diff current digests against the result store.

``plan_suite`` classifies every requested experiment:

``hit``
    the store holds a result under the experiment's *current* digest —
    nothing to run;
``stale``
    the store holds results for this experiment, but only under old
    digests (a source file it depends on changed) — re-run;
``miss``
    the store has never seen this experiment — run.

The planner is pure bookkeeping — it never executes an experiment —
so ``python -m repro.engine plan`` is safe to run anywhere, including
a dirty tree mid-edit.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass

from repro.engine.deps import ExperimentDigest, suite_digests
from repro.engine.store import ResultStore

__all__ = ["HIT", "MISS", "STALE", "PlanEntry", "ExecutionPlan", "plan_suite"]

HIT = "hit"
MISS = "miss"
STALE = "stale"


@dataclass(frozen=True)
class PlanEntry:
    """One experiment's scheduling decision."""

    exp_id: str
    digest: ExperimentDigest
    status: str  # HIT, MISS, or STALE

    @property
    def needs_run(self) -> bool:
        return self.status != HIT


@dataclass(frozen=True)
class ExecutionPlan:
    """What an engine run would do, in deterministic (paper) order."""

    entries: tuple[PlanEntry, ...]

    @property
    def hits(self) -> tuple[PlanEntry, ...]:
        return tuple(e for e in self.entries if e.status == HIT)

    @property
    def misses(self) -> tuple[PlanEntry, ...]:
        return tuple(e for e in self.entries if e.status == MISS)

    @property
    def stale(self) -> tuple[PlanEntry, ...]:
        return tuple(e for e in self.entries if e.status == STALE)

    @property
    def to_run(self) -> tuple[PlanEntry, ...]:
        return tuple(e for e in self.entries if e.needs_run)

    def counts(self) -> dict[str, int]:
        return {
            "hit": len(self.hits),
            "miss": len(self.misses),
            "stale": len(self.stale),
            "total": len(self.entries),
        }

    def summary(self) -> str:
        c = self.counts()
        return (
            f"plan: {c['total']} experiments — {c['hit']} cached, "
            f"{c['miss']} never run, {c['stale']} stale "
            f"({len(self.to_run)} to execute)"
        )


def plan_suite(
    store: ResultStore,
    exp_ids: Iterable[str] | None = None,
    sources: Mapping[str, bytes] | None = None,
) -> ExecutionPlan:
    """Classify the requested experiments against the store.

    ``sources`` flows through to the digest computation (see
    :func:`repro.engine.deps.experiment_digest`) so callers can ask
    what a hypothetical edit would invalidate.
    """
    digests = suite_digests(exp_ids, sources)
    hits = {exp_id for exp_id, digest in digests.items() if store.contains(digest)}
    # Only a non-hit needs the store scan: it tells stale from miss.
    cached_ids = (
        set() if len(hits) == len(digests)
        else {entry.exp_id for entry in store.entries()}
    )
    entries = []
    for exp_id, digest in digests.items():
        if exp_id in hits:
            status = HIT
        elif exp_id in cached_ids:
            status = STALE
        else:
            status = MISS
        entries.append(PlanEntry(exp_id=exp_id, digest=digest, status=status))
    return ExecutionPlan(entries=tuple(entries))
