"""Suite execution engine: parallel fan-out, result cache, incremental re-runs.

The measurement campaign is a batch of independent experiments; this
package is the harness that treats it that way:

``deps``
    static dependency tracing — each experiment's digest covers its id,
    the source of every ``repro.*`` module its builder transitively
    imports, and the machine-preset configuration;
``store``
    the content-addressed result store under ``.repro-cache/``, with
    atomic writes and corrupt-entry tolerance;
``plan``
    the incremental planner — diff digests against the store, classify
    hit/miss/stale, schedule only what changed;
``executor``
    parallel fan-out over a process pool with per-job timeouts and
    crash isolation (a dying worker yields a :class:`JobFailure`, never
    kills the run), results always in deterministic paper order;
``cli``
    ``python -m repro.engine run|plan|gc|stats``.

The determinism contract: serial (``jobs=1``), parallel, and cache-hit
paths produce byte-identical results (``run --verify`` asserts it).
"""

from repro.engine.deps import ExperimentDigest, experiment_digest, suite_digests
from repro.engine.executor import (
    EngineReport,
    JobFailure,
    JobResult,
    execute_jobs,
    run_engine,
)
from repro.engine.plan import ExecutionPlan, PlanEntry, plan_suite
from repro.engine.store import CachedResult, ChunkStore, ResultStore, canonical_bytes

__all__ = [
    "ExperimentDigest",
    "experiment_digest",
    "suite_digests",
    "EngineReport",
    "JobFailure",
    "JobResult",
    "execute_jobs",
    "run_engine",
    "ExecutionPlan",
    "PlanEntry",
    "plan_suite",
    "CachedResult",
    "ChunkStore",
    "ResultStore",
    "canonical_bytes",
]
