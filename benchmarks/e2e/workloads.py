"""The four workloads: regen, engine, service and sweep.

Every workload is a closed loop with one client: an op starts only when
the previous one has returned, as a researcher, a CI job or
``ServiceClient.wait`` would drive the program.  A *round* is one pass
over the workload's fixed op mix, in an order drawn from the seed, so
any number of whole rounds holds the mix exactly.

Each op is checked after its round against a reference built
in-process during set-up; a mismatch or an exception makes it a failed
op.  The harness (``run_e2e.py``) decides how many rounds to run and
whether a :class:`~tracer.Tracer` is installed around them.

Two op kinds feed the end-to-end metrics of every workload:

* ``cold`` — the op starts from nothing: an empty store for engine and
  service, no chunk store for sweep, and for regen, which has no
  store, a fresh process (``python -m repro suite`` run once);
* ``warm`` — what the op needs is already there: the answer is stored
  (engine, service, sweep), or for regen the process has already run a
  pass, as a long-lived caller's has.

The other kinds in a mix (engine ``cold_j1`` and ``warm_all``, service
``dedup``) appear in the full report only.

The op mixes are assumptions, not measurements: the repository records
no traffic from real callers.  The gated numbers are per kind, so they
do not depend on how many ops of each kind a round holds.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from contextlib import nullcontext
from pathlib import Path

from hostspeed import SpeedLog
from tracer import Seam

__all__ = [
    "COLD", "WARM", "WORKLOADS", "LAYER_ROWS", "SERVICE_SERVER_SEAMS", "Workload",
    "stop_resource_tracker",
]

COLD = "cold"
WARM = "warm"

#: Seconds any subprocess of the benchmark may take to start or to stop.
SUBPROCESS_TIMEOUT_S = 60.0

MACHINE_SEAMS = (
    Seam("machine.execute", "repro.machine.processor:Processor.execute"),
    Seam("machine.compile_trace", "repro.machine.processor:compile_trace"),
)

ENGINE_SEAMS = (
    Seam("engine.plan.plan_suite", "repro.engine.executor:plan_suite"),
    Seam("engine.deps.suite_digests", "repro.engine.plan:suite_digests"),
    Seam("engine.deps.dependency_closure", "repro.engine.deps:dependency_closure"),
    Seam("engine.deps.module_path", "repro.engine.deps:module_path"),
    Seam("engine.store.get", "repro.engine.store:ResultStore.get"),
    Seam("engine.store.put", "repro.engine.store:ResultStore.put"),
    Seam("engine.store.entries", "repro.engine.store:ResultStore.entries"),
    Seam("engine.store.contains", "repro.engine.store:ResultStore.contains"),
    Seam("engine.executor.execute_jobs", "repro.engine.executor:execute_jobs"),
    Seam("engine.colcache.publish", "repro.engine.store:ColumnCache.publish"),
    Seam("engine.colcache.release", "repro.engine.store:ColumnCache.release"),
    # The store serialises through its own imported names; the executor
    # deserialises pool payloads through the archive module's.
    Seam("suite.archive.to_dict", "repro.engine.store:experiment_to_dict"),
    Seam("suite.archive.from_dict", "repro.engine.store:experiment_from_dict"),
    Seam("suite.archive.from_dict", "repro.suite.archive:experiment_from_dict"),
)

#: Server-side seams; ``service_boot.py`` installs them in the server.
SERVICE_SERVER_SEAMS = (
    Seam("service.http.handle", "repro.service.app:ServiceApp.handle"),
    Seam("service.submit", "repro.service.app:ServiceApp.submit"),
    Seam("service.status", "repro.service.app:ServiceApp.job_status"),
    Seam("service.result", "repro.service.app:ServiceApp.job_result"),
    Seam("service.run_one", "repro.service.app:ServiceApp.run_one"),
    Seam("service.spool.get", "repro.service.spool:JobSpool.get"),
    Seam("service.spool.put", "repro.service.spool:JobSpool.put"),
    Seam("service.engine.run_engine", "repro.service.app:run_engine"),
    Seam("suite.archive.to_dict", "repro.service.app:experiment_to_dict"),
    *ENGINE_SEAMS,
)

#: Rows of the breakdown table in blocking-path order: (stat name, what
#: the layer does).  Rows a workload never enters are left out.
LAYER_ROWS = (
    ("suite.kernel_residual", "builder self time: NumPy kernels, trace build"),
    ("machine.execute", "Processor.execute: cost one trace"),
    ("machine.compile_trace", "lower a trace to columns"),
    ("engine.pool_workers", "builders in pool workers (wall share)"),
    ("suite.fresh_process", "cold ops: launch, import, first pass"),
    ("machine.grid.cost", "grid kernel: suite x machines"),
    ("machine.suitecolumns", "stack the suite's traces"),
    ("explore.sweep.build", "lower sweep axes to a grid"),
    ("explore.closure_digest", "source digest keying the chunks"),
    ("explore.chunkstore.get", "chunk reads"),
    ("service.client.request", "HTTP round trips minus handler time"),
    ("service.client.sleep", "client poll sleeps"),
    ("service.http.handle", "server: request routing"),
    ("service.submit", "server: admission, request digest"),
    ("service.status", "server: status handler"),
    ("service.result", "server: result handler"),
    ("service.spool.get", "server: spool reads"),
    ("service.spool.put", "server: spool writes"),
    ("service.run_one", "server worker: job bookkeeping"),
    ("service.engine.run_engine", "server worker: engine orchestration"),
    ("engine.plan.plan_suite", "plan against the store"),
    ("engine.deps.suite_digests", "dependency digests"),
    ("engine.deps.dependency_closure", "import-closure walk"),
    ("engine.deps.module_path", "module -> file resolution"),
    ("engine.store.get", "result store reads"),
    ("engine.store.put", "result store writes"),
    ("engine.store.entries", "result store scans"),
    ("engine.store.contains", "result store probes"),
    ("engine.executor.pool_overhead", "pool dispatch, minus worker compute"),
    ("engine.colcache.publish", "shared-memory column publish"),
    ("engine.colcache.release", "shared-memory column release"),
    ("suite.archive.to_dict", "archive serialisation"),
    ("suite.archive.from_dict", "archive deserialisation"),
)


def _fail(message: str) -> bool:
    print(f"e2e: op failed: {message}", file=sys.stderr)
    return False


def _builder_seams() -> tuple[Seam, ...]:
    from repro.suite.experiments import EXPERIMENTS

    return tuple(
        Seam(f"suite.builder.{exp_id}", f"repro.suite.experiments:EXPERIMENTS[{exp_id}]")
        for exp_id in EXPERIMENTS
    )


def _suite_reference() -> dict:
    """exp_id -> (canonical bytes, experiment) from one in-process pass."""
    from repro.engine.store import canonical_bytes
    from repro.suite import runner

    report = runner.run_suite()
    return {e.exp_id: (canonical_bytes(e), e) for e in report.experiments}


def _digest_experiments(experiments) -> str:
    from repro.engine.store import canonical_bytes

    hasher = hashlib.sha256()
    for exp in sorted(experiments, key=lambda e: e.exp_id):
        hasher.update(canonical_bytes(exp))
    return hasher.hexdigest()


def stop_resource_tracker() -> None:
    """Stop and reap multiprocessing's resource tracker, if running.

    Publishing shared-memory columns starts it, and Python lets it
    outlive the process that started it; stopping it here leaves no
    orphan behind a run.
    """
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def src_env(root: Path) -> dict:
    """The environment a subprocess needs to import ``repro`` from ``root/src``."""
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class Workload:
    """One closed-loop workload; subclasses define the op mix."""

    name = ""
    #: whether op times are set by a poll timer rather than by the op's
    #: own work; such times are not scaled by host speed
    timer_bound = False

    def __init__(self, root: Path, work: Path, seed: int) -> None:
        self.root = root
        self.work = work
        self.seed = seed
        self.rng = random.Random(f"{seed}:{self.name}")
        #: host-speed kernel samples taken between ops (``hostspeed.py``)
        self.speed = SpeedLog()
        #: failures found outside any op (a server that would not stop)
        self.late_failures = 0
        self._cleanup: list[Path] = []
        self.reset_notes()

    def seams(self) -> tuple[Seam, ...]:
        """What the traced run wraps in this, the load-generating, process."""
        raise NotImplementedError

    # ------------------------------------------------------------ phases
    def setup(self) -> None:
        """Untimed: build the reference and the inputs."""

    def begin_phase(self, traced: bool, max_rounds: int) -> None:
        """Before a block of at most ``max_rounds`` rounds (plus a warm-up)."""

    def start_tracing(self) -> None:
        """After the warm-up round of a traced block."""

    def end_phase(self) -> None:
        """After a block of rounds."""

    def teardown(self) -> None:
        """Stop everything this workload started."""

    def reset_notes(self) -> None:
        #: derived per-layer inputs, collected while checking ops
        self.notes: dict[str, list[float]] = {}

    def note(self, key: str, value: float) -> None:
        self.notes.setdefault(key, []).append(value)

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def server_stats(self) -> dict:
        """Seam stats gathered in another process (the service's server)."""
        return {}

    # ------------------------------------------------------------ ops
    def round(self, tracer) -> list:
        """Run one round; returns ``[(kind, seconds, check)]``.

        ``check()`` runs after the round, outside any tracer, returns
        whether the op's output was correct, and may record notes.
        """
        raise NotImplementedError

    def _op(self, ops: list, tracer, kind: str, fn, check, seconds=None):
        """Time ``fn()`` as one op; ``seconds(out)``, if given, is the op's
        time as measured inside another process."""
        if not self.timer_bound:
            self.speed.tick()
        span = tracer.span(f"op.{kind}") if tracer is not None else nullcontext()
        start = time.perf_counter()
        try:
            with span:
                out = fn()
        except Exception as exc:  # an op that raises is a failed op
            elapsed = time.perf_counter() - start
            message = f"{self.name}/{kind}: {type(exc).__name__}: {exc}"
            ops.append((kind, elapsed, lambda: _fail(message)))
            return None
        elapsed = time.perf_counter() - start if seconds is None else seconds(out)
        ops.append((kind, elapsed, lambda: check(out)))
        return out

    def after_round(self) -> None:
        while self._cleanup:
            shutil.rmtree(self._cleanup.pop(), ignore_errors=True)

    # ------------------------------------------------------------ probes
    def probe(self, label: str) -> tuple[float, float, bool]:
        """One fresh process: (set-up s, first op s, first op correct)."""
        script = Path(__file__).resolve().parent / "run_e2e.py"
        work = self.work / f"probe-{label}"
        work.mkdir(parents=True, exist_ok=True)
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(script), "--probe", self.name,
             "--seed", str(self.seed), "--work", str(work)],
            stdout=subprocess.PIPE, text=True, env=src_env(self.root), cwd=self.root,
        )
        watchdog = threading.Timer(SUBPROCESS_TIMEOUT_S, proc.kill)  # a hung probe
        watchdog.start()
        try:
            ready = proc.stdout.readline()
            setup_s = time.perf_counter() - start
            out, _ = proc.communicate()
        finally:
            watchdog.cancel()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        shutil.rmtree(work, ignore_errors=True)
        if ready.strip() != "READY" or proc.returncode != 0:
            return setup_s, 0.0, _fail(f"{self.name} probe exited {proc.returncode}")
        result = json.loads(out.strip().splitlines()[-1])
        ok = result["digest"] == self.reference_digest() or _fail(
            f"{self.name} probe: first op output differs from the reference"
        )
        return setup_s, result["first_op_s"], ok

    def child_ready(self) -> None:
        """In the probe process: import the program, make the inputs."""
        raise NotImplementedError

    def child_first_op(self) -> str:
        """In the probe process: the first cold op; returns its digest."""
        raise NotImplementedError

    def reference_digest(self) -> str:
        return _digest_experiments(exp for _, exp in self.reference.values())

    # ------------------------------------------------------------ layers
    def floor_s(self, stats) -> float:
        """Pure-compute floor seconds over the traced rounds."""
        return sum(v[1] for k, v in stats.items() if k.startswith("suite.builder."))

    def io_names(self) -> tuple[str, ...]:
        """Seams whose self time is storage I/O."""
        raise NotImplementedError

    def derived_self_s(self, stats) -> dict[str, float]:
        """Table rows that are not one seam's self time."""
        builders = [v[2] for k, v in stats.items() if k.startswith("suite.builder.")]
        return {"suite.kernel_residual": sum(builders)} if builders else {}

    def unattributed_s(self, stats) -> float:
        """Op time outside every wrapped layer."""
        return sum(v[2] for k, v in stats.items() if k.startswith("op."))

    def layer_metrics(self, stats, rounds: int, samples: dict) -> dict:
        """Workload-specific per-layer numbers, for the full report."""
        return {}


# ---------------------------------------------------------------- regen
class RegenWorkload(Workload):
    """``run_suite()`` passes over all 18 experiments: the pure-compute floor.

    Bypasses digest, store, pool, spool and HTTP.  The cold op is the
    first pass in a fresh process, as ``python -m repro suite`` runs it;
    its time is measured inside that process, after the imports that
    ``setup_s`` counts.  The warm op is a pass in this process, which
    has run passes before.  Mix per round: 1 cold, 2 warm.
    """

    name = "regen"

    def seams(self):
        return (*_builder_seams(), *MACHINE_SEAMS)

    def setup(self) -> None:
        self.reference = _suite_reference()
        self.ids = list(self.reference)
        self._fresh = 0

    def _check_experiments(self, experiments) -> bool:
        from repro.engine.store import canonical_bytes

        if sorted(e.exp_id for e in experiments) != sorted(self.ids):
            return _fail(f"{self.name}: wrong experiment set")
        for exp in experiments:
            if canonical_bytes(exp) != self.reference[exp.exp_id][0]:
                return _fail(f"{self.name}: {exp.exp_id} differs from the reference")
            if not exp.passed:
                return _fail(f"{self.name}: {exp.exp_id} shape checks fail")
        return True

    def round(self, tracer) -> list:
        from repro.suite import runner

        plan = [COLD, WARM, WARM]
        self.rng.shuffle(plan)
        ops: list = []
        for kind in plan:
            if kind == COLD:
                self._fresh += 1
                self._op(ops, tracer, COLD, lambda: self.probe(f"cold-{self._fresh}"),
                         lambda out: out[2], seconds=lambda out: out[1])
                continue
            order = self.rng.sample(self.ids, len(self.ids))
            self._op(ops, tracer, WARM, lambda order=order: runner.run_suite(order),
                     lambda r: self._check_experiments(r.experiments))
        return ops

    def child_ready(self) -> None:
        from repro.suite import runner
        from repro.suite.experiments import EXPERIMENTS

        self._runner = runner
        self._order = self.rng.sample(list(EXPERIMENTS), len(EXPERIMENTS))

    def child_first_op(self) -> str:
        return _digest_experiments(self._runner.run_suite(self._order).experiments)

    def io_names(self):
        return ()

    def derived_self_s(self, stats) -> dict[str, float]:
        rows = super().derived_self_s(stats)
        rows["suite.fresh_process"] = stats["op.cold"][2]
        return rows

    def unattributed_s(self, stats) -> float:
        # A cold op's span is a whole child process, shown as its own row.
        return super().unattributed_s(stats) - stats["op.cold"][2]

    def layer_metrics(self, stats, rounds, samples) -> dict:
        prefix = "suite.builder."
        return {
            f"suite.builder_ms.{k[len(prefix):]}": v[1] / rounds * 1e3
            for k, v in stats.items()
            if k.startswith(prefix)
        }


# ---------------------------------------------------------------- engine
class EngineWorkload(Workload):
    """``run_engine`` sessions: cold store writes and pool dispatch, warm reads.

    Mix per round, in seeded order: ``run_engine(all)`` cold at
    ``jobs=2`` (kind ``cold``) and at ``jobs=1`` (``cold_j1``, the no-pool
    control), each on a fresh temporary store; ``run_engine(all)`` warm
    (``warm_all``); and one warm single-experiment call per experiment
    (``warm``), so every experiment weighs the same in ``warm``.
    """

    name = "engine"

    def seams(self):
        return (*ENGINE_SEAMS, *_builder_seams(), *MACHINE_SEAMS,
                Seam("suite.archive.to_dict", "repro.suite.archive:experiment_to_dict"))

    def setup(self) -> None:
        from repro.engine import ResultStore, run_engine, suite_digests

        self.reference = _suite_reference()
        self.ids = list(self.reference)
        self.warm_store = ResultStore(self.work / "warm")
        report = run_engine(None, jobs=1, store=self.warm_store)
        if report.failures:
            raise RuntimeError(f"engine set-up failed: {report.failures}")
        digests = suite_digests()
        timings = []
        for _ in range(5):
            for exp_id in self.ids:
                start = time.perf_counter()
                self.warm_store.get(digests[exp_id])
                timings.append(time.perf_counter() - start)
        #: a bare ``ResultStore.get`` (no digest, no plan): the floor a
        #: warm single-experiment ``run_engine`` is compared against
        self.bare_get_s = statistics.median(timings)
        self._cold_count = 0

    def _check_report(self, report, expected_ids, source: str) -> bool:
        from repro.engine.store import canonical_bytes

        if report.failures:
            return _fail(f"{self.name}: {[f.summary_line() for f in report.failures]}")
        got = [r.exp_id for r in report.successes]
        if got != list(expected_ids):
            return _fail(f"{self.name}: results {got} != {list(expected_ids)}")
        for result in report.successes:
            if result.source != source:
                return _fail(f"{self.name}: {result.exp_id} came from {result.source}")
            if canonical_bytes(result.experiment) != self.reference[result.exp_id][0]:
                return _fail(f"{self.name}: {result.exp_id} differs from the reference")
            if not result.experiment.passed:
                return _fail(f"{self.name}: {result.exp_id} shape checks fail")
        return True

    def _cold(self, ops, tracer, jobs: int) -> None:
        from repro.engine import ResultStore, run_engine
        from repro.engine.store import ColumnCache

        self._cold_count += 1
        root = self.work / f"cold-{self._cold_count}"
        self._cleanup.append(root)

        def check(report) -> bool:
            ok = self._check_report(report, self.ids, "executed")
            leaked = len(ColumnCache(root).segments())
            self.note("leaked_segments", leaked)
            if leaked:
                ok = _fail(f"{self.name}: {leaked} column segment(s) left behind")
            if jobs > 1:
                self.note("worker_s", sum(r.elapsed_s for r in report.executed))
                for r in report.executed:
                    self.note("queue_s", r.host_elapsed_s - r.elapsed_s)
            return ok

        self._op(ops, tracer, COLD if jobs == 2 else "cold_j1",
                 lambda: run_engine(None, jobs=jobs, store=ResultStore(root)), check)

    def _warm(self, ops, tracer, exp_id: str | None) -> None:
        from repro.engine import run_engine

        ids = self.ids if exp_id is None else [exp_id]

        def check(report) -> bool:
            counts = report.cache_counts()
            self.note("hits", counts["hits"])
            self.note("lookups", counts["total"])
            return self._check_report(report, ids, "cache")

        self._op(ops, tracer, WARM if exp_id else "warm_all",
                 lambda: run_engine(None if exp_id is None else ids, jobs=1,
                                    store=self.warm_store),
                 check)

    def round(self, tracer) -> list:
        plan = [(self._cold, 2), (self._cold, 1), (self._warm, None)]
        plan += [(self._warm, exp_id) for exp_id in self.ids]
        self.rng.shuffle(plan)
        ops: list = []
        for op, arg in plan:
            op(ops, tracer, arg)
        return ops

    # A probe's first op runs one experiment, not the whole suite: the
    # rounds time whole cold runs, and the probe only checks that a fresh
    # process gets the right answer.
    def child_ready(self) -> None:
        from repro.engine import ResultStore, run_engine
        from repro.suite.experiments import EXPERIMENTS

        first = [next(iter(EXPERIMENTS))]
        self._run = lambda: run_engine(first, jobs=1, store=ResultStore(self.work / "store"))

    def child_first_op(self) -> str:
        report = self._run()
        return "failed" if report.failures else _digest_experiments(report.experiments)

    def reference_digest(self) -> str:
        from repro.suite.experiments import EXPERIMENTS

        return _digest_experiments([self.reference[next(iter(EXPERIMENTS))][1]])

    def floor_s(self, stats) -> float:
        # Builders run in-process at jobs=1; at jobs=2 they run in two
        # workers, so their summed time counts half against wall time.
        return super().floor_s(stats) + sum(self.notes.get("worker_s", ())) / 2

    def io_names(self):
        return ("engine.store.get", "engine.store.put", "engine.store.entries",
                "engine.store.contains")

    def derived_self_s(self, stats) -> dict[str, float]:
        workers = sum(self.notes.get("worker_s", ())) / 2
        rows = super().derived_self_s(stats)
        rows["engine.pool_workers"] = workers
        # execute_jobs self time is the parent waiting on its pool (plus
        # the serial loop at jobs=1); the workers' compute is not overhead.
        rows["engine.executor.pool_overhead"] = (
            stats["engine.executor.execute_jobs"][2] - workers)
        return rows

    def layer_metrics(self, stats, rounds, samples) -> dict:
        lookups = sum(self.notes.get("lookups", ())) or 1.0
        return {
            "engine.executor.execute_jobs_ms":
                stats["engine.executor.execute_jobs"][1] / rounds * 1e3,
            "engine.executor.pool_overhead_ms":
                self.derived_self_s(stats)["engine.executor.pool_overhead"] / rounds * 1e3,
            # no notes when every pooled op failed (the run reports failed ops)
            "engine.executor.queue_ms":
                statistics.median(self.notes.get("queue_s") or [0.0]) * 1e3,
            "engine.store.bare_get_ms": self.bare_get_s * 1e3,
            "engine.warm_one_over_get": statistics.median(samples[WARM]) / self.bare_get_s,
            "engine.hit_ratio": sum(self.notes.get("hits", ())) / lookups,
            "engine.colcache.leaked_segments": sum(self.notes.get("leaked_segments", ())),
        }


# ---------------------------------------------------------------- sweep
#: The 1006-machine SX-4 sweep: 25 x 8 x 5 points plus the six presets.
SWEEP_AXES = (
    ("linear", "clock.period_ns", 4.0, 16.0, 25),
    ("linear", "vector.pipes", 2, 16, 8),
    ("log", "memory.banks", 128, 2048, 5),
)


class SweepWorkload(Workload):
    """The 1006-machine SX-4 sweep, with and without a chunk store.

    Each op is ``ParameterSweep.build()`` plus ``cost_suite_grid``.  The
    cold op has no store (grid costing only); the warm op reads the
    ``ChunkStore`` filled during set-up (closure digest and chunk reads
    only).  The seed orders the three axes, which permutes the grid
    rows.  Mix per round: 1 cold, 2 warm.
    """

    name = "sweep"

    def seams(self):
        return (
            Seam("explore.sweep.build", "repro.explore.sweep:ParameterSweep.build"),
            Seam("explore.closure_digest", "repro.explore.engine:closure_digest"),
            Seam("explore.chunkstore.get", "repro.engine.store:ChunkStore.get"),
            Seam("machine.suitecolumns", "repro.machine.suitebatch:SuiteColumns.from_traces"),
            Seam("machine.grid.cost", "repro.explore.engine:cost_suite_trace_grid"),
        )

    def _sweep(self):
        from repro.explore.sweep import ParameterSweep, linear_axis, log_axis

        axes = list(SWEEP_AXES)
        self.rng.shuffle(axes)
        make = {"linear": linear_axis, "log": log_axis}
        return ParameterSweep(
            anchor="sx4",
            axes=tuple(make[kind](p, lo, hi, n) for kind, p, lo, hi, n in axes),
            include_presets=True,
        )

    @staticmethod
    def _arrays(result):
        return (result.suite_seconds, result.suite_mflops, result.suite_bandwidth_bytes_per_s)

    def setup(self) -> None:
        from repro.analysis.traces import TRACE_BUILDERS, build_registered_trace
        from repro.engine.store import ChunkStore
        from repro.explore import engine

        self.sweep = self._sweep()
        self.reference = self._arrays(engine.cost_suite_grid(self.sweep.build()))
        self.store = ChunkStore(self.work / "chunks")
        filled = engine.cost_suite_grid(self.sweep.build(), store=self.store)
        if not self._same(filled):
            raise RuntimeError("sweep set-up: chunk-store fill differs from no-store costing")
        self.n_chunks = filled.chunk_misses
        self.n_machines = filled.n_machines
        self.n_ops = sum(len(build_registered_trace(t)) for t in TRACE_BUILDERS)

    def _same(self, result) -> bool:
        import numpy as np

        return all(np.array_equal(a, b) for a, b in zip(self._arrays(result), self.reference))

    def round(self, tracer) -> list:
        from repro.explore import engine

        plan = [COLD, WARM, WARM]
        self.rng.shuffle(plan)
        ops: list = []
        for kind in plan:
            store = self.store if kind == WARM else None

            def check(result, kind=kind) -> bool:
                if kind == WARM:
                    self.note("chunk_hits", result.chunk_hits)
                    self.note("chunk_lookups", result.chunk_hits + result.chunk_misses)
                    if result.chunk_hits != self.n_chunks:
                        return _fail(f"sweep: {result.chunk_misses} chunk misses on a warm store")
                return self._same(result) or _fail(f"sweep/{kind}: arrays differ")

            self._op(ops, tracer, kind,
                     lambda store=store: engine.cost_suite_grid(self.sweep.build(), store=store),
                     check)
        return ops

    def child_ready(self) -> None:
        from repro.explore import engine

        self._engine = engine
        self.sweep = self._sweep()

    @staticmethod
    def _digest(arrays) -> str:
        return hashlib.sha256(b"".join(a.tobytes() for a in arrays)).hexdigest()

    def child_first_op(self) -> str:
        return self._digest(self._arrays(self._engine.cost_suite_grid(self.sweep.build())))

    def reference_digest(self) -> str:
        return self._digest(self.reference)

    def floor_s(self, stats) -> float:
        return stats["machine.grid.cost"][1]

    def io_names(self):
        return ("explore.chunkstore.get",)

    def layer_metrics(self, stats, rounds, samples) -> dict:
        calls, grid_s, _ = stats["machine.grid.cost"]
        lookups = sum(self.notes.get("chunk_lookups", ())) or 1.0
        pairs = self.n_ops * self.n_machines
        return {
            "machine.grid.cost_ms": grid_s / max(calls, 1) * 1e3,
            "machine.grid.op_machine_pairs": pairs,
            "machine.grid.pairs_per_s": pairs * calls / grid_s if grid_s else 0.0,
            "explore.chunk_hit_ratio": sum(self.notes.get("chunk_hits", ())) / lookups,
        }


# ---------------------------------------------------------------- service
class ServiceServer:
    """One ``repro.service serve`` subprocess, launched by ``service_boot.py``."""

    def __init__(self, root: Path, work: Path, tenants_file: Path, traced: bool) -> None:
        from repro.service.client import ServiceClient

        self.work = work
        work.mkdir(parents=True, exist_ok=True)
        self.cache_dir = work / "cache"
        self.stats_path = work / "server-stats.json"
        self.stats: dict = {}
        self.sleep_s = 0.0
        ready = work / "ready.json"
        boot = Path(__file__).resolve().parent / "service_boot.py"
        argv = [sys.executable, str(boot), "--stats-out", str(self.stats_path)]
        if traced:
            argv.append("--trace")
        argv += ["serve", "--port", "0", "--jobs", "2", "--tenants", str(tenants_file),
                 "--cache-dir", str(self.cache_dir), "--ready-file", str(ready)]
        self.log = open(work / "server.log", "w")  # noqa: SIM115 - closed in stop()
        start = time.perf_counter()
        self.proc = subprocess.Popen(argv, stdout=self.log, stderr=subprocess.STDOUT,
                                     env=src_env(root), cwd=root)
        while not ready.is_file():
            if self.proc.poll() is not None or time.perf_counter() - start > SUBPROCESS_TIMEOUT_S:
                self.stop()
                raise RuntimeError(f"service did not start; see {work / 'server.log'}")
            time.sleep(0.002)
        port = json.loads(ready.read_text())["port"]
        self.client = ServiceClient(port=port, sleep=self._sleep)
        self.client.wait_ready()
        self.setup_s = time.perf_counter() - start

    def _sleep(self, seconds: float) -> None:
        self.sleep_s += seconds
        time.sleep(seconds)

    def start_tracing(self) -> None:
        """Ask the traced server to install its wrappers, and wait until it has."""
        ack = self.stats_path.with_suffix(".tracing")
        self.proc.send_signal(signal.SIGUSR1)
        deadline = time.perf_counter() + SUBPROCESS_TIMEOUT_S
        while not ack.is_file():
            if time.perf_counter() > deadline:
                raise RuntimeError("traced service never acknowledged SIGUSR1")
            time.sleep(0.002)
        self.sleep_s = 0.0

    def stop(self) -> int:
        """SIGTERM (graceful drain), then wait; returns the exit code."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=SUBPROCESS_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.log.close()
        if self.stats_path.is_file():
            self.stats = json.loads(self.stats_path.read_text())
        return self.proc.returncode

    def leaked_segments(self) -> int:
        from repro.engine.store import ColumnCache

        tenants = self.cache_dir / "tenants"
        roots = sorted(tenants.iterdir()) if tenants.is_dir() else []
        return sum(len(ColumnCache(root).segments()) for root in roots)


class ServiceWorkload(Workload):
    """HTTP jobs against a ``repro.service`` subprocess (``--jobs 2``).

    Each job is ``submit`` -> ``wait`` -> ``result_bytes`` through
    :class:`~repro.service.client.ServiceClient`.  A round is 20
    single-experiment jobs on three freshly provisioned tenants, in
    seeded order:

    * 3 ``cold``: the first job on a fresh tenant, whose store is
      empty, so the engine executes through its pool;
    * 7 ``warm``: a new tag on a tenant whose store holds that
      experiment, so the engine plans and reads the store;
    * 10 ``dedup``: an identical earlier body, answered from the spool
      without the engine.

    The 3/7/10 split is assumed (no service traffic has been recorded);
    each kind is timed on its own.  Fresh tenants per round keep every
    tenant's spool small, so latency does not grow with run length.
    """

    name = "service"
    #: ``ServiceClient.wait`` polls at 0, 50, 130 ms, ...: a job's time
    #: is the first poll after the server finished it
    timer_bound = True
    JOBS = {COLD: 3, WARM: 7, "dedup": 10}

    def seams(self):
        return (Seam("service.client.request", "repro.service.client:ServiceClient.request_raw"),)

    def setup(self) -> None:
        from repro.suite.archive import experiment_to_dict

        self.reference = _suite_reference()
        self.ref_dicts = {
            exp_id: json.loads(json.dumps(experiment_to_dict(exp)))
            for exp_id, (_, exp) in self.reference.items()
        }
        self.ids = list(self.reference)
        self.server: ServiceServer | None = None
        self.phase = 0
        self.first_bytes: dict[str, bytes] = {}
        self._stats: dict = {}
        self.rss_mb = 0.0

    def _tenants_file(self, names, label: str) -> Path:
        path = self.work / f"tenants-{label}.json"
        path.write_text(json.dumps({"tenants": [{"name": n} for n in names]}))
        return path

    def begin_phase(self, traced: bool, max_rounds: int) -> None:
        self.phase += 1
        self.round_index = 0
        names = [f"r{r}-{k}" for r in range(max_rounds + 1) for k in range(3)]
        self.server = ServiceServer(self.root, self.work / f"server-{self.phase}",
                                    self._tenants_file(names, str(self.phase)), traced)

    def start_tracing(self) -> None:
        self.server.start_tracing()

    def end_phase(self) -> None:
        server, self.server = self.server, None
        code = server.stop()
        if code != 0:
            self.late_failures += 1
            _fail(f"service exited {code} after SIGTERM; see {server.work / 'server.log'}")
        leaked = server.leaked_segments()
        self.note("leaked_segments", leaked)
        if leaked:
            self.late_failures += 1
            _fail(f"service left {leaked} column segment(s) behind")
        self._stats = server.stats
        self._stats["client_sleep_s"] = server.sleep_s
        self.rss_mb = server.stats.get("maxrss_kb", 0) / 1024.0

    def teardown(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None

    def peak_rss_mb(self) -> float:
        return self.rss_mb

    def server_stats(self) -> dict:
        return self._stats

    def _schedule(self) -> list:
        r = self.round_index
        self.round_index += 1
        exps = self.rng.sample(self.ids, 3)
        tenants = [f"r{r}-{k}" for k in range(3)]
        remaining = dict(self.JOBS)
        issued: list = []
        cold_done: list[int] = []
        jobs = []
        while any(remaining.values()):
            allowed = [k for k, n in remaining.items() if n and (
                k == COLD or (k == WARM and cold_done) or (k == "dedup" and issued))]
            kind = self.rng.choices(allowed, weights=[remaining[k] for k in allowed])[0]
            remaining[kind] -= 1
            if kind == "dedup":
                jobs.append(("dedup", *self.rng.choice(issued)))
                continue
            k = len(cold_done) if kind == COLD else self.rng.choice(cold_done)
            tag = "cold" if kind == COLD else f"retag-{remaining[kind]}"
            body = {"kind": "suite", "tenant": tenants[k], "suite": {"ids": [exps[k]]},
                    "tag": tag}
            if kind == COLD:
                cold_done.append(k)
            issued.append((body, exps[k]))
            jobs.append((kind, body, exps[k]))
        return jobs

    @staticmethod
    def _job(client, body):
        submitted = client.submit(body)
        final = client.wait(submitted["job_id"], tenant=submitted["tenant"])
        raw = client.result_bytes(submitted["job_id"], tenant=submitted["tenant"])
        return submitted, final, raw

    def _check_job(self, kind: str, exp_id: str, out) -> bool:
        submitted, final, raw = out
        job_id = submitted["job_id"]
        if final.get("state") != "done":
            return _fail(f"service/{kind}: job {job_id} ended {final.get('state')}")
        want_cache, counted = {COLD: ("miss", "executed"), WARM: ("miss", "hits"),
                               "dedup": ("hit", None)}[kind]
        if submitted.get("cache") != want_cache:
            return _fail(f"service/{kind}: submission answered {submitted.get('cache')}")
        engine_counts = final.get("meta", {}).get("cache", {})
        if counted is not None and engine_counts.get(counted) != 1:
            return _fail(f"service/{kind}: engine cache counts {engine_counts}")
        if kind == "dedup":
            if raw != self.first_bytes.get(job_id):
                return _fail(f"service/dedup: {job_id} bytes differ from the first answer")
            return True
        self.first_bytes[job_id] = raw
        if json.loads(raw).get("experiments") != [self.ref_dicts[exp_id]]:
            return _fail(f"service/{kind}: {exp_id} differs from the reference")
        return True

    def round(self, tracer) -> list:
        client = self.server.client
        ops: list = []
        for kind, body, exp_id in self._schedule():
            self._op(ops, tracer, kind, lambda body=body: self._job(client, body),
                     lambda out, kind=kind, exp_id=exp_id: self._check_job(kind, exp_id, out))
        return ops

    def probe(self, label: str) -> tuple[float, float, bool]:
        # Its own generator: probes land between rounds at times that vary
        # from run to run, and must not shift the rounds' inputs.
        exp_id = random.Random(f"{self.seed}:probe-{label}").choice(self.ids)
        server = ServiceServer(self.root, self.work / f"probe-{label}",
                               self._tenants_file(["probe"], "probe"), traced=False)
        body = {"kind": "suite", "tenant": "probe", "suite": {"ids": [exp_id]}, "tag": "cold"}
        start = time.perf_counter()
        try:
            out = self._job(server.client, body)
            first_s = time.perf_counter() - start
            ok = self._check_job(COLD, exp_id, out)
        except Exception as exc:  # a failed probe job is a failed op
            first_s, ok = time.perf_counter() - start, _fail(f"service probe: {exc}")
        finally:
            code = server.stop()
            shutil.rmtree(server.work, ignore_errors=True)
        return server.setup_s, first_s, ok and code == 0

    def floor_s(self, stats) -> float:
        # One experiment per job, so each job's pool has one worker.
        return sum(self._stats.get("worker_elapsed_s", ()))

    def io_names(self):
        return ("service.spool.get", "service.spool.put", "engine.store.get",
                "engine.store.put", "engine.store.entries", "engine.store.contains")

    def derived_self_s(self, stats) -> dict[str, float]:
        handle = stats.get("service.http.handle", (0, 0.0))[1]
        sleep = self._stats.get("client_sleep_s", 0.0)
        return {
            "engine.pool_workers": self.floor_s(stats),
            "service.client.request": stats["service.client.request"][1] - handle,
            "service.client.sleep": sleep,
        }

    def unattributed_s(self, stats) -> float:
        return super().unattributed_s(stats) - self._stats.get("client_sleep_s", 0.0)

    def layer_metrics(self, stats, rounds, samples) -> dict:
        jobs = sum(self.JOBS.values()) * rounds
        handle = stats.get("service.http.handle", [0, 0.0])
        requests = stats["service.client.request"]

        def per_round_ms(name: str) -> float:
            return stats.get(name, [0, 0.0])[1] / rounds * 1e3

        return {
            "service.submit_ms": per_round_ms("service.submit"),
            # no stats when the server died (the run reports a failure)
            "service.queue_wait_ms":
                statistics.median(self._stats.get("queue_wait_s") or [0.0]) * 1e3,
            "service.run_one_ms": per_round_ms("service.run_one"),
            "service.engine.run_engine_ms": per_round_ms("service.engine.run_engine"),
            "service.result_ms": per_round_ms("service.result"),
            "service.http_rtt_ms": (requests[1] - handle[1]) / max(requests[0], 1) * 1e3,
            "service.status_polls_per_job": stats.get("service.status", [0])[0] / jobs,
            "engine.colcache.leaked_segments": sum(self.notes.get("leaked_segments", ())),
        }


WORKLOADS = {
    w.name: w for w in (RegenWorkload, EngineWorkload, ServiceWorkload, SweepWorkload)
}
