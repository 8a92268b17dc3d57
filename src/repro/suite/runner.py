"""Suite runner: execute every experiment and summarise the verdicts.

``python -m repro.suite [exp_id ...]`` prints each experiment's
regenerated table/figure, its shape-check verdicts, and a final summary —
the command-line face of the reproduction.  ``--json`` emits the same
report machine-readably (for CI); ``--engine`` routes execution through
:mod:`repro.engine` — parallel fan-out (``--jobs N``) and the
content-addressed result cache (disable with ``--no-cache``).
``--fault-plan PATH`` replays a saved :mod:`repro.faults` plan against
the run (implying ``--engine``): the planned faults fire at the
engine's hook sites and the retry policy absorbs them — the command
should still exit 0 with byte-identical outputs.

``--perfmon`` activates the observability subsystem for the run: the
machine components populate their emulated SX hardware counters, every
experiment gets a host span, and afterwards the 13 kernel traces are
profiled individually so the run ends with their PROGINF sections (and,
with ``--perfmon-out``, a saved profile document for
``python -m repro.perfmon export``/``diff``).  Counter capture is
in-process: combine ``--perfmon`` with ``--jobs`` > 1 and the workers'
counters stay in the workers (spans and the kernel PROGINF sections are
still collected here).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, field

from repro.analysis.traces import experiment_summaries
from repro.perfmon.collector import profile as perfmon_profile
from repro.perfmon.collector import span as perfmon_span
from repro.suite.experiments import EXPERIMENTS
from repro.suite.figures import render_ascii_chart
from repro.suite.results import Experiment
from repro.suite.tables import render_table

__all__ = ["SuiteReport", "run_suite", "render_experiment",
           "suite_report_to_dict", "main"]


@dataclass
class SuiteReport:
    """Outcome of a full (or filtered) suite run."""

    experiments: list[Experiment] = field(default_factory=list)
    #: wall seconds to build each experiment, keyed by exp_id.
    timings: dict[str, float] = field(default_factory=dict)
    #: host wall seconds *this* run spent per experiment — differs from
    #: ``timings`` under the engine, where a cache hit replays an old
    #: build time but costs only a store read here.
    host_timings: dict[str, float] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(exp.passed for exp in self.experiments)

    @property
    def check_counts(self) -> tuple[int, int]:
        """(passed, total) across all experiments."""
        total = sum(len(exp.checks) for exp in self.experiments)
        good = sum(sum(c.passed for c in exp.checks) for exp in self.experiments)
        return good, total

    def summary(self) -> str:
        lines = [exp.summary_line() for exp in self.experiments]
        good, total = self.check_counts
        verdict = "ALL SHAPE CHECKS PASS" if self.passed else "SHAPE CHECK FAILURES"
        lines.append(f"-- {verdict}: {good}/{total} checks over "
                     f"{len(self.experiments)} experiments --")
        return "\n".join(lines)


def run_suite(exp_ids: list[str] | None = None) -> SuiteReport:
    """Run the requested experiments (default: all, in paper order)."""
    ids = list(EXPERIMENTS) if not exp_ids else exp_ids
    report = SuiteReport()
    for exp_id in ids:
        if exp_id not in EXPERIMENTS:
            raise KeyError(
                f"unknown experiment {exp_id!r}; available: {sorted(EXPERIMENTS)}"
            )
        start = time.perf_counter()
        with perfmon_span(f"experiment:{exp_id}", exp_id=exp_id):
            report.experiments.append(EXPERIMENTS[exp_id]())
        elapsed = time.perf_counter() - start
        report.timings[exp_id] = elapsed
        report.host_timings[exp_id] = elapsed
    return report


def render_experiment(exp: Experiment, diagnostics: bool = True) -> str:
    """Full text rendering: table, chart, notes, checks, diagnostics.

    The trailing ``vectorization:`` lines summarise what the static
    analyzer says about each trace behind the experiment — the coding
    styles that *produced* the numbers above them (Section 4.4).
    """
    parts = [f"=== {exp.exp_id}: {exp.title} ==="]
    if exp.rows:
        parts.append(render_table(exp.headers, exp.rows))
    if exp.series:
        parts.append(render_ascii_chart(exp.series, title=None))
    if exp.notes:
        parts.append(f"note: {exp.notes}")
    parts.extend(str(check) for check in exp.checks)
    if diagnostics:
        for trace_id, report in experiment_summaries(exp.exp_id):
            parts.append(f"vectorization: {trace_id}: {report.summary_line()}")
    return "\n".join(parts)


def suite_report_to_dict(report: SuiteReport) -> dict:
    """Machine-readable SuiteReport: ids, verdicts, timings (for CI).

    ``schema`` stays at 1 for existing consumers; ``schema_version``
    carries the actual document revision (2 added ``schema_version``
    itself and per-experiment ``host_elapsed_s``).
    """
    good, total = report.check_counts
    return {
        "schema": 1,
        "schema_version": 2,
        "passed": report.passed,
        "checks": {"passed": good, "total": total},
        "experiments": [
            {
                "exp_id": exp.exp_id,
                "title": exp.title,
                "passed": exp.passed,
                "elapsed_s": report.timings.get(exp.exp_id),
                "host_elapsed_s": report.host_timings.get(exp.exp_id),
                "checks": [
                    {
                        "description": c.description,
                        "passed": c.passed,
                        "detail": c.detail,
                    }
                    for c in exp.checks
                ],
            }
            for exp in report.experiments
        ],
    }


def _run_through_engine(args: argparse.Namespace) -> tuple[SuiteReport, int]:
    """Execute via repro.engine; returns (report, n_failed_jobs)."""
    from repro.engine import run_engine

    retry = injector = None
    if args.fault_plan:
        from repro.faults.plan import FaultPlan
        from repro.faults.retry import chaos_retry_policy

        plan = FaultPlan.load(args.fault_plan)
        injector = plan.injector()
        retry = chaos_retry_policy()
        print(plan.summary(), file=sys.stderr)
    engine_report = run_engine(
        args.ids or None,
        jobs=args.jobs,
        use_cache=not args.no_cache,
        retry=retry,
        injector=injector,
    )
    report = SuiteReport(
        experiments=engine_report.experiments,
        timings={r.exp_id: r.elapsed_s for r in engine_report.successes},
        host_timings={
            r.exp_id: r.host_elapsed_s
            for r in engine_report.successes
            if r.host_elapsed_s is not None
        },
    )
    for failure in engine_report.failures:
        print(failure.summary_line(), file=sys.stderr)
    if not args.json:
        print(engine_report.summary(), file=sys.stderr)
    return report, len(engine_report.failures)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.suite",
        description="Regenerate the paper's tables and figures and check them.",
    )
    parser.add_argument("ids", nargs="*", metavar="exp_id",
                        help="experiment ids (default: the whole suite)")
    parser.add_argument("--json", action="store_true",
                        help="emit a machine-readable SuiteReport")
    parser.add_argument("--engine", action="store_true",
                        help="execute through repro.engine (cache + fan-out)")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes when --engine is given")
    parser.add_argument("--no-cache", action="store_true",
                        help="with --engine: bypass the result store")
    parser.add_argument("--fault-plan", metavar="PATH", default=None,
                        help="run under the saved fault plan (JSON from "
                             "'python -m repro.faults plan'); implies "
                             "--engine and enables retry with backoff")
    parser.add_argument("--perfmon", action="store_true",
                        help="profile the run: emulated hardware counters, "
                             "spans, and per-kernel PROGINF sections")
    parser.add_argument("--perfmon-out", metavar="PATH",
                        help="write the perfmon profile document (JSON) to "
                             "PATH (implies --perfmon)")
    args = parser.parse_args(argv if argv is not None else sys.argv[1:])
    if args.perfmon_out:
        args.perfmon = True
    if args.fault_plan:
        args.engine = True

    unknown = [exp_id for exp_id in args.ids if exp_id not in EXPERIMENTS]
    if unknown:
        print(
            f"error: unknown experiment id(s): {', '.join(sorted(unknown))}\n"
            f"valid ids: {', '.join(EXPERIMENTS)}",
            file=sys.stderr,
        )
        return 2

    def execute() -> tuple[SuiteReport, int]:
        if args.engine:
            return _run_through_engine(args)
        return run_suite(args.ids or None), 0

    perfmon_payload = None
    perfmon_text = None
    if args.perfmon:
        from repro.perfmon.cli import collect_kernel_profiles
        from repro.perfmon.export import profile_to_dict, save_profile
        from repro.perfmon.ftrace import render_ftrace
        from repro.perfmon.proginf import proginf_report

        with perfmon_profile(role="suite", ids=list(args.ids)) as prof:
            with perfmon_span("suite:run"):
                report, failed_jobs = execute()
            # Profile each of the 13 kernel traces separately so the run
            # ends with per-kernel PROGINF sections.
            with perfmon_span("suite:kernels"):
                _, kernels = collect_kernel_profiles()
        perfmon_payload = profile_to_dict(prof, kernels)
        perfmon_text = proginf_report(kernels) + "\n\n" + render_ftrace(prof)
        if args.perfmon_out:
            path = save_profile(args.perfmon_out, prof, kernels)
            print(f"perfmon: saved profile to {path}", file=sys.stderr)
    else:
        report, failed_jobs = execute()

    if args.json:
        payload = suite_report_to_dict(report)
        if perfmon_payload is not None:
            payload["perfmon"] = perfmon_payload
        print(json.dumps(payload, indent=1, sort_keys=True))
    else:
        for exp in report.experiments:
            print(render_experiment(exp))
            print()
        print(report.summary())
        if perfmon_text is not None:
            print()
            print(perfmon_text)
    return 0 if (report.passed and failed_jobs == 0) else 1


if __name__ == "__main__":
    raise SystemExit(main())
