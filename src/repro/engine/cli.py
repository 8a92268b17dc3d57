"""Command-line interface for the suite execution engine.

Usage::

    python -m repro.engine run  [ids...] [--jobs N] [--no-cache]
                                [--timeout S] [--verify] [--json]
    python -m repro.engine plan [ids...] [--json]
    python -m repro.engine stats [--json]
    python -m repro.engine gc   [--dry-run]

All commands accept ``--cache-dir`` (default ``.repro-cache``).
``run`` exits 0 only when every experiment produced a result and every
shape check passed; its non-zero exits distinguish the failure kind::

    1   all jobs ran, but a shape check failed
    2   the request itself is invalid (unknown experiment id)
    3   at least one job errored (builder raised, or a pool worker
        refused it because its loaded source drifted)
    4   at least one worker crashed
    5   at least one job timed out

Mixed failures report the highest applicable code.  ``plan``/
``stats``/``gc`` are bookkeeping and exit 0 unless the request is
invalid (exit 2, listing the valid ids).

Every command warns on stderr when a source file the process loaded
has changed on disk since (:func:`repro.engine.deps.code_drift`): its
results stay keyed to the code it ran, and the next process keys the
edit.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.engine.deps import code_drift
from repro.engine.executor import EngineReport, JobFailure, run_engine
from repro.engine.plan import plan_suite
from repro.engine.store import ResultStore
from repro.suite.experiments import EXPERIMENTS

__all__ = [
    "main",
    "engine_report_to_dict",
    "validate_experiment_ids",
    "FAILURE_EXIT_CODES",
]

#: ``engine run`` exit code per failure kind (a shape-check failure
#: alone is 1; usage errors are 2; mixed kinds take the max).
FAILURE_EXIT_CODES = {"error": 3, "crash": 4, "timeout": 5}


def validate_experiment_ids(exp_ids: list[str]) -> str | None:
    """An error message naming the valid ids, or None when all are known."""
    unknown = [exp_id for exp_id in exp_ids if exp_id not in EXPERIMENTS]
    if not unknown:
        return None
    return (
        f"unknown experiment id(s): {', '.join(sorted(unknown))}\n"
        f"valid ids: {', '.join(EXPERIMENTS)}"
    )


def engine_report_to_dict(report: EngineReport) -> dict:
    """Machine-readable form of an engine run (cache + suite verdicts)."""
    from repro.suite.runner import SuiteReport, suite_report_to_dict

    suite = SuiteReport(
        experiments=report.experiments,
        timings={r.exp_id: r.elapsed_s for r in report.successes},
    )
    return {
        "schema": 1,
        "engine": {
            "jobs": report.jobs,
            "wall_s": report.wall_s,
            "cache": report.cache_counts(),
            "plan": report.plan.counts(),
            "sources": {r.exp_id: r.source for r in report.successes},
            "failures": [
                {
                    "exp_id": f.exp_id,
                    "kind": f.kind,
                    "message": f.message,
                }
                for f in report.failures
            ],
            "resilience": {
                "retry_rounds": report.retry_rounds,
                "serial_fallback": report.serial_fallback,
                "attempts": {
                    exp_id: n for exp_id, n in sorted(report.attempts.items()) if n > 1
                },
            },
        },
        "suite": suite_report_to_dict(suite),
    }


def _add_common(parser: argparse.ArgumentParser, with_ids: bool = True) -> None:
    if with_ids:
        parser.add_argument("ids", nargs="*", metavar="exp_id",
                            help="experiment ids (default: the whole suite)")
    parser.add_argument("--cache-dir", default=None, metavar="PATH",
                        help="result store root (default: .repro-cache)")
    parser.add_argument("--json", action="store_true",
                        help="emit a machine-readable report")


def _store(args: argparse.Namespace) -> ResultStore:
    return ResultStore(args.cache_dir) if args.cache_dir else ResultStore()


def _cmd_run(args: argparse.Namespace) -> int:
    report = run_engine(
        args.ids or None,
        jobs=args.jobs,
        use_cache=not args.no_cache,
        store=_store(args),
        timeout_s=args.timeout,
        verify=args.verify,
    )
    if args.json:
        print(json.dumps(engine_report_to_dict(report), indent=1, sort_keys=True))
    else:
        for result in report.results:
            if isinstance(result, JobFailure):
                print(result.summary_line())
            else:
                tag = "cached  " if result.source == "cache" else "executed"
                print(f"{tag} {result.experiment.summary_line()}")
        print(report.summary())
    checks_ok = all(exp.passed for exp in report.experiments)
    if report.failures:
        return max(FAILURE_EXIT_CODES.get(f.kind, 3) for f in report.failures)
    return 0 if checks_ok else 1


def _cmd_plan(args: argparse.Namespace) -> int:
    plan = plan_suite(_store(args), args.ids or None)
    if args.json:
        payload = {
            "counts": plan.counts(),
            "entries": [
                {"exp_id": e.exp_id, "status": e.status, "key": e.digest.key}
                for e in plan.entries
            ],
        }
        print(json.dumps(payload, indent=1, sort_keys=True))
    else:
        for entry in plan.entries:
            print(f"{entry.status:<6} {entry.exp_id:<10} {entry.digest.key[:16]}")
        print(plan.summary())
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    from repro.engine.deps import suite_digests

    store = _store(args)
    stats = store.stats(suite_digests())
    if args.json:
        payload = {
            "entries": stats.entries,
            "total_bytes": stats.total_bytes,
            "by_experiment": stats.by_experiment,
            "live": stats.live,
            "stale": stats.stale,
            "corrupt": stats.corrupt,
            "quarantined": stats.quarantined,
        }
        print(json.dumps(payload, indent=1, sort_keys=True))
    else:
        for exp_id, count in sorted(stats.by_experiment.items()):
            print(f"{exp_id:<10} {count} entr{'y' if count == 1 else 'ies'}")
        print(f"store: {stats.summary()}")
    return 0


def _cmd_gc(args: argparse.Namespace) -> int:
    from repro.engine.deps import suite_digests
    from repro.units import fmt_bytes

    store = _store(args)
    removed = store.gc(suite_digests(), dry_run=args.dry_run)
    verb = "would remove" if args.dry_run else "removed"
    q_verb = "would quarantine" if args.dry_run else "quarantined"
    for entry in removed:
        action = q_verb if entry.corrupt else verb
        print(f"{action} {entry.path} ({fmt_bytes(entry.size_bytes)})")
    total = fmt_bytes(sum(entry.size_bytes for entry in removed))
    corrupt = sum(entry.corrupt for entry in removed)
    tail = f", {corrupt} corrupt -> quarantine" if corrupt else ""
    print(
        f"gc: {verb} {len(removed)} entr{'y' if len(removed) == 1 else 'ies'}"
        f" ({total}){tail}"
    )
    from repro.service.spool import JobSpool

    swept = JobSpool(store.root).sweep_expired(dry_run=args.dry_run)
    print(
        f"gc: {verb} {len(swept)} expired service job "
        f"record{'' if len(swept) == 1 else 's'}"
    )
    from repro.engine.store import ColumnCache

    orphaned = ColumnCache(store.root).sweep_orphans(dry_run=args.dry_run)
    for segment in orphaned:
        print(
            f"{verb} orphaned column segment {segment.key[:16]} "
            f"({segment.kind}, {fmt_bytes(segment.size_bytes)}, "
            f"publisher pid {segment.owner_pid} dead)"
        )
    print(
        f"gc: {verb} {len(orphaned)} orphaned column "
        f"segment{'' if len(orphaned) == 1 else 's'}"
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.engine",
        description="Parallel, cached, incremental suite execution.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute the suite through the engine")
    _add_common(p_run)
    p_run.add_argument("--jobs", type=int, default=1, metavar="N",
                       help="worker processes (default: 1, serial in-process)")
    p_run.add_argument("--no-cache", action="store_true",
                       help="neither read nor write the result store")
    p_run.add_argument("--timeout", type=float, default=None, metavar="S",
                       help="per-job timeout in seconds")
    p_run.add_argument("--verify", action="store_true",
                       help="re-derive every result serially and assert "
                            "byte-identity (the determinism contract)")

    p_plan = sub.add_parser("plan", help="show hit/miss/stale without running")
    _add_common(p_plan)

    p_stats = sub.add_parser("stats", help="result-store contents and liveness")
    _add_common(p_stats, with_ids=False)

    p_gc = sub.add_parser("gc", help="drop entries no current digest addresses")
    _add_common(p_gc, with_ids=False)
    p_gc.add_argument("--dry-run", action="store_true",
                      help="report what would be removed, remove nothing")

    args = parser.parse_args(argv)
    error = validate_experiment_ids(getattr(args, "ids", []) or [])
    if error:
        print(error, file=sys.stderr)
        return 2
    handlers = {"run": _cmd_run, "plan": _cmd_plan, "stats": _cmd_stats,
                "gc": _cmd_gc}
    code = handlers[args.command](args)
    drifted = code_drift()
    if drifted:
        print(
            f"engine: warning: source changed on disk since this process loaded it: "
            f"{', '.join(drifted)}; results stay keyed to the loaded code",
            file=sys.stderr,
        )
    return code
