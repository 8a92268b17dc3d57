"""Command-line interface for the benchmark service.

Usage::

    python -m repro.service serve  [--host H] [--port P] [--cache-dir D]
                                   [--jobs N] [--tenants FILE] [--paused]
                                   [--ready-file F] [--drain-timeout S]
                                   [--stall-timeout S]
    python -m repro.service submit [--host H] [--port P] (--body JSON |
                                   --body-file F) [--wait] [--json]
    python -m repro.service status JOB_ID [--host H] [--port P]
                                   [--tenant T] [--result]
    python -m repro.service gc     [--cache-dir D] [--dry-run]

Exit codes follow the uniform service contract (REPO010): **0** on
success, **1** when the operation itself failed (a failed job, an
error response, an unreachable server), **2** for usage errors
(argparse's own convention).  ``submit --wait`` exits 1 when the job
finishes ``failed`` — scripting a suite through the service composes
with ``&&`` the same way running it locally does.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
from pathlib import Path

from repro.engine.store import DEFAULT_STORE_ROOT

__all__ = ["main"]


def _client(args: argparse.Namespace):
    from repro.service.client import ServiceClient

    return ServiceClient(host=args.host, port=args.port)


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service.app import ServiceApp
    from repro.service.server import serve
    from repro.service.tenants import TenantRegistry

    tenants = None
    if args.tenants:
        try:
            tenants = TenantRegistry.load(args.tenants)
        except (OSError, KeyError, TypeError, ValueError) as exc:
            print(f"error: cannot load tenants file: {exc}", file=sys.stderr)
            return 1
    app = ServiceApp(
        root=args.cache_dir,
        tenants=tenants,
        jobs=args.jobs,
        stall_timeout_s=args.stall_timeout,
    )
    try:
        asyncio.run(
            serve(
                app,
                host=args.host,
                port=args.port,
                paused=args.paused,
                ready_file=args.ready_file,
                drain_timeout_s=args.drain_timeout,
            )
        )
    except KeyboardInterrupt:
        # Only reachable where SIGINT handlers could not be installed
        # (non-POSIX); on POSIX the server drains gracefully instead.
        print("repro.service: interrupted, exiting", file=sys.stderr)
    except OSError as exc:
        print(f"error: cannot bind {args.host}:{args.port}: {exc}", file=sys.stderr)
        return 1
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    from repro.service.client import ServiceError

    if args.body is not None:
        raw = args.body
    else:
        try:
            raw = Path(args.body_file).read_text(encoding="utf-8")
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    try:
        body = json.loads(raw)
    except ValueError as exc:
        print(f"error: body is not valid JSON: {exc}", file=sys.stderr)
        return 1
    client = _client(args)
    try:
        submitted = client.submit(body)
    except (OSError, ServiceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if not args.wait:
        print(json.dumps(submitted, indent=None if args.json else 2, sort_keys=True))
        return 0
    tenant = submitted.get("tenant")
    try:
        final = client.wait(submitted["job_id"], tenant=tenant)
    except (OSError, TimeoutError, ServiceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps({"submitted": submitted, "final": final}, sort_keys=True))
    else:
        print(
            f"job {submitted['job_id']} [{submitted['cache']}] "
            f"-> {final['state']}"
        )
        if final.get("error"):
            print(f"error: {final['error']}", file=sys.stderr)
    return 0 if final.get("state") == "done" else 1


def _cmd_status(args: argparse.Namespace) -> int:
    from repro.service.client import ServiceError

    client = _client(args)
    try:
        if args.result:
            sys.stdout.buffer.write(
                client.result_bytes(args.job_id, tenant=args.tenant)
            )
            sys.stdout.buffer.write(b"\n")
            return 0
        payload = client.status(args.job_id, tenant=args.tenant)
    except (OSError, ServiceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def _cmd_gc(args: argparse.Namespace) -> int:
    from repro.service.spool import JobSpool

    spool = JobSpool(args.cache_dir)
    swept = spool.sweep_expired(dry_run=args.dry_run)
    verb = "would remove" if args.dry_run else "removed"
    for record in swept:
        print(f"{verb} {record.tenant}/{record.job_id} ({record.state})")
    print(
        f"service gc: {verb} {len(swept)} expired job "
        f"record{'' if len(swept) == 1 else 's'}"
    )
    return 0


def _add_endpoint(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--host", default="127.0.0.1", help="server address")
    parser.add_argument("--port", type=int, default=8750, help="server port")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="Benchmark-as-a-service over the content-addressed engine.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_serve = sub.add_parser("serve", help="run the HTTP service")
    _add_endpoint(p_serve)
    p_serve.add_argument("--cache-dir", default=DEFAULT_STORE_ROOT, metavar="DIR",
                         help="store root (results, chunks, job spool)")
    p_serve.add_argument("--jobs", type=int, default=1, metavar="N",
                         help="engine worker processes per suite job")
    p_serve.add_argument("--tenants", default=None, metavar="FILE",
                         help="tenant registry JSON (default: public only)")
    p_serve.add_argument("--paused", action="store_true",
                         help="accept submissions but do not execute "
                              "(restart-recovery staging)")
    p_serve.add_argument("--ready-file", default=None, metavar="F",
                         help="write the bound address here once listening")
    p_serve.add_argument("--drain-timeout", type=float, default=30.0, metavar="S",
                         help="seconds a SIGTERM drain waits for the in-flight "
                              "job before checkpointing it back to pending")
    p_serve.add_argument("--stall-timeout", type=float, default=30.0, metavar="S",
                         help="worker heartbeat age after which the watchdog "
                              "requeues its job and restarts the loop")

    p_submit = sub.add_parser("submit", help="POST a job submission")
    _add_endpoint(p_submit)
    group = p_submit.add_mutually_exclusive_group(required=True)
    group.add_argument("--body", default=None, help="request body as JSON text")
    group.add_argument("--body-file", default=None, metavar="F",
                       help="request body from a file")
    p_submit.add_argument("--wait", action="store_true",
                          help="poll until the job finishes; exit 1 on failure")
    p_submit.add_argument("--json", action="store_true",
                          help="compact machine-readable output")

    p_status = sub.add_parser("status", help="fetch job status or result")
    _add_endpoint(p_status)
    p_status.add_argument("job_id", help="deterministic job id (sha256)")
    p_status.add_argument("--tenant", default=None, help="tenant namespace")
    p_status.add_argument("--result", action="store_true",
                          help="print the raw result bytes instead of status")

    p_gc = sub.add_parser("gc", help="sweep expired job records")
    p_gc.add_argument("--cache-dir", default=DEFAULT_STORE_ROOT, metavar="DIR",
                      help="store root holding the job spool")
    p_gc.add_argument("--dry-run", action="store_true",
                      help="report what would be removed without removing")

    args = parser.parse_args(argv)
    handlers = {"serve": _cmd_serve, "submit": _cmd_submit,
                "status": _cmd_status, "gc": _cmd_gc}
    return handlers[args.command](args)
