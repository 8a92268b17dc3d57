"""Run ``python -m repro.service`` and report on it when it exits.

    python benchmarks/e2e/service_boot.py --stats-out FILE [--trace] serve ...

Everything after the boot's own flags goes to the service CLI
unchanged.  When the service exits (after its SIGTERM drain) the boot
writes ``FILE``: the process's peak RSS and, with ``--trace``, the
per-layer stats.

With ``--trace`` the server installs the per-layer wrappers only when
it receives SIGUSR1, so the benchmark can warm the server up untraced
first; it acknowledges by creating ``FILE`` with the suffix
``.tracing``.  Besides the seam stats, observers on the seams record,
per job, the wait from ``submit`` returning to ``run_one`` starting,
and the builder seconds of every experiment the engine executed in a
pool worker.
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import sys
from pathlib import Path


def job_observers(notes: dict) -> dict:
    """Seam observers that fill ``notes["queue_wait_s"]`` and ``["worker_elapsed_s"]``."""
    from repro.service.app import CACHE_MISS

    submitted: dict[str, float] = {}

    def on_submit(_args, _kwargs, response, _start, end) -> None:
        if response.status == 202:
            payload = json.loads(response.body)
            if payload.get("cache") == CACHE_MISS:
                submitted[payload["job_id"]] = end

    def on_run_one(args, kwargs, _record, start, _end) -> None:
        job_id = kwargs["job_id"] if "job_id" in kwargs else args[2]
        queued = submitted.pop(job_id, None)
        if queued is not None:
            notes["queue_wait_s"].append(start - queued)

    def on_run_engine(_args, _kwargs, report, _start, _end) -> None:
        notes["worker_elapsed_s"].extend(r.elapsed_s for r in report.executed)

    return {
        "service.submit": on_submit,
        "service.run_one": on_run_one,
        "service.engine.run_engine": on_run_engine,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--stats-out", required=True, type=Path)
    parser.add_argument("--trace", action="store_true")
    args, service_argv = parser.parse_known_args(argv)

    from repro.service import cli

    tracer = None
    notes: dict[str, list[float]] = {"queue_wait_s": [], "worker_elapsed_s": []}
    if args.trace:
        from tracer import Tracer
        from workloads import SERVICE_SERVER_SEAMS

        tracer = Tracer(SERVICE_SERVER_SEAMS, observers=job_observers(notes))

        def start_tracing(_signum, _frame) -> None:
            tracer.__enter__()
            args.stats_out.with_suffix(".tracing").touch()

        signal.signal(signal.SIGUSR1, start_tracing)

    from workloads import stop_resource_tracker

    code = cli.main(service_argv)
    stop_resource_tracker()
    payload: dict = {"maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer is not None:
        tracer.__exit__(None, None, None)
        payload.update(stats=tracer.stats, hits=tracer.hits, **notes)
    args.stats_out.write_text(json.dumps(payload))
    return code


if __name__ == "__main__":
    sys.exit(main())
