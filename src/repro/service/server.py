"""The asyncio HTTP front end: sockets in, :class:`ServiceApp` out.

Stdlib only, by design: :func:`asyncio.start_server` plus a minimal
HTTP/1.1 reader is all the service needs — one short-lived connection
per request (``Connection: close``), no keep-alive, no chunked bodies.
The interesting logic all lives in :class:`repro.service.app.ServiceApp`;
this module is the few hundred lines that turn bytes on a socket into
``app.handle(method, target, body)`` and back, plus the process-level
lifecycle the app cannot own itself:

* the **acceptor** — parses requests and dispatches handlers via
  :func:`asyncio.to_thread` (which propagates contextvars, so perfmon
  profiles opened in handlers fold into the right collector);
* the **long poll** — ``GET /v1/jobs/{id}?wait_s=N`` answers as soon as
  the job is done or failed, or with its current state after ``N``
  seconds (capped at :data:`~repro.service.requests.MAX_WAIT_S`).  Its
  waiter is a future on the event loop, registered before the state is
  read and resolved from the worker's thread through
  ``loop.call_soon_threadsafe`` when :meth:`ServiceApp.run_one` settles
  the job; a waiting request holds no thread;
* the **worker** — a daemon thread draining the job queue through
  ``app.run_pending(1, epoch=...)``, woken by the app's queued signal
  the moment a job is queued.  A thread, not a task: a wedged job must
  never be able to block event-loop shutdown, and the epoch argument
  fences the thread out the moment the watchdog moves on;
* the **watchdog** — a loop task calling :meth:`ServiceApp.watchdog_check`;
  when the worker's heartbeat goes stale it requeues the RUNNING job
  and this module starts a fresh worker thread on the new epoch;
* **graceful drain** — SIGTERM/SIGINT flip the app into ``draining``
  (new submissions bounce with ``503 + Retry-After``), the in-flight
  job gets ``drain_timeout_s`` to finish (checkpointed back to PENDING
  past that), every open long poll is answered at once with its job's
  current state, orphan column segments are swept, a drain record is
  journaled, and the process exits 0.  Restarting resumes the spool
  bit-identically — the CI service-chaos job SIGTERMs a 50-job burst
  and byte-compares every result against an uninterrupted run.

``paused=True`` starts the acceptor without the worker or watchdog:
submitted jobs journal to the spool and stay ``pending``.  The CI
service-smoke job uses it to stage a killed-mid-queue server
deterministically, then restarts without ``paused`` and watches
:meth:`ServiceApp.recover` resume the same job id to the same result
digest.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import threading
from pathlib import Path

from repro.engine.deps import pin_loaded
from repro.service.app import Response, ServiceApp
from repro.service.spool import DONE, FAILED

__all__ = [
    "MAX_REQUEST_BYTES",
    "WORKER_IDLE_SLEEP_S",
    "DEFAULT_DRAIN_TIMEOUT_S",
    "read_request",
    "write_response",
    "serve",
]

#: Hard cap on request bodies — a benchmark submission is a few KB.
MAX_REQUEST_BYTES = 1 << 20

#: The idle worker's heartbeat cadence: with the queue empty it waits
#: this long for the queued signal before beating again.  A queued job
#: wakes it at once, so this is not a pickup delay.
WORKER_IDLE_SLEEP_S = 0.05

#: How long a drain waits for the in-flight job before checkpointing it.
DEFAULT_DRAIN_TIMEOUT_S = 30.0

_REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    403: "Forbidden",
    404: "Not Found",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


async def read_request(
    reader: asyncio.StreamReader,
) -> tuple[str, str, bytes] | None:
    """Parse one HTTP/1.1 request; None on EOF or a malformed head.

    Connection errors propagate to the caller, which counts them — a
    peer hanging up is normal traffic, but it must stay observable.
    """
    try:
        request_line = await reader.readline()
    except asyncio.LimitOverrunError:
        return None
    parts = request_line.decode("latin-1").split()
    if len(parts) != 3:
        return None
    method, target, _version = parts
    content_length = 0
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        if name.strip().lower() == "content-length":
            try:
                content_length = int(value.strip())
            except ValueError:
                return None
    if content_length < 0 or content_length > MAX_REQUEST_BYTES:
        return None
    body = b""
    if content_length:
        try:
            body = await reader.readexactly(content_length)
        except asyncio.IncompleteReadError:
            return None
    return method.upper(), target, body


def write_response(writer: asyncio.StreamWriter, response: Response) -> None:
    extra = "".join(f"{name}: {value}\r\n" for name, value in response.headers)
    head = (
        f"HTTP/1.1 {response.status} {_REASONS.get(response.status, 'Unknown')}\r\n"
        f"Content-Type: {response.content_type}\r\n"
        f"Content-Length: {len(response.body)}\r\n"
        f"{extra}"
        f"Connection: close\r\n"
        f"\r\n"
    )
    writer.write(head.encode("latin-1") + response.body)


class _Waiters:
    """Long-poll futures by ``(tenant, job_id)``, on one event loop.

    Only :meth:`settle_soon` may be called from another thread: it is
    the app's ``on_settle`` hook, run on the worker's thread.  Once
    :meth:`close` has run, every long poll answers without waiting.
    """

    def __init__(self, loop: asyncio.AbstractEventLoop) -> None:
        self.loop = loop
        self.by_job: dict[tuple[str, str], set[asyncio.Future]] = {}
        self.closed = False

    def add(self, key: tuple[str, str]) -> asyncio.Future:
        future = self.loop.create_future()
        self.by_job.setdefault(key, set()).add(future)
        return future

    def discard(self, key: tuple[str, str], future: asyncio.Future) -> None:
        futures = self.by_job.get(key)
        if futures is not None:
            futures.discard(future)
            if not futures:
                del self.by_job[key]

    def settle(self, key: tuple[str, str]) -> None:
        for future in self.by_job.pop(key, ()):
            if not future.done():
                future.set_result(None)

    def close(self) -> None:
        self.closed = True
        for key in list(self.by_job):
            self.settle(key)

    def settle_soon(self, tenant: str, job_id: str) -> None:
        try:
            self.loop.call_soon_threadsafe(self.settle, (tenant, job_id))
        except RuntimeError:
            pass  # the loop is closed: nobody is left waiting


def _final(response: Response) -> bool:
    """Whether a status answer is final: an error, or a done or failed job."""
    return response.status != 200 or json.loads(response.body)["state"] in (DONE, FAILED)


async def _long_poll(
    app: ServiceApp,
    waiters: _Waiters,
    poll: tuple[str, str, float],
    method: str,
    target: str,
    body: bytes,
) -> Response:
    """Answer a status request when its job settles, or after its bound.

    Each read of the job's state goes through ``app.handle``, on a
    thread; the wait between reads holds none.  A wake-up that finds
    the job unsettled (its worker was fenced, and the job requeued)
    waits again for what is left of the bound.
    """
    tenant, job_id, wait_s = poll
    loop = asyncio.get_running_loop()
    deadline = loop.time() + wait_s
    while True:
        # Registered before the read: a job settling during it still wakes us.
        wake = waiters.add((tenant, job_id))
        try:
            response = await asyncio.to_thread(app.handle, method, target, body)
            remaining = deadline - loop.time()
            if _final(response) or waiters.closed or remaining <= 0:
                return response
            done, _ = await asyncio.wait({wake}, timeout=remaining)
            if not done:
                app.note_wait_expired()
        finally:
            waiters.discard((tenant, job_id), wake)


async def _handle_connection(
    app: ServiceApp,
    waiters: _Waiters,
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
) -> None:
    try:
        parsed = await read_request(reader)
        if parsed is None:
            response = Response(
                status=400, body=json.dumps({"error": "malformed request"}).encode()
            )
        else:
            method, target, body = parsed
            poll = app.long_poll(method, target)
            if poll is not None:
                response = await _long_poll(app, waiters, poll, method, target, body)
            else:
                # to_thread keeps the loop responsive during long handlers
                # and carries contextvars, so perfmon stays attached.
                response = await asyncio.to_thread(app.handle, method, target, body)
        write_response(writer, response)
        await writer.drain()
    except ConnectionError:
        app.note_client_disconnect()
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except ConnectionError:
            app.note_client_disconnect()


def _worker_loop(app: ServiceApp, epoch: int, stop: threading.Event) -> None:
    """One worker thread's life: drain jobs until fenced, stopped, or draining.

    An idle worker waits for the queued signal, ``WORKER_IDLE_SLEEP_S``
    at most, so it starts a job the moment it is queued and still beats
    its heartbeat at that cadence while the queue is empty.
    """
    while not stop.is_set():
        if app.draining or app.worker_epoch != epoch:
            break
        try:
            ran = app.run_pending(1, epoch=epoch)
        except Exception:  # injected worker fault or handler bug:
            app.note_worker_restart()  # the loop survives, counted
            ran = 0
        if not ran:
            app.wait_queued(WORKER_IDLE_SLEEP_S)


async def serve(
    app: ServiceApp,
    host: str = "127.0.0.1",
    port: int = 8750,
    paused: bool = False,
    ready_file: str | Path | None = None,
    drain_timeout_s: float = DEFAULT_DRAIN_TIMEOUT_S,
    watchdog_interval_s: float | None = None,
    install_signal_handlers: bool = True,
) -> None:
    """Run the service until cancelled or drained by a signal.

    Recovery happens before the socket opens: unfinished spool records
    re-enter the queue first, so a client polling a pre-restart job id
    never observes a 404 window.  ``ready_file``, when given, is
    written with the bound address once the socket is listening —
    scripts (and the CI smoke job) wait on it instead of sleeping.

    SIGTERM/SIGINT (when handlers can be installed — the main thread's
    loop on POSIX) trigger the graceful drain instead of killing the
    process: the socket keeps answering (submissions get ``503 +
    Retry-After``, status/result reads still work, open long polls
    answer at once) while the in-flight job gets ``drain_timeout_s`` to
    finish, then the coroutine returns normally so the CLI exits 0.

    Every loaded ``repro`` source is pinned first
    (:func:`repro.engine.deps.pin_loaded`), so the server's result keys
    describe the code it started with, and ``/v1/health`` reports any
    later edit on disk as ``code_drift``.
    """
    pin_loaded()
    resumed = app.recover()
    loop = asyncio.get_running_loop()
    # Listening before the socket opens: no long poll can miss a settle.
    waiters = _Waiters(loop)
    app.on_settle = waiters.settle_soon
    handlers: set[asyncio.Task] = set()

    async def _on_connect(
        reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        handlers.add(task)
        try:
            await _handle_connection(app, waiters, reader, writer)
        finally:
            handlers.discard(task)

    server = await asyncio.start_server(_on_connect, host=host, port=port)
    bound = server.sockets[0].getsockname()
    print(
        f"repro.service: listening on http://{bound[0]}:{bound[1]} "
        f"(root={app.root}, resumed={len(resumed)} job"
        f"{'' if len(resumed) == 1 else 's'}"
        f"{', paused' if paused else ''})",
        flush=True,
    )
    if ready_file is not None:
        # Atomic: pollers wait on the path appearing, so it must never
        # be observable half-written.
        target = Path(ready_file)
        staging = target.with_name(target.name + ".tmp")
        staging.write_text(
            json.dumps({"host": bound[0], "port": bound[1]}), encoding="utf-8"
        )
        os.replace(staging, target)

    stop = asyncio.Event()

    def _initiate_drain(signame: str) -> None:
        app.begin_drain(signame)
        stop.set()

    if install_signal_handlers:
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(sig, _initiate_drain, sig.name)
            except (NotImplementedError, RuntimeError, ValueError):
                # Non-POSIX platform or a loop outside the main thread
                # (tests): cancellation remains the shutdown path.
                break

    worker_stop = threading.Event()

    def _start_worker() -> threading.Thread:
        epoch = app.worker_epoch
        thread = threading.Thread(
            target=_worker_loop,
            args=(app, epoch, worker_stop),
            name=f"repro-service-worker-{epoch}",
            daemon=True,  # a wedged job must never block process exit
        )
        thread.start()
        return thread

    if not paused:
        _start_worker()

    interval = (
        watchdog_interval_s
        if watchdog_interval_s is not None
        else max(0.05, min(1.0, app.stall_timeout_s / 4.0))
    )

    async def _watchdog() -> None:
        while True:
            await asyncio.sleep(interval)
            event = app.watchdog_check()
            if event is not None:
                requeued = ", ".join(event["requeued"]) or "none"
                print(
                    f"repro.service: watchdog stalled worker after "
                    f"{event['stalled_for_s']:.1f}s (requeued: {requeued}); "
                    f"restarting on epoch {event['epoch']}",
                    flush=True,
                )
                _start_worker()

    watchdog_task = None if paused else asyncio.ensure_future(_watchdog())
    try:
        async with server:
            try:
                # start_server is already accepting; block until a shutdown
                # signal sets the stop event (or the caller cancels us).
                await stop.wait()
            finally:
                # Every open long poll answers now with its job's current
                # state, and every later one at once.
                waiters.close()
            # Drain with the socket still open: submissions during the
            # window get an honest 503 + Retry-After, not a dead port.
            outcome = await asyncio.to_thread(
                app.drain, drain_timeout_s, app.drain_reason or "signal"
            )
            # Answered long polls, like any request in flight, finish
            # writing before the loop stops and cancels them.
            if handlers:
                await asyncio.wait(set(handlers), timeout=drain_timeout_s)
            checkpointed = len(outcome["checkpointed"])
            print(
                f"repro.service: drained ({outcome['reason']}) — "
                f"{checkpointed} job{'' if checkpointed == 1 else 's'} "
                f"checkpointed, {outcome['orphan_segments_swept']} orphan "
                f"segment{'' if outcome['orphan_segments_swept'] == 1 else 's'} "
                f"swept, record "
                f"{'journaled' if outcome['journaled'] else 'lost'}",
                flush=True,
            )
    finally:
        worker_stop.set()
        app.on_settle = None
        if watchdog_task is not None:
            watchdog_task.cancel()
