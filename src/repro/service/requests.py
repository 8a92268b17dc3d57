"""The service request model: canonical bodies and deterministic job ids.

A job submission is a JSON object; :func:`validate_request` normalizes
it into the **canonical request** — defaults filled in explicitly,
values coerced to their canonical types, keys fixed — and
:func:`request_job_id` digests the canonical form.  Two clients that
ask for the same work therefore compute the same job id on any
machine, which is the property the whole service leans on:

* submissions are idempotent — re-POSTing a body lands on the existing
  job record instead of a duplicate;
* a completed job is a **content-addressed result** — the second
  identical submission is served from the spool in one read, marked
  ``cache: hit``, and the executor never runs;
* a killed-and-restarted server resumes a pending job under the same
  id, so clients polling across the restart never lose their handle.

The ``tag`` field is the idempotency escape hatch: clients that want
two runs of identical work (load tests, soak runs) vary the tag, which
is folded into the digest but ignored by execution.

``deadline_s`` is the opposite: validated here
(:func:`validate_deadline`) but deliberately **excluded** from the
canonical request — a deadline bounds *when* work is worth doing, not
*what* the work is, so the same submission with a different deadline
must land on the same content-addressed job (and its cached result).
"""

from __future__ import annotations

import hashlib
import json
import math
import sys

from repro.faults.plan import FaultPlan
from repro.machine.presets import PRESET_FACTORIES
from repro.service.resolve import JOB_RESOLVERS

__all__ = [
    "REQUEST_SCHEMA",
    "DEFAULT_TENANT",
    "RequestError",
    "validate_request",
    "validate_deadline",
    "MAX_WAIT_S",
    "validate_wait",
    "check_buildable",
    "request_bytes",
    "request_job_id",
]

REQUEST_SCHEMA = 1

DEFAULT_TENANT = "public"

#: The longest a status request may wait for its job to settle, in
#: seconds; below the client's 30 s socket timeout, so a long poll
#: never outlasts the connection carrying it.
MAX_WAIT_S = 20.0


class RequestError(ValueError):
    """A submission body the service rejects (HTTP 400)."""


def _canonical_axes(axes: object) -> list[dict]:
    if not isinstance(axes, list):
        raise RequestError("sweep 'axes' must be a list of axis objects")
    canonical = []
    for axis in axes:
        if not isinstance(axis, dict) or "parameter" not in axis or "values" not in axis:
            raise RequestError(
                "each sweep axis needs 'parameter' and 'values' fields"
            )
        if not isinstance(axis["values"], list):
            raise RequestError("axis 'values' must be a list of numbers")
        try:
            values = [float(v) for v in axis["values"]]
        except (OverflowError, TypeError, ValueError) as exc:
            raise RequestError(f"axis values must be numbers: {exc}") from exc
        if not all(math.isfinite(v) for v in values):
            raise RequestError("axis values must be finite numbers")
        canonical.append({"parameter": str(axis["parameter"]), "values": values})
    return canonical


def _canonical_suite(payload: dict) -> dict:
    ids = payload.get("ids") or []
    if not isinstance(ids, list) or any(not isinstance(i, str) for i in ids):
        raise RequestError("suite 'ids' must be a list of experiment id strings")
    canonical: dict = {"ids": list(ids)}
    fault_plan = payload.get("fault_plan")
    if fault_plan is not None:
        if not isinstance(fault_plan, dict):
            raise RequestError("invalid fault plan: it must be an object")
        try:
            canonical["fault_plan"] = FaultPlan.from_dict(fault_plan).to_dict()
        except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
            raise RequestError(f"invalid fault plan: {exc}") from exc
    return canonical


def _canonical_sweep(payload: dict) -> dict:
    anchor = payload.get("anchor", "sx4")
    if not isinstance(anchor, str) or anchor not in PRESET_FACTORIES:
        raise RequestError(
            f"unknown sweep anchor {anchor!r}; known: {', '.join(PRESET_FACTORIES)}"
        )
    traces = payload.get("traces") or []
    if not isinstance(traces, list) or any(not isinstance(t, str) for t in traces):
        raise RequestError("sweep 'traces' must be a list of trace id strings")
    dilation = payload.get("dilation", 1.0)
    if isinstance(dilation, bool) or not isinstance(dilation, (int, float)):
        raise RequestError("sweep 'dilation' must be a number")
    if not 1.0 <= dilation <= sys.float_info.max:  # rejects NaN and inf too
        raise RequestError("sweep 'dilation' must be a finite number >= 1")
    include_presets = payload.get("include_presets", False)
    if not isinstance(include_presets, bool):  # bool("false") would be True
        raise RequestError("sweep 'include_presets' must be true or false")
    return {
        "anchor": anchor,
        "axes": _canonical_axes(payload.get("axes", [])),
        "include_presets": include_presets,
        "traces": list(traces),
        "dilation": float(dilation),
    }


def validate_request(body: object, default_tenant: str = DEFAULT_TENANT) -> dict:
    """Normalize a submission body into its canonical request form.

    The canonical form is what gets digested, journaled, and resolved —
    every default is made explicit here so the same work always
    serializes to the same bytes, however sparsely the client wrote it.
    Raises :class:`RequestError` on anything malformed.
    """
    if not isinstance(body, dict):
        raise RequestError("request body must be a JSON object")
    kind = body.get("kind")
    if not isinstance(kind, str) or kind not in JOB_RESOLVERS:
        raise RequestError(
            f"unknown job kind {kind!r}; know {', '.join(JOB_RESOLVERS)}"
        )
    tenant = body.get("tenant", default_tenant)
    if not isinstance(tenant, str) or not tenant:
        raise RequestError("'tenant' must be a non-empty string")
    payload = body.get(kind, {})
    if not isinstance(payload, dict):
        raise RequestError(f"{kind!r} payload must be an object")
    canonical_payload = (
        _canonical_suite(payload) if kind == "suite" else _canonical_sweep(payload)
    )
    request = {
        "schema": REQUEST_SCHEMA,
        "kind": kind,
        "tenant": tenant,
        kind: canonical_payload,
        "tag": str(body.get("tag", "")),
    }
    # Resolution must succeed before a job id exists: a request that
    # cannot resolve (unknown experiment, bad sweep axis) is a 400, not
    # a job that fails later.
    try:
        JOB_RESOLVERS[kind](canonical_payload)
        request_bytes(request)  # the job id digests these: finite numbers only
    except (KeyError, OverflowError, TypeError, ValueError) as exc:
        raise RequestError(str(exc)) from exc
    return request


def validate_deadline(body: object) -> float | None:
    """The submission's ``deadline_s`` budget, validated; None if absent.

    Kept out of :func:`validate_request`'s canonical form on purpose —
    see the module docstring — so callers carry it on the job record
    instead of the digest.
    """
    if not isinstance(body, dict) or body.get("deadline_s") is None:
        return None
    raw = body["deadline_s"]
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        raise RequestError("'deadline_s' must be a number of seconds")
    try:
        deadline = float(raw)
    except OverflowError as exc:
        raise RequestError(f"'deadline_s' is out of range: {exc}") from exc
    if not 0 < deadline <= sys.float_info.max:  # rejects 0, negatives, NaN, inf
        raise RequestError("'deadline_s' must be a positive, finite number of seconds")
    return deadline


def validate_wait(raw: str) -> float:
    """A status request's ``wait_s`` query value, capped at :data:`MAX_WAIT_S`.

    Checked like :func:`validate_deadline`: a value that is not a
    number, negative, NaN or infinite raises :class:`RequestError`;
    zero answers at once.
    """
    try:
        wait = float(raw)
    except ValueError as exc:
        raise RequestError("'wait_s' must be a number of seconds") from exc
    if not 0 <= wait <= sys.float_info.max:  # rejects negatives, NaN, inf
        raise RequestError("'wait_s' must be a non-negative, finite number of seconds")
    return min(wait, MAX_WAIT_S)


def check_buildable(request: dict) -> None:
    """Build the work a new job for ``request`` would run, or raise.

    A sweep's range checks (positive clock, at least one pipe left
    after degradation, no vector axis on a cache anchor, ...) all live
    in :meth:`~repro.explore.sweep.ParameterSweep.build`, so a
    submission that would create a sweep job builds it once here: an
    unbuildable sweep is a 400 before any record is written, not a job
    that fails later.  Suite requests are fully checked by
    :func:`validate_request`.
    """
    if request["kind"] != "sweep":
        return
    try:
        JOB_RESOLVERS["sweep"](request["sweep"]).build()
    except (KeyError, MemoryError, OverflowError, TypeError, ValueError) as exc:
        # MemoryError: a grid too large to allocate (no size cap yet).
        raise RequestError(f"sweep cannot be built: {exc}") from exc


def request_bytes(request: dict) -> bytes:
    """The canonical serialized request — the bytes the job id digests.

    Strict JSON: a non-finite number raises ``ValueError``.
    """
    return json.dumps(
        request, sort_keys=True, separators=(",", ":"), allow_nan=False
    ).encode("utf-8")


def request_job_id(request: dict) -> str:
    """Deterministic job id: sha256 over the canonical request bytes."""
    return hashlib.sha256(request_bytes(request)).hexdigest()
