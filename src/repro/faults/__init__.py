"""Fault injection and resilience: the system under perturbation.

The paper's Section 2 machine is built to keep running — SUPER-UX
checkpoint/restart "with no special programming" (2.6.2), NQS
requeueing (2.6.3), hardware operating with resources configured out.
This package models both halves of that claim:

``inject``
    the fault vocabulary (crash/error/timeout/slow/corrupt), the named
    hook sites in the engine, and the deterministic injector;
``plan``
    seeded :class:`FaultPlan` sampling — one seed expands to a
    concrete, portable action list;
``retry``
    bounded retry with exponential backoff and *deterministic* jitter,
    plus the pool-to-serial graceful-degradation policy;
``degraded``
    any machine preset with pipes, banks, IXS lanes or IOPs offline —
    still priced bit-identically to the per-op oracle;
``recovery``
    checkpoint/restart harnesses asserting kill-and-restore
    integrations finish bit-identical to uninterrupted ones;
``chaos``
    the end-to-end harness (``python -m repro.faults chaos --seed N``)
    that runs the suite under a sampled plan and asserts the standing
    invariants.

Determinism is the design constraint throughout: every fault decision
derives from the seed, so a chaos run is as replayable as the
simulator it perturbs.
"""

from repro.faults.degraded import (
    DegradedMachine,
    Degradation,
    degrade_crossbar,
    degrade_iop,
    degrade_node,
    degrade_processor,
    standard_degradations,
)
from repro.faults.inject import (
    FAULT_KINDS,
    FAULT_SITES,
    FaultAction,
    FaultInjector,
    fault_point,
)
from repro.faults.plan import FaultPlan
from repro.faults.retry import RetryPolicy, chaos_retry_policy

__all__ = [
    "DegradedMachine",
    "Degradation",
    "degrade_crossbar",
    "degrade_iop",
    "degrade_node",
    "degrade_processor",
    "standard_degradations",
    "FAULT_KINDS",
    "FAULT_SITES",
    "FaultAction",
    "FaultInjector",
    "fault_point",
    "FaultPlan",
    "RetryPolicy",
    "chaos_retry_policy",
]
