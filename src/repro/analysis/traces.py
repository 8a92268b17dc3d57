"""Trace analyzer: run the VEC rules over any benchmark's trace builder.

Two pieces:

* :func:`analyze_trace` — run every rule in
  :data:`repro.analysis.rules.ALL_RULES` over one
  :class:`~repro.machine.operations.Trace` against a vector-machine model
  (the SX-4 by default) and collect the findings in a
  :class:`~repro.analysis.diagnostics.DiagnosticReport`.
* :data:`TRACE_BUILDERS` — a registry mapping stable benchmark ids
  (``radabs``, ``xpose``, ``ccm2``, ...) to zero-argument builders that
  produce each suite benchmark's trace at its representative size, so the
  CLI (``python -m repro.analysis trace radabs``) and the suite runner can
  analyze every benchmark by name.

:data:`EXPERIMENT_TRACE_IDS` links suite experiment ids to the registry,
which is how :mod:`repro.suite.runner` attaches per-experiment diagnostic
summaries to its reports.
"""

from __future__ import annotations

from typing import Callable

from repro.analysis.diagnostics import Diagnostic, DiagnosticReport
from repro.analysis.rules import ALL_RULES
from repro.apps.ccm2 import costmodel as ccm2_cost
from repro.apps.mom import costmodel as mom_cost
from repro.apps.mom.grid import OceanGrid
from repro.apps.pop import costmodel as pop_cost
from repro.kernels import copy as kcopy
from repro.kernels import (
    elefunt,
    hint,
    ia,
    linpack,
    nas,
    radabs,
    rfft,
    stream,
    vfft,
    xpose,
)
from repro.machine.operations import Trace
from repro.machine.presets import sx4_processor
from repro.machine.processor import Processor

__all__ = [
    "MAX_FINDINGS_PER_RULE",
    "analyze_trace",
    "TRACE_BUILDERS",
    "EXPERIMENT_TRACE_IDS",
    "build_registered_trace",
    "analyze_benchmark",
    "experiment_summaries",
]


#: Per-op rules firing on more ops than this are collapsed into one
#: aggregate diagnostic (a LINPACK factorisation is ~1000 shrinking axpys;
#: a thousand copies of the same finding explain nothing).
MAX_FINDINGS_PER_RULE = 4


def _aggregate(diagnostics: list) -> list:
    """Collapse rule floods: keep the worst finding, note the spread."""
    if len(diagnostics) <= MAX_FINDINGS_PER_RULE:
        return diagnostics
    worst = max(diagnostics, key=lambda d: d.predicted_impact or 0.0)
    indices = sorted(d.op_index for d in diagnostics if d.op_index is not None)
    span = f"ops[{indices[0]}..{indices[-1]}]" if indices else worst.location
    return [
        Diagnostic(
            rule_id=worst.rule_id,
            severity=worst.severity,
            location=span,
            message=f"[{len(diagnostics)} ops, worst at {worst.location}] {worst.message}",
            predicted_impact=worst.predicted_impact,
            op_index=worst.op_index,
        )
    ]


def analyze_trace(trace: Trace, processor: Processor | None = None) -> DiagnosticReport:
    """Run all VEC rules over a trace; findings in rule-id order.

    The processor must be a vector machine (the rules interrogate its
    vector unit and banked memory); the calibrated SX-4 is the default.
    Rules that fire on more than :data:`MAX_FINDINGS_PER_RULE` ops are
    collapsed to one aggregate diagnostic carrying the worst case.
    """
    processor = processor or sx4_processor()
    if not processor.is_vector_machine:
        raise ValueError(
            f"trace analysis needs a vector machine model, got {processor.name!r}"
        )
    report = DiagnosticReport(subject=trace.name)
    for rule in ALL_RULES:
        report.diagnostics.extend(_aggregate(rule(trace, processor)))
    return report


def _mom_step() -> Trace:
    """One MOM timestep at the Table 7 grid, diagnostics amortised."""
    grid = OceanGrid.benchmark()
    step = (
        mom_cost.baroclinic_trace(grid)
        + mom_cost.barotropic_trace(grid, mom_cost.SOR_ITERATIONS)
        + mom_cost.diagnostics_trace(grid).scaled(1.0 / mom_cost.DIAGNOSTIC_INTERVAL)
    )
    step.name = "MOM 1° step"
    return step


#: Benchmark id -> (description, zero-argument trace builder) at each
#: benchmark's representative size.  Ids are what the CLI and the suite
#: integration use; keep them stable.
TRACE_BUILDERS: dict[str, tuple[str, Callable[[], Trace]]] = {
    "copy": (
        "NCAR COPY kernel, N=65536 M=16 (Figure 5)",
        lambda: kcopy.build_trace(65536, 16),
    ),
    "ia": (
        "NCAR IA indirect-addressing kernel, N=65536 M=16 (Figure 5)",
        lambda: ia.build_trace(65536, 16),
    ),
    "xpose": (
        "NCAR XPOSE transpose kernel, 512x512 (Figure 5)",
        lambda: xpose.build_trace(512, 512),
    ),
    "stream": (
        "STREAM TRIAD at the standard array size (Section 3.1)",
        lambda: stream.build_trace("TRIAD"),
    ),
    "linpack": (
        "LINPACK n=1000 solve (Section 3.1 / Table 2)",
        lambda: linpack.build_trace(1000),
    ),
    "hint": (
        "HINT hierarchical-integration loop (Table 1)",
        lambda: hint.build_trace(1_000_000),
    ),
    "nas-ep": (
        "NAS EP, 2^24 pseudorandom pairs (Section 3.2)",
        lambda: nas.ep_trace(1 << 24),
    ),
    "rfft": (
        "FFTPACK scalar-style real FFT, 1024-point x 64 (Figure 6)",
        lambda: rfft.build_trace(1024, 64),
    ),
    "vfft": (
        "Vectorised multiple real FFT, 1024-point x 512 (Figure 7)",
        lambda: vfft.build_trace(1024, 512),
    ),
    "elefunt": (
        "ELEFUNT EXP throughput loop (Table 3)",
        lambda: elefunt.throughput_trace("exp"),
    ),
    "radabs": (
        "RADABS, vectorised coding style, T42 columns (Section 4.4)",
        lambda: radabs.build_trace(8192),
    ),
    "radabs-scalar": (
        "RADABS, pre-rewrite scalar coding style (Section 4.4)",
        lambda: radabs.build_scalar_trace(8192),
    ),
    "ccm2": (
        "CCM2 T42 timestep, all phases (Section 4 / Table 4)",
        lambda: ccm2_cost.step_trace("T42").total,
    ),
    "mom": (
        "MOM 1° 45-level timestep (Section 4.7 / Table 7)",
        _mom_step,
    ),
    "pop": (
        "POP 2° step as benchmarked: scalar CSHIFT (Section 4.7.3)",
        lambda: pop_cost.step_trace(),
    ),
    "pop-vector": (
        "POP 2° step with CSHIFT vectorised (Section 4.7.3 diagnosis)",
        lambda: pop_cost.step_trace(cshift_vectorized=True),
    ),
}

#: Suite experiment id -> benchmark ids whose diagnostics the runner
#: attaches to that experiment's report.  Experiments with no trace-driven
#: content (architecture tables, correctness probes, I/O) are absent.
EXPERIMENT_TRACE_IDS: dict[str, tuple[str, ...]] = {
    "sec3": ("linpack", "stream", "nas-ep"),
    "table1": ("hint", "radabs"),
    "table2": ("linpack",),
    "figure5": ("copy", "ia", "xpose"),
    "figure6": ("rfft",),
    "figure7": ("vfft",),
    "table3": ("elefunt",),
    "sec4.4": ("radabs-scalar", "radabs"),
    "table4": ("ccm2",),
    "figure8": ("ccm2",),
    "table5": ("ccm2",),
    "table6": ("ccm2",),
    "sec4.6": ("ccm2",),
    "table7": ("mom",),
    "sec4.7.3": ("pop", "pop-vector"),
}


def build_registered_trace(trace_id: str) -> Trace:
    """Build the registry trace for one benchmark id."""
    try:
        _, builder = TRACE_BUILDERS[trace_id]
    except KeyError:
        known = ", ".join(sorted(TRACE_BUILDERS))
        raise KeyError(f"unknown benchmark id {trace_id!r}; known ids: {known}") from None
    return builder()


def analyze_benchmark(
    trace_id: str, processor: Processor | None = None
) -> DiagnosticReport:
    """Analyze one registered benchmark's trace by id."""
    return analyze_trace(build_registered_trace(trace_id), processor)


def experiment_summaries(
    exp_id: str, processor: Processor | None = None
) -> list[tuple[str, DiagnosticReport]]:
    """(benchmark id, report) pairs for one suite experiment.

    Empty for experiments with no registered traces; the suite runner
    renders each pair as one summary line.
    """
    processor = processor or sx4_processor()
    return [
        (trace_id, analyze_benchmark(trace_id, processor))
        for trace_id in EXPERIMENT_TRACE_IDS.get(exp_id, ())
    ]
