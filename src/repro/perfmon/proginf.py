"""PROGINF: the SX-style end-of-run hardware-counter summary.

NEC's PROGINF printed, after every run, the counters the paper's whole
argument rests on: real/vector time, instruction and vector-element
counts, FLOP count, Mflops, average vector length, vector-operation
ratio, and memory/bank-conflict time.  This module derives exactly
those quantities from a populated
:class:`~repro.perfmon.counters.CounterSet` and renders the classic
report — per kernel, the way FTRACE regions sectioned it.

Definitions (matching the counter emulation in :mod:`repro.machine`):

* **vector operation ratio** = vector elements / (vector elements +
  scalar instructions),
* **average vector length** = vector elements / vector instructions,
  where an instruction is one strip-mined issue (register-length cap),
* **Mflops** = Cray-equivalent flops / real time (the tables' units).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

from repro.analysis.traces import TRACE_BUILDERS
from repro.machine.operations import Trace
from repro.machine.presets import sx4_processor
from repro.machine.processor import ExecutionReport, Processor
from repro.perfmon.collector import Profile, profile
from repro.perfmon.counters import CounterSet
from repro.units import MEGA

__all__ = [
    "APPLICATION_IDS",
    "KERNEL_IDS",
    "ProginfMetrics",
    "KernelProfile",
    "profile_trace",
    "profile_kernels",
    "render_proginf",
    "proginf_report",
]

#: The three full geophysical applications; everything else registered
#: in :data:`repro.analysis.traces.TRACE_BUILDERS` is kernel-grade.
APPLICATION_IDS = ("ccm2", "mom", "pop")

#: The 13 kernel traces PROGINF sections are emitted for (the NCAR
#: kernels at their representative sizes, including both RADABS coding
#: styles and the vectorised-CSHIFT POP diagnosis loop).
KERNEL_IDS: tuple[str, ...] = tuple(
    trace_id for trace_id in TRACE_BUILDERS if trace_id not in APPLICATION_IDS
)


@dataclass(frozen=True)
class ProginfMetrics:
    """The derived PROGINF quantities for one counter set."""

    real_time_s: float
    vector_time_s: float
    scalar_time_s: float
    instructions: float  # scalar issue slots (PROGINF "Inst. Count")
    vector_instructions: float
    vector_elements: float
    flops: float  # genuine adds/multiplies
    flop_equivalents: float  # with Cray-HPM intrinsic credits
    mflops: float  # flop-equivalents / real time
    raw_mflops: float
    avg_vector_length: float
    vector_op_ratio: float  # in [0, 1]
    memory_busy_s: float
    bank_conflict_s: float
    intrinsic_calls: float
    cache_hit_words: float = 0.0
    cache_miss_words: float = 0.0

    @classmethod
    def from_counters(cls, counters: CounterSet) -> "ProginfMetrics":
        """Derive every PROGINF quantity from recorded counters alone."""
        seconds = counters.get("processor", "seconds")
        cycles = counters.get("processor", "cycles")
        # cycle -> second conversion as recorded (one clock per profile
        # in per-kernel use; a best-effort average across machines in
        # whole-suite aggregates).
        second_per_cycle = seconds / cycles if cycles > 0 else 0.0
        vector_elements = counters.get("vector_unit", "vector_elements")
        vector_instructions = counters.get("vector_unit", "vector_instructions")
        instructions = counters.get("scalar_unit", "instructions")
        flops = counters.get("vector_unit", "flops") + counters.get("scalar_unit", "flops")
        equiv = counters.get("vector_unit", "flop_equivalents") + counters.get(
            "scalar_unit", "flop_equivalents"
        )
        denom = vector_elements + instructions
        return cls(
            real_time_s=seconds,
            vector_time_s=counters.get("processor", "vector_cycles") * second_per_cycle,
            scalar_time_s=counters.get("processor", "scalar_cycles") * second_per_cycle,
            instructions=instructions,
            vector_instructions=vector_instructions,
            vector_elements=vector_elements,
            flops=flops,
            flop_equivalents=equiv,
            mflops=equiv / seconds / MEGA if seconds > 0 else 0.0,
            raw_mflops=flops / seconds / MEGA if seconds > 0 else 0.0,
            avg_vector_length=(
                vector_elements / vector_instructions if vector_instructions > 0 else 0.0
            ),
            vector_op_ratio=vector_elements / denom if denom > 0 else 0.0,
            memory_busy_s=counters.get("memory", "transfer_cycles") * second_per_cycle,
            bank_conflict_s=counters.get("memory", "bank_conflict_cycles") * second_per_cycle,
            intrinsic_calls=(
                counters.get("vector_unit", "intrinsic_calls")
                + counters.get("scalar_unit", "intrinsic_calls")
            ),
            cache_hit_words=counters.get("cache", "hit_words"),
            cache_miss_words=counters.get("cache", "miss_words"),
        )

    def to_dict(self) -> dict[str, float]:
        return asdict(self)


@dataclass
class KernelProfile:
    """One kernel's counters and derived metrics, ready to export."""

    trace_id: str
    description: str
    counters: CounterSet = field(default_factory=CounterSet)
    metrics: ProginfMetrics | None = None

    def to_dict(self) -> dict:
        return {
            "trace_id": self.trace_id,
            "description": self.description,
            "counters": self.counters.to_dict(),
            "metrics": self.metrics.to_dict() if self.metrics is not None else None,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "KernelProfile":
        counters = CounterSet.from_dict(payload.get("counters", {}))
        metrics = payload.get("metrics")
        return cls(
            trace_id=str(payload["trace_id"]),
            description=str(payload.get("description", "")),
            counters=counters,
            metrics=ProginfMetrics(**metrics) if metrics else None,
        )


def profile_trace(
    trace: Trace, processor: Processor | None = None
) -> tuple[ExecutionReport, Profile]:
    """Execute a trace under a fresh profile; return report + profile.

    The default machine is the calibrated SX-4 — the machine whose
    PROGINF the subsystem emulates.
    """
    processor = processor or sx4_processor()
    with profile(machine=processor.name, trace=trace.name) as prof:
        report = processor.execute(trace)
    return report, prof


def profile_kernels(
    trace_ids: tuple[str, ...] | list[str] | None = None,
    processor: Processor | None = None,
) -> dict[str, KernelProfile]:
    """Profile registered kernel traces, each in its own counter set."""
    ids = KERNEL_IDS if trace_ids is None else tuple(trace_ids)
    processor = processor or sx4_processor()
    kernels: dict[str, KernelProfile] = {}
    for trace_id in ids:
        try:
            description, builder = TRACE_BUILDERS[trace_id]
        except KeyError:
            known = ", ".join(sorted(TRACE_BUILDERS))
            raise KeyError(
                f"unknown benchmark id {trace_id!r}; known ids: {known}"
            ) from None
        _, prof = profile_trace(builder(), processor)
        kernels[trace_id] = KernelProfile(
            trace_id=trace_id,
            description=description,
            counters=prof.counters,
            metrics=ProginfMetrics.from_counters(prof.counters),
        )
    return kernels


def _fmt_count(value: float) -> str:
    return f"{value:,.0f}"


def render_proginf(metrics: ProginfMetrics, title: str = "") -> str:
    """The classic PROGINF block for one counter set."""
    lines = ["******  Program Information  ******"]
    if title:
        lines.append(f"  Program                   : {title}")
    rows = [
        ("Real Time (sec)", f"{metrics.real_time_s:14.6f}"),
        ("Vector Time (sec)", f"{metrics.vector_time_s:14.6f}"),
        ("Scalar Time (sec)", f"{metrics.scalar_time_s:14.6f}"),
        ("Inst. Count", _fmt_count(metrics.instructions)),
        ("V. Inst. Count", _fmt_count(metrics.vector_instructions)),
        ("V. Element Count", _fmt_count(metrics.vector_elements)),
        ("FLOP Count", _fmt_count(metrics.flop_equivalents)),
        ("MFLOPS", f"{metrics.mflops:14.1f}"),
        ("MFLOPS (raw)", f"{metrics.raw_mflops:14.1f}"),
        ("Average Vector Length", f"{metrics.avg_vector_length:14.1f}"),
        ("Vector Op. Ratio (%)", f"{metrics.vector_op_ratio * 100.0:14.4f}"),
        ("Memory Busy Time (sec)", f"{metrics.memory_busy_s:14.6f}"),
        ("Bank Conflict Time (sec)", f"{metrics.bank_conflict_s:14.6f}"),
        ("Intrinsic Call Count", _fmt_count(metrics.intrinsic_calls)),
    ]
    if metrics.cache_hit_words or metrics.cache_miss_words:
        rows.append(("Cache Hit Words", _fmt_count(metrics.cache_hit_words)))
        rows.append(("Cache Miss Words", _fmt_count(metrics.cache_miss_words)))
    lines.extend(f"  {label:<26}: {value.strip():>18}" for label, value in rows)
    return "\n".join(lines)


def proginf_report(kernels: dict[str, KernelProfile]) -> str:
    """PROGINF sections for several kernels, in registry order."""
    sections = []
    for trace_id, kernel in kernels.items():
        metrics = kernel.metrics or ProginfMetrics.from_counters(kernel.counters)
        sections.append(render_proginf(metrics, title=f"{trace_id} — {kernel.description}"))
    return "\n\n".join(sections)
