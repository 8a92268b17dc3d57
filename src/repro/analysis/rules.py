"""Trace rules: the vectorization anti-patterns of Section 4.4, as lint.

Each rule inspects a :class:`~repro.machine.operations.Trace` against a
calibrated vector-machine model *before* pricing and reports the coding
styles the paper says decide SX-4 performance:

========  =====================================================  ========
rule      finding                                                severity
========  =====================================================  ========
VEC001    vector length below the half-performance length n½     warning
VEC002    constant stride causing bank conflicts                 warning
VEC003    gather/scatter-dominated memory traffic                warning
VEC004    scalar-op-dominated trace (vector ≫ scalar rule)       warning
VEC005    arithmetic intensity below the machine balance         info
VEC006    intrinsic-heavy loop (vector intrinsic pipes decide)   info
========  =====================================================  ========

Every diagnostic carries a predicted-impact factor computed from the same
analytic model that prices the trace, so the output is quantitative: a
stride-512 access on 1024 two-cycle banks reports the ~8x bank-conflict
slowdown it is actually being charged.

Per-op rules (VEC001/2/3/6) fire on individual :class:`VectorOp` entries;
trace-level rules (VEC004/5) judge the aggregate.  A rule is a callable
``(trace, processor) -> list[Diagnostic]`` registered in :data:`ALL_RULES`.
"""

from __future__ import annotations

from typing import Callable

from repro.analysis.diagnostics import Diagnostic, Severity
from repro.machine.compiled import fsum
from repro.machine.operations import INTRINSIC_FLOP_EQUIV, ScalarOp, Trace, VectorOp
from repro.machine.processor import Processor

__all__ = [
    "SCALAR_FRACTION_THRESHOLD",
    "ALL_RULES",
    "rule_vec001_short_vectors",
    "rule_vec002_bank_conflict_stride",
    "rule_vec003_gather_dominated",
    "rule_vec004_scalar_dominated",
    "rule_vec005_low_intensity",
    "rule_vec006_intrinsic_heavy",
]

#: VEC004 fires when scalar ops consume more than this fraction of the
#: modelled cycles.  30% scalar time already caps speedup at ~3.3x
#: (Amdahl), far below what the rewrite of Section 4.4 achieved.
SCALAR_FRACTION_THRESHOLD = 0.3

RuleFn = Callable[[Trace, Processor], list[Diagnostic]]


def _vector_ops(trace: Trace):
    """(index, op) pairs for the vector ops of a trace, skipping idle ones."""
    for i, op in enumerate(trace):
        if isinstance(op, VectorOp) and op.count > 0:
            yield i, op


def _op_location(i: int, op: VectorOp | ScalarOp) -> str:
    return f"op[{i}] {op.name!r}"


def rule_vec001_short_vectors(trace: Trace, processor: Processor) -> list[Diagnostic]:
    """VEC001: vector loop shorter than the half-performance length.

    Below Hockney's n½ (= startup_cycles x pipes; 320 on the SX-4) a loop
    spends more cycles filling pipelines than computing.  Impact is the
    modelled overhead dilation: (startup + busy) / busy cycles per
    execution — the factor a rewrite to asymptotic-length vectors recovers.
    """
    assert processor.vector is not None and processor.memory is not None
    n_half = processor.vector.half_performance_length
    found = []
    for i, op in enumerate(trace):
        if not isinstance(op, VectorOp) or op.count <= 0:
            continue
        if op.length >= n_half:
            continue
        busy = max(
            processor.vector.arithmetic_cycles(op), processor.memory.transfer_cycles(op)
        )
        overhead = processor.vector.overhead_cycles(op)
        impact = (overhead + busy) / busy if busy > 0 else float(overhead)
        found.append(
            Diagnostic(
                rule_id="VEC001",
                severity=Severity.WARNING,
                location=_op_location(i, op),
                message=(
                    f"vector length {op.length} is below the half-performance "
                    f"length n½={n_half}; the loop is startup-dominated — "
                    f"restructure so the long axis is innermost"
                ),
                predicted_impact=impact,
                op_index=i,
            )
        )
    return found


def rule_vec002_bank_conflict_stride(trace: Trace, processor: Processor) -> list[Diagnostic]:
    """VEC002: constant stride sharing a large factor with the bank count.

    Stride s on B banks cycles through only B/gcd(s, B) banks; once that
    subset cannot cover the port width within the bank busy time, loads
    serialise.  Impact is the modelled bank-conflict factor (8x for stride
    512 on 1024 two-cycle banks).
    """
    assert processor.memory is not None
    memory = processor.memory
    found = []
    for i, op in _vector_ops(trace):
        for stride, words, path in (
            (op.load_stride, op.loads_per_element, "load"),
            (op.store_stride, op.stores_per_element, "store"),
        ):
            if words <= 0:
                continue
            conflict = memory.conflict_factor(stride)
            if conflict <= 1.0:
                continue
            found.append(
                Diagnostic(
                    rule_id="VEC002",
                    severity=Severity.WARNING,
                    location=_op_location(i, op),
                    message=(
                        f"{path} stride {stride} hits only "
                        f"{memory.distinct_banks(stride)} of {memory.banks} banks: "
                        f"~{conflict:.0f}x {path} slowdown — pad the leading "
                        f"dimension to an odd stride"
                    ),
                    predicted_impact=conflict,
                    op_index=i,
                )
            )
    return found


def rule_vec003_gather_dominated(trace: Trace, processor: Processor) -> list[Diagnostic]:
    """VEC003: loop moving at least as many indexed as sequential words.

    List-vector access pays the gather dilation plus index-vector traffic
    on the load path.  Impact compares the op's modelled memory time with
    the same words moved at unit stride.
    """
    assert processor.memory is not None
    memory = processor.memory
    found = []
    for i, op in _vector_ops(trace):
        indexed = op.indexed_words
        if indexed <= 0 or indexed < op.sequential_words:
            continue
        actual = memory.transfer_cycles(op)
        ideal = max(
            (op.loads_per_element + op.gather_loads_per_element) * op.length,
            (op.stores_per_element + op.scatter_stores_per_element) * op.length,
        ) / memory.path_words_per_cycle
        impact = actual / ideal if ideal > 0 else None
        found.append(
            Diagnostic(
                rule_id="VEC003",
                severity=Severity.WARNING,
                location=_op_location(i, op),
                message=(
                    f"gather/scatter moves {indexed:.0f} of "
                    f"{indexed + op.sequential_words:.0f} words per execution "
                    f"(list-vector dominated) — precompute a sorted index or "
                    f"restructure to constant stride"
                ),
                predicted_impact=impact,
                op_index=i,
            )
        )
    return found


def rule_vec004_scalar_dominated(trace: Trace, processor: Processor) -> list[Diagnostic]:
    """VEC004: scalar ops consume an Amdahl-limiting share of the cycles.

    The paper's first coding-style rule: vector speed dwarfs scalar speed,
    so any trace whose scalar bookkeeping exceeds ~30% of modelled time is
    style-broken.  Impact is the Amdahl bound 1/(1-f) currently forfeited.
    """
    costed = list(zip(trace.ops, processor.execute(trace).op_cycles.tolist()))
    scalar_cycles = fsum(c for op, c in costed if isinstance(op, ScalarOp))
    vector_cycles = fsum(c for op, c in costed if isinstance(op, VectorOp))
    total_cycles = scalar_cycles + vector_cycles
    if total_cycles <= 0:
        return []
    fraction = scalar_cycles / total_cycles
    if fraction <= SCALAR_FRACTION_THRESHOLD:
        return []
    # At 100% scalar there is no vector part to amortise against; leave
    # the impact unquantified rather than reporting an infinite factor.
    impact = 1.0 / (1.0 - fraction) if fraction < 1.0 else None
    return [
        Diagnostic(
            rule_id="VEC004",
            severity=Severity.WARNING,
            location=f"trace {trace.name!r}",
            message=(
                f"scalar ops take {100 * fraction:.0f}% of modelled cycles "
                f"(threshold {100 * SCALAR_FRACTION_THRESHOLD:.0f}%); the "
                f"vector ≫ scalar rule says move this work into vector "
                f"loops"
            ),
            predicted_impact=impact,
        )
    ]


def rule_vec005_low_intensity(trace: Trace, processor: Processor) -> list[Diagnostic]:
    """VEC005: arithmetic intensity below the machine's flops:words balance.

    With intensity (flop-equivalents per word moved) under the balance
    point — peak flops per cycle over port words per cycle, 1.0 on the
    SX-4 — the memory port, not the pipes, bounds the rate.  Impact is the
    balance-to-intensity ratio: the headroom the pipes cannot reach.
    """
    assert processor.vector is not None and processor.memory is not None
    words = trace.words_moved
    if words <= 0:
        return []
    intensity = trace.flop_equivalents / words
    balance = processor.vector.peak_flops_per_cycle / processor.memory.port_words_per_cycle
    if intensity >= balance:
        return []
    impact = balance / intensity if intensity > 0 else None
    return [
        Diagnostic(
            rule_id="VEC005",
            severity=Severity.INFO,
            location=f"trace {trace.name!r}",
            message=(
                f"arithmetic intensity {intensity:.2f} flops/word is below the "
                f"machine balance {balance:.2f}: memory-bandwidth bound, "
                f"expect ≤{100 * intensity / balance:.0f}% of peak"
            ),
            predicted_impact=impact,
        )
    ]


def rule_vec006_intrinsic_heavy(trace: Trace, processor: Processor) -> list[Diagnostic]:
    """VEC006: loop whose cost is decided by the vector intrinsic pipes.

    Fires when intrinsic flop-equivalents exceed the genuine flops *and*
    the intrinsic pipeline time exceeds the add/multiply time — the RADABS
    profile, where EXP/LOG/PWR throughput, not peak Mflops, predicts the
    machine ranking.  Informational: the cure is a faster math library,
    not a loop restructure.  Impact is the op slowdown relative to the
    same loop with free intrinsics.
    """
    assert processor.vector is not None
    vector = processor.vector
    found = []
    for i, op in _vector_ops(trace):
        if not op.intrinsic_calls:
            continue
        equiv = sum(
            INTRINSIC_FLOP_EQUIV[name] * per for name, per in op.intrinsic_calls
        )
        if equiv <= op.flops_per_element:
            continue
        intrinsic_cycles = sum(
            op.length * per * vector.intrinsic_cycles_per_element[name]
            for name, per in op.intrinsic_calls
        )
        flop_cycles = vector.arithmetic_cycles(op) - intrinsic_cycles
        if intrinsic_cycles <= flop_cycles:
            continue
        impact = (
            (intrinsic_cycles + flop_cycles) / flop_cycles if flop_cycles > 0 else None
        )
        mix = ", ".join(f"{name} {per:g}/elem" for name, per in op.intrinsic_calls)
        found.append(
            Diagnostic(
                rule_id="VEC006",
                severity=Severity.INFO,
                location=_op_location(i, op),
                message=(
                    f"intrinsic-heavy loop ({mix}): library throughput, not "
                    f"peak Mflops, bounds this op — rank machines by intrinsic "
                    f"pipes (Table 3)"
                ),
                predicted_impact=impact,
                op_index=i,
            )
        )
    return found


#: All trace rules, in rule-id order; the analyzer runs them in sequence.
ALL_RULES: tuple[RuleFn, ...] = (
    rule_vec001_short_vectors,
    rule_vec002_bank_conflict_stride,
    rule_vec003_gather_dominated,
    rule_vec004_scalar_dominated,
    rule_vec005_low_intensity,
    rule_vec006_intrinsic_heavy,
)
