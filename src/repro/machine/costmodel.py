"""The analytic cost model, written once over op columns and machine parameters.

Every cost term of the machine model lives here as one NumPy expression
of two inputs:

* ``p``, the machine parameters, read by the column names of
  :class:`~repro.machine.grid.MachineGrid` (``pipes``, ``banks``,
  ``cache_line_bytes``, ...);
* ``v``/``s``, the :class:`~repro.machine.compiled.VectorColumns` /
  :class:`~repro.machine.compiled.ScalarColumns` of a compiled trace or
  a stacked suite.

One expression serves both costing paths.  A single
:class:`~repro.machine.processor.Processor` passes its parameter record
(:func:`parameter_row`, plain Python numbers) against the ``(n,)`` op
columns, so the one-machine path has no machine axis.  A
``MachineGrid`` passes its ``(m,)`` columns against :func:`grid_view`'s
``(n, 1)`` views of the op columns, and broadcasting yields ``(n, m)``.
IEEE-754 arithmetic is elementwise, so column ``j`` of a grid result is
bit-identical to the one-machine result of machine ``j``.

The per-op ``*_cycles`` methods of the components
(:class:`~repro.machine.vector_unit.VectorUnit`,
:class:`~repro.machine.memory.BankedMemory`,
:class:`~repro.machine.scalar_unit.ScalarUnit`,
:class:`~repro.machine.cache.CacheModel`) are the test oracle: each
expression below keeps the association of its per-op counterpart, and
intrinsics accumulate in the same sorted order (absent ones add an
exact 0.0), so per-op cycles agree bit for bit
(``tests/machine/test_compiled*.py``, ``test_golden_costing.py``).

Costing is a pure function of the op columns, the machine parameters
and the memory dilation.  The intermediate columns a costing computes
go into the caller's ``memo`` dict, one per call, where the perfmon
counter columns below reread them; nothing is kept in module globals
or on the column sets.
"""

from __future__ import annotations

from dataclasses import fields, replace

import numpy as np

from repro.machine.compiled import SORTED_INTRINSICS

__all__ = [
    "check_dilation",
    "parameter_row",
    "grid_view",
    "strips",
    "arithmetic_cycles",
    "overhead_cycles",
    "stride_factors",
    "gather_factor",
    "index_words",
    "memory_path_cycles",
    "conflict_free_cycles",
    "miss_rate",
    "line_fill_cycles",
    "cycles_per_word",
    "vector_loop_cycles",
    "scalar_op_cycles",
    "vector_op_cycles",
    "vector_unit_counters",
    "memory_counters",
    "vector_loop_counters",
    "scalar_op_counters",
]


def check_dilation(memory_dilation: float) -> None:
    """Reject a memory dilation that would shrink time (NaN included)."""
    if not memory_dilation >= 1.0:
        raise ValueError(f"memory dilation cannot shrink time, got {memory_dilation}")


def parameter_row(processor) -> dict[str, object]:
    """One processor's cost parameters, keyed by grid column name.

    The values are the components' own numbers.  A cache machine gets
    placeholder vector/memory parameters chosen so every grid
    expression stays finite (no zero divisors); ``has_vector`` masks
    their lanes out.
    """
    vector = processor.vector
    memory = processor.memory
    scalar = processor.scalar
    cache = scalar.cache
    return dict(
        has_vector=vector is not None,
        period_ns=processor.clock.period_ns,
        pipes=vector.pipes if vector else 1.0,
        concurrent_sets=vector.concurrent_sets if vector else 1.0,
        startup_cycles=vector.startup_cycles if vector else 0.0,
        register_length=vector.register_length if vector else 1.0,
        stripmine_cycles=vector.stripmine_cycles if vector else 0.0,
        vector_intrinsic_rates=[
            vector.intrinsic_cycles_per_element[name] if vector else 0.0
            for name in SORTED_INTRINSICS
        ],
        banks=memory.banks if memory else 1,
        bank_busy_cycles=memory.bank_busy_cycles if memory else 1.0,
        port_words_per_cycle=memory.port_words_per_cycle if memory else 2.0,
        stride_base_penalty=memory.stride_base_penalty if memory else 1.0,
        gather_base_penalty=memory.gather_base_penalty if memory else 1.0,
        index_words_per_element=memory.index_words_per_element if memory else 0.0,
        contention_slope=memory.contention_slope if memory else 0.0,
        contention_base_slope=memory.contention_base_slope if memory else 0.0,
        issue_width=scalar.issue_width,
        flops_per_cycle=scalar.flops_per_cycle,
        loop_overhead_instructions=scalar.loop_overhead_instructions,
        scalar_intrinsic_rates=[
            scalar.intrinsic_cycles_per_call[name] for name in SORTED_INTRINSICS
        ],
        cache_size_bytes=cache.size_bytes,
        cache_line_bytes=cache.line_bytes,
        cache_hit_cycles_per_word=cache.hit_cycles_per_word,
        cache_miss_latency_cycles=cache.miss_latency_cycles,
        cache_mem_words_per_cycle=cache.mem_words_per_cycle,
    )


#: Fields that are no per-op column: row gathers (trace positions,
#: distinct-stride slots) keep their 1-D shape in a grid view, and the
#: called intrinsic columns are a tuple of column numbers.
_NOT_OP_COLUMNS = frozenset(
    {"index", "load_stride_index", "store_stride_index", "intrinsic_columns"}
)


def grid_view(columns):
    """``columns`` with every op column as an ``(n, 1)`` view.

    Broadcast against a grid's ``(m,)`` machine columns, each term
    yields an ``(n, m)`` matrix; ``intrinsics`` becomes ``(n, 1, 6)``
    so ``[..., k]`` still picks intrinsic ``k``.
    """
    return replace(
        columns,
        **{
            f.name: getattr(columns, f.name)[:, None]
            for f in fields(columns)
            if f.name not in _NOT_OP_COLUMNS
        },
    )


def _rates(rates):
    """Per-intrinsic rates in :data:`SORTED_INTRINSICS` order: floats
    for one machine, ``(m,)`` columns of a grid's ``(m, 6)`` matrix."""
    return rates.T if isinstance(rates, np.ndarray) else rates


# -- vector unit ------------------------------------------------------------
def strips(p, v):
    """Strip-mined vector instruction issues per loop execution."""
    return np.maximum(1.0, np.ceil(v.length / p.register_length))


def arithmetic_cycles(p, v):
    """Pipeline-busy cycles for one execution of each loop.

    With fewer flops per element than pipe sets only some sets have
    work; ``flops == 0`` rows divide 0 by at least ``pipes``, the
    per-op path's exact 0.0, without a branch.
    """
    sets_used = np.minimum(p.concurrent_sets, np.maximum(1.0, v.flops))
    cycles = v.length * v.flops / (p.pipes * sets_used) + 0.0
    rates = _rates(p.vector_intrinsic_rates)
    for column in v.intrinsic_columns:
        cycles = cycles + (v.length * v.intrinsics[..., column]) * rates[column]
    return cycles


def overhead_cycles(p, v):
    """Startup plus strip-mining overhead for one execution of each loop."""
    return p.startup_cycles + (strips(p, v) - 1.0) * p.stripmine_cycles


# -- banked memory -----------------------------------------------------------
def _path_words(p):
    """Best-case words per cycle on the load path alone (= store path)."""
    return p.port_words_per_cycle / 2.0


def stride_factors(p, strides):
    """Throughput dilation of each distinct stride.

    Strides 1 and 2 are conflict-free by hardware guarantee.  Higher
    strides pay the crossbar dilation times the bank-conflict term:
    stride ``s`` visits ``banks / gcd(s, banks)`` banks, and ``np.gcd``
    agrees with ``math.gcd`` on int64.
    """
    distinct = p.banks // np.gcd(strides, p.banks)
    sustainable = distinct / p.bank_busy_cycles
    conflict = np.maximum(1.0, _path_words(p) / sustainable)
    return np.where(strides <= 2, 1.0, p.stride_base_penalty * conflict)


def gather_factor(p):
    """Throughput dilation for list-vector (randomly indexed) access."""
    occupancy = _path_words(p) * p.bank_busy_cycles / p.banks
    return p.gather_base_penalty * (1.0 + occupancy)


def index_words(p, v):
    """Index-vector words per loop execution (they ride the load path)."""
    return (v.gather + v.scatter) * v.length * p.index_words_per_element


def memory_path_cycles(p, v):
    """(load, store) path busy cycles for one execution of each loop.

    The stride factors are computed once per distinct stride
    (``v.strides``, found at compile time) and gathered per op.
    """
    factors = stride_factors(p, v.strides)
    width = _path_words(p)
    gather = gather_factor(p)
    load = v.loads * v.length * factors[v.load_stride_index] / width
    load = load + v.gather * v.length * gather / width
    load = load + index_words(p, v) / width
    store = v.stores * v.length * factors[v.store_stride_index] / width
    store = store + v.scatter * v.length * gather / width
    return load, store


def conflict_free_cycles(p, v):
    """Memory time per execution were every access conflict-free
    (stride/gather dilations forced to 1, index traffic still paid)."""
    width = _path_words(p)
    load = (v.loads + v.gather) * v.length / width
    load = load + index_words(p, v) / width
    store = (v.stores + v.scatter) * v.length / width
    return np.maximum(load, store)


# -- cache and scalar unit ---------------------------------------------------
def _cache_pattern(v):
    """(stride, working-set bytes) of each loop run through a cache."""
    working_set = (v.loads * v.load_stride + v.stores * v.store_stride) * v.length * 8.0
    return np.maximum(v.load_stride, v.store_stride), working_set


def miss_rate(p, stride, working_set):
    """Expected misses per referenced word: none while the working set
    fits, else one per line touched (every reference from a line-sized
    stride up)."""
    words_per_line = p.cache_line_bytes // 8
    streaming = np.where(stride >= words_per_line, 1.0, stride / words_per_line)
    return np.where(working_set <= p.cache_size_bytes, 0.0, streaming)


def line_fill_cycles(p):
    """Cost of one miss: latency plus streaming the line in."""
    return p.cache_miss_latency_cycles + (p.cache_line_bytes // 8) / p.cache_mem_words_per_cycle


def cycles_per_word(p, stride, working_set):
    """Average cost of one word reference under the given pattern."""
    return p.cache_hit_cycles_per_word + miss_rate(p, stride, working_set) * line_fill_cycles(p)


def vector_loop_cycles(p, v):
    """Cycles for one execution of each vector loop run on the scalar unit.

    Cache machines only.  Indexed references are resident small-table
    lookups (a hit plus the address computation), an unconditional add
    of an exact 0.0 where a loop has none.
    """
    stride, working_set = _cache_pattern(v)
    mem_cycles = (v.loads + v.stores) * cycles_per_word(p, stride, working_set)
    mem_cycles = mem_cycles + (v.gather + v.scatter) * 2.0 * p.cache_hit_cycles_per_word
    flop_cycles = v.flops / p.flops_per_cycle
    loop_cycles = p.loop_overhead_instructions / p.issue_width
    intrinsic_cycles = 0.0
    rates = _rates(p.scalar_intrinsic_rates)
    for column in v.intrinsic_columns:
        intrinsic_cycles = intrinsic_cycles + v.intrinsics[..., column] * rates[column]
    per_element = np.maximum(flop_cycles, mem_cycles) + loop_cycles + intrinsic_cycles
    return v.length * per_element


def scalar_op_cycles(p, s, memo):
    """Total cycles of each scalar op (issue + flop + memory time, all
    ``count`` executions); the per-execution column goes into ``memo``."""
    issue = s.instructions / p.issue_width
    fp = s.flops / p.flops_per_cycle
    memory = s.memory_words * p.cache_hit_cycles_per_word
    per_execution = memo["scalar_op"] = issue + fp + memory
    return per_execution * s.count


# -- composition -------------------------------------------------------------
def _vector_lanes(p) -> tuple[bool, bool]:
    """(any, all) machines with a vector unit."""
    has_vector = p.has_vector
    if isinstance(has_vector, bool):
        return has_vector, has_vector
    return bool(has_vector.any()), bool(has_vector.all())


def vector_op_cycles(p, v, memory_dilation, memo):
    """Total cycles of each vector loop, all ``count`` executions.

    A vector machine overlaps arithmetic with dilated memory time after
    the startup overhead; a cache machine runs the loop on its scalar
    unit with the whole time dilated.  The dilation-independent columns
    go into ``memo`` for the counter reductions.
    """
    any_vector, all_vector = _vector_lanes(p)
    per_execution = None
    if any_vector:
        arithmetic = memo["arithmetic"] = arithmetic_cycles(p, v)
        overhead = memo["overhead"] = overhead_cycles(p, v)
        transfer = memo["transfer"] = np.maximum(*memory_path_cycles(p, v))
        per_execution = overhead + np.maximum(arithmetic, transfer * memory_dilation)
    if not all_vector:
        loop = memo["vector_loop"] = vector_loop_cycles(p, v)
        dilated = loop * memory_dilation
        if per_execution is None:
            per_execution = dilated
        else:
            per_execution = np.where(p.has_vector, per_execution, dilated)
    return per_execution * v.count


# -- perfmon counters (one machine) -------------------------------------------
# Per-op counter columns, built from the columns ``vector_op_cycles``/
# ``scalar_op_cycles`` left in ``memo``.  The caller reduces each trace's
# segment of a column with an exactly-rounded sum; that total equals the
# sum of the components' per-op ``perfmon_counters*`` increments.
def vector_unit_counters(p, v, memo) -> dict[str, np.ndarray]:
    """``vector_unit`` counter columns of vector loops."""
    return {
        "busy_cycles": memo["arithmetic"] * v.count,
        "startup_cycles": memo["overhead"] * v.count,
        "vector_instructions": strips(p, v) * v.count,
        "vector_elements": v.elements,
        "flops": v.raw_flops,
        "flop_equivalents": v.flop_equivalents,
        "intrinsic_calls": v.intrinsic_calls_total,
    }


def memory_counters(p, v, memory_dilation, memo) -> dict[str, np.ndarray]:
    """``memory`` counter columns; bank-conflict time is the charged time
    in excess of the conflict-free ideal."""
    load, store = memory_path_cycles(p, v)
    charged = memo["transfer"] * memory_dilation * v.count
    ideal = conflict_free_cycles(p, v) * v.count
    return {
        "load_cycles": load * memory_dilation * v.count,
        "store_cycles": store * memory_dilation * v.count,
        "transfer_cycles": charged,
        "bank_conflict_cycles": np.maximum(0.0, charged - ideal),
        "sequential_words": v.sequential_words * v.count,
        "indexed_words": v.indexed_words * v.count,
        "index_words": index_words(p, v) * v.count,
    }


def vector_loop_counters(p, v, memo) -> tuple[dict[str, np.ndarray], dict[str, np.ndarray]]:
    """(``scalar_unit``, ``cache``) counter columns of vector loops run on
    a cache machine's scalar unit."""
    stride, working_set = _cache_pattern(v)
    words = (v.loads + v.stores) * v.elements
    misses = words * miss_rate(p, stride, working_set)
    resident = (v.gather + v.scatter) * v.elements  # small-table lookups
    scalar = {
        "ex_cycles": memo["vector_loop"] * v.count,
        "instructions": (v.flops + p.loop_overhead_instructions) * v.elements,
        "flops": v.raw_flops,
        "flop_equivalents": v.flop_equivalents,
        "memory_words": v.words_moved,
        "intrinsic_calls": v.intrinsic_calls_total,
    }
    cache = {
        "ref_words": words + resident,
        "hit_words": (words - misses) + resident,
        "miss_words": misses,
        "miss_cycles": misses * line_fill_cycles(p),
    }
    return scalar, cache


def scalar_op_counters(p, s, memo) -> tuple[dict[str, np.ndarray], dict[str, np.ndarray]]:
    """(``scalar_unit``, ``cache``) counter columns of scalar ops, whose
    references are register/cache-resident by construction."""
    words = s.words_moved
    none = np.zeros_like(words)
    scalar = {
        "ex_cycles": memo["scalar_op"] * s.count,
        "instructions": s.instructions * s.count,
        "flops": s.raw_flops,
        "flop_equivalents": s.raw_flops,
        "memory_words": words,
    }
    cache = {"ref_words": words, "hit_words": words, "miss_words": none, "miss_cycles": none}
    return scalar, cache
