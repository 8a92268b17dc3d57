"""Parameter sweeps: cartesian machine grids anchored at calibrated presets.

A sweep names an anchor preset (any id in
:data:`repro.machine.presets.PRESET_FACTORIES`) and a list of axes —
``(parameter, values)`` pairs built with :func:`linear_axis`,
:func:`log_axis`, or :func:`explicit_axis`.  :meth:`ParameterSweep.build`
lowers the anchor into a one-row :class:`~repro.machine.grid.MachineGrid`,
repeats it over the cartesian product of the axes, and writes each axis
into its grid column — thousands of hypothetical machines without ever
constructing a :class:`~repro.machine.processor.Processor`.

Two axis families exist:

* **direct** parameters name a component constructor argument
  (``"clock.period_ns"``, ``"vector.pipes"``, ``"memory.banks"``, ...)
  and overwrite the column;
* **degradation** parameters (``"degraded.offline_pipes"``,
  ``"degraded.offline_banks"``) run
  :meth:`~repro.machine.grid.MachineGrid.take_offline` on the columns —
  pipes shrink and the surviving pipes' intrinsic rates scale up by
  ``pipes / remaining`` — the same code
  :func:`repro.faults.degraded.degrade_processor` runs on a processor's
  one-row grid, so a sweep point materializes to the same machine a
  ``DegradedMachine`` would build.

Direct axes apply before degradation axes (degradations read the swept
pipe/bank counts), matching "build the variant, then degrade it".
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from repro.machine.grid import MachineGrid
from repro.machine.presets import canonical_machines, preset_processor

__all__ = [
    "Axis",
    "ParameterSweep",
    "PARAMETERS",
    "linear_axis",
    "log_axis",
    "explicit_axis",
]


@dataclass(frozen=True)
class _ParameterSpec:
    """How one sweepable parameter maps onto grid columns."""

    column: str | None  # direct grid column, None for degradations
    integer: bool = False  # values are rounded to integers
    vector_only: bool = False  # requires a vector-machine anchor
    degrade: str | None = None  # "pipes" | "banks"


#: Every sweepable parameter.  Dotted names mirror the component
#: constructor the value feeds (``repro.machine.grid`` column names are
#: the flat spelling of the same parameters).
PARAMETERS: dict[str, _ParameterSpec] = {
    "clock.period_ns": _ParameterSpec(column="period_ns"),
    "vector.pipes": _ParameterSpec(column="pipes", integer=True, vector_only=True),
    "vector.concurrent_sets": _ParameterSpec(
        column="concurrent_sets", integer=True, vector_only=True
    ),
    "vector.startup_cycles": _ParameterSpec(column="startup_cycles", vector_only=True),
    "vector.register_length": _ParameterSpec(
        column="register_length", integer=True, vector_only=True
    ),
    "vector.stripmine_cycles": _ParameterSpec(column="stripmine_cycles", vector_only=True),
    "memory.banks": _ParameterSpec(column="banks", integer=True, vector_only=True),
    "memory.bank_busy_cycles": _ParameterSpec(column="bank_busy_cycles", vector_only=True),
    "memory.port_words_per_cycle": _ParameterSpec(
        column="port_words_per_cycle", vector_only=True
    ),
    "memory.stride_base_penalty": _ParameterSpec(
        column="stride_base_penalty", vector_only=True
    ),
    "memory.gather_base_penalty": _ParameterSpec(
        column="gather_base_penalty", vector_only=True
    ),
    "scalar.issue_width": _ParameterSpec(column="issue_width"),
    "scalar.flops_per_cycle": _ParameterSpec(column="flops_per_cycle"),
    "cache.size_bytes": _ParameterSpec(column="cache_size_bytes", integer=True),
    "cache.line_bytes": _ParameterSpec(column="cache_line_bytes", integer=True),
    "cache.hit_cycles_per_word": _ParameterSpec(column="cache_hit_cycles_per_word"),
    "cache.mem_words_per_cycle": _ParameterSpec(column="cache_mem_words_per_cycle"),
    "degraded.offline_pipes": _ParameterSpec(
        column=None, integer=True, vector_only=True, degrade="pipes"
    ),
    "degraded.offline_banks": _ParameterSpec(
        column=None, integer=True, vector_only=True, degrade="banks"
    ),
}


@dataclass(frozen=True)
class Axis:
    """One swept parameter and the values it takes."""

    parameter: str
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.parameter not in PARAMETERS:
            known = ", ".join(sorted(PARAMETERS))
            raise ValueError(f"unknown sweep parameter {self.parameter!r} (known: {known})")
        if not self.values:
            raise ValueError(f"axis {self.parameter!r} needs at least one value")


def linear_axis(parameter: str, start: float, stop: float, steps: int) -> Axis:
    """``steps`` evenly spaced values from start to stop, inclusive."""
    if steps < 1:
        raise ValueError(f"axis {parameter!r} needs at least one step, got {steps}")
    return Axis(parameter, tuple(float(v) for v in np.linspace(start, stop, steps)))


def log_axis(parameter: str, start: float, stop: float, steps: int) -> Axis:
    """``steps`` geometrically spaced values from start to stop, inclusive."""
    if steps < 1:
        raise ValueError(f"axis {parameter!r} needs at least one step, got {steps}")
    if start <= 0 or stop <= 0:
        raise ValueError(f"log axis {parameter!r} needs positive endpoints")
    return Axis(parameter, tuple(float(v) for v in np.geomspace(start, stop, steps)))


def explicit_axis(parameter: str, values) -> Axis:
    """An axis over explicitly listed values."""
    return Axis(parameter, tuple(float(v) for v in values))


#: Why a degradation axis is refused, per resource.
_ALL_OFFLINE = {
    "pipes": "takes every pipe offline at some sweep point (a degraded vector unit keeps >= 1)",
    "banks": "takes every bank offline at some sweep point (a degraded memory keeps >= 1)",
}


def _format_value(value: float, integer: bool) -> str:
    return str(int(round(value))) if integer else format(value, "g")


@dataclass(frozen=True)
class ParameterSweep:
    """A cartesian sweep around one anchor preset.

    ``include_presets`` prepends the six canonical machines
    (:func:`repro.machine.presets.canonical_machines`) to the built
    grid — the embedded parity anchor CI's explore-smoke job checks,
    and the reference rows rank-inversion maps compare against.
    """

    anchor: str
    axes: tuple[Axis, ...] = ()
    include_presets: bool = False

    @property
    def n_points(self) -> int:
        """Sweep points, excluding any prepended presets."""
        return math.prod(len(axis.values) for axis in self.axes)

    def build(self) -> MachineGrid:
        """The sweep as a validated :class:`MachineGrid`."""
        base = preset_processor(self.anchor)
        for axis in self.axes:
            if PARAMETERS[axis.parameter].vector_only and base.vector is None:
                raise ValueError(
                    f"parameter {axis.parameter!r} needs a vector-machine anchor; "
                    f"{self.anchor!r} is a cache machine"
                )
        n = self.n_points
        grid = MachineGrid.from_processors([base]).subset(np.zeros(n, dtype=np.intp))

        # Cartesian product: first axis varies slowest (meshgrid "ij").
        if self.axes:
            meshes = np.meshgrid(
                *[np.array(axis.values, dtype=np.float64) for axis in self.axes],
                indexing="ij",
            )
            flattened = [mesh.reshape(-1) for mesh in meshes]
        else:
            flattened = []

        direct = [
            (axis, values)
            for axis, values in zip(self.axes, flattened)
            if PARAMETERS[axis.parameter].degrade is None
        ]
        degradations = [
            (axis, values)
            for axis, values in zip(self.axes, flattened)
            if PARAMETERS[axis.parameter].degrade is not None
        ]

        for axis, values in direct:
            spec = PARAMETERS[axis.parameter]
            column = getattr(grid, spec.column)
            if spec.integer:
                values = np.rint(values)
            column[:] = values.astype(column.dtype)

        for axis, values in degradations:
            resource = PARAMETERS[axis.parameter].degrade
            grid.take_offline(
                resource, np.rint(values), f"axis {axis.parameter!r} {_ALL_OFFLINE[resource]}"
            )

        names = self._point_names()
        swept = MachineGrid(names=names, **{k: v for k, v in grid._columns()})
        swept.validate()
        if not self.include_presets:
            return swept
        presets = MachineGrid.from_processors(list(canonical_machines().values()))
        return MachineGrid.concat([presets, swept])

    def _point_names(self) -> tuple[str, ...]:
        """One name per point: each axis's values are formatted once and
        combined in grid order (first axis slowest, as the meshgrid)."""
        if not self.axes:
            return (self.anchor,)
        labels = [
            [
                f"{axis.parameter}="
                f"{_format_value(value, PARAMETERS[axis.parameter].integer)}"
                for value in axis.values
            ]
            for axis in self.axes
        ]
        return tuple(
            f"{self.anchor}[{','.join(parts)}]" for parts in itertools.product(*labels)
        )
