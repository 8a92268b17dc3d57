"""Parameter sweeps: axis builders, grid lowering, degradation parity."""

import numpy as np
import pytest

from repro.analysis.traces import build_registered_trace
from repro.explore.sweep import (
    PARAMETERS,
    Axis,
    ParameterSweep,
    explicit_axis,
    linear_axis,
    log_axis,
)
from repro.faults.degraded import Degradation, degrade_processor
from repro.machine.grid import cost_trace_grid
from repro.machine.presets import CANONICAL_PRESET_IDS, preset_processor


class TestAxes:
    def test_linear_axis_endpoints(self):
        axis = linear_axis("clock.period_ns", 4.0, 16.0, 4)
        assert axis.values[0] == 4.0 and axis.values[-1] == 16.0
        assert len(axis.values) == 4

    def test_log_axis_geometric(self):
        axis = log_axis("memory.banks", 128, 2048, 5)
        ratios = np.diff(np.log(axis.values))
        assert np.allclose(ratios, ratios[0])

    def test_log_axis_rejects_nonpositive(self):
        with pytest.raises(ValueError, match="positive"):
            log_axis("memory.banks", 0, 2048, 5)

    def test_explicit_axis(self):
        axis = explicit_axis("vector.pipes", [4, 8, 16])
        assert axis.values == (4.0, 8.0, 16.0)

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ValueError, match="unknown sweep parameter"):
            Axis("vector.bogus", (1.0,))

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError, match="at least one value"):
            Axis("vector.pipes", ())

    def test_every_parameter_maps_to_a_grid_column_or_degradation(self):
        from repro.machine.grid import MachineGrid

        grid = MachineGrid.from_processors([preset_processor("sx4")])
        for name, spec in PARAMETERS.items():
            if spec.degrade is None:
                assert hasattr(grid, spec.column), name
            else:
                assert spec.degrade in ("pipes", "banks"), name


class TestBuild:
    def test_cartesian_shape_and_names(self):
        sweep = ParameterSweep(
            "sx4",
            (explicit_axis("clock.period_ns", [8.0, 9.2]),
             explicit_axis("vector.pipes", [4, 8, 16])),
        )
        assert sweep.n_points == 6
        grid = sweep.build()
        assert grid.n_machines == 6
        # First axis varies slowest.
        assert grid.names[0] == "sx4[clock.period_ns=8,vector.pipes=4]"
        assert grid.names[1] == "sx4[clock.period_ns=8,vector.pipes=8]"
        assert grid.names[3] == "sx4[clock.period_ns=9.2,vector.pipes=4]"
        assert list(grid.period_ns) == [8.0, 8.0, 8.0, 9.2, 9.2, 9.2]
        assert list(grid.pipes) == [4.0, 8.0, 16.0] * 2

    def test_no_axes_is_the_anchor(self):
        grid = ParameterSweep("ymp").build()
        assert grid.n_machines == 1
        trace = build_registered_trace("hint")
        assert cost_trace_grid(trace, grid).cycles[0] == (
            preset_processor("ymp").execute(trace).cycles
        )

    def test_every_anchor_builds(self):
        for preset_id in CANONICAL_PRESET_IDS:
            grid = ParameterSweep(preset_id).build()
            assert grid.n_machines == 1

    def test_unknown_anchor_rejected(self):
        with pytest.raises(ValueError, match="unknown machine preset"):
            ParameterSweep("cray-2").build()

    def test_vector_axis_needs_vector_anchor(self):
        sweep = ParameterSweep("sparc20", (explicit_axis("vector.pipes", [4]),))
        with pytest.raises(ValueError, match="cache machine"):
            sweep.build()

    def test_integer_parameters_are_rounded(self):
        grid = ParameterSweep(
            "sx4", (linear_axis("memory.banks", 100, 200, 3),)
        ).build()
        assert grid.banks.dtype == np.int64
        assert list(grid.banks) == [100, 150, 200]

    def test_include_presets_prepends_canonical_machines(self):
        sweep = ParameterSweep(
            "sx4", (explicit_axis("clock.period_ns", [8.0]),), include_presets=True
        )
        grid = sweep.build()
        assert grid.n_machines == 7
        assert grid.names[4] == "NEC SX-4 (9.2 ns)"
        assert grid.names[-1] == "sx4[clock.period_ns=8]"

    def test_swept_point_materializes_to_real_processor(self):
        grid = ParameterSweep(
            "sx4", (explicit_axis("vector.pipes", [4]),)
        ).build()
        trace = build_registered_trace("linpack")
        cost = cost_trace_grid(trace, grid)
        assert cost.cycles[0] == grid.materialize(0).execute(trace).cycles


class TestDegradationAxes:
    @pytest.mark.parametrize("offline", [0, 1, 2, 4])
    def test_offline_pipes_matches_degrade_processor(self, offline):
        grid = ParameterSweep(
            "sx4", (explicit_axis("degraded.offline_pipes", [offline]),)
        ).build()
        degraded = degrade_processor(
            preset_processor("sx4"), Degradation(name="t", offline_pipes=offline)
        )
        trace = build_registered_trace("radabs")
        cost = cost_trace_grid(trace, grid)
        report = degraded.execute(trace)
        assert cost.cycles[0] == report.cycles
        assert cost.mflops[0] == report.mflops

    @pytest.mark.parametrize("offline", [0, 64, 512])
    def test_offline_banks_matches_degrade_processor(self, offline):
        grid = ParameterSweep(
            "sx4", (explicit_axis("degraded.offline_banks", [offline]),)
        ).build()
        degraded = degrade_processor(
            preset_processor("sx4"), Degradation(name="t", offline_banks=offline)
        )
        trace = build_registered_trace("stream")
        cost = cost_trace_grid(trace, grid)
        assert cost.cycles[0] == degraded.execute(trace).cycles

    def test_degradation_applies_after_direct_axes(self):
        grid = ParameterSweep(
            "sx4",
            (explicit_axis("vector.pipes", [4]),
             explicit_axis("degraded.offline_pipes", [1])),
        ).build()
        assert grid.pipes[0] == 3.0

    def test_all_pipes_offline_rejected(self):
        sweep = ParameterSweep(
            "ymp", (explicit_axis("degraded.offline_pipes", [99]),)
        )
        with pytest.raises(ValueError, match="every pipe offline"):
            sweep.build()

    def test_all_banks_offline_rejected(self):
        sweep = ParameterSweep(
            "sx4", (explicit_axis("degraded.offline_banks", [10_000]),)
        )
        with pytest.raises(ValueError, match="every bank offline"):
            sweep.build()
