"""Tests for the coupled CCM2 model loop and its cost model."""

import numpy as np
import pytest

from repro.apps.ccm2 import costmodel
from repro.apps.ccm2.gaussian import GaussianGrid
from repro.apps.ccm2.model import CCM2Model
from repro.apps.ccm2.resolutions import RESOLUTIONS, resolution
from repro.machine.presets import sx4_node


@pytest.fixture(scope="module")
def model():
    return CCM2Model(GaussianGrid(32, 64), trunc=21, nlev=4)


class TestModelLoop:
    def test_steps_produce_healthy_diagnostics(self, model):
        for diag in model.run(6):
            assert diag.healthy, diag

    def test_mass_conserved_without_physics(self):
        m = CCM2Model(GaussianGrid(32, 64), trunc=21, nlev=4,
                      physics_coupling=0.0)
        first = m.step()
        last = m.run(5)[-1]
        assert last.mass == pytest.approx(first.mass, rel=1e-12)

    def test_moisture_stays_nonnegative_and_bounded(self, model):
        lo, hi = model.moisture.min(), model.moisture.max()
        model.run(4)
        # The shape-preserving SLT cannot create new extrema; physics
        # does not touch moisture.
        assert model.moisture.min() >= lo - 1e-10
        assert model.moisture.max() <= hi + 1e-10

    def test_radiation_cycle(self):
        m = CCM2Model(GaussianGrid(32, 64), trunc=21, nlev=4, radiation_every=2)
        m.run(4)
        # Heating was computed (steps 0 and 2) and applied.
        assert m._heating is not None
        assert m.diagnostics[-1].heating_max > 0

    def test_history_accumulation_and_flush(self, model):
        before = model.history_samples
        model.run(3)
        assert model.history_samples == before + 3
        mean = model.flush_history()
        assert mean.shape == model.grid.shape
        assert model.history_samples == 0
        with pytest.raises(ValueError):
            model.flush_history()

    def test_validation(self):
        grid = GaussianGrid(32, 64)
        with pytest.raises(ValueError):
            CCM2Model(grid, trunc=21, nlev=1)
        with pytest.raises(ValueError):
            CCM2Model(grid, trunc=21, dt=-5.0)
        with pytest.raises(ValueError):
            CCM2Model(grid, trunc=21, dt=5000.0)  # beyond the CFL guard
        with pytest.raises(ValueError):
            CCM2Model(grid, trunc=21, radiation_every=0)
        with pytest.raises(ValueError):
            CCM2Model(grid, trunc=21).run(-1)


class TestResolutions:
    def test_table4_contents(self):
        """Table 4 verbatim."""
        expected = {
            "T42L18": ("64 x 128", 2.8125, 20.0),
            "T63L18": ("96 x 192", 1.875, 12.0),
            "T85L18": ("128 x 256", 1.40625, 10.0),
            "T106L18": ("160 x 320", 1.125, 7.5),
            "T170L18": ("256 x 512", 0.703125, 5.0),
        }
        assert set(RESOLUTIONS) == set(expected)
        for name, (grid_label, spacing, step) in expected.items():
            res = RESOLUTIONS[name]
            assert res.horizontal_grid_label == grid_label
            assert res.grid_spacing_degrees == pytest.approx(spacing)
            assert res.timestep_minutes == step

    def test_nominal_spacings_match_paper_rounding(self):
        """The paper rounds to one decimal: 2.8, 2.1(T63: 1.9 vs paper
        2.1 — the paper quotes great-circle spacing), 1.4, 1.1, 0.7."""
        assert round(resolution("T42").grid_spacing_degrees, 1) == 2.8
        assert round(resolution("T85").grid_spacing_degrees, 1) == 1.4
        assert round(resolution("T106").grid_spacing_degrees, 1) == 1.1
        assert round(resolution("T170").grid_spacing_degrees, 1) == 0.7

    def test_steps_per_day(self):
        assert resolution("T42L18").steps_per_day == 72
        assert resolution("T170L18").steps_per_day == 288
        assert resolution("T42L18").steps_for_days(365) == 26280

    def test_lookup_with_and_without_levels(self):
        assert resolution("T42") is resolution("T42L18")
        with pytest.raises(KeyError):
            resolution("T31")

    def test_spectral_count(self):
        assert resolution("T42").nspec == 43 * 44 // 2


class TestCostModel:
    @pytest.fixture(scope="class")
    def node(self):
        return sx4_node()

    def test_figure8_t170_anchor(self, node):
        """T170L18 on 32 CPUs sustains ≈24 Cray-equivalent Gflops."""
        gf = costmodel.figure8_point(node, "T170L18", 32)
        assert gf == pytest.approx(24.0, rel=0.12)

    def test_figure8_resolution_ordering(self, node):
        """Longer vectors run more efficiently at every CPU count."""
        for cpus in (1, 8, 32):
            g42 = costmodel.figure8_point(node, "T42L18", cpus)
            g106 = costmodel.figure8_point(node, "T106L18", cpus)
            g170 = costmodel.figure8_point(node, "T170L18", cpus)
            assert g42 < g106 < g170

    def test_figure8_scaling_sublinear_but_real(self, node):
        for res in ("T42L18", "T170L18"):
            g1 = costmodel.figure8_point(node, res, 1)
            g32 = costmodel.figure8_point(node, res, 32)
            assert 8.0 < g32 / g1 < 32.0

    def test_small_resolution_scales_worst(self, node):
        """T42's 43 wavenumbers on 32 CPUs leave half the machine idle
        part of the time; its parallel efficiency must be the lowest."""

        def efficiency(res):
            g1 = costmodel.figure8_point(node, res, 1)
            g32 = costmodel.figure8_point(node, res, 32)
            return g32 / (32 * g1)

        assert efficiency("T42L18") < efficiency("T106L18") <= efficiency("T170L18") + 0.02

    def test_figure8_curves_structure(self, node):
        curves = costmodel.figure8_curves(node, cpu_counts=(1, 32))
        assert set(curves) == {"T42L18", "T106L18", "T170L18"}
        for pts in curves.values():
            assert len(pts) == 2 and pts[0][1] < pts[1][1]

    def test_year_simulation_ratio(self, node):
        """Table 5's shape: the T63 year costs ≈2.6x the T42 year."""
        y42 = costmodel.year_simulation_seconds(node, "T42L18")
        y63 = costmodel.year_simulation_seconds(node, "T63L18")
        assert y63["total_seconds"] / y42["total_seconds"] == pytest.approx(2.60, rel=0.15)

    def test_year_simulation_history_volume(self, node):
        """'Approximately 15GB of model data and restart information were
        written during the T63L18 test.'"""
        y63 = costmodel.year_simulation_seconds(node, "T63L18")
        assert y63["io_bytes"] == pytest.approx(15e9, rel=0.15)

    def test_ensemble_degradation_anchor(self, node):
        """Table 6: 'The relative degradation of the job is only 1.89%.'"""
        result = costmodel.ensemble_degradation(node)
        assert 0.005 < result["degradation"] < 0.04
        assert result["degradation"] == pytest.approx(0.0189, rel=0.35)

    def test_ensemble_oversubscription_rejected(self, node):
        with pytest.raises(ValueError):
            costmodel.ensemble_degradation(node, cpus_per_job=8, jobs=8)

    def test_ensemble_needs_a_job(self, node):
        with pytest.raises(ValueError, match="jobs must be >= 1, got 0"):
            costmodel.ensemble_degradation(node, jobs=0)

    def test_parallel_step_conserves_total_flops(self, node):
        """Imbalance affects wall time, never the accounted work."""
        one = costmodel.parallel_step(node, "T42L18", 1)
        many = costmodel.parallel_step(node, "T42L18", 29)  # awkward divisor
        assert many.flop_equivalents == pytest.approx(one.flop_equivalents, rel=0.01)

    def test_step_trace_validation(self, node):
        with pytest.raises(ValueError):
            costmodel.parallel_step(node, "T42L18", 0)
        with pytest.raises(ValueError):
            costmodel.year_simulation_seconds(node, "T42L18", days=0)


class TestMultiNodeExtension:
    """CCM2 across IXS-connected nodes (the Section 2.5 architecture,
    exercised beyond the paper's single-node runs)."""

    @pytest.fixture(scope="class")
    def system(self):
        from repro.machine.ixs import MultiNodeSystem

        return MultiNodeSystem(node=sx4_node(), node_count=16)

    def test_scaling_monotone(self, system):
        points = costmodel.multinode_scaling(system, "T170L18")
        values = [g for _, g in points]
        assert values == sorted(values)

    def test_single_node_matches_figure8(self, system):
        g_multi = costmodel.multinode_gflops(system, "T170L18", nodes=1)
        g_fig8 = costmodel.figure8_point(system.node, "T170L18", 32)
        assert g_multi == pytest.approx(g_fig8, rel=1e-9)

    def test_small_problems_saturate_first(self, system):
        """The IXS latency bound: T42's 16-node efficiency is well below
        T170's — the multi-node machine wants big problems too."""

        def efficiency(res):
            pts = dict(costmodel.multinode_scaling(system, res))
            return pts[16] / (16 * pts[1])

        assert efficiency("T42L18") < efficiency("T170L18") - 0.05

    def test_t170_supercomputer_rates(self, system):
        """A full 16-node SX-4/512 sustains hundreds of Gflops on T170."""
        g16 = costmodel.multinode_gflops(system, "T170L18", nodes=16)
        assert 200.0 < g16 < 16 * 32 * 2.0  # below aggregate peak

    def test_node_count_bounds(self, system):
        with pytest.raises(ValueError):
            costmodel.multinode_gflops(system, "T42L18", nodes=0)
        with pytest.raises(ValueError):
            costmodel.multinode_gflops(system, "T42L18", nodes=17)


class TestMultiLayerDynamics:
    """The 'L' dimension made real: stacked shallow-water layers."""

    def test_layers_run_healthily(self):
        model = CCM2Model(GaussianGrid(32, 64), trunc=21, nlev=4, dyn_layers=3)
        for diag in model.run(4):
            assert diag.healthy, diag
        assert len(model.layer_states) == 3

    def test_layers_start_distinct_and_stay_distinct(self):
        model = CCM2Model(GaussianGrid(32, 64), trunc=21, nlev=4, dyn_layers=3)
        model.run(3)
        phis = [s.phi for s in model.layer_states]
        assert not np.array_equal(phis[0], phis[1])
        assert not np.array_equal(phis[1], phis[2])

    def test_single_layer_is_the_default(self):
        model = CCM2Model(GaussianGrid(32, 64), trunc=21, nlev=4)
        assert model.dyn_layers == 1
        assert model.layer_states[0] is model.state

    def test_mass_conserved_per_layer_without_physics(self):
        model = CCM2Model(GaussianGrid(32, 64), trunc=21, nlev=4,
                          dyn_layers=2, physics_coupling=0.0)
        before = [model.dynamics.total_mass(s) for s in model.layer_states]
        model.run(4)
        after = [model.dynamics.total_mass(s) for s in model.layer_states]
        assert after == pytest.approx(before, rel=1e-12)

    def test_checkpoint_roundtrip_multilayer(self):
        from repro.superux.checkpoint import restore_model, take_checkpoint

        def make():
            return CCM2Model(GaussianGrid(32, 64), trunc=21, nlev=4, dyn_layers=3)

        reference = make()
        reference.run(3)
        blob = take_checkpoint(reference)
        reference.run(3)
        restored = make()
        restore_model(restored, blob)
        restored.run(3)
        for a, b in zip(reference.layer_states, restored.layer_states):
            assert np.array_equal(a.phi, b.phi)

    def test_layer_count_mismatch_rejected_on_restore(self):
        from repro.superux.checkpoint import restore_model, take_checkpoint

        three = CCM2Model(GaussianGrid(32, 64), trunc=21, nlev=4, dyn_layers=3)
        blob = take_checkpoint(three)
        two = CCM2Model(GaussianGrid(32, 64), trunc=21, nlev=4, dyn_layers=2)
        with pytest.raises(ValueError):
            restore_model(two, blob)

    def test_validation(self):
        with pytest.raises(ValueError):
            CCM2Model(GaussianGrid(32, 64), trunc=21, nlev=4, dyn_layers=0)
