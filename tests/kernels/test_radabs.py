"""Tests for the RADABS radiation kernel (functional physics + Table 1)."""

import numpy as np
import pytest

from repro.kernels import radabs
from repro.machine.compiled import SORTED_INTRINSICS, compile_trace
from repro.machine.presets import sx4_processor, table1_machines


class TestColumns:
    def test_make_columns_shapes(self):
        cols = radabs.make_columns(ncol=16, nlev=18)
        assert cols.nlev == 18 and cols.ncol == 16
        assert cols.pressure.shape == (18, 16)

    def test_identical_columns_by_default(self):
        cols = radabs.make_columns(ncol=8)
        assert np.all(cols.temperature == cols.temperature[:, :1])

    def test_perturbed_columns_differ(self):
        cols = radabs.make_columns(ncol=8, identical=False)
        assert not np.all(cols.temperature == cols.temperature[:, :1])

    def test_validation(self):
        with pytest.raises(ValueError):
            radabs.make_columns(0)
        with pytest.raises(ValueError):
            radabs.make_columns(4, nlev=1)
        cols = radabs.make_columns(4)
        with pytest.raises(ValueError):
            radabs.RadiationColumns(
                pressure=cols.pressure,
                dp=-cols.dp,
                temperature=cols.temperature,
                qv=cols.qv,
            )


class TestRadabsPhysics:
    @pytest.fixture(scope="class")
    def result(self):
        cols = radabs.make_columns(ncol=8, nlev=12)
        return cols, radabs.radabs_kernel(cols)

    def test_shapes(self, result):
        cols, (absorp, emis) = result
        assert absorp.shape == (12, 12, 8)
        assert emis.shape == (12, 8)

    def test_absorptivity_bounds(self, result):
        _, (absorp, emis) = result
        assert np.all(absorp >= 0.0) and np.all(absorp < 1.0)
        assert np.all(emis >= 0.0) and np.all(emis < 1.0)

    def test_symmetric_zero_diagonal(self, result):
        _, (absorp, _) = result
        assert np.allclose(absorp, np.transpose(absorp, (1, 0, 2)))
        assert np.all(np.diagonal(absorp, axis1=0, axis2=1) == 0.0)

    def test_monotone_in_path_length(self, result):
        """A longer gas path between more distant layers absorbs more."""
        _, (absorp, _) = result
        k1 = 2
        profile = absorp[k1, k1 + 1 :, 0]
        assert np.all(np.diff(profile) > 0)

    def test_columns_independent(self):
        """Embarrassingly parallel: each column's result depends only on
        its own state (Section 4.4)."""
        cols = radabs.make_columns(ncol=6, nlev=10, identical=False)
        full, _ = radabs.radabs_kernel(cols)
        sub = radabs.RadiationColumns(
            pressure=cols.pressure[:, 2:3].copy(),
            dp=cols.dp[:, 2:3].copy(),
            temperature=cols.temperature[:, 2:3].copy(),
            qv=cols.qv[:, 2:3].copy(),
        )
        alone, _ = radabs.radabs_kernel(sub)
        assert np.allclose(full[:, :, 2], alone[:, :, 0])

    def test_identical_columns_identical_results(self):
        cols = radabs.make_columns(ncol=5)
        absorp, emis = radabs.radabs_kernel(cols)
        assert np.all(absorp == absorp[:, :, :1])
        assert np.all(emis == emis[:, :1])

    def test_more_vapour_more_absorption(self):
        cols = radabs.make_columns(ncol=2, nlev=10)
        moist = radabs.RadiationColumns(
            pressure=cols.pressure, dp=cols.dp,
            temperature=cols.temperature, qv=cols.qv * 3.0,
        )
        a_dry, _ = radabs.radabs_kernel(cols)
        a_wet, _ = radabs.radabs_kernel(moist)
        off_diag = ~np.eye(10, dtype=bool)
        assert np.all(a_wet[off_diag] >= a_dry[off_diag])


class TestTable1Performance:
    def test_sx4_anchor(self):
        """Section 4.4: 865.9 Cray Y-MP equivalent Mflops on the SX-4/1."""
        mflops = radabs.model_mflops(sx4_processor())
        assert mflops == pytest.approx(865.9, rel=0.10)

    def test_table1_values(self):
        targets = {
            "SUN SPARC20": 12.8,
            "IBM RS6K 590": 16.5,
            "CRI J90": 60.8,
            "CRI YMP": 178.1,
        }
        for name, proc in table1_machines().items():
            mflops = radabs.model_mflops(proc)
            assert mflops == pytest.approx(targets[name], rel=0.15), name

    def test_table1_ordering(self):
        values = {n: radabs.model_mflops(p) for n, p in table1_machines().items()}
        assert (
            values["CRI YMP"] > values["CRI J90"]
            > values["IBM RS6K 590"] > values["SUN SPARC20"]
        )

    def test_trace_validation(self):
        with pytest.raises(ValueError):
            radabs.build_trace(0)
        with pytest.raises(ValueError):
            radabs.build_trace(10, nlev=1)

    def test_trace_intrinsic_mix(self):
        columns = compile_trace(radabs.build_trace(100, nlev=10)).vector
        totals = (columns.intrinsics * columns.elements[:, None]).sum(axis=0)
        elements = 100 * (10 * 9 // 2 + 10)
        for func, per_elem in radabs.INTRINSIC_MIX.items():
            column = SORTED_INTRINSICS.index(func)
            assert totals[column] == pytest.approx(per_elem * elements)
