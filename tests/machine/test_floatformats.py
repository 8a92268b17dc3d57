"""Tests for the SX-4's three hardware floating-point formats."""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine import floatformats as ff

reasonable_floats = st.floats(
    min_value=1e-30, max_value=1e30, allow_nan=False, allow_infinity=False
)


class TestFormatDefinitions:
    def test_ieee_double_matches_host(self):
        fmt = ff.IEEE_DOUBLE
        assert fmt.epsilon == np.finfo(np.float64).eps
        assert fmt.precision == 53

    def test_ieee_single_matches_host(self):
        assert ff.IEEE_SINGLE.epsilon == pytest.approx(np.finfo(np.float32).eps)

    def test_cray_has_less_precision_more_range(self):
        cray, ieee = ff.CRAY_SINGLE, ff.IEEE_DOUBLE
        assert cray.precision < ieee.precision
        assert cray.max_exponent > ieee.max_exponent
        assert cray.chopped

    def test_ibm_is_hexadecimal(self):
        assert ff.IBM_SINGLE.radix == 16
        # 6 hex digits: between 21 and 24 effective bits (the wobble).
        assert 21 <= ff.IBM_SINGLE.binary_digits <= 24

    def test_validation(self):
        with pytest.raises(ValueError):
            ff.FloatFormat("bad", radix=1, precision=4, min_exponent=-4, max_exponent=4)
        with pytest.raises(ValueError):
            ff.FloatFormat("bad", radix=2, precision=0, min_exponent=-4, max_exponent=4)
        with pytest.raises(ValueError):
            ff.FloatFormat("bad", radix=2, precision=4, min_exponent=4, max_exponent=4)

    @pytest.mark.parametrize(
        ("fmt", "largest"),
        [
            pytest.param(fmt, largest, id=fmt.name)
            for fmt, largest in (
                (ff.IEEE_DOUBLE, sys.float_info.max),  # 1.7976931348623157e308
                (ff.IEEE_SINGLE, float(np.finfo(np.float32).max)),
                (ff.IBM_SINGLE, (1.0 - 16.0**-6) * 16.0**63),
                # Cray's range exceeds the host double's.
                (ff.CRAY_SINGLE, math.inf),
            )
        ],
    )
    def test_largest(self, fmt, largest):
        assert fmt.largest.hex() == largest.hex()

    @pytest.mark.parametrize("radix", [3, 10, 12])
    def test_radix_must_be_a_power_of_two(self, radix):
        # A binary double scales exactly only by powers of two.
        with pytest.raises(ValueError, match="power of two"):
            ff.FloatFormat("bad", radix=radix, precision=4, min_exponent=-4, max_exponent=4)


class TestQuantize:
    def test_ieee_double_is_identity_on_doubles(self):
        fmt = ff.IEEE_DOUBLE
        for value in (1.0, 1 / 3, math.pi, 1e-300, 1e300, -2.5):
            assert fmt.quantize(value) == value

    def test_single_matches_float32_rounding(self):
        fmt = ff.IEEE_SINGLE
        rng = np.random.default_rng(0)
        for value in rng.uniform(0.1, 100.0, 200):
            assert fmt.quantize(float(value)) == float(np.float32(value))

    def test_exactly_representable_preserved(self):
        for fmt in ff.ALL_FORMATS:
            for value in (1.0, 2.0, 0.5, 3.0, -4.0, 1024.0):
                assert fmt.quantize(value) == value, fmt.name

    def test_cray_chops_toward_zero(self):
        fmt = ff.CRAY_SINGLE
        eps = fmt.epsilon
        assert fmt.quantize(1.0 + 0.9 * eps) == 1.0
        assert fmt.quantize(-(1.0 + 0.9 * eps)) == -1.0

    def test_ibm_hex_granularity(self):
        """Values just above 1.0 snap to 16**-5 steps."""
        fmt = ff.IBM_SINGLE
        step = 16.0**-5
        assert fmt.quantize(1.0 + 0.6 * step) == pytest.approx(1.0 + step)
        assert fmt.quantize(1.0 + 0.4 * step) == 1.0

    def test_flush_to_zero_below_tiny(self):
        fmt = ff.IBM_SINGLE
        assert fmt.quantize(fmt.tiny / 100.0) == 0.0
        assert fmt.quantize(fmt.tiny) == pytest.approx(fmt.tiny)

    def test_overflow_raises(self):
        with pytest.raises(OverflowError):
            ff.IBM_SINGLE.quantize(1e80)

    @pytest.mark.parametrize("fmt", [ff.IEEE_DOUBLE, ff.CRAY_SINGLE], ids=lambda f: f.name)
    def test_top_binade_of_the_host_double(self, fmt):
        # Neither format overflows at 2**1023, though radix**1024 does.
        assert fmt.quantize(2.0**1023) == 2.0**1023
        assert fmt.quantize(-(2.0**1023)) == -(2.0**1023)

    @pytest.mark.parametrize("fmt", ff.ALL_FORMATS, ids=lambda f: f.name)
    def test_subnormal_input(self, fmt):
        """A host subnormal flushes to zero below the format's range, and
        Cray's range reaches far below the host double's, so there it
        stays what it is."""
        for value in (5e-324, -5e-324, 3 * 5e-324, 2.0**-1050):
            expected = value if fmt is ff.CRAY_SINGLE else 0.0
            assert fmt.quantize(value) == expected

    def test_zero_and_nonfinite_pass_through(self):
        fmt = ff.CRAY_SINGLE
        assert fmt.quantize(0.0) == 0.0
        assert math.isinf(fmt.quantize(math.inf))

    def test_quantize_array_shape(self):
        fmt = ff.IBM_SINGLE
        arr = np.linspace(0.1, 1.0, 12).reshape(3, 4)
        out = fmt.quantize_array(arr)
        assert out.shape == (3, 4)
        assert np.all(out == fmt.quantize_array(out))  # idempotent

    @given(value=reasonable_floats)
    @settings(max_examples=60)
    def test_quantize_idempotent(self, value):
        for fmt in ff.ALL_FORMATS:
            once = fmt.quantize(value)
            assert fmt.quantize(once) == once

    @given(value=reasonable_floats)
    @settings(max_examples=60)
    def test_quantize_relative_error_bounded(self, value):
        """|q(x) - x| <= eps * |x| for round-to-nearest; <= 2eps chopped."""
        for fmt in ff.ALL_FORMATS:
            q = fmt.quantize(value)
            if q == 0.0:  # flushed below tiny
                continue
            bound = fmt.epsilon * (1.0 if not fmt.chopped else 2.0)
            assert abs(q - value) <= bound * abs(value) * 1.001


class TestArithmetic:
    def test_add_rounds_result(self):
        fmt = ff.IBM_SINGLE
        result = fmt.add(1.0, 16.0**-7)  # far below one ulp of 1.0
        assert result == 1.0

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            ff.CRAY_SINGLE.div(1.0, 0.0)

    def test_associativity_failure_visible(self):
        """Low-precision formats break associativity earlier than IEEE."""
        fmt = ff.IBM_SINGLE
        big, small = 1.0, fmt.epsilon / 4.0
        left = fmt.add(fmt.add(big, small), small)
        right = fmt.add(big, fmt.add(small, small))
        assert left == 1.0  # each tiny add rounds away
        assert right > 1.0 or right == 1.0  # may survive when pre-summed


class TestProbes:
    """The PARANOIA-style probes detect each format's declared nature."""

    @pytest.mark.parametrize("fmt", ff.ALL_FORMATS, ids=lambda f: f.name)
    def test_radix_detected(self, fmt):
        assert ff.detect_radix(fmt) == fmt.radix

    @pytest.mark.parametrize("fmt", ff.ALL_FORMATS, ids=lambda f: f.name)
    def test_precision_detected(self, fmt):
        assert ff.detect_precision(fmt, ff.detect_radix(fmt)) == fmt.precision

    def test_rounding_mode_detected(self):
        assert ff.rounds_to_nearest(ff.IEEE_DOUBLE)
        assert ff.rounds_to_nearest(ff.IEEE_SINGLE)
        assert ff.rounds_to_nearest(ff.IBM_SINGLE)
        assert not ff.rounds_to_nearest(ff.CRAY_SINGLE)

    def test_hardware_performance_identical_claim(self):
        """'Hardware performance is identical with all 64-bit formats' —
        format selection is a compile-time property, so the machine model
        deliberately has no per-format timing knob."""
        from repro.machine.presets import sx4_processor

        proc = sx4_processor()
        assert not hasattr(proc.vector, "float_format")
