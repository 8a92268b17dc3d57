"""The SX-4's three hardware floating-point formats (Section 2).

"Each processor has hardware implementations to support three floating
point data formats — IEEE 754, Cray, and IBM. ... Floating point format
selection is made on a program by program basis at compile time."

This module models the *numerical* properties of those formats — radix,
precision, exponent range, rounding behaviour — by emulating their
arithmetic as "compute in double, then round into the target format".
That is exactly the level PARANOIA-style probes exercise, so the same
probes that pass on IEEE mode detect the legacy formats' quirks:

* **Cray format** (64-bit: 1 sign, 15-bit biased exponent, 48-bit
  significand, no hidden bit): binary, only 48 digits of precision, a
  huge exponent range, truncating (chop) arithmetic on the real hardware
  — the reason Cray addition famously lacked a guard digit.
* **IBM hexadecimal** (System/360 double: 1 sign, 7-bit excess-64
  exponent of 16, 14 hex digits): radix 16, so the effective binary
  precision *wobbles* between 53 and 56 bits and PARANOIA's radix probe
  reports 16.

Compatibility-mode emulation is value-level (quantise to the format's
significand after each operation), not bit-level; it reproduces the
properties benchmarks can observe (epsilon, radix, guard-digit
behaviour, over/underflow thresholds).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "FloatFormat",
    "IEEE_DOUBLE",
    "IEEE_SINGLE",
    "CRAY_SINGLE",
    "IBM_SINGLE",
    "ALL_FORMATS",
    "detect_radix",
    "detect_precision",
    "rounds_to_nearest",
]


@dataclass(frozen=True)
class FloatFormat:
    """A floating-point format defined by radix, precision and range.

    ``precision`` counts *radix* digits in the significand (including
    any hidden bit).  ``chopped`` selects truncation instead of
    round-to-nearest — Cray mode's historical behaviour.
    """

    name: str
    radix: int
    precision: int
    min_exponent: int  # smallest normal exponent e with value radix**e
    max_exponent: int  # largest exponent (overflow above radix**max_exponent)
    chopped: bool = False

    def __post_init__(self) -> None:
        if self.radix < 2 or self.radix & (self.radix - 1):
            # quantize scales by powers of the radix with ldexp, which a
            # binary double does exactly only for a power-of-two radix.
            raise ValueError(f"radix must be a power of two >= 2, got {self.radix}")
        if self.precision < 1:
            raise ValueError(f"precision must be >= 1, got {self.precision}")
        if self.min_exponent >= self.max_exponent:
            raise ValueError("exponent range is empty")

    # -- derived properties ---------------------------------------------------
    @property
    def epsilon(self) -> float:
        """Machine epsilon: radix**(1 - precision)."""
        return float(self.radix) ** (1 - self.precision)

    @property
    def binary_digits(self) -> float:
        """Equivalent binary precision (worst case for non-binary radix:
        the leading radix-digit may carry as little as one bit)."""
        return (self.precision - 1) * math.log2(self.radix) + 1

    @cached_property
    def largest(self) -> float:
        """Largest finite value, ``(1 - radix**-precision) * radix**max_exponent``.

        Scaled with ``ldexp``, so a format whose largest value is a host
        double (IEEE double's 1.7976931348623157e308) gets it exactly.
        ``inf`` for a format whose range exceeds the host double's
        (Cray's): the emulation computes in doubles, so no value it
        handles can exceed it.
        """
        try:
            return math.ldexp(1.0 - self.epsilon / self.radix, self._radix_bits * self.max_exponent)
        except OverflowError:
            return math.inf

    @cached_property
    def tiny(self) -> float:
        """Smallest normal value (0.0 if below the host double's range)."""
        try:
            return float(self.radix) ** self.min_exponent
        except OverflowError:  # pragma: no cover - negative exponents underflow
            return 0.0

    @cached_property
    def _radix_bits(self) -> int:
        """log2 of the radix (a power of two, checked at construction)."""
        return self.radix.bit_length() - 1

    # -- quantisation -----------------------------------------------------------
    def quantize(self, value: float) -> float:
        """Round ``value`` into this format (the emulation primitive).

        Round-to-nearest-even, or chop toward zero for ``chopped``
        formats.  Overflow raises (legacy machines trapped); underflow
        flushes to zero (neither Cray nor IBM had gradual underflow).
        """
        if value == 0.0 or not math.isfinite(value):
            return value
        bits = self._radix_bits
        # Exponent e such that radix**(e-1) <= |value| < radix**e, from
        # the binary exponent: 2**(b-1) <= |value| < 2**b.
        e = -(-math.frexp(value)[1] // bits)
        # |value| scaled to ``precision`` radix digits before the point.
        # ldexp scales by a power of two exactly and forms no scale factor
        # ``radix ** k``, which would underflow to 0 or overflow at the
        # ends of the host double's range.
        shift = bits * (e - self.precision)
        quotient = math.ldexp(value, -shift)
        rounded = math.trunc(quotient) if self.chopped else _round_half_even(quotient)
        try:
            result = math.ldexp(rounded, shift)
        except OverflowError:  # rounded up past the host double's range
            result = math.copysign(math.inf, value)
        if abs(result) > self.largest * (1.0 + 1e-15):
            raise OverflowError(f"{value!r} overflows format {self.name}")
        if result != 0.0 and abs(result) < self.tiny:
            return 0.0  # flush to zero: no subnormals in the legacy formats
        return result

    def quantize_array(self, values: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`quantize` (element loop; emulation, not speed)."""
        flat = np.asarray(values, dtype=np.float64).ravel()
        out = np.array([self.quantize(float(v)) for v in flat])
        return out.reshape(np.shape(values))

    # -- emulated arithmetic ------------------------------------------------------
    def add(self, a: float, b: float) -> float:
        return self.quantize(self.quantize(a) + self.quantize(b))

    def sub(self, a: float, b: float) -> float:
        return self.quantize(self.quantize(a) - self.quantize(b))

    def mul(self, a: float, b: float) -> float:
        return self.quantize(self.quantize(a) * self.quantize(b))

    def div(self, a: float, b: float) -> float:
        if self.quantize(b) == 0.0:
            raise ZeroDivisionError(f"division by zero in format {self.name}")
        return self.quantize(self.quantize(a) / self.quantize(b))


def _round_half_even(x: float) -> float:
    """Round to nearest integer, ties to even (Python's round())."""
    return float(round(x))


#: IEEE 754 double: the SX-4's (and our host's) native mode.
IEEE_DOUBLE = FloatFormat("IEEE 754 double", radix=2, precision=53,
                          min_exponent=-1021, max_exponent=1024)
#: IEEE 754 single (the 32-bit operands the vector unit also supports).
IEEE_SINGLE = FloatFormat("IEEE 754 single", radix=2, precision=24,
                          min_exponent=-125, max_exponent=128)
#: Cray-1/X-MP/Y-MP 64-bit single: 48-bit significand, no hidden bit,
#: truncating arithmetic, enormous exponent range.
CRAY_SINGLE = FloatFormat("Cray 64-bit", radix=2, precision=48,
                          min_exponent=-8192, max_exponent=8191, chopped=True)
#: IBM System/360 short (32-bit hexadecimal): 6 hex digits, excess-64
#: exponent of 16.  (The 64-bit IBM format carries 14 hex digits — up to
#: 56 significand bits, *more* than the host double this emulation
#: computes in, so only the short format is emulated faithfully.)
IBM_SINGLE = FloatFormat("IBM hex single", radix=16, precision=6,
                         min_exponent=-64, max_exponent=63)

ALL_FORMATS = (IEEE_DOUBLE, IEEE_SINGLE, CRAY_SINGLE, IBM_SINGLE)


# -- PARANOIA-style probes against an emulated format ---------------------------

def detect_radix(fmt: FloatFormat) -> int:
    """Kahan's radix probe run through the format's own arithmetic."""
    w = 1.0
    while fmt.sub(fmt.add(w, 1.0), w) - 1.0 == 0.0:
        w = fmt.add(w, w)
    radix = 1.0
    while fmt.sub(fmt.add(w, radix), w) == 0.0:
        radix = fmt.add(radix, radix)
    return int(fmt.sub(fmt.add(w, radix), w))


def detect_precision(fmt: FloatFormat, radix: int) -> int:
    """Digits of ``radix`` held by the significand; ``radix`` is the one
    :func:`detect_radix` deduced."""
    radix = float(radix)
    digits = 0
    w = 1.0
    while fmt.sub(fmt.add(w, 1.0), w) - 1.0 == 0.0:
        digits += 1
        w = fmt.mul(w, radix)
    return digits


def rounds_to_nearest(fmt: FloatFormat) -> bool:
    """Whether the format's arithmetic rounds to nearest.

    Probe: 1 + 0.75·eps must round *up* to 1+eps under round-to-nearest
    but chops *down* to 1 under Cray-style truncation.  (The Cray line's
    other famous quirk, the missing subtraction guard digit, is an
    alignment artifact invisible to value-level emulation; the chopping
    bias this probe sees is the quirk PARANOIA-class tests flag first.)
    """
    eps = fmt.epsilon
    return fmt.add(1.0, 0.75 * eps) == fmt.add(1.0, eps)
