"""Small helpers for arithmetic that stays rational whenever the inputs allow it.

The closed-form results of this package (coefficients, energies, wavefunction
exponents) are polynomials in the model parameters and in sqrt(B).  Feeding
ints or Fractions through them therefore yields exact rationals as long as
sqrt(B) itself is rational; floats degrade gracefully to floats.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Union

Scalar = Union[int, float, Fraction]

HALF = Fraction(1, 2)
QUARTER = Fraction(1, 4)


def exact_sqrt(value: Scalar) -> Scalar:
    """Square root, kept as a Fraction when the input is a rational perfect square."""
    if isinstance(value, float):
        if value < 0:
            raise ValueError(f"square root of negative value {value}")
        return math.sqrt(value)
    frac = Fraction(value)
    if frac < 0:
        raise ValueError(f"square root of negative value {value}")
    num, den = frac.numerator, frac.denominator
    rnum, rden = math.isqrt(num), math.isqrt(den)
    if rnum * rnum == num and rden * rden == den:
        return Fraction(rnum, rden)
    return math.sqrt(float(frac))


def exact_div(a: Scalar, b: Scalar) -> Scalar:
    """a / b, exact for rational operands."""
    if isinstance(a, float) or isinstance(b, float):
        return a / b
    return Fraction(a) / Fraction(b)


def scale_div(x: Scalar, num: int, den: int) -> Scalar:
    """x * num / den for ints num and den: one Fraction for a rational x, else in floats."""
    if isinstance(x, float):
        return x * num / den
    return Fraction(x.numerator * num, x.denominator * den)


def is_exact(*values: Scalar) -> bool:
    """True when every value is an int or Fraction."""
    return all(not isinstance(v, float) for v in values)


def canonical(value: Scalar) -> Scalar:
    """Collapse whole-number Fractions to plain ints (values compare equal)."""
    if isinstance(value, Fraction) and value.denominator == 1:
        return int(value)
    return value
