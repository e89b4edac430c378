import math
from fractions import Fraction as F

import pytest

from curvedqes.exactmath import exact_div, exact_sqrt, is_exact, scale_div


def test_exact_sqrt_perfect_squares_stay_rational():
    assert exact_sqrt(9) == 3 and isinstance(exact_sqrt(9), F)
    assert exact_sqrt(F(9, 4)) == F(3, 2)
    assert exact_sqrt(0) == 0


def test_exact_sqrt_falls_back_to_float():
    assert exact_sqrt(2) == math.sqrt(2) and isinstance(exact_sqrt(2), float)
    assert exact_sqrt(2.25) == 1.5 and isinstance(exact_sqrt(2.25), float)


def test_exact_sqrt_rejects_negative():
    with pytest.raises(ValueError):
        exact_sqrt(-1)
    with pytest.raises(ValueError):
        exact_sqrt(-0.5)


def test_exact_div():
    assert exact_div(1, 3) == F(1, 3) and isinstance(exact_div(1, 3), F)
    assert isinstance(exact_div(1.0, 3), float)
    assert exact_div(F(1, 2), F(1, 4)) == 2


def test_scale_div():
    # one normalised Fraction for rational x, the same float expression for float x
    assert scale_div(F(3, 2), -10, 4) == F(-15, 4) and isinstance(scale_div(F(3, 2), -10, 4), F)
    assert scale_div(2, 3, 6) == 1 and isinstance(scale_div(2, 3, 6), F)
    x = math.sqrt(2)
    assert scale_div(x, -math.comb(60, 30), 60) == -(x * math.comb(60, 30) / 60)


def test_is_exact():
    assert is_exact(1, F(1, 2))
    assert not is_exact(1, 0.5)
