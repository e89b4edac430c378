import math
from fractions import Fraction

import numpy as np
import pytest

from curvedqes import (
    DegenerateCurvature,
    Deformation,
    DomainError,
    InvalidParameter,
    arc_coordinate,
    deformation_factor,
    radius_from_arc,
    reduce_radial,
)


def test_deformation_factor_values():
    pos = Deformation(1.0)
    assert deformation_factor(pos, 1e-12) == pytest.approx(1.0, abs=1e-12)
    assert deformation_factor(pos, 1.0) == pytest.approx(math.sqrt(2.0), rel=1e-15)
    neg = Deformation(-1.0)
    assert deformation_factor(neg, 0.6) == pytest.approx(0.8, rel=1e-15)


def test_deformation_factor_domain_errors():
    pos = Deformation(1.0)
    neg = Deformation(-1.0)
    for bad in (0.0, -0.5):
        with pytest.raises(DomainError):
            deformation_factor(pos, bad)
    with pytest.raises(DomainError):
        deformation_factor(neg, 1.0)
    with pytest.raises(DomainError):
        deformation_factor(neg, 1.5)


def test_domain_max():
    assert Deformation(1.0).domain_max == math.inf
    assert Deformation(-4.0).domain_max == 0.5
    with pytest.raises(DegenerateCurvature):
        Deformation(0.0)


def test_arc_coordinate_limits():
    pos = Deformation(1.0)
    assert arc_coordinate(pos, 1e-15) == pytest.approx(0.0, abs=1e-14)
    neg = Deformation(-1.0)
    # finite box: x(r) -> pi/2 as r -> 1
    assert arc_coordinate(neg, 1.0 - 1e-12) == pytest.approx(math.pi / 2, abs=3e-6)
    assert arc_coordinate(neg, 1.0 - 1e-12) < math.pi / 2


@pytest.mark.parametrize("lam", [1.0, 0.25, -1.0, -4.0])
def test_arc_round_trip(lam):
    defo = Deformation(lam)
    hi = 5.0 if lam > 0 else defo.domain_max * (1 - 1e-9)
    for r in np.linspace(1e-6, hi, 57):
        if r <= 0:
            continue
        back = radius_from_arc(defo, arc_coordinate(defo, r))
        assert abs(back - r) <= 1e-14 * (1 + r)


def test_arc_round_trip_single_point():
    defo = Deformation(1.0)
    assert abs(radius_from_arc(defo, arc_coordinate(defo, 0.3)) - 0.3) <= 1e-14 * 1.3


@pytest.mark.parametrize("lam", [1.0, -1.0])
def test_arc_derivative_matches_finite_differences(lam):
    defo = Deformation(lam)
    hi = 3.0 if lam > 0 else 0.95
    h = 1e-6
    for r in np.linspace(0.05, hi, 23):
        fd = (arc_coordinate(defo, r + h) - arc_coordinate(defo, r - h)) / (2 * h)
        assert fd == pytest.approx(1.0 / deformation_factor(defo, r), rel=1e-8)


@pytest.mark.parametrize("lam", [2.0, 1.0, -1.0, -0.5])
def test_factor_identity(lam):
    defo = Deformation(lam)
    hi = 10.0 if lam > 0 else defo.domain_max * (1 - 1e-6)
    r = np.linspace(1e-5, hi, 400)
    f = deformation_factor(defo, r)
    assert np.all(np.abs(f * f - lam * r * r - 1.0) <= 1e-14 * (1.0 + np.abs(lam * r * r)))


def test_negative_curvature_monotone_decrease():
    defo = Deformation(-1.0)
    r = np.linspace(0.01, 1 - 1e-9, 500)
    f = deformation_factor(defo, r)
    assert np.all(np.diff(f) < 0)
    assert f[-1] < 1e-4
    assert arc_coordinate(defo, r[-1]) == pytest.approx(math.pi / 2, abs=1e-4)


def test_reduce_radial():
    assert reduce_radial(3, 0, 1, 3) == (0, 2)
    assert reduce_radial(5, 2, 1, 0) == (3, -4)


def test_reduce_radial_flags_negative_L():
    with pytest.warns(UserWarning):
        L, _ = reduce_radial(2, 0, 1, 0)
    assert L == -0.5


def test_reduce_radial_validation():
    with pytest.raises(ValueError):
        reduce_radial(1, 0, 1, 0)
    with pytest.raises(ValueError):
        reduce_radial(3, -1, 1, 0)


@pytest.mark.parametrize("d, l", [(1, 0), (0, 2), (-3, 1), (3, -1), (2, -5), (4.0, 0), (3, 0.5), (True, 1)])
def test_reduce_radial_rejects_bad_d_and_l_typed(d, l):
    # InvalidParameter subclasses ValueError, so callers that catch ValueError still work
    with pytest.raises(InvalidParameter):
        reduce_radial(d, l, 1, 0)


@pytest.mark.parametrize("d, l, L", [(2, 1, Fraction(1, 2)), (4, 0, Fraction(1, 2)), (4, 3, Fraction(7, 2)),
                                     (6, 2, Fraction(7, 2)), (3, 2, 2), (5, 0, 1)])
def test_reduce_radial_L_is_exact(d, l, L):
    # even d gives a half-integer L as a Fraction, next to the exact E; odd d an int
    got, E = reduce_radial(d, l, 1, 0)
    assert got == L and type(got) is type(L)
    assert E == Fraction(-(d - 1) ** 2, 4)


def test_reduce_radial_exact_L_feeds_the_exact_lane():
    # d = 4, l = 0: L = 1/2 stays exact, so the closed-form energies stay Fractions
    from curvedqes import general_two_state

    L, E = reduce_radial(4, 0, 1, 0)
    assert (L, E) == (Fraction(1, 2), Fraction(-9, 4))
    sol = general_two_state(1, 2, L, 4, 1)
    assert isinstance(sol.E0, Fraction) and isinstance(sol.E1, Fraction)


def test_reduce_radial_negative_L_is_exact_and_warns():
    with pytest.warns(UserWarning, match="L=-1/2"):
        L, _ = reduce_radial(2, 0, 1, 0)
    assert L == Fraction(-1, 2) and isinstance(L, Fraction)


def test_reduction_feeds_solver():
    # d=5, l=1 gives L=2; the reduced energy matches the solver's ground level
    from curvedqes import general_two_state

    L, E = reduce_radial(5, 1, 1, curved_energy=Fraction(-39, 2))
    sol = general_two_state(1, 1, L, 1, 1)
    assert L == 2
    assert E == sol.E0
