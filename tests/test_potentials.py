import json
import warnings
from fractions import Fraction as F

import numpy as np
import pytest

from curvedqes import (
    DegenerateCurvature,
    DomainError,
    Family,
    PotentialSpec,
    SignMismatch,
    eval_potential,
    general_two_state,
    oscillator_from_beta,
    partner_shift,
    reduced_spec,
    spec_from_json,
    spec_to_dict,
    spec_to_json,
)
from curvedqes.cli import FIGURE_GRID_POINTS
from curvedqes.verify import _check_grid


def test_base_oscillator_value():
    spec = oscillator_from_beta(2, 1, L=0)
    assert spec.A == 6
    # beta(beta+lam) r^2 / (1 + lam r^2) at r=1
    assert eval_potential(spec, 1.0) == pytest.approx(3.0, rel=1e-15)


def test_oscillator_A_values():
    assert oscillator_from_beta(3, 3).A == 2
    assert oscillator_from_beta(0, -1).A == 0
    assert oscillator_from_beta(2, 1).A == 6


def test_family1_reduced_eval():
    spec = reduced_spec(1, 1, 1, 1, 1)
    # L(L+1)/r^2 + 3/4 - 3/(4 f^2) - 10 f^2 + f^4 at r=1 (f^2 = 2)
    expected = 2 + 0.75 - 0.375 - 20 + 4
    assert eval_potential(spec, 1.0) == pytest.approx(expected, rel=1e-14)


def test_family2_wall_blows_up():
    spec = reduced_spec(2, 1, 1, 1, -1)
    vals = eval_potential(spec, np.array([0.9, 0.99, 0.999, 0.99999]))
    assert np.all(np.diff(vals) > 0)
    assert vals[-1] > 1e12


def test_family1_coefficients_examples():
    spec = reduced_spec(1, 1, 1, 1, 1)
    assert spec.A == F(3, 4) and spec.B == (-10, 1)
    spec = reduced_spec(1, 2, 1, 1, 1)
    assert spec.A == F(15, 4) and spec.B == (-4, -14, 1, 1)
    spec = reduced_spec(1, 3, 0, 4, 1)
    assert spec.A == F(35, 4) and spec.B == (-6, -6, -34, 4, 4, 4)


def test_family2_coefficients_examples():
    spec = reduced_spec(2, 1, 1, 4, -1)
    assert spec.A == F(-25, 4) and spec.B == (-8, 4)
    spec = reduced_spec(2, 2, 0, 9, -1)
    assert spec.A == F(-13, 4) and spec.B == (-12, -21, 9, 9)
    spec = reduced_spec(2, 3, 0, 1, -1)
    assert spec.A == F(55, 4) and spec.B == (-2, -2, -13, 1, 1, 1)


def test_coefficients_do_not_depend_on_lambda():
    for family, lams in ((1, (1, F(1, 3), 4, 2.5)), (2, (-1, F(-1, 3), -4, -2.5))):
        for m in (1, 2, 5):
            unit = reduced_spec(family, m, 1, 4, lams[0])
            for lam in lams[1:]:
                spec = reduced_spec(family, m, 1, 4, lam)
                assert (spec.A, spec.B) == (unit.A, unit.B)


@pytest.mark.parametrize("L", range(10))
@pytest.mark.parametrize("root", range(1, 11))
def test_family1_order1_matches_two_step_reduction(L, root):
    # independent reference: B1 = -B2 - sqrt(B2)(2L+7), A = 3/4
    B2 = root * root
    spec = reduced_spec(1, 1, L, B2, 1)
    assert spec.A == F(3, 4)
    assert spec.B == (-B2 - root * (2 * L + 7), B2)


@pytest.mark.parametrize("L", range(4))
@pytest.mark.parametrize("root", range(1, 4))
def test_order2_match_two_step_reduction(L, root):
    B4 = root * root
    spec = reduced_spec(1, 2, L, B4, 1)
    assert spec.B == (-B4 - root * (2 * L + 1), -B4 - root * (2 * L + 11), B4, B4)
    assert spec.A == F(15, 4)

    B2 = B4
    spec = reduced_spec(2, 1, L, B2, -1)
    assert spec.B == (B2 - 6 * root, B2)
    assert spec.A == -B2 - (2 * L + 1) * root + F(15, 4)

    spec = reduced_spec(2, 2, L, B4, -1)
    assert spec.B == (-B4 - root * (2 * L + 1), B4 - 10 * root, B4, B4)
    assert spec.A == -B4 - (2 * L + 1) * root + F(35, 4)


def test_family1_small_r_centrifugal_dominance():
    spec = reduced_spec(1, 1, 2, 1, 1)
    for r in (1e-3, 1e-4, 1e-5):
        ratio = eval_potential(spec, r) * r * r / 6.0
        assert ratio == pytest.approx(1.0, abs=1e-5)


def test_validation_rules():
    with pytest.raises(SignMismatch):
        reduced_spec(1, 1, 0, 1, -1)
    with pytest.raises(SignMismatch):
        reduced_spec(2, 1, 0, 1, 1)
    with pytest.raises(ValueError):
        reduced_spec(1, 1, 0, 0, 1)
    with pytest.raises(ValueError):
        reduced_spec(2, 1, 0, -1, -1)
    with pytest.raises(ValueError):
        PotentialSpec(family=Family.FAMILY1, m=1, L=-1, A=1, B=(1, 1), lam=1)
    with pytest.raises(ValueError):
        PotentialSpec(family=Family.FAMILY1, m=1, L=0, A=1, B=(1, -1), lam=1)
    with pytest.raises(ValueError):
        PotentialSpec(family=Family.FAMILY1, m=2, L=0, A=1, B=(1, 1), lam=1)
    with pytest.raises(DegenerateCurvature):
        PotentialSpec(family=Family.BASE, L=0, A=1, lam=0)


def test_eval_domain_errors():
    spec = reduced_spec(2, 1, 0, 1, -1)
    with pytest.raises(DomainError):
        eval_potential(spec, 1.0)
    with pytest.raises(DomainError):
        eval_potential(spec, 0.0)


def test_json_round_trip():
    spec = reduced_spec(1, 2, 1, 4, 1)
    data = spec_to_dict(spec)
    assert set(data) == {"family", "m", "L", "lambda", "A", "B", "shift"}
    assert data["family"] == 1
    back = spec_from_json(spec_to_json(spec))
    assert back.family == spec.family
    assert back.m == spec.m
    assert float(back.A) == float(spec.A)
    assert [float(b) for b in back.B] == [float(b) for b in spec.B]
    r = 0.7
    assert eval_potential(back, r) == pytest.approx(eval_potential(spec, r), rel=1e-15)


def test_json_shift_field_round_trip():
    spec = PotentialSpec(family=Family.BASE, L=1, A=2, lam=-1, shift=F(21, 2))
    doc = json.loads(spec_to_json(spec))
    assert doc["shift"] == 10.5
    assert float(spec_from_json(spec_to_json(spec)).shift) == 10.5


def _per_term_potential(spec, r):
    """The tail summed one `**` per term, as fig1.csv and fig3.csv were written."""
    lam, L, A = float(spec.lam), float(spec.L), float(spec.A)
    f2 = 1.0 + lam * r * r
    v = L * (L + 1.0) / (r * r) + lam * A - lam * A / f2 + float(spec.shift)
    for k, Bk in enumerate(spec.B, start=1):
        if spec.family is Family.FAMILY1:
            v = v + lam * float(Bk) * f2**k
        else:
            v = v - lam * float(Bk) / f2 ** (k + 1)
    return v


@pytest.mark.parametrize("B2m", [1, 2])
@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("family", [1, 2])
def test_short_tails_keep_the_per_term_sum_bit_for_bit(family, m, B2m):
    # the figure grids of `curvedqes figures`: their 17-digit values are golden bytes
    lam = 1 if family == 1 else -1
    top = 4.0 if family == 1 else 0.999
    r = np.linspace(0.05, top, FIGURE_GRID_POINTS)
    spec = reduced_spec(family, m, 1, B2m, lam)
    for s in (spec, partner_shift(spec)[0]):
        assert np.array_equal(eval_potential(s, r), _per_term_potential(s, r))


def test_family2_high_order_wall_warns_at_most_once():
    # near the wall f^2 -> 0; only the one power f^(4m+2) may underflow there
    sol = general_two_state(2, 60, 0, 1, -1)
    r = _check_grid(sol)
    for spec in (sol.spec, partner_shift(sol.spec)[0]):
        with warnings.catch_warnings(record=True) as caught, np.errstate(
            divide="warn", over="warn", invalid="warn", under="ignore"
        ):
            warnings.simplefilter("always")
            v = eval_potential(spec, r)
        assert len([w for w in caught if issubclass(w.category, RuntimeWarning)]) <= 1
        assert not np.any(np.isnan(v))
