import itertools
import json
import math
import warnings
from fractions import Fraction as F

import mpmath
import numpy as np
import pytest

from curvedqes import (
    DegenerateCurvature,
    DomainError,
    Family,
    InvalidParameter,
    PotentialSpec,
    SignMismatch,
    eval_potential,
    general_two_state,
    oscillator_from_beta,
    partner_shift,
    reduced_spec,
    spec_from_dict,
    spec_from_json,
    spec_to_dict,
    spec_to_json,
)
from curvedqes import potentials
from curvedqes.cli import FIGURE_GRID_POINTS
from curvedqes.potentials import LONG_RUN


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
    # a value that is not a real number is an InvalidParameter, not a TypeError
    for L, B2m, lam in (("x", 1, 1), (1, None, 1), (1, 1, 1 + 1j)):
        with pytest.raises(InvalidParameter, match="must be finite"):
            general_two_state(1, 1, L, B2m, lam)


@pytest.mark.parametrize(
    "data, match",
    [({}, "missing family, L, A, lambda"), ([1], "JSON object"), ("spec", "JSON object"),
     ({"family": 5, "L": 0, "A": 1, "lambda": 1}, "unknown family 5"),
     ({"family": 0, "L": 0, "A": "x", "lambda": 1}, "A must be finite"),
     ({"family": 0, "L": None, "A": 1, "lambda": 1}, "L must be finite"),
     ({"family": 0, "L": 0, "A": 1, "lambda": 1e400}, "lambda must be finite"),
     ({"family": 0, "L": 0, "A": 1, "lambda": 1, "shift": "nan"}, "shift must be finite"),
     ({"family": 1, "m": 1, "L": 0, "A": 1, "lambda": 1, "B": [1, 1], "shift": float("nan")},
      "shift must be finite"),
     # a QES spec's A and tail B_1..B_{2m-1}, which eval_potential would read as floats
     ({"family": 1, "m": 1, "L": 0, "A": "x", "lambda": 1, "B": ["y", 1]}, "A must be finite"),
     ({"family": 1, "m": 1, "L": 0, "A": 1, "lambda": 1, "B": ["y", 1]}, "B_1 must be finite"),
     ({"family": 2, "m": 1, "L": 0, "A": 1, "lambda": -1, "B": [None, 1]}, "B_1 must be finite"),
     ({"family": 1, "m": 1, "L": 0, "A": 1, "lambda": 1, "B": 5}, "B must be a list")],
)
def test_spec_from_dict_rejects_malformed_input(data, match):
    with pytest.raises(InvalidParameter, match=match):
        spec_from_dict(data)
    with pytest.raises(InvalidParameter, match=match):
        spec_from_json(json.dumps(data))


def test_eval_domain_errors():
    spec = reduced_spec(2, 1, 0, 1, -1)
    with pytest.raises(DomainError):
        eval_potential(spec, 1.0)
    with pytest.raises(DomainError):
        eval_potential(spec, 0.0)
    with pytest.raises(DomainError):
        eval_potential(spec, math.nan)


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
    r = np.geomspace(1e-3, 1 - 1e-4, 1000)
    for spec in (sol.spec, partner_shift(sol.spec)[0]):
        with warnings.catch_warnings(record=True) as caught, np.errstate(
            divide="warn", over="warn", invalid="warn", under="ignore"
        ):
            warnings.simplefilter("always")
            v = eval_potential(spec, r)
        assert len([w for w in caught if issubclass(w.category, RuntimeWarning)]) <= 1
        assert not np.any(np.isnan(v))


def _spec_with_runs(family, lam, lengths, seed, L=1.0):
    """A spec built through spec_from_dict whose tail is runs of the given lengths, with
    mixed signs and magnitudes; the last coefficient, B_2m, is positive."""
    rng = np.random.default_rng(seed)
    B = []
    for n in lengths:
        B += [float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-2, 2))] * n
    B[-lengths[-1]:] = [abs(B[-1])] * lengths[-1]
    return spec_from_dict({"family": family, "m": len(B) // 2, "L": L, "lambda": lam,
                           "A": float(rng.uniform(-5, 5)), "B": B, "shift": 0.5})


# run lengths of B_1..B_2m; the last run is B_2m, the highest power of f^2 or of 1/f^2
RUN_PATTERNS = [
    (LONG_RUN - 1, 1, LONG_RUN),
    (LONG_RUN, LONG_RUN),
    (1, LONG_RUN - 1, LONG_RUN, 2),
    (2 * LONG_RUN,),
    (4, LONG_RUN + 1, 1, 1, LONG_RUN - 1),
    (1, 1, 29, 1, 30, 1, 1, 56),
    (59, 1, 60),
    (119, 1),
    (1, 119),
    (120,),
]


def _mp_terms(spec, r):
    """The potential's terms at r, in 50-digit arithmetic from the spec's float coefficients."""
    lam, L, A, shift = (mpmath.mpf(float(x)) for x in (spec.lam, spec.L, spec.A, spec.shift))
    r = mpmath.mpf(float(r))
    f2 = 1 + lam * r * r
    terms = [L * (L + 1) / (r * r), lam * A, -lam * A / f2, shift]
    for k, b in enumerate(spec.B, start=1):
        b = mpmath.mpf(float(b))
        terms.append(lam * b * f2**k if spec.family is Family.FAMILY1 else -lam * b / f2 ** (k + 1))
    return terms


@pytest.mark.parametrize("pattern", RUN_PATTERNS, ids=lambda p: "-".join(map(str, p)))
@pytest.mark.parametrize("family, lam", [(1, 1.0), (1, 2.5), (2, -1.0), (2, -0.4)])
def test_run_sums_match_a_50_digit_sum(family, lam, pattern):
    # each value within 1e-13 of the sum of its terms' absolute values
    spec = _spec_with_runs(family, lam, pattern, seed=len(pattern) + sum(pattern))
    top = 3.0 if family == 1 else 0.9
    r = np.geomspace(1e-3, top, 40) / np.sqrt(abs(lam))
    v = eval_potential(spec, r)
    with mpmath.workdps(50):
        for x, got in zip(r, v):
            terms = _mp_terms(spec, x)
            err = abs(mpmath.mpf(got) - mpmath.fsum(terms))
            assert err <= 1e-13 * mpmath.fsum(abs(t) for t in terms), (x, got)


@pytest.mark.parametrize("family, lam", [(1, 1.0), (2, -1.0), (1, 1e-200), (2, -1e-200)])
def test_run_sums_hold_where_f2_rounds_to_one(family, lam):
    # lam r^2 down to 1e-300, and past the double range at |lam| = 1e-200: a run sums to n c
    spec = _spec_with_runs(family, lam, (LONG_RUN, 2, LONG_RUN), seed=3, L=0.0)
    r = np.geomspace(1e-150, 1e-2, 41)
    v = eval_potential(spec, r)
    with mpmath.workdps(50):
        for x, got in zip(r, v):
            terms = _mp_terms(spec, x)
            err = abs(mpmath.mpf(got) - mpmath.fsum(terms))
            assert err <= 1e-13 * mpmath.fsum(abs(t) for t in terms), (x, got)


@pytest.mark.parametrize("pattern", RUN_PATTERNS, ids=lambda p: "-".join(map(str, p)))
def test_family2_runs_are_inf_past_the_wall_never_nan(pattern):
    # f^(4m+2) underflows near the wall: V is +inf there, with at most one warning
    spec = _spec_with_runs(2, -1.0, pattern, seed=sum(pattern))
    r = 1.0 - np.geomspace(0.5, 1e-15, 400)
    with warnings.catch_warnings(record=True) as caught, np.errstate(
        divide="warn", over="warn", invalid="warn", under="ignore"
    ):
        warnings.simplefilter("always")
        v = eval_potential(spec, r)
    assert len([w for w in caught if issubclass(w.category, RuntimeWarning)]) <= 1
    assert not np.any(np.isnan(v))
    assert np.isposinf(v[-1])


def test_run_sums_are_not_nan_where_lam_r2_rounds_past_the_domain_end():
    # at the last radius below 1/sqrt(-lam), lam r^2 rounds to -1 - 2^-52 for this lam
    lam = -84.6067685083648
    r = np.nextafter(1.0 / np.sqrt(-lam), 0.0)
    assert lam * r * r < -1.0
    spec = _spec_with_runs(2, lam, (LONG_RUN, LONG_RUN), seed=5)
    with np.errstate(all="ignore"):
        assert not np.isnan(eval_potential(spec, r))


@pytest.mark.parametrize("m", [1, 16])  # a short tail's per-term sum, and a long tail's runs
def test_family2_is_inf_where_lam_r2_rounds_to_minus_one(m):
    # f^2 <= 0 at the last radius below 1/sqrt(-lam): the wall's +inf, never a large
    # negative value, -inf or NaN, and the other radii keep their values
    lam = -84.6067685083648
    r = np.array([0.05, 0.1087, np.nextafter(0.10871699658938425, 0.0), 0.10871699658938425])
    assert lam * r[-1] * r[-1] < -1.0
    spec = reduced_spec(2, m, 1, 1, lam)
    with warnings.catch_warnings(record=True) as caught, np.errstate(
        divide="warn", over="warn", invalid="warn", under="ignore"
    ):
        warnings.simplefilter("always")
        v = eval_potential(spec, r)
    assert len([w for w in caught if issubclass(w.category, RuntimeWarning)]) <= 1
    assert np.isposinf(v[-1]) and not np.any(np.isnan(v))
    with np.errstate(all="ignore"):
        assert eval_potential(spec, r[-1]) == math.inf
        assert np.array_equal(v[:-1], eval_potential(spec, r[:-1]))


def test_centrifugal_term_is_left_out_at_L0():
    # 0 / r^2 is NaN where r^2 underflows, below about r = 1e-162; f^2 rounds to 1 there
    spec = reduced_spec(1, 4, 0, 1, 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert eval_potential(spec, 1e-170) == eval_potential(spec, 1e-100)


@pytest.mark.parametrize("family", [1, 2])
def test_tails_without_a_long_run_match_a_50_digit_sum(family):
    # m = 3 to 11 and tails of short runs: Horner's rule in _run_sum, one multiply and
    # one add per term, each value within 1e-13 of the sum of its terms' absolute values
    lam = 1.0 if family == 1 else -1.0
    r = np.geomspace(1e-3, 3.0 if family == 1 else 0.9, 40)  # test_run_sums_match_a_50_digit_sum's
    specs = [reduced_spec(family, m, L, B2m, lam) for m in (3, 4, 8, 10)
             for L, B2m in ((0, 1), (F(1, 2), F(5, 2)))]
    specs += [partner_shift(s)[0] for s in specs]
    specs += [_spec_with_runs(family, lam, p, seed) for seed, p in
              enumerate([(1, 2, 3), (LONG_RUN - 1, LONG_RUN - 1), (2, 1, LONG_RUN - 1, LONG_RUN - 2)])]
    for spec in specs:
        assert max(n for _, n in spec._runs) < LONG_RUN
        v = eval_potential(spec, r)
        with mpmath.workdps(50):
            for x, got in zip(r, v):
                terms = _mp_terms(spec, x)
                err = abs(mpmath.mpf(got) - mpmath.fsum(terms))
                assert err <= 1e-13 * mpmath.fsum(abs(t) for t in terms), (spec, x, got)


def test_short_runs_warn_once_past_a_family2_wall():
    # f^(4m+2) is subnormal at some radii and 0 at others: the tail's one factor
    # f^-(4m+2) overflows with one warning, where a division per term warned twice
    r = 1.0 - np.geomspace(0.5, 1e-15, 400)
    with warnings.catch_warnings(record=True) as caught, np.errstate(divide="warn", over="warn"):
        warnings.simplefilter("always")
        v = eval_potential(reduced_spec(2, 11, 1, 1, -1), r)
    assert len([w for w in caught if issubclass(w.category, RuntimeWarning)]) <= 1
    assert not np.any(np.isnan(v)) and np.isposinf(v[-1])


def test_runs_are_grouped_once_per_spec(monkeypatch):
    calls = []

    def counted(coeffs):
        calls.append(1)
        return itertools.groupby(coeffs)

    monkeypatch.setattr(potentials, "groupby", counted)
    spec = reduced_spec(1, 30, 1, 2, 1)
    for _ in range(3):
        eval_potential(spec, np.linspace(0.1, 1.0, 50))
    assert len(calls) == 1
    assert spec._runs == ((2.0, 30), (float(spec.B[29]), 1), (float(spec.B[0]), 29))
