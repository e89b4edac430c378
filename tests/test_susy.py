import math
from fractions import Fraction as F
from math import comb

import mpmath
import numpy as np
import pytest

from curvedqes import (
    NotConstrained,
    PoleAtNode,
    Superpotential,
    UnsupportedTerm,
    WavefunctionForm,
    eval_potential,
    general_two_state,
    oscillator_from_beta,
    oscillator_ground_energy,
    oscillator_partner,
    oscillator_superpotential,
    partner_shift,
    reduced_spec,
    riccati_apply,
    w_minus_from_w_plus,
    wavefunction_from_superpotential,
)
from curvedqes.cli import FIGURE_GRID_POINTS
from curvedqes.exactmath import HALF, exact_div, exact_sqrt
from curvedqes.susy import (
    _power_sums,
    evaluate_forms,
    potential_expand,
    riccati_expand,
)


def apply_raising(w: Superpotential, psi: WavefunctionForm) -> WavefunctionForm:
    """The A+ operator, term by term: the independent reference for psi1.

    psi must be the ground state generated from the partner superpotential W';
    the operator then multiplies psi by W + W' and the product collapses back
    to a single r-power, f-power and polynomial prefactor.
    """
    if len(psi.prefactor) > 1 or psi.prefactor[0] == 0:
        raise UnsupportedTerm("raising operator expects a nodeless ground-state form")
    lam = w.lam
    scale = psi.prefactor[0]
    mono: dict = {}

    def add(coeff, p, q):
        if coeff != 0:
            mono[(p, q)] = mono.get((p, q), 0) + coeff

    # -f (ln psi)' - f'/2, assembled analytically from the closed form
    add(-psi.r_power, -1, 1)
    add(-(psi.f_power + HALF) * lam, 1, -1)
    for j, cj in enumerate(psi.exp_r2, start=1):
        add(-2 * j * cj * lam ** j, 2 * j - 1, 1)
    for k, dk in enumerate(psi.exp_finv, start=1):
        add(2 * k * dk * lam, 1, -(2 * k + 1))
    for term in w.terms:
        add(term.coeff, term.r_exp, term.f_exp)

    items = [(c, p, q) for (p, q), c in mono.items() if c != 0]
    if not items:
        raise UnsupportedTerm("raising operator annihilated the state")
    q0 = min(q for _, _, q in items)
    if any((q - q0) % 2 for _, _, q in items):
        raise UnsupportedTerm("mixed f-power parity in the raising product")
    poly: dict = {}
    for c, p, q in items:
        n = (q - q0) // 2
        for s in range(n + 1):
            key = p + 2 * s
            poly[key] = poly.get(key, 0) + c * comb(n, s) * lam ** s
    entries = {p: c for p, c in poly.items() if c != 0}
    p0 = min(entries)
    if any((p - p0) % 2 for p in entries):
        raise UnsupportedTerm("mixed r-power parity in the raising product")
    alam = abs(lam)
    smax = (max(entries) - p0) // 2
    pref = [scale * exact_div(entries.get(p0 + 2 * s, 0), alam ** s) for s in range(smax + 1)]
    return WavefunctionForm(
        psi.r_power + p0,
        psi.f_power + q0,
        psi.exp_r2,
        psi.exp_finv,
        tuple(pref),
        lam,
    )


def test_zero_superpotential():
    w = Superpotential((), 1)
    for r in (0.3, 1.0, 2.5):
        assert riccati_apply(w, "minus", r) == 0.0
        assert riccati_apply(w, "plus", r) == 0.0
    psi = wavefunction_from_superpotential(w)
    assert psi.r_power == 0 and psi.f_power == F(-1, 2)


def test_term_validation():
    with pytest.raises(ValueError):
        Superpotential(((1, 2, 1),), 1)
    with pytest.raises(ValueError):
        Superpotential(((1, 1, 2),), 1)


def test_riccati_reduced_family1_matches_potential():
    sol = general_two_state(1, 1, 1, 1, 1)
    spec = sol.spec
    for r in (0.5, 1.0, 2.0):
        v = riccati_apply(sol.w, "minus", r) + float(sol.E0)
        assert v == pytest.approx(eval_potential(spec, r), rel=1e-12, abs=1e-12)


def test_riccati_base_oscillator_at_node_of_w():
    w = oscillator_superpotential(2, 0, 1)
    # W(1) = -f + 2/f = 0, so the Riccati value reduces to -f W'(1)
    assert w.value(1.0) == pytest.approx(0.0, abs=1e-15)
    val = riccati_apply(w, "minus", 1.0)
    f = math.sqrt(2.0)
    assert val == pytest.approx(-f * w.derivative(1.0), rel=1e-14)
    spec = oscillator_from_beta(2, 1, L=0)
    e0 = oscillator_ground_energy(2, 0, 1)
    assert val == pytest.approx(eval_potential(spec, 1.0) - e0, rel=1e-13)


def test_partner_shift_family1_m1():
    spec = reduced_spec(1, 1, 1, 1, 1)
    partner, R = partner_shift(spec)
    assert partner.L == 2
    assert partner.A == F(15, 4)
    assert partner.B == (-6, 1)
    assert R == F(21, 2)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_partner_shift_general_A(m):
    spec1 = reduced_spec(1, m, 1, 4, 1)
    p1, _ = partner_shift(spec1)
    assert p1.A == F((2 * m + 3) * (2 * m + 1), 4)
    spec2 = reduced_spec(2, m, 1, 4, -1)
    p2, _ = partner_shift(spec2)
    assert p2.B[m - 1:] == (4,) * (m + 1)  # B'_m..B'_2m all equal B_2m


@pytest.mark.parametrize("fam,lam", [(1, 1), (2, -1)])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_partner_potential_identity(fam, lam, m):
    sol = general_two_state(fam, m, 1, 1, lam)
    partner, R = partner_shift(sol.spec)
    r = np.geomspace(1e-2, 2.5 if lam > 0 else 0.99, 500)
    lhs = riccati_apply(sol.w, "plus", r)
    rhs = eval_potential(partner, r) + float(R)
    assert np.max(np.abs(lhs - rhs) / (1 + np.abs(rhs))) < 1e-12


@pytest.mark.parametrize("fam,lam", [(1, 1), (2, -1)])
@pytest.mark.parametrize("m", [1, 2, 3, 8])
def test_partner_shift_matches_exact_riccati_expansion(fam, lam, m):
    for L in (0, F(1, 2), 1):
        for B2m in (1, 4, F(9, 4)):
            sol = general_two_state(fam, m, L, B2m, lam)
            partner, R = partner_shift(sol.spec)
            expected = potential_expand(partner)
            expected[0] += R
            assert riccati_expand(sol.w, "plus") == {k: c for k, c in expected.items() if c != 0}


@pytest.mark.parametrize("fam,lam", [(1, 1), (2, -1)])
@pytest.mark.parametrize("m", [4, 16, 31, 60])
def test_exact_identities_hold_across_the_order_range(fam, lam, m):
    # W^2 - f W' = V - E0 and W^2 + f W' = V_partner + R as exact Fractions, up to MAX_ORDER
    sol = general_two_state(fam, m, F(1, 2), F(9, 4), lam)
    expected = potential_expand(sol.spec)
    expected[0] -= sol.E0
    assert riccati_expand(sol.w, "minus") == {k: c for k, c in expected.items() if c != 0}
    partner, R = partner_shift(sol.spec)
    expected = potential_expand(partner)
    expected[0] += R
    assert riccati_expand(sol.w, "plus") == {k: c for k, c in expected.items() if c != 0}


def test_partner_shift_rejects_unconstrained():
    with pytest.raises(NotConstrained):
        partner_shift(oscillator_from_beta(2, 1))
    good = reduced_spec(1, 1, 1, 1, 1)
    bad = type(good)(family=good.family, m=1, L=1, A=good.A, B=(-9.5, 1), lam=1)
    with pytest.raises(NotConstrained):
        partner_shift(bad)


def test_ground_state_forms():
    sol = general_two_state(1, 1, 2, 4, 1)
    psi = sol.psi0
    # r^(L+1) f exp(-sqrt(B)/2 * lam r^2)
    assert psi.r_power == 3 and psi.f_power == 1
    assert psi.exp_r2 == (-1,)  # -sqrt(4)/2
    assert psi.exp_finv == ()

    sol2 = general_two_state(2, 1, 2, 4, -1)
    psi2 = sol2.psi0
    # r^(L+1) f^(sqrt(B)-2) exp(-sqrt(B)/(2 f^2))
    assert psi2.r_power == 3 and psi2.f_power == 0
    assert psi2.exp_finv == (-1,)
    assert psi2.exp_r2 == ()


def test_wavefunction_rejects_unintegrable_term():
    w = Superpotential(((1, -1, 3),), 1)
    with pytest.raises(UnsupportedTerm):
        wavefunction_from_superpotential(w)


def test_apply_raising_prefactors():
    sol = general_two_state(1, 1, 2, 4, 1)
    # polynomial prefactor -(2L+3) + 2 sqrt(B) u in u = |lam| r^2
    assert sol.psi1.prefactor == (-7, 4)
    assert sol.psi1.r_power == 3 and sol.psi1.f_power == -1

    sol2 = general_two_state(1, 2, 1, 1, 1)
    assert sol2.psi1.prefactor == (-5, 4, 2)

    sol3 = general_two_state(2, 1, 1, 1, -1)
    assert sol3.psi1.prefactor == (-5, 14, -7)

    sol4 = general_two_state(2, 2, 1, 1, -1)
    assert sol4.psi1.prefactor == (-5, 21, -21, 7)
    for sol in (sol, sol2, sol3, sol4):
        assert apply_raising(sol.w, sol.psi0_partner) == sol.psi1


def test_apply_raising_rejects_excited_input():
    sol = general_two_state(1, 1, 1, 1, 1)
    with pytest.raises(UnsupportedTerm):
        apply_raising(sol.w, sol.psi1)


@pytest.mark.parametrize("fam,lam", [(1, 1), (2, -1)])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_operator_route_equals_generating_route(fam, lam, m):
    sol = general_two_state(fam, m, 1, 4, lam)
    r = np.linspace(0.05, 2.0 if lam > 0 else 0.95, 100)
    direct = sol.psi1.value(r)
    via_pair = sol.pair.w_plus.value(r) * sol.psi0_partner.value(r)
    scale = np.max(np.abs(direct))
    assert np.max(np.abs(direct - via_pair)) / scale < 1e-10


def _reference_states(sol):
    """psi0, its partner and psi1 built term by term: W and W' integrated, then A+."""
    partner = wavefunction_from_superpotential(sol.w_prime)
    return wavefunction_from_superpotential(sol.w), partner, apply_raising(sol.w, partner)


def _form_values(psi):
    return (psi.r_power, psi.f_power, *psi.exp_r2, *psi.exp_finv, *psi.prefactor)


@pytest.mark.parametrize("fam,sign", [(1, 1), (2, -1)])
def test_closed_form_states_match_the_operator_reference(fam, sign):
    # exact lane: the same values and types, so the same repr
    exact = [(F(1, 2), F(9, 4), F(1, 3)), (2, 4, 1), (0, 1, 2)] * 20
    for m, (L, B2m, lam) in enumerate(exact, start=1):
        sol = general_two_state(fam, m, L, B2m, sign * lam)
        got = (sol.psi0, sol.psi0_partner, sol.psi1)
        assert repr(got) == repr(_reference_states(sol)), (fam, m)
    # float lane: the same forms up to rounding
    floats = [(0.7, 2.0, 0.3), (F(1, 2), 3, 1), (1, 2.25, 1.5)] * 20
    for m, (L, B2m, lam) in enumerate(floats, start=1):
        sol = general_two_state(fam, m, L, B2m, sign * lam)
        for got, want in zip((sol.psi0, sol.psi0_partner, sol.psi1), _reference_states(sol)):
            a, b = _form_values(got), _form_values(want)
            assert len(got.prefactor) == len(want.prefactor) and len(a) == len(b), (fam, m)
            assert all(math.isclose(x, y, rel_tol=1e-13) for x, y in zip(a, b)), (fam, m)


@pytest.mark.parametrize(
    "fam,lam,r_hi", [(1, 1, 0.6), (1, F(1, 4), 1.0), (2, -1, 0.95), (2, -3.0, 0.55)]
)
@pytest.mark.parametrize("m", [1, 2, 8, 30])
def test_psi1_is_r_f_power_w_plus_psi0(fam, lam, r_hi, m):
    # psi1 = r f^(-+(2m+1)) W+ psi0, minus for family 1 and plus for family 2, constant 1
    sol = general_two_state(fam, m, F(1, 2), 4, lam)
    r = np.linspace(0.02, r_hi, 200)
    f = np.sqrt(1 + float(lam) * r * r)
    power = -(2 * m + 1) if fam == 1 else 2 * m + 1
    via_pair = r * f**power * sol.pair.w_plus.value(r) * sol.psi0.value(r)
    direct = sol.psi1.value(r)
    assert np.all(np.isfinite(direct)) and np.max(np.abs(direct)) > 0
    assert np.max(np.abs(direct - via_pair)) <= 1e-12 * np.max(np.abs(direct))


@pytest.mark.parametrize("fam,lam", [(1, 10**6), (2, -(10**6))])
def test_large_lambda_constructs_at_the_top_order(fam, lam):
    exact = general_two_state(fam, 60, 0, 1, lam)
    sol = general_two_state(fam, 60, 0, 1, float(lam))
    assert (sol.E0, sol.E1) == (float(exact.E0), float(exact.E1))
    r = np.linspace(0.1, 0.9, 9) * min(sol.r0, 1 / math.sqrt(abs(lam)))
    assert np.all(np.isfinite(sol.psi1.value(r)))


def test_annihilation_log_derivative_identity():
    for fam, lam in ((1, 1), (2, -1)):
        sol = general_two_state(fam, 2, 1, 1, lam)
        r = np.linspace(0.05, 2.0 if lam > 0 else 0.95, 200)
        f = np.sqrt(1 + lam * r * r)
        w_check = -f * sol.psi0.log_derivative(r) - 0.5 * lam * r / f
        w_val = sol.w.value(r)
        assert np.max(np.abs(w_check - w_val) / (1 + np.abs(w_val))) < 1e-10


def test_w_minus_identities():
    sol = general_two_state(1, 1, 1, 1, 1)
    wm = w_minus_from_w_plus(sol.pair.w_plus, sol.delta_e)
    for r in (0.3, 0.9, 1.7):
        f = math.sqrt(1 + r * r)
        expected = (r / f) * (-1 / r**2 + 2.0)
        assert wm(r) == pytest.approx(expected, rel=1e-12, abs=1e-12)
    with pytest.raises(PoleAtNode):
        wm(sol.r0)
    # W+ vanishes against its term magnitudes at the node only: the one pole of W-
    val, _, mag = sol.pair.w_plus._sums([0.3, float(sol.r0), 1.7])
    assert (np.abs(val) <= 1e-12 * mag).tolist() == [False, True, False]

    sol2 = general_two_state(2, 1, 1, 1, -1)
    wm2 = w_minus_from_w_plus(sol2.pair.w_plus, sol2.delta_e)
    for r in (0.2, 0.5, 0.9):
        f = math.sqrt(1 - r * r)
        expected = (r / f) * (-1 / r**2 + 4.0)
        assert wm2(r) == pytest.approx(expected, rel=1e-12, abs=1e-12)


def test_base_oscillator_shape_invariance():
    beta, lam, L = 3, 1, 1
    (beta2, L2), const = oscillator_partner(beta, L, lam)
    assert (beta2, L2, const) == (2, 2, 6)
    w = oscillator_superpotential(beta, L, lam)
    e0 = oscillator_ground_energy(beta, L, lam)
    partner = oscillator_from_beta(beta2, lam, L=L2)
    r = np.linspace(1e-3, 8.0, 1000)
    lhs = riccati_apply(w, "plus", r) + e0
    rhs = eval_potential(partner, r) + const
    assert np.max(np.abs(lhs - rhs) / (1 + np.abs(rhs))) < 1e-12


def test_wavefunction_value_matches_explicit_formula():
    psi = WavefunctionForm(2, 1, exp_r2=(-0.5,), lam=1)
    r = np.array([0.3, 1.1, 2.2])
    explicit = r**2 * np.sqrt(1 + r * r) * np.exp(-0.5 * r * r)
    assert np.allclose(psi.value(r), explicit, rtol=1e-14)

    psi2 = WavefunctionForm(2, -1, exp_finv=(-0.5,), prefactor=(-5, 14, -7), lam=-1)
    r = np.array([0.2, 0.6, 0.9])
    f2 = 1 - r * r
    explicit2 = (-5 + 14 * r * r - 7 * r**4) * r**2 / np.sqrt(f2) * np.exp(-0.5 / f2)
    assert np.allclose(psi2.value(r), explicit2, rtol=1e-13)


@pytest.mark.parametrize("fam,lam", [(1, 1), (2, -1)])
@pytest.mark.parametrize("m", [1, 8, 30, 60])
def test_value_equals_derivatives_value_bit_for_bit(fam, lam, m):
    # value() builds only P and S; it must round exactly as the full evaluation
    sol = general_two_state(fam, m, 1, 4, lam)
    r = np.geomspace(1e-3, 3.0 if lam > 0 else 1.0 - 1e-6, 500)
    for psi in (sol.psi0, sol.psi1):
        assert np.array_equal(psi.value(r), psi.derivatives(r)[0], equal_nan=True)
        assert psi.value(r[250]) == psi.derivatives(r[250])[0]


def _mp_terms(x, w):
    """W's terms c r^p f^q and the two parts of each term's derivative, at 50 digits."""
    lam = mpmath.mpf(float(w.lam))
    f = mpmath.sqrt(1 + lam * x * x)
    out = []
    for t in w.terms:
        c, p, q = mpmath.mpf(float(t.coeff)), t.r_exp, t.f_exp
        term = c * x**p * f**q
        out.append((term, term * p / x, term * q * lam * x / f**2))
    return out


def _mp_form(x, psi, derivatives=False):
    """The terms of P and S at 50 digits; with derivatives, of P, P', P'', S, S', S''."""
    lam, a, b = (mpmath.mpf(float(v)) for v in (psi.lam, psi.r_power, psi.f_power))
    r2 = x * x
    f2 = 1 + lam * r2
    t, u, y = lam * r2, abs(lam) * r2, 1 / f2
    cs = list(enumerate((mpmath.mpf(float(c)) for c in psi.exp_r2), 1))
    ds = list(enumerate((mpmath.mpf(float(d)) for d in psi.exp_finv), 1))
    ps = list(enumerate(mpmath.mpf(float(c)) for c in psi.prefactor))
    P = [c * u**s for s, c in ps]
    S = [a * mpmath.log(x), b / 2 * mpmath.log(f2)]
    S += [c * t**j for j, c in cs] + [d * y**k for k, d in ds]
    if not derivatives:
        return P, S
    P1 = [2 * abs(lam) * x * s * c * u ** (s - 1) for s, c in ps[1:]]
    P2 = [2 * abs(lam) * s * (2 * s - 1) * c * u ** (s - 1) for s, c in ps[1:]]
    S1 = [a / x, b * lam * x / f2] + [2 * lam * x * j * c * t ** (j - 1) for j, c in cs]
    S1 += [-2 * lam * x * k * d * y ** (k + 1) for k, d in ds]
    S2 = [-a / r2, b * lam / f2, -2 * b * lam**2 * r2 / f2**2]
    S2 += [2 * lam * j * (2 * j - 1) * c * t ** (j - 1) for j, c in cs]
    S2 += [-2 * lam * k * d * y ** (k + 1) for k, d in ds]
    S2 += [4 * lam**2 * r2 * k * (k + 1) * d * y ** (k + 2) for k, d in ds]
    return P, P1, P2, S, S1, S2


def _mp_potential(x, spec):
    """The terms of V at 50 digits, from the float coefficients eval_potential uses."""
    lam, L, A = (mpmath.mpf(float(v)) for v in (spec.lam, spec.L, spec.A))
    f2 = 1 + lam * x * x
    out = [L * (L + 1) / (x * x), lam * A, -lam * A / f2, mpmath.mpf(float(spec.shift))]
    for k, b in enumerate(spec.B, start=1):
        bk = mpmath.mpf(float(b))
        out.append(lam * bk * f2**k if spec.family == 1 else -lam * bk / f2 ** (k + 1))
    return out


def _reference_points(lam, n=12):
    # multiples of 2^-20: r^2 and 1 + lam r^2 are then exact in floats for these
    # lambdas, so the reference sees the f the float code sees, up to the wall
    rmax = 1 / math.sqrt(-lam) if lam < 0 else 3 / math.sqrt(lam)
    return np.floor(np.geomspace(1e-3, 1 - 1e-9, n) * rmax * 2.0**20) / 2.0**20


# B_2m = 4 keeps the closed form exact, B_2m = 2 puts it in floats
@pytest.mark.parametrize(
    "fam,L,B2m,lam", [(1, 1, 4, 1), (1, F(1, 2), 2, 0.25), (2, 1, 4, -1), (2, F(1, 2), 2, -3.0)]
)
@pytest.mark.parametrize("m", [1, 2, 3, 8, 30, 60])
def test_series_sums_match_a_50_digit_reference(fam, L, B2m, lam, m):
    # each sum is compared with its terms summed at 50 digits, relative to the
    # sum of the terms' absolute values: the scale the cancellation works at
    sol = general_two_state(fam, m, L, B2m, lam)
    specs = (sol.spec, partner_shift(sol.spec)[0])
    tol, worst, checked = 1e-13, 0.0, 0
    with mpmath.workdps(50):
        for x in _reference_points(float(lam)):
            xm = mpmath.mpf(x)
            f = math.sqrt(1 + float(lam) * x * x)
            for spec in specs:
                terms = _mp_potential(xm, spec)
                mag = sum(abs(t) for t in terms)
                if mag < 1e300:
                    checked += 1
                    worst = max(worst, abs(eval_potential(spec, x) - sum(terms)) / mag)
            for w in (sol.w, sol.w_prime, sol.pair.w_plus, sol.pair.w_minus):
                terms = _mp_terms(xm, w)
                val, mag = sum(t[0] for t in terms), sum(abs(t[0]) for t in terms)
                der = sum(t[1] + t[2] for t in terms)
                dmag = sum(abs(t[1]) + abs(t[2]) for t in terms)
                if not (1e-250 < mag and mag**2 + f * dmag < 1e300):
                    continue
                checked += 1
                worst = max(
                    worst,
                    abs(w.value(x) - val) / mag,
                    abs(w.derivative(x) - der) / dmag,
                    abs(w.magnitude(x) - mag) / mag,
                    abs(riccati_apply(w, "minus", x) - (val**2 - f * der)) / (mag**2 + f * dmag),
                    abs(riccati_apply(w, "plus", x) - (val**2 + f * der)) / (mag**2 + f * dmag),
                )
            for psi in (sol.psi0, sol.psi0_partner, sol.psi1):
                # the value and derivatives of P and S from their closed-form
                # 50-digit terms (test_mp_form_derivatives_match_differentiation)
                terms = _mp_form(xm, psi, True)
                pr, P1, P2, sr, S1, S2 = (mpmath.fsum(v) for v in terms)
                Pa, P1a, P2a, Sa, S1a, S2a = (sum(map(abs, v)) for v in terms)
                E = mpmath.exp(sr)
                if not (1e-250 < E < 1e250 and Pa < 1e250):
                    continue
                want = (pr * E, (P1 + pr * S1) * E, (P2 + 2 * P1 * S1 + pr * (S2 + S1**2)) * E)
                # first-order propagation of each sum's rounding into psi, psi', psi''
                scale = (
                    E * (Pa + abs(pr) * Sa),
                    E * (P1a + abs(S1) * Pa + abs(pr) * S1a) + abs(want[1]) * Sa,
                    E * (P2a + 2 * abs(S1) * P1a + 2 * abs(P1) * S1a + abs(S2 + S1**2) * Pa
                         + abs(pr) * (S2a + 2 * abs(S1) * S1a)) + abs(want[2]) * Sa,
                )
                got = (psi.value(x), *psi.derivatives(x))
                assert got[0] == got[1]
                checked += 1
                worst = max(worst, *(abs(g - v) / s for g, v, s in zip(got[1:], want, scale)))
    assert checked >= 40, checked
    assert worst <= tol, worst


@pytest.mark.parametrize(
    "fam,L,B2m,lam", [(1, 1, 4, 1), (1, F(1, 2), 2, 0.25), (2, 1, 4, -1), (2, F(1, 2), 2, -3.0)]
)
def test_mp_form_derivatives_match_differentiation(fam, L, B2m, lam):
    # the closed-form P', P'', S', S'' terms against 50-digit numerical
    # differentiation of the P and S sums
    sol = general_two_state(fam, 3, L, B2m, lam)
    with mpmath.workdps(50):
        for x in _reference_points(float(lam), n=4):
            xm = mpmath.mpf(x)
            for psi in (sol.psi0, sol.psi0_partner, sol.psi1):
                terms = _mp_form(xm, psi, True)
                for k, part in ((0, terms[:3]), (1, terms[3:])):
                    want = mpmath.diffs(lambda z: mpmath.fsum(_mp_form(z, psi)[k]), xm, 2)
                    for got, ref, scale in zip(part, want, (sum(map(abs, v)) for v in part)):
                        assert abs(mpmath.fsum(got) - ref) <= 1e-30 * max(scale, 1), (k, x)


def _mp_bracket(x, sol):
    """psi1's P = l + h (f^2)^n and its r-derivatives as lists of terms, at 50 digits.

    l, h and n are read off W+ (r W+ = f^lo (l + h (f^2)^n)), not off the prefactor.
    """
    (lo, l), (hi, h) = sorted((t.f_exp, t.coeff) for t in sol.pair.w_plus.terms)
    n = (hi - lo) // 2
    lam, l, h = (mpmath.mpf(float(v)) for v in (sol.lam, l, h))
    t = lam * x * x
    c = 2 * lam * h * n
    P = [l, h * (1 + t) ** n]
    P1 = [c * x * (1 + t) ** (n - 1)]
    P2 = [c * (1 + t) ** (n - 1), c * 2 * (n - 1) * t * (1 + t) ** (n - 2)]
    return P, P1, P2


def _near_node_points(sol):
    # r0 and its neighbours at 1e-3 and 1e-6 relative, on multiples of 2^-20 as above
    r0 = sol.r0
    pts = [r0 * (1 + d) for d in (-1e-3, -1e-6, 0.0, 1e-6, 1e-3)]
    return [math.floor(x * 2.0**20) / 2.0**20 for x in pts]


@pytest.mark.parametrize(
    "fam,L,B2m,lam",
    [(1, 1, 4, 1), (1, F(1, 2), 2, 0.25), (2, 1, 4, -1), (2, F(1, 2), 2, -3.0), (2, 100, 1e-4, -1)],
)
@pytest.mark.parametrize("m", [3, 30, 60])
def test_psi1_matches_its_two_term_bracket_at_50_digits(fam, L, B2m, lam, m):
    # psi1, psi1' and psi1'' against the same closed form at 50 digits, with P
    # the bracket l + h F, F = (f^2)^n: each error relative to the rounding
    # each sum carries into psi, P's scale being |l| + |h F| (not the sum of the
    # expanded terms, which cancel in family 2), tested near the node too
    sol = general_two_state(fam, m, L, B2m, lam)
    psi, worst, checked = sol.psi1, 0.0, 0
    with mpmath.workdps(50):
        for x in [*_reference_points(float(lam)), *_near_node_points(sol)]:
            xm = mpmath.mpf(x)
            bracket = _mp_bracket(xm, sol)
            S, S1, S2 = _mp_form(xm, psi, True)[3:]
            pr, P1, P2, sr, s1, s2 = (mpmath.fsum(v) for v in (*bracket, S, S1, S2))
            Pa, P1a, P2a, Sa, S1a, S2a = (sum(map(abs, v)) for v in (*bracket, S, S1, S2))
            E = mpmath.exp(sr)
            if not (1e-250 < E < 1e250 and Pa < 1e250):
                continue
            want = (pr * E, (P1 + pr * s1) * E, (P2 + 2 * P1 * s1 + pr * (s2 + s1**2)) * E)
            scale = (
                E * (Pa + abs(pr) * Sa),
                E * (P1a + abs(s1) * Pa + abs(pr) * S1a) + abs(want[1]) * Sa,
                E * (P2a + 2 * abs(s1) * P1a + 2 * abs(P1) * S1a + abs(s2 + s1**2) * Pa
                     + abs(pr) * (S2a + 2 * abs(s1) * S1a)) + abs(want[2]) * Sa,
            )
            got = psi.derivatives(x)
            assert psi.value(x) == got[0]
            checked += 1
            worst = max(worst, *(abs(g - v) / s for g, v, s in zip(got, want, scale)))
    assert checked >= 10, checked
    assert worst <= 1e-14, worst


@pytest.mark.parametrize("B2m", [1, 2])
@pytest.mark.parametrize("family,m", [(1, 1), (1, 2), (2, 1)])
def test_short_prefactors_keep_the_expanded_sum_bit_for_bit(family, m, B2m):
    # degree <= 2 (fig2.csv and fig4.csv are m = 1): P = c0 + c1 u + c2 u^2 by
    # running powers, times the form's exp(S) with the constant prefactor 1
    lam = 1 if family == 1 else -1
    top = 4.0 if family == 1 else 0.999
    r = np.linspace(0.05, top, FIGURE_GRID_POINTS)
    psi = general_two_state(family, m, 1, B2m, lam).psi1
    c = [float(v) for v in psi.prefactor]
    u = abs(lam) * (r * r)
    P = c[0] + c[1] * u
    if len(c) == 3:
        P = P + c[2] * (u * u)
    base = WavefunctionForm(psi.r_power, psi.f_power, psi.exp_r2, psi.exp_finv, lam=lam)
    assert np.array_equal(psi.value(r), P * base.value(r))


def _column_sums(x, cols, starts=None, power=1.0):
    """Each column's running-power sum on its own, its zero coefficients skipped."""
    out = []
    for k, col in enumerate(cols):
        acc, p = (0.0 if starts is None else starts[k]), power
        for i, c in enumerate(col):
            if i:
                p = p * x
            if c:
                acc = acc + c * p
        out.append(acc)
    return out


@pytest.mark.parametrize(
    "cols",
    [
        ((),),
        ((), ()),
        ((0.0, 0.0),),
        ((1.5,),),
        ((0.25, -3.0, 7.5),),
        ((0.0, 2.0, 0.0, -3.0), (0.0, 6.0, 0.0, -21.0)),
        ((1.0, 0.0, 2.0), (0.0, 3.0, 0.0)),
        (tuple(1.0 + np.arange(61) / 7), tuple(-2.0 - np.arange(61) / 3)),
    ],
)
@pytest.mark.parametrize("power", [1.0, "x"])
def test_power_sums_sharing_powers_equal_the_per_column_sums_bit_for_bit(cols, power):
    x = np.array([-1.7, -0.3, 0.0, 1e-200, 0.5, 0.999, 1.0, 2.5, 1e150, 1e200])
    with np.errstate(over="ignore", invalid="ignore"):
        p = x if power == "x" else power
        got = _power_sums(x, cols, power=p)
        want = _column_sums(x, cols, power=p)
    assert len(got) == len(cols)
    for g, w in zip(got, want):
        assert np.array_equal(np.broadcast_to(g, x.shape), np.broadcast_to(w, x.shape),
                              equal_nan=True)


@pytest.mark.parametrize(
    "cols",
    [((1.0, 1.0, 0.0),), ((1.0, 2.0, 0.0), (3.0, -4.0, 0.0)), ((1.0, 0.0, 0.0), (0.0, 0.0, 2.0))],
)
def test_a_zero_coefficient_never_meets_an_infinite_power(cols):
    # x^2 is inf at |x| = 1e200: a zero coefficient there is skipped, so no 0 * inf
    x = np.array([1e200, -1e200])
    with np.errstate(over="ignore"):
        got = _power_sums(x, cols)
        scalar = [_power_sums(xi, cols) for xi in x]
        starts = _power_sums(x, cols[:1], [np.ones((3, 2))])
        want = _column_sums(x, cols)
    for g, w in zip(got, want):
        assert not np.any(np.isnan(g))
        assert np.array_equal(np.broadcast_to(g, x.shape), np.broadcast_to(w, x.shape))
    assert not any(np.isnan(v) for point in scalar for v in point)
    assert not np.any(np.isnan(starts))


@pytest.mark.parametrize("col", [(), (0.5,), (0.0, -1.25, 0.0, 3.0), tuple(np.linspace(-1.0, 1.0, 60))])
def test_stacked_starts_each_get_the_terms_of_one_start(col):
    x = np.linspace(-1.5, 2.0, 301)
    starts = np.array([np.sin(x), np.cos(x) * 1e10, np.zeros_like(x)])
    (got,) = _power_sums(x, [col], [starts], power=x)
    assert got.shape == starts.shape
    for row, start in zip(got, starts):
        assert np.array_equal(row, _column_sums(x, [col], [start], power=x)[0])


@pytest.mark.parametrize(
    "x",
    [np.linspace(-1.5, 2.0, 301), np.array(0.7), np.float64(-0.3), 1.25],
    ids=["array", "0-d", "numpy-scalar", "float"],
)
def test_power_sums_write_no_caller_array(x):
    # the sums run in place after their first term, in arrays of their own
    n = np.shape(x)
    cols = [(0.0, 2.0, -1.0, 0.5, 3.0), (1.5, 0.0, 0.25, -4.0, 0.0), (0.0, 0.0, 0.0, 0.0, 7.0)]
    power = np.full(n, 0.75) if n else np.array(0.75)
    starts = [np.full(n, 2.0), np.stack([np.full(n, -1.0), np.full(n, 3.0)]), np.full(n, 0.5)]
    kept = [a.copy() for a in (power, *starts)]
    got = _power_sums(x, cols, starts, power=power)
    for a, before in zip((power, *starts), kept):
        assert np.array_equal(a, before)
    for g, w in zip(got, _column_sums(x, cols, starts, power=power)):
        assert np.array_equal(g, w) and np.shape(g) == np.shape(w)
    for g, w in zip(_power_sums(x, cols), _column_sums(x, cols)):
        assert np.array_equal(g, w) and np.shape(g) == np.shape(w)


@pytest.mark.parametrize("fam,lam", [(1, 1), (2, -1)])
@pytest.mark.parametrize("m", [1, 2, 3, 8, 30, 60])
def test_joint_evaluation_is_each_forms_own_bit_for_bit(fam, lam, m):
    # psi0 (constant prefactor), psi1 (expanded prefactor up to degree 2, its
    # two-term bracket past it) and the partner share one exponent series
    sol = general_two_state(fam, m, 1, 4, lam)
    forms = (sol.psi0, sol.psi1, sol.psi0_partner)
    assert (sol.psi1._bracket is not None) == (len(sol.psi1.prefactor) > 3)
    r = np.geomspace(1e-4, 3.0 if lam > 0 else 1.0 - 1e-9, 777)
    for derivatives in (False, True):
        for psi, got in zip(forms, evaluate_forms(forms, r, derivatives)):
            want = psi.derivatives(r) if derivatives else psi.value(r)
            assert np.array_equal(got, want, equal_nan=True)
        # 0-d arrays, numpy scalars and floats
        for x in (r[3], r[400], np.array(r[700]), float(r[555])):
            for psi, got in zip(forms, evaluate_forms(forms, x, derivatives)):
                want = psi.derivatives(x) if derivatives else psi.value(x)
                assert np.array_equal(got, want, equal_nan=True)
                assert type(got) is (tuple if derivatives else float)
        grid = r[:600].reshape(20, 30)
        for psi, got in zip(forms, evaluate_forms(forms, grid, derivatives)):
            want = psi.derivatives(r[:600]) if derivatives else psi.value(r[:600])
            assert np.array_equal(np.reshape(got, np.shape(want)), want, equal_nan=True)


def test_forms_without_a_shared_series_are_evaluated_one_at_a_time():
    a = general_two_state(1, 4, 1, 4, 1).psi1
    b = general_two_state(1, 4, 2, 4, 1).psi1  # another series: L moves the exponent's b only
    c = general_two_state(1, 8, 1, 4, 1).psi0
    d = general_two_state(2, 4, 1, 4, -1).psi0
    r = np.linspace(0.01, 0.99, 400)
    for forms in ((a, b), (a, c), (c, d, a)):
        for psi, got in zip(forms, evaluate_forms(forms, r, True)):
            assert np.array_equal(got, psi.derivatives(r), equal_nan=True)
