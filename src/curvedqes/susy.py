"""Deformed-SUSY engine: superpotentials, Riccati maps, partner shifts, eigenfunction forms.

A superpotential is a finite sum of basis terms c * r^p * f(r)^q with
p in {-1, +1} and q odd (possibly negative), where f = sqrt(1 + lam*r^2).
This basis is closed enough to hold every ansatz used for the extended
oscillator families as well as the generating pair (W+, W-).  Derivatives are
always taken analytically,

    d/dr [r^p f^q] = p r^(p-1) f^q + q*lam r^(p+1) f^(q-2),

so the Riccati residuals of exact constructions stay at round-off level.

Closed-form eigenfunctions take the shape

    psi(r) = P(|lam| r^2) * r^a * f^b * exp(sum_j c_j (lam r^2)^j
                                            + sum_k d_k f^(-2k)),

kept unnormalized; quadrature norms live in the spectral oracle.
wavefunction_from_superpotential integrates the ground state
f^(-1/2) exp(-int W/f dr) of any W in the basis term by term; the two states
of a family member are read off its generating pair in twostate. _sums takes
a superpotential's W, W' and term magnitude in one pass, term by term. Every
form's exponent series S, and its slopes S' and S'', are summed from the
stored coefficients by Horner's rule (_horner); a prefactor without a
bracket keeps its lowest-power-first sum of c u**i, whose degree-2 bits the
golden figures pin, and the excited state's prefactor past degree 2 is
evaluated as the two terms it expands instead (WavefunctionForm). Forms that
share a series are evaluated together: evaluate_forms sums a solution's psi0
and psi1 series once per grid and adds it to each form's start, each form's
values bit for bit its own, and WavefunctionForm.value and derivatives are
its one-form case (_pieces).
potentials.eval_potential sums a tail past m = 2 by Horner's rule, each run of
LONG_RUN or more equal coefficients in one closed-form step, and keeps one
`**` per term below, where the golden figures pin its bytes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from math import comb
from typing import Callable

import numpy as np

from .errors import NotConstrained, PoleAtNode, UnsupportedTerm
from .exactmath import HALF, QUARTER, Scalar, exact_div, exact_sqrt, is_exact
from .potentials import Family, PotentialSpec, _reduced_spec

MINUS = "minus"
PLUS = "plus"


def _horner(x, coeffs):
    """sum_i coeffs[i] x^i by Horner's rule, from the highest nonzero coefficient down.

    A zero top coefficient thus never meets an infinite x (0 * inf), and
    empty or all-zero coefficients sum to 0.0. h = h * x + c, not in place,
    keeps a numpy scalar x fast.
    """
    n = len(coeffs)
    while n and not coeffs[n - 1]:
        n -= 1
    if not n:
        return 0.0
    h = coeffs[n - 1]
    for c in reversed(coeffs[: n - 1]):
        h = h * x + c
    return h


@dataclass(frozen=True)
class Term:
    """One basis term coeff * r^r_exp * f^f_exp."""

    coeff: Scalar
    r_exp: int
    f_exp: int

    def __post_init__(self):
        if self.r_exp not in (-1, 1):
            raise ValueError(f"r exponent must be -1 or +1, got {self.r_exp}")
        if self.f_exp % 2 == 0:
            raise ValueError(f"f exponent must be odd, got {self.f_exp}")


@dataclass(frozen=True)
class Superpotential:
    """Finite sum of r^p f^q basis terms on a fixed-curvature background."""

    terms: tuple
    lam: Scalar

    def __post_init__(self):
        object.__setattr__(
            self,
            "terms",
            tuple(t if isinstance(t, Term) else Term(*t) for t in self.terms),
        )

    @cached_property
    def _floats(self):
        """(c, p, q) of each term with a nonzero float c: 0 * inf never enters a sum."""
        return tuple((c, t.r_exp, t.f_exp) for t in self.terms if (c := float(t.coeff)))

    def _sums(self, r):
        """(W, W', sum of |terms|) term by term: (r^p f^q)' = r^p f^q (p/r + q lam r/f^2)."""
        r = np.asarray(r, dtype=float)
        lam = float(self.lam)
        f2 = 1.0 + lam * r * r
        f = np.sqrt(f2)
        w = dw = mag = np.zeros_like(r)
        for c, p, q in self._floats:
            # (f^2)^(q//2) f, not f ** q, which multiplies sqrt's rounding error by q
            term = c * (r if p == 1 else 1.0 / r) * f2 ** (q // 2) * f
            w = w + term
            dw = dw + term * (p / r + q * lam * r / f2)
            mag = mag + np.abs(term)
        return (float(w), float(dw), float(mag)) if w.ndim == 0 else (w, dw, mag)

    def value(self, r):
        return self._sums(r)[0]

    def derivative(self, r):
        return self._sums(r)[1]

    def magnitude(self, r):
        """Sum of absolute term values; used as a cancellation scale."""
        return self._sums(r)[2]


def riccati_apply(w: Superpotential, sign: str, r):
    """W^2 - f W' (sign="minus", gives V1) or W^2 + f W' (sign="plus", gives V2)."""
    if sign not in (MINUS, PLUS):
        raise ValueError(f"sign must be 'minus' or 'plus', got {sign!r}")
    rr = np.asarray(r, dtype=float)
    f = np.sqrt(1.0 + float(w.lam) * rr * rr)
    wv, wd, _ = w._sums(rr)
    out = wv * wv - f * wd if sign == MINUS else wv * wv + f * wd
    return float(out) if np.ndim(out) == 0 else out


R_INV2 = "r^-2"  # basis key of r^-2 in riccati_expand and potential_expand


def riccati_expand(w: Superpotential, sign: str) -> dict:
    """W^2 - f W' (sign="minus") or W^2 + f W' (sign="plus") in the basis {r^-2, f^(2n)}.

    Keys are R_INV2 and the integer n of f^(2n); only nonzero coefficients are
    kept, exact for int/Fraction input. Each product is some c r^(2a) f^(2n),
    a in {-1, 0, 1}, reduced by r^2 = (f^2 - 1)/lam and
    r^-2 f^(2n) = r^-2 + lam (sum_{0<=i<n} f^(2i) - sum_{n<=i<0} f^(2i)).
    """
    if sign not in (MINUS, PLUS):
        raise ValueError(f"sign must be 'minus' or 'plus', got {sign!r}")
    lam, pm = w.lam, (1 if sign == PLUS else -1)
    prods = [((t.r_exp + u.r_exp) // 2, (t.f_exp + u.f_exp) // 2, t.coeff * u.coeff)
             for t in w.terms for u in w.terms]
    for t in w.terms:  # f d/dr [c r^p f^q] = c p r^(p-1) f^(q+1) + c q lam r^(p+1) f^(q-1)
        prods.append(((t.r_exp - 1) // 2, (t.f_exp + 1) // 2, pm * t.r_exp * t.coeff))
        prods.append(((t.r_exp + 1) // 2, (t.f_exp - 1) // 2, pm * t.f_exp * lam * t.coeff))
    out: dict = {}
    for a, n, c in prods:
        if a == 1:
            parts = [(n + 1, exact_div(c, lam)), (n, -exact_div(c, lam))]
        elif a == 0:
            parts = [(n, c)]
        else:
            parts = [(R_INV2, c)] + [(i, c * lam) for i in range(n)]
            parts += [(i, -c * lam) for i in range(n, 0)]
        for key, v in parts:
            out[key] = out.get(key, 0) + v
    return {key: c for key, c in out.items() if c != 0}


def potential_expand(spec: PotentialSpec) -> dict:
    """V, shift included, in riccati_expand's basis, keyed in the order r^-2, f^0,
    f^-2, then the power of each B_k: f^(2k) in family 1, f^(-2k-2) in family 2."""
    lam, fam2 = spec.lam, spec.family is Family.FAMILY2
    out = {R_INV2: spec.L * (spec.L + 1), 0: lam * spec.A + spec.shift, -1: -lam * spec.A}
    for k, b in enumerate(spec.B, start=1):
        out[-k - 1 if fam2 else k] = -lam * b if fam2 else lam * b
    return out


@dataclass(frozen=True)
class WavefunctionForm:
    """Closed-form eigenfunction P(|lam| r^2) * r^a * f^b * exp(...), unnormalized.

    prefactor holds P's coefficients in u = |lam| r^2. A form that
    twostate._raise_partner builds past degree 2 also carries the two-term
    bracket it expanded, P = l + h (f^2)^n, and P, P' and P'' are evaluated
    from those two terms: O(1) per point in place of O(n), and without the
    cancellation of the alternating family-2 expansion.
    """

    r_power: Scalar
    f_power: Scalar
    exp_r2: tuple = ()
    exp_finv: tuple = ()
    prefactor: tuple = (1,)
    lam: Scalar = 1

    _bracket = None  # (l, h, n), not a field: set by twostate._raise_partner

    def __post_init__(self):
        object.__setattr__(self, "exp_r2", tuple(self.exp_r2))
        object.__setattr__(self, "exp_finv", tuple(self.exp_finv))
        pref = tuple(self.prefactor) or (1,)
        object.__setattr__(self, "prefactor", pref)

    @cached_property
    def _floats(self):
        """(lam, a, b, exp_r2, exp_finv, prefactor) converted to floats once per form."""
        return (
            float(self.lam),
            float(self.r_power),
            float(self.f_power),
            tuple(float(c) for c in self.exp_r2),
            tuple(float(d) for d in self.exp_finv),
            tuple(float(c) for c in self.prefactor),
        )

    @cached_property
    def _bracket_floats(self):
        """(l + h, l, h, n) of the recorded bracket in floats; l + h is prefactor[0]."""
        l, h, n = self._bracket
        return self._floats[5][0], float(l), float(h), n

    @cached_property
    def _slopes(self):
        """(j c_j, j(2j-1) c_j) of exp_r2; (k d_k, k(k+1) d_k) of exp_finv."""
        _, _, _, cs, ds, _ = self._floats
        return _slope_cols(cs, 2, -1), _slope_cols(ds, 1, 1)

    @cached_property
    def _prefactor_slopes(self):
        """(j c_j, j(2j-1) c_j) of prefactor[1:]."""
        return _slope_cols(self._floats[5][1:], 2, -1)

    def _prefactor(self, r, r2, t, derivatives):
        """(P,), or with derivatives (P, P', P''), in r from _grid; t = lam r^2.

        From the bracket, with F = (1 + t)^n = exp(n log1p(t)):
        P = (l + h) + h expm1(n log1p(t)) where |F - 1| < 1/2, which keeps the
        digits of F - 1 near the origin, and l + h F elsewhere, with F taken
        from exp: expm1 + 1 would lose them where F is small. P' and P'' take
        (1 + t)^(n-1) and (1 + t)^(n-2) the same way.
        """
        lam = self._floats[0]
        if self._bracket is None:
            u = abs(lam) * r2
            # lowest power first, as fig4.csv pins psi1's degree-2 prefactor
            P = 0.0
            for i, c in enumerate(self._floats[5]):
                if c:
                    P = P + c * u**i
            if not derivatives:
                return (P,)
            sp1, sp2 = (_horner(u, col) for col in self._prefactor_slopes)
            return P, 2.0 * abs(lam) * r * sp1, 2.0 * abs(lam) * sp2
        lh, l, h, n = self._bracket_floats
        g = np.log1p(t)
        ng = n * g
        e = np.expm1(ng)
        P = np.where(np.abs(e) < 0.5, lh + h * e, l + h * np.exp(ng))
        if not derivatives:
            return (P,)
        F1, F2 = np.exp((n - 1) * g), np.exp((n - 2) * g)
        c = 2.0 * lam * h * n
        return P, c * r * F1, c * (F1 + 2.0 * (n - 1) * t * F2)

    def value(self, r):
        return evaluate_forms((self,), r)[0]

    def derivatives(self, r):
        """(psi, psi', psi'') evaluated together for stability."""
        return evaluate_forms((self,), r, derivatives=True)[0]

    def log_derivative(self, r):
        """(ln psi)' for forms with a constant prefactor."""
        if len(self.prefactor) > 1:
            raise UnsupportedTerm("log derivative defined for constant prefactors only")
        shape, x = _grid(r)
        return _shaped(_pieces((self,), x, True)[1][0], shape)


def _slope_cols(v, a, b):
    """The columns (j v_j, j(a j + b) v_j), j = 1.., of a series' slopes."""
    return [j * c for j, c in enumerate(v, 1)], [j * (a * j + b) * c for j, c in enumerate(v, 1)]


def _grid(r):
    """(shape of r, r as a 1-D float array, or a numpy scalar for a scalar)."""
    r = np.asarray(r, dtype=float)
    return r.shape, r.ravel() if r.ndim else r[()]


def _shaped(v, shape):
    """A result back in the shape of its input r: a float for a scalar."""
    return v.reshape(shape) if shape else v.item()


def _pieces(forms, r, derivatives):
    """(prefactors, S', S'', S) of forms that share lam and the exponent series, on r from _grid.

    prefactors holds each form's (P,), or with derivatives (P, P', P''), and
    S, S' and S'' one row per form (S' and S'' None without derivatives).
    The series, t H(t, c) + y H(y, d) by Horner's rule, and its slopes are
    summed once from the stored coefficients. One form's a and b are floats;
    several forms' are stacked into (forms, 1) columns, and each form's start
    a log r + b/2 log f^2 and its own a/r and b lam terms of S' and S'' take
    the shared sums as it alone does: every value is bit for bit the form's own.
    """
    form = forms[0]
    lam, a, b, exp_r2, exp_finv, _ = form._floats
    if len(forms) > 1:
        a, b = np.array([f._floats[1:3] for f in forms]).T[:, :, None]
    r2 = r * r
    f2 = 1.0 + lam * r2
    t = lam * r2
    y = 1.0 / f2  # numpy's f2 ** -1

    series = sum(x * _horner(x, cs) for x, cs in ((t, exp_r2), (y, exp_finv)) if cs)
    S = a * np.log(r) + 0.5 * b * np.log(f2) + series
    prefactors = [f._prefactor(r, r2, t, derivatives) for f in forms]
    if not derivatives:
        return prefactors, None, None, _rows(S, forms)

    # sum_j j c_j t^(j-1) and sum_j j(2j-1) c_j t^(j-1); y^2 times the sums of k d_k and
    # k(k+1) d_k in y^(k-1)
    (c1, c2), (d1, d2) = form._slopes
    st1, st2 = _horner(t, c1), _horner(t, c2)
    sy1 = sy2 = 0.0
    if exp_finv:
        yy = y * y
        sy1, sy2 = yy * _horner(y, d1), yy * _horner(y, d2)
    S1 = a / r + b * lam * r / f2 + 2.0 * lam * r * (st1 - sy1)
    S2 = -a / r2 + b * lam * (1.0 / f2 - 2.0 * lam * r2 / (f2 * f2))
    S2 = S2 + 2.0 * lam * (st2 - sy1 + 2.0 * lam * r2 * y * sy2)
    return prefactors, _rows(S1, forms), _rows(S2, forms), _rows(S, forms)


def _rows(v, forms):
    """One row per form of a _pieces result: one form's is the result itself."""
    return (v,) if len(forms) == 1 else v


def evaluate_forms(forms, r, derivatives=False) -> list:
    """psi of each form on one grid r, or with derivatives (psi, psi', psi''), in the forms' order.

    WavefunctionForm.value and derivatives are the one-form case. Forms
    with the same lambda and exponent series, such as a solution's psi0 and
    psi1, are evaluated together: r^2, f^2, the logarithms, the series and
    their slopes are computed once for all of them, and each form adds only
    its own start, prefactor and product. Every result is bit for bit what
    the form alone returns. Forms that do not share a series are evaluated
    one at a time.
    """
    forms = tuple(forms)
    if len(forms) > 1:
        series = (forms[0].lam, forms[0].exp_r2, forms[0].exp_finv)
        if any((f.lam, f.exp_r2, f.exp_finv) != series for f in forms[1:]):
            return [evaluate_forms((f,), r, derivatives)[0] for f in forms]
    shape, x = _grid(r)
    with np.errstate(over="ignore", under="ignore", divide="ignore", invalid="ignore"):
        prefactors, S1, S2, S = _pieces(forms, x, derivatives)
        if not derivatives:
            return [_shaped(P * np.exp(s), shape) for (P,), s in zip(prefactors, S)]
        out = []
        for (P, P1, P2), s1, s2, s in zip(prefactors, S1, S2, S):
            e = np.exp(s)
            psi = P * e
            dpsi = (P1 + P * s1) * e
            d2psi = (P2 + 2.0 * P1 * s1 + P * (s2 + s1 * s1)) * e
            out.append((_shaped(psi, shape), _shaped(dpsi, shape), _shaped(d2psi, shape)))
    return out


@dataclass(frozen=True)
class GeneratingPair:
    """Sum/difference pair (W+, W-) generating the first two superpotentials."""

    w_plus: Superpotential
    w_minus: Superpotential
    delta_e: Scalar


def wavefunction_from_superpotential(w: Superpotential) -> WavefunctionForm:
    """Ground state f^(-1/2) * exp(-int W/f dr), integrated term by term.

    Supported terms: c f/r (power of r), c r/f (power of f), c r f^(2j-1)
    (polynomial exponent in lam*r^2), and c r f^(-2k-1) (exponent in f^-2k).
    """
    lam = w.lam
    a: Scalar = 0
    b: Scalar = -HALF
    c_poly: dict[int, Scalar] = {}
    d_poly: dict[int, Scalar] = {}
    for term in w.terms:
        coeff, p, q = term.coeff, term.r_exp, term.f_exp
        if p == -1 and q == 1:
            a = a - coeff
        elif p == 1 and q == -1:
            b = b - exact_div(coeff, lam)
        elif p == 1 and q >= 1:
            j = (q + 1) // 2
            base = -exact_div(coeff, 2 * j * lam)
            for s in range(1, j + 1):
                c_poly[s] = c_poly.get(s, 0) + base * comb(j, s)
        elif p == 1 and q <= -3:
            k = (-q - 1) // 2
            d_poly[k] = d_poly.get(k, 0) + exact_div(coeff, 2 * k * lam)
        else:
            raise UnsupportedTerm(f"no closed-form antiderivative for r^{p} f^{q}")
    c_list = [c_poly.get(s, 0) for s in range(1, max(c_poly, default=0) + 1)]
    d_list = [d_poly.get(k, 0) for k in range(1, max(d_poly, default=0) + 1)]
    return WavefunctionForm(a, b, tuple(c_list), tuple(d_list), (1,), lam)


def w_minus_from_w_plus(w_plus: Superpotential, delta_e) -> Callable:
    """The compatibility partner W-(r) = (f W+' - delta_e) / W+ as a callable.

    Raises PoleAtNode where W+ vanishes against its term magnitudes
    (|W+| <= 1e-12 of them): the poles of W-, at psi1's node.
    """

    def w_minus(r):
        rr = np.asarray(r, dtype=float)
        val, der, mag = w_plus._sums(rr)
        if np.any(np.abs(val) <= 1e-12 * np.maximum(mag, 1e-30)):
            raise PoleAtNode("W+ vanishes at the evaluation point (node of psi1)")
        f = np.sqrt(1.0 + float(w_plus.lam) * rr * rr)
        out = (f * der - float(delta_e)) / val
        return float(out) if out.ndim == 0 else out

    return w_minus


def _coeffs_match(x, y) -> bool:
    if is_exact(x, y):
        return x == y
    fx, fy = float(x), float(y)
    return abs(fx - fy) <= 1e-9 * max(1.0, abs(fx), abs(fy))


def partner_shift(spec: PotentialSpec):
    """Shape-invariant partner of a reduced QES spec.

    Returns (partner, R) with W^2 + f W' = V_partner(r) + R pointwise, where
    V_partner is the partner spec evaluated with zero shift.  Raises
    NotConstrained unless spec matches the reduced coefficient pattern.
    """
    if spec.family is Family.BASE or spec.m is None:
        raise NotConstrained("partner shift applies to reduced QES specs only")
    m, L, lam, B2m = spec.m, spec.L, spec.lam, spec.B[-1]
    s = exact_sqrt(B2m)
    # a spec's model is validated when it is built
    expected = _reduced_spec(spec.family, m, L, B2m, lam, s)
    if not _coeffs_match(spec.A, expected.A) or not all(
        _coeffs_match(b, e) for b, e in zip(spec.B, expected.B)
    ):
        raise NotConstrained("coefficients are not in the reduced QES form")
    if spec.family is Family.FAMILY1:
        A2 = (2 * m + 3) * (2 * m + 1) * QUARTER
        B2 = [-B2m - (2 * L + 3) * s] * m + [B2m] * m
        R = lam * (2 * m * s + m + Fraction(3, 2) + (2 * m + 3) * L + L * L)
    else:
        alam = abs(lam)
        A2 = -B2m - (2 * L + 3) * s + (2 * m + 1) * (2 * m - 1) * QUARTER
        B2 = [-B2m - (2 * L + 3) * s] * (m - 1) + [B2m] * (m + 1)
        R = alam * (-2 * B2m + 2 * (m - 2) * s + m - HALF + L * (-4 * s + 2 * m - 1) - L * L)
    partner = PotentialSpec(family=spec.family, m=m, L=L + 1, A=A2, B=tuple(B2), lam=lam)
    return partner, R


def oscillator_superpotential(beta, L, lam) -> Superpotential:
    """Superpotential -(L+1) f/r + beta r/f of the base oscillator."""
    return Superpotential(((-(L + 1), -1, 1), (beta, 1, -1)), lam)


def oscillator_ground_energy(beta, L, lam):
    """Ground-state energy beta(2L+3) - lam (L+1)^2 of the base oscillator."""
    return beta * (2 * L + 3) - lam * (L + 1) ** 2


def oscillator_partner(beta, L, lam):
    """DSI data of the base oscillator: ((beta - lam, L + 1), 2*beta).

    The Riccati partner of the (beta, L) oscillator equals the
    (beta - lam, L + 1) oscillator shifted by the constant 2*beta.
    """
    return (beta - lam, L + 1), 2 * beta
