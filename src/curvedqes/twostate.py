"""Two-eigenstate construction for the extended oscillator families.

Two routes produce the same closed-form data:

* the explicit step systems, for every order m >= 1: a superpotential ansatz is
  matched against the potential through the Riccati equation, solved by one
  elimination in the exact {r^-2, f^2n} basis of susy.riccati_expand and
  susy.potential_expand, which fixes the ansatz parameters and the
  ground-state energy and leaves constraint conditions among the potential
  coefficients; repeating the match on the partner gives a second constraint
  set, and compatibility of the two sets pins the coefficients down to the
  reduced QES form;

* the generating-function route, valid for every order m >= 1: a pair
  (W+, W-) satisfying f W+' = W+ W- + (E1 - E0) yields both superpotentials
  as W = (W+ - W-)/2, W' = (W+ + W-)/2, and with them the potential, the two
  energies, both wavefunctions, and the node of the excited state. The ground
  states of W and W' are read off in closed form, and the excited state is
  A+ applied to the partner ground state, which is W + W' = W+ times it. Each
  exponent takes O(m) terms, which susy sums with their slopes by Horner's
  rule; the excited state's prefactor is W+'s two terms, l + h (f^2)^n, kept
  also as its degree-n expansion and evaluated past degree 2 from the two terms.

All formulas are arranged so int/Fraction inputs with a rational sqrt(B_2m)
propagate exactly; the two routes can therefore be compared by equality.
The generating-function route costs one rational operation per coefficient
in that exact lane: the tail coefficient of W is computed once and its terms
are shared with W', each exponent coefficient is one Fraction built from the
integers of s = sqrt(B_2m) (exactmath.scale_div), and each prefactor entry is
one product of a coefficient of W+ with an int.
"""

from __future__ import annotations

import math
import reprlib
from dataclasses import dataclass, replace
from fractions import Fraction
from math import comb
from typing import Sequence

from .errors import InvalidParameter, InvariantError
from .exactmath import HALF, Scalar, canonical, exact_div, exact_sqrt, is_exact, scale_div
from .potentials import (
    Family,
    PotentialSpec,
    _reduced_spec,
    reduced_spec,
    require_finite,
    spec_to_dict,
    validate_model,
)
from .susy import (
    MINUS,
    PLUS,
    GeneratingPair,
    Superpotential,
    Term,
    WavefunctionForm,
    potential_expand,
    riccati_expand,
)


@dataclass(frozen=True)
class AnsatzParams:
    """Superpotential ansatz parameters: the tail holds c_1 .. c_m."""

    xi: Scalar
    eta: Scalar
    tail: tuple


@dataclass(frozen=True)
class CdsiStepResult:
    """One step of the conditional shape-invariance construction."""

    family: Family
    m: int
    step: int
    L: Scalar
    A: Scalar
    B: tuple
    lam: Scalar
    params: AnsatzParams
    ground_energy: Scalar
    constraints: tuple

    def superpotential(self) -> Superpotential:
        return _ansatz(self.family, self.params, self.lam)

    def max_constraint_residual(self) -> float:
        return max(abs(float(v)) for _, v in self.constraints)


def _ansatz(family: Family, p: AnsatzParams, lam) -> Superpotential:
    """The step ansatz xi f/r + eta r/f + sum_j c_j r f^(q_j), with W's tail powers q_j:
    2j - 1 in family 1 and -(2j + 1) in family 2."""
    m = len(p.tail)
    qs = range(1, 2 * m, 2) if family is Family.FAMILY1 else range(-3, -2 * m - 2, -2)
    return Superpotential(((p.xi, -1, 1), (p.eta, 1, -1)) + tuple(zip(p.tail, (1,) * m, qs)), lam)


def solve_first_step(family, m: int, L, A, B: Sequence, lam) -> CdsiStepResult:
    """Match the order-m ansatz against V(r) - E0; return parameters and constraints.

    The constraint residuals vanish exactly when (A, B) satisfies the
    first-step conditions of the chosen family. Raises what validate_model
    raises, and InvalidParameter for a B that is not a list of 2m numbers or a
    non-finite A or B_1..B_{2m-1}.
    """
    if not isinstance(B, (list, tuple)):
        raise InvalidParameter(f"B must be a list of numbers, got {reprlib.repr(B)}")
    B = tuple(B)
    fam = validate_model(family, m, L, B[-1] if B else None, lam)
    if len(B) != 2 * m:
        raise InvalidParameter(f"expected {2 * m} tail coefficients, got {len(B)}")
    require_finite("A", A)
    for k, b in enumerate(B[:-1], start=1):
        require_finite(f"B_{k}", b)
    params, e0, cons = _match(fam, m, L, A, B, lam)
    return CdsiStepResult(fam, m, 1, L, A, B, lam, params, e0, cons)


def solve_second_step(family, m: int, first: CdsiStepResult) -> CdsiStepResult:
    """Repeat the match on the partner potential; constraints change."""
    same = isinstance(first, CdsiStepResult) and (first.family, first.m) == (family, m)
    if not same or first.step != 1:
        raise InvalidParameter("second step must continue the matching first step")
    fam, L, A, B, lam = first.family, first.L, first.A, first.B, first.lam
    params, e0, cons = _match(fam, m, L, A, B, lam, first.params)
    return CdsiStepResult(fam, m, 2, L, A, B, lam, params, e0, cons)


# the reduced spec is the one on which both step constraint sets hold simultaneously
compatibility = reduced_spec


def _match(fam: Family, m: int, L, A, B: tuple, lam, first: AnsatzParams | None = None):
    """Solve one step system in riccati_expand's basis; return (params, E0, constraints).

    Step 1 matches W^2 - f W' = V - E0. Step 2 (first = step 1's parameters)
    matches the partner W1^2 + f W1' = V - E0(step 1) + 2 f W1', so its target
    is V + 2 f W1' and its E0 is the first excited energy of V. lam sets only
    the scale: the system is solved at lam = +-1, and eta, the tail and E0 are
    multiplied by |lam| at the end. The target is built with A = 0, as A
    enters it only as lam A (1 - f^-2). The r^-2 key fixes xi = -L - step and
    the B_2m key the outermost tail coefficient, sqrt(B_2m); each inner one,
    and then eta, enters the key of the next lower B_k linearly and is solved
    there, outermost first. E0 is read off f^0 + f^-2, and each constraint is
    the given A or B_1 .. B_{m-1} minus the value the match needs at its key.

    Each of the 2m probes re-expands the whole ansatz, O(m^2) products, so both steps cost
    O(m^3): in the exact lane about 36 ms at m = 8, 0.2 s at 16, 1.3 s at 30 and 10 s at 60.
    """
    step, scale, unit = (1 if first is None else 2), abs(lam), (1 if lam > 0 else -1)
    target = potential_expand(PotentialSpec(family=fam, m=m, L=L, A=0, B=B, lam=unit))
    keys = list(target)[3:]  # the basis keys of B_1..B_2m
    if first is not None:
        w1 = _ansatz(fam, _rescale(first, lambda v: exact_div(v, scale)), unit)
        plus, minus = riccati_expand(w1, PLUS), riccati_expand(w1, MINUS)
        for key in plus.keys() | minus.keys():  # 2 f W1' = (W1^2 + f W1') - (W1^2 - f W1')
            target[key] = target.get(key, 0) + (plus.get(key, 0) - minus.get(key, 0))

    def expand(c):  # c = [eta, c_1 .. c_m]
        return riccati_expand(_ansatz(fam, AnsatzParams(-L - step, c[0], c[1:]), unit), MINUS)

    outer = exact_sqrt(B[-1])
    coeffs = [0] * m + [outer]  # eta, c_1 .. c_m
    for i in reversed(range(m)):
        # coeffs[i] enters its key linearly, next to terms of the order of outer^2:
        # probing it at outer rather than 1 keeps the float-lane slope from cancelling
        key = keys[m - 1 + i]
        at0, at1 = (expand(coeffs[:i] + [u] + coeffs[i + 1:]).get(key, 0) for u in (0, outer))
        coeffs[i] = outer * exact_div(target[key] - at0, at1 - at0)
    a = expand(coeffs)
    e0 = (target[0] + target[-1]) - (a.get(0, 0) + a.get(-1, 0))
    # A enters f^-2 as -lam A; at |lam| = 1, each B_k enters its key as B_k in both families
    cons = [("A", A - exact_div(a.get(-1, 0) - target[-1], -unit))]
    cons += [(f"B{k}", target[key] - a.get(key, 0)) for k, key in enumerate(keys[:m - 1], 1)]
    params = _rescale(AnsatzParams(-L - step, coeffs[0], coeffs[1:]), lambda v: scale * v)
    return params, scale * e0, tuple(cons)


def _rescale(p: AnsatzParams, op) -> AnsatzParams:
    """p with eta and every tail coefficient mapped through op."""
    return AnsatzParams(p.xi, op(p.eta), tuple(map(op, p.tail)))


# ---------------------------------------------------------------------------
# original Riccati polynomial systems, kept as verification residuals


def riccati_system_residuals(family, m: int, params: AnsatzParams, L, A, B, E0, lam) -> dict:
    """Residuals of the polynomial system obtained by matching W^2 - f W' to V - E0.

    Each is riccati_expand(W) minus potential_expand(V - E0) at one basis element:
    r^-2 is keyed "L", f^0 "E0", f^-2 "A", and the power of B_k "Bk"; any other
    nonzero one "f^2n". All vanish identically when (params, E0) solve the step
    system for the potential data (L, A, B).
    """
    fam = Family(family)
    spec = PotentialSpec(family=fam, m=m, L=L, A=A, B=tuple(B), lam=lam, shift=-E0)
    ansatz = riccati_expand(_ansatz(fam, params, lam), MINUS)
    names = ["L", "E0", "A"] + [f"B{k}" for k in range(1, 2 * m + 1)]
    target = potential_expand(spec).items()
    res = {name: ansatz.pop(key, 0) - c for name, (key, c) in zip(names, target)}
    res.update((f"f^{2 * n}", c) for n, c in ansatz.items())
    return res


# ---------------------------------------------------------------------------
# generating-function route, any order


@dataclass(frozen=True)
class TwoStateSolution:
    """Reduced QES potential with its two known eigenstates."""

    family: Family
    m: int
    L: Scalar
    B2m: Scalar
    lam: Scalar
    spec: PotentialSpec
    w: Superpotential
    w_prime: Superpotential
    psi0: WavefunctionForm
    psi1: WavefunctionForm
    psi0_partner: WavefunctionForm
    E0: Scalar
    E1: Scalar
    delta_e: Scalar
    r0: float
    pair: GeneratingPair

    def to_dict(self) -> dict:
        def wf(psi: WavefunctionForm, with_prefactor: bool) -> dict:
            out = {
                "a": float(psi.r_power),
                "b": float(psi.f_power),
                "exp_r2": [float(c) for c in psi.exp_r2],
                "exp_finv": [float(c) for c in psi.exp_finv],
            }
            if with_prefactor:
                out["prefactor"] = [float(c) for c in psi.prefactor]
            return out

        return {
            "family": int(self.family),
            "m": self.m,
            "L": float(self.L),
            "lambda": float(self.lam),
            "B2m": float(self.B2m),
            "spec": spec_to_dict(self.spec),
            "E0": float(self.E0),
            "E1": float(self.E1),
            "r0": self.r0,
            "psi0": wf(self.psi0, False),
            "psi1": wf(self.psi1, True),
        }


def generating_pair(family, m: int, L, B2m, lam) -> GeneratingPair:
    """The (W+, W-) pair and level spacing for the order-m family member."""
    fam = validate_model(family, m, L, B2m, lam)
    return _generating_pair(fam, m, L, exact_sqrt(B2m), lam)


def _generating_pair(fam: Family, m: int, L, s, lam) -> GeneratingPair:
    """generating_pair of a model that validate_model has passed, with s = sqrt(B_2m)."""
    if fam is Family.FAMILY1:
        w_plus = Superpotential(
            ((-(2 * L + 3) - 2 * s, -1, 1), (2 * s, -1, 2 * m + 1)), lam
        )
        w_minus = Superpotential(((-1, -1, -1), (2 * m * lam, 1, -1)), lam)
        delta_e = 2 * m * lam * (2 * L + 3 + 2 * s)
    else:
        al = abs(lam)
        w_plus = Superpotential(
            ((-(2 * L + 3) - 2 * s, -1, 1), (2 * s, -1, -(2 * m + 1))), lam
        )
        w_minus = Superpotential(((-1, -1, -1), ((2 * m + 2) * al, 1, -1)), lam)
        delta_e = (2 * m + 2) * al * (2 * L + 3 + 2 * s)
    if not delta_e > 0:
        raise InvariantError(f"level spacing E1 - E0 = {delta_e} must be positive")
    return GeneratingPair(w_plus, w_minus, delta_e)


def general_two_state(family, m: int, L, B2m, lam) -> TwoStateSolution:
    """Complete order-m solution: spec, superpotentials, energies, eigenstates, node.

    Raises what validate_model raises, and InvalidParameter when a float-lane
    quantity leaves the double range, or an exact-lane E0, E1, delta_e, A or
    tail coefficient lies beyond it.
    """
    fam = validate_model(family, m, L, B2m, lam)
    try:
        return _two_state(fam, m, L, B2m, lam)
    except (OverflowError, ZeroDivisionError) as exc:  # out of range, or 0 by underflow
        raise InvalidParameter(f"the input leaves the double range: {exc}") from exc


def _two_state(fam: Family, m: int, L, B2m, lam) -> TwoStateSolution:
    """The solution of a model that validate_model has passed.

    psi0 = f^(-1/2) exp(-int W/f dr), and its partner from W', term by term: c f/r
    gives r^-c, c r/f gives f^(-c/lam), and the tail gives the exponent. In family 1
    sum_{j<=m} lam s r f^(2j-1) integrates to sum_k (s/2) C(m, k)/k (lam r^2)^k, as
    sum_{k<=j<=m} C(j, k)/j = C(m, k)/k; in family 2 |lam| s r f^(-2k-1) gives (s/2k) f^(-2k).
    """
    s = exact_sqrt(B2m)
    pair = _generating_pair(fam, m, L, s, lam)
    spec = _reduced_spec(fam, m, L, B2m, lam, s)
    if fam is Family.FAMILY1:
        e0 = -lam * ((2 * m + 2) * s + 3 * m + Fraction(5, 2) + (2 * m + 3) * L + L * L)
        e1 = lam * ((2 * m - 2) * s + 3 * m - Fraction(5, 2) + (2 * m - 3) * L - L * L)
        c, f_exps = lam * s, range(1, 2 * m, 2)
        eta, eta_prime = -(2 * m + 1) * lam * HALF, (2 * m + 1) * lam * HALF
        exps = (tuple(scale_div(s, -comb(m, k), 2 * k) for k in range(1, m + 1)), ())
    else:
        al = abs(lam)
        e0 = al * (
            2 * B2m - 2 * (m - 1) * s - 3 * m - HALF + L * (4 * s - 2 * m + 1) + L * L
        )
        e1 = al * (
            2 * B2m + 2 * (m + 3) * s + 3 * m + Fraction(11, 2) + L * (4 * s + 2 * m + 5) + L * L
        )
        c, f_exps = al * s, range(-3, -2 * m - 2, -2)
        eta, eta_prime = al * (s - m - HALF), al * (s + m + HALF)
        exps = ((), tuple(scale_div(s, -1, 2 * k) for k in range(1, m + 1)))
    tail = tuple(Term(c, 1, q) for q in f_exps)  # c r f^q, shared by W and W'
    w = Superpotential((Term(-(L + 1), -1, 1), Term(eta, 1, -1)) + tail, lam)
    w_prime = Superpotential((Term(-(L + 2), -1, 1), Term(eta_prime, 1, -1)) + tail, lam)
    delta = e1 - e0
    if is_exact(delta, pair.delta_e):
        consistent = delta == pair.delta_e
        # exact values never overflow, but every consumer of the solution takes floats
        for name, value in (("E0", e0), ("E1", e1), ("delta_e", pair.delta_e), ("A", spec.A),
                            *((f"B_{k}", spec.B[k - 1]) for k in (1, m, 2 * m))):
            require_finite(name, value)
    elif not math.isfinite(delta):
        raise OverflowError(f"E1 - E0 = {delta}")
    else:
        # E0 and E1 each carry rounding of a few ulps of |E|, which E1 - E0 keeps
        tol = 2**12 * math.ulp(max(abs(e0), abs(e1)))
        consistent = math.isclose(float(delta), float(pair.delta_e), rel_tol=1e-12, abs_tol=tol)
    if not consistent:
        raise InvariantError(
            f"E1 - E0 = {delta} differs from the generating-pair delta_e = {pair.delta_e}"
        )
    psi0, psi0_partner = (
        WavefunctionForm(a, -HALF - exact_div(c, lam), *exps, lam=lam)
        for a, c in ((L + 1, eta), (L + 2, eta_prime))
    )
    psi1 = _raise_partner(pair.w_plus, psi0_partner)
    r0 = _node_radius(fam, m, L, s, lam)
    if not math.isfinite(r0):
        raise OverflowError(f"r0 = {r0}")
    return TwoStateSolution(
        family=fam,
        m=m,
        L=L,
        B2m=B2m,
        lam=lam,
        spec=spec,
        w=w,
        w_prime=w_prime,
        psi0=psi0,
        psi1=psi1,
        psi0_partner=psi0_partner,
        E0=canonical(e0),
        E1=canonical(e1),
        delta_e=canonical(pair.delta_e),
        r0=r0,
        pair=pair,
    )


def _raise_partner(w_plus: Superpotential, partner: WavefunctionForm) -> WavefunctionForm:
    """psi1 = A+ psi0' = (W + W') psi0' = W+ psi0' for the partner ground state psi0'.

    W+ = c f^q0 / r + c' f^q1 / r; with lo < hi its two f powers and l, h their
    coefficients, r W+ = f^lo (l + h (f^2)^n), n = (hi - lo)/2, and
    f^2 = 1 + sign(lam) u makes the bracket the degree-n prefactor in u = |lam| r^2.
    Past degree 2 the form also records (l, h, n) and evaluates the bracket as
    its two terms; degree <= 2 keeps the expanded sum, whose bytes fig2.csv and
    fig4.csv hold.
    """
    (lo, l), (hi, h) = sorted((t.f_exp, t.coeff) for t in w_plus.terms)
    n, sign = (hi - lo) // 2, (1 if partner.lam > 0 else -1)
    prefactor = (l + h,) + tuple(h * (comb(n, k) * sign**k) for k in range(1, n + 1))
    psi1 = replace(partner, r_power=partner.r_power - 1, f_power=partner.f_power + lo,
                   prefactor=prefactor)
    if n > 2:
        object.__setattr__(psi1, "_bracket", (l, h, n))
    return psi1


def _node_radius(family: Family, m: int, L, s, lam) -> float:
    s = float(s)
    top = 2.0 * float(L) + 3.0 + 2.0 * s
    if family is Family.FAMILY1:
        # ((top/2s)^(1/m) - 1)^(1/2), conditioned for ratios near 1
        x0 = math.expm1(math.log(top / (2.0 * s)) / m)
        return math.sqrt(x0 / float(lam))
    x0 = -math.expm1(math.log(2.0 * s / top) / (m + 1))
    return math.sqrt(x0 / abs(float(lam)))


def node_location(sol: TwoStateSolution) -> float:
    """Closed-form node of the first excited state, inside the open domain."""
    return _node_radius(sol.family, sol.m, sol.L, exact_sqrt(sol.B2m), sol.lam)
