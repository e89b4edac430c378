"""Potential families of the curved-space oscillator and its two QES extension families.

A potential is stored as coefficient data: the centrifugal term L(L+1)/r^2,
the oscillator part lambda*A - lambda*A/f^2, and an extension tail that is a
polynomial in f^2 (family 1, lambda > 0) or in 1/f^2 (family 2, lambda < 0),

    family 1:  V = L(L+1)/r^2 + lam*A - lam*A/f^2 + lam * sum_k B_k f^(2k)
    family 2:  V = L(L+1)/r^2 + lam*A - lam*A/f^2 - lam * sum_k B_k f^(-2k-2)

with k = 1..2m.  For lambda < 0 the minus sign in front of the family-2 sum
makes the tail coefficients enter as +|lambda|*B_k/f^(2k+2).  Coefficients are
kept as ints/Fractions whenever the inputs allow, so the constrained cases can
be checked by exact arithmetic.  The constraints make a reduced tail three runs
of equal coefficients (m - 1, 1 and m long) and its partner's two, and
eval_potential sums each run of LONG_RUN or more in one closed-form step.
"""

from __future__ import annotations

import json
import math
import reprlib
from dataclasses import dataclass
from enum import IntEnum
from functools import cached_property
from itertools import groupby

import numpy as np

from .errors import DegenerateCurvature, InvalidOrder, InvalidParameter, SignMismatch
from .exactmath import QUARTER, Scalar, canonical, exact_div, exact_sqrt
from .geometry import Deformation, _check_radius

MAX_ORDER = 60  # the range of orders that the tests and the benchmark cover
# longest potential tail summed one `**` per term (m <= 2): the golden figures pin it
SHORT_TAIL = 4
# shortest run of equal tail coefficients summed in one closed-form step: Horner's rule costs
# 2 array passes a term, a step ~17 (exp, expm1 ~5 each), a call ~12: two runs pay from 4n > 46
LONG_RUN = 12
# |f^2 - 1| floor of the closed form: below it f^2 rounds to 1 and a run sums to n c
_RUN_FLOOR = 1e-150


class Family(IntEnum):
    BASE = 0
    FAMILY1 = 1
    FAMILY2 = 2


def is_finite_real(value) -> bool:
    """True for a real number finite as a float (a float() overflow is not)."""
    try:
        return math.isfinite(value)
    except (OverflowError, TypeError):  # beyond the double range; a str, None or complex
        return False


def require_finite(name: str, value) -> None:
    """Raise InvalidParameter unless value is a real number finite as a float."""
    if not is_finite_real(value):
        raise InvalidParameter(f"{name} must be finite as a float, got {reprlib.repr(value)}")


def validate_model(family, m, L, B2m, lam) -> Family:
    """Check one QES model input and return its Family; every rule on it is raised here.

    family in {1, 2}, L, B_2m and lambda finite as floats (a float() overflow is
    not finite), B_2m > 0 and L >= 0, else InvalidParameter; m an int, not a
    bool, in [1, MAX_ORDER], else InvalidOrder; lambda != 0, else
    DegenerateCurvature; lambda > 0 for family 1 and < 0 for family 2, else
    SignMismatch. Values are only checked, never converted.
    """
    if family not in (Family.FAMILY1, Family.FAMILY2):
        raise InvalidParameter(f"the QES construction needs family 1 or 2, got {family}")
    if isinstance(m, bool) or not isinstance(m, int) or not 1 <= m <= MAX_ORDER:
        raise InvalidOrder(f"order m must be an integer in [1, {MAX_ORDER}], got {m}")
    for name, value in (("lambda", lam), ("B_2m", B2m), ("L", L)):
        require_finite(name, value)
    if lam == 0:
        raise DegenerateCurvature("lambda = 0 is not supported")
    fam = Family(family)
    if fam is Family.FAMILY1 and lam < 0:
        raise SignMismatch("family 1 requires lambda > 0")
    if fam is Family.FAMILY2 and lam > 0:
        raise SignMismatch("family 2 requires lambda < 0")
    if B2m <= 0:
        raise InvalidParameter(f"B_2m = {B2m} must be positive")
    if L < 0:
        raise InvalidParameter(f"L = {L} must be >= 0")
    return fam


@dataclass(frozen=True)
class PotentialSpec:
    """Coefficient data for one potential; immutable, thread-safe, checked by validate_model.

    Every spec's shift, and a base oscillator's L, A and lambda, must be finite reals.
    """

    family: Family
    L: Scalar
    A: Scalar
    lam: Scalar
    B: tuple = ()
    m: int | None = None
    shift: Scalar = 0

    def __post_init__(self):
        object.__setattr__(self, "family", Family(self.family))
        object.__setattr__(self, "B", tuple(self.B))
        require_finite("shift", self.shift)
        if self.family is Family.BASE:
            if self.B or self.m is not None:
                raise InvalidParameter("base oscillator takes no extension coefficients")
            for name, value in (("L", self.L), ("A", self.A), ("lambda", self.lam)):
                require_finite(name, value)
            if self.lam == 0:
                raise DegenerateCurvature("lambda = 0 is not supported")
            return
        if self.m is None or not self.B or len(self.B) != 2 * self.m:
            raise InvalidParameter(
                f"order m = {self.m} takes 2m >= 2 tail coefficients, got {len(self.B)}"
            )
        validate_model(self.family, self.m, self.L, self.B[-1], self.lam)

    @cached_property
    def _floats(self):
        """(lam, L, A, shift, B) converted to floats once per spec, for eval_potential."""
        return (float(self.lam), float(self.L), float(self.A), float(self.shift),
                tuple(float(b) for b in self.B))

    @cached_property
    def _runs(self):
        """The float tail as runs (c, n) of equal coefficients, highest power of f^2 first,
        once per spec for eval_potential."""
        B = self._floats[4]
        coeffs = B[::-1] if self.family is Family.FAMILY1 else B
        return tuple((c, len(tuple(run))) for c, run in groupby(coeffs))


def eval_potential(spec: PotentialSpec, r):
    """Evaluate the potential at radius r (scalar or array).

    A tail of more than SHORT_TAIL terms (m > 2) is summed by Horner's rule in
    f^2: lam f^2 sum_k B_k f^(2k-2) in family 1, and
    lam f^(-4m-2) sum_k B_k f^(4m-2k) in family 2. There f^2 <= 1, so the sum
    stays bounded and only the one power f^(4m+2) left can underflow, where V
    is inf at the wall. A run of LONG_RUN or more equal coefficients (from
    m = 12 in a reduced spec, m = 11 in a family-2 partner) is one
    closed-form step, and every other coefficient one multiply and one add
    (_run_sum). A shorter tail (m <= 2 and its partner) keeps one `**` per
    term: the golden figures hold its values byte for byte, and Horner's rule
    rounds differently. Only the spec's coefficients enter, however they are
    summed.

    Where lam r^2 rounds to -1 or below, at the last radii of a lambda < 0
    domain, f^2 is not positive and V is +inf, the wall's value. At L = 0 the
    centrifugal term is left out, not taken as 0 / r^2, which is NaN where r^2
    underflows.
    """
    lam, L, A, shift, B = spec._floats
    arr = _check_radius(Deformation(lam), r)
    t = lam * arr * arr
    wall = t <= -1.0 if lam < 0 and (t <= -1.0).any() else None
    if wall is not None:
        t = np.where(wall, 0.0, t)  # V is set there below; 0 keeps the sums finite
    f2 = 1.0 + t
    v = (L * (L + 1.0) / (arr * arr) if L else 0.0) + lam * A - lam * A / f2 + shift
    fam1 = spec.family is Family.FAMILY1
    if len(B) <= SHORT_TAIL:
        for k, Bk in enumerate(B, start=1):
            v = v + lam * Bk * f2 ** k if fam1 else v - lam * Bk / f2 ** (k + 1)
    else:
        tail = _run_sum(spec._runs, t, f2, fam1, len(B))
        v += lam * tail if fam1 else -lam * tail
    if wall is not None:
        v = np.where(wall, np.inf, v)
    return float(v) if np.isscalar(r) or v.ndim == 0 else v


def _run_sum(runs, t, f2, fam1, terms):
    """The tail's sum_k B_k f^(2k) (family 1) or sum_k B_k f^(-2k-2) (family 2), k = 1..terms,
    by Horner's rule in f^2 = 1 + t over its runs (c, n), highest power first, with each
    run of LONG_RUN or more in one step h -> h f2^n + c (f2^n - 1)/t, where
    f2^n = exp(n log1p(t)) and f2^n - 1 = expm1(n log1p(t)) keep their digits at small t.

    Family 1 (f2 >= 1) takes the step as (h + c G)/E, with E = f2^-n and
    G = (1 - E)/t in (0, n]: where f2^n overflows E underflows, and h is inf as
    in Horner's rule, never inf - inf. Family 2 (f2 < 1) takes it as h E + c G,
    with E = f2^n and G = (E - 1)/t, both in (0, n], so h stays bounded and only
    its last factor f2^-(terms+1) overflows, to inf past the wall with one
    warning. E is exp, not expm1 + 1, which would lose its digits where it is
    small. t is held off 0 by _RUN_FLOOR, and is > -1: eval_potential sets
    the radii where it rounds to -1 or below aside.
    """
    h = np.zeros_like(f2)
    g = None
    for c, n in runs:
        if n < LONG_RUN:
            for _ in range(n):
                h *= f2
                h += c
            continue
        if g is None:  # log1p(t), once, where a tail has a long run
            u = np.maximum(t, _RUN_FLOOR) if fam1 else np.minimum(t, -_RUN_FLOOR)
            g = np.log1p(u)
            q = (-1.0 if fam1 else 1.0) / u
        z = (-n if fam1 else n) * g
        E = np.exp(z)
        G = np.expm1(z)
        G *= q
        G *= c
        if fam1:
            G += h
            G /= E
        else:
            h *= E
            G += h
        h = G
    if fam1:
        h *= f2
    else:
        h *= f2 ** -(terms + 1)
    return h


def reduced_spec(family: int, m: int, L: Scalar, B2m: Scalar, lam: Scalar) -> PotentialSpec:
    """Build the reduced QES PotentialSpec for the given family and order."""
    fam = validate_model(family, m, L, B2m, lam)
    return _reduced_spec(fam, m, L, B2m, lam, exact_sqrt(B2m))


def _reduced_spec(fam: Family, m: int, L, B2m, lam, s) -> PotentialSpec:
    """reduced_spec of a model that validate_model has passed, with s = exact_sqrt(B2m)."""
    low = -B2m - (2 * L + 1) * s
    if fam is Family.FAMILY1:
        A = (2 * m + 1) * (2 * m - 1) * QUARTER
        top = -B2m - (2 * L + 4 * m + 3) * s
    else:
        A = low + (2 * m + 1) * (2 * m + 3) * QUARTER
        top = B2m - 2 * (2 * m + 1) * s
    B = (canonical(low),) * (m - 1) + (canonical(top),) + (canonical(B2m),) * m
    spec = object.__new__(PotentialSpec)  # __post_init__ would validate the model again
    spec.__dict__.update(family=fam, L=L, A=canonical(A), lam=lam, B=B, m=m, shift=0)
    return spec


def oscillator_from_beta(beta: Scalar, lam: Scalar, L: Scalar = 0) -> PotentialSpec:
    """Base-oscillator spec with A = (beta/lambda)(beta/lambda + 1)."""
    if lam == 0:
        raise DegenerateCurvature("lambda = 0 is not supported")
    ratio = exact_div(beta, lam)
    return PotentialSpec(family=Family.BASE, L=L, A=ratio * (ratio + 1), lam=lam)


def spec_to_dict(spec: PotentialSpec) -> dict:
    """JSON-ready dict with the fixed field names {family, m, L, lambda, A, B, shift}."""
    return {
        "family": int(spec.family),
        "m": spec.m,
        "L": float(spec.L),
        "lambda": float(spec.lam),
        "A": float(spec.A),
        "B": [float(b) for b in spec.B],
        "shift": float(spec.shift),
    }


def spec_from_dict(data: dict) -> PotentialSpec:
    """Inverse of spec_to_dict. InvalidParameter for a non-dict, a missing family, L, A or
    lambda, an unknown family, a B that is not a list, or an A or B_k that is not a finite
    real number; the spec then checks its other values."""
    if not isinstance(data, dict):
        raise InvalidParameter(f"a spec must be a JSON object, got {reprlib.repr(data)}")
    missing = [key for key in ("family", "L", "A", "lambda") if key not in data]
    if missing:
        raise InvalidParameter(f"spec is missing {', '.join(missing)}")
    try:
        family = Family(data["family"])
    except ValueError:
        raise InvalidParameter(f"unknown family {reprlib.repr(data['family'])}") from None
    B = data.get("B", [])
    if not isinstance(B, (list, tuple)):
        raise InvalidParameter(f"B must be a list of numbers, got {reprlib.repr(B)}")
    # the spec checks only a QES spec's B_2m: eval_potential reads A and every B_k as floats
    require_finite("A", data["A"])
    for k, value in enumerate(B, start=1):
        require_finite(f"B_{k}", value)
    return PotentialSpec(
        family=family,
        m=data.get("m"),
        L=data["L"],
        A=data["A"],
        lam=data["lambda"],
        B=tuple(B),
        shift=data.get("shift", 0),
    )


def spec_to_json(spec: PotentialSpec) -> str:
    return json.dumps(spec_to_dict(spec))


def spec_from_json(text: str) -> PotentialSpec:
    return spec_from_dict(json.loads(text))
