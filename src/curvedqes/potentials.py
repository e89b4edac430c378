"""Potential families of the curved-space oscillator and its two QES extension families.

A potential is stored as coefficient data: the centrifugal term L(L+1)/r^2,
the oscillator part lambda*A - lambda*A/f^2, and an extension tail that is a
polynomial in f^2 (family 1, lambda > 0) or in 1/f^2 (family 2, lambda < 0),

    family 1:  V = L(L+1)/r^2 + lam*A - lam*A/f^2 + lam * sum_k B_k f^(2k)
    family 2:  V = L(L+1)/r^2 + lam*A - lam*A/f^2 - lam * sum_k B_k f^(-2k-2)

with k = 1..2m.  For lambda < 0 the minus sign in front of the family-2 sum
makes the tail coefficients enter as +|lambda|*B_k/f^(2k+2).  Coefficients are
kept as ints/Fractions whenever the inputs allow, so the constrained cases can
be checked by exact arithmetic.
"""

from __future__ import annotations

import json
import math
import reprlib
from dataclasses import dataclass
from enum import IntEnum
from functools import cached_property
import numpy as np

from .errors import DegenerateCurvature, InvalidOrder, InvalidParameter, SignMismatch
from .exactmath import QUARTER, Scalar, canonical, exact_div, exact_sqrt
from .geometry import Deformation, _check_radius

MAX_ORDER = 60  # binomial growth bound for the prefactor expansion
# longest potential tail summed one `**` per term (m <= 2): the golden figures pin it
SHORT_TAIL = 4


class Family(IntEnum):
    BASE = 0
    FAMILY1 = 1
    FAMILY2 = 2


def require_finite(name: str, value) -> None:
    """Raise InvalidParameter unless value is finite as a float (a float() overflow is not)."""
    try:
        finite = math.isfinite(value)
    except OverflowError:  # an int or Fraction beyond the double range
        finite = False
    if not finite:
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
    """Coefficient data for one potential; immutable, thread-safe, checked by validate_model."""

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
        if self.family is Family.BASE:
            if self.B or self.m is not None:
                raise InvalidParameter("base oscillator takes no extension coefficients")
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


def eval_potential(spec: PotentialSpec, r):
    """Evaluate the potential at radius r (scalar or array).

    A tail of more than SHORT_TAIL terms (m > 2) is summed by Horner's rule in
    f^2, one multiply and one add per term: lam f^2 sum_k B_k f^(2k-2) in
    family 1, and lam f^(-4m-2) sum_k B_k f^(4m-2k) in family 2. There
    f^2 <= 1, so the sum stays bounded and only the one power f^(4m+2) left
    can underflow, where V is inf at the wall. A shorter tail (m <= 2 and its
    partner) keeps one `**` per term: the golden figures hold its values byte
    for byte, and Horner's rule rounds differently.
    """
    lam, L, A, shift, B = spec._floats
    arr = _check_radius(Deformation(lam), r)
    f2 = 1.0 + lam * arr * arr
    v = L * (L + 1.0) / (arr * arr) + lam * A - lam * A / f2 + shift
    fam1 = spec.family is Family.FAMILY1
    if len(B) <= SHORT_TAIL:
        for k, Bk in enumerate(B, start=1):
            v = v + lam * Bk * f2 ** k if fam1 else v - lam * Bk / f2 ** (k + 1)
    else:
        coeffs = B[::-1] if fam1 else B  # highest power of f^2 first
        h = coeffs[0] * f2 + coeffs[1]
        for c in coeffs[2:]:
            h *= f2
            h += c
        if fam1:
            v += lam * f2 * h
        else:
            v -= lam * h / f2 ** (len(B) + 1)
    return float(v) if np.isscalar(r) or v.ndim == 0 else v


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
    """Inverse of spec_to_dict."""
    return PotentialSpec(
        family=Family(data["family"]),
        m=data.get("m"),
        L=data["L"],
        A=data["A"],
        lam=data["lambda"],
        B=tuple(data.get("B", ())),
        shift=data.get("shift", 0),
    )


def spec_to_json(spec: PotentialSpec) -> str:
    return json.dumps(spec_to_dict(spec))


def spec_from_json(text: str) -> PotentialSpec:
    return spec_from_dict(json.loads(text))
