"""Constant-curvature geometry: deformation factor, domain, arc-length map, radial reduction.

The deformation function f(r) = sqrt(1 + lambda*r^2) encodes a space of
constant curvature kappa = -lambda.  For lambda > 0 the radial coordinate runs
over (0, inf); for lambda < 0 it runs over (0, 1/sqrt(|lambda|)).  The
arc-length coordinate x(r) = integral dr'/f(r') turns the deformed kinetic
operator into a plain second derivative and is what the spectral oracle
discretizes.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DegenerateCurvature, DomainError, InvalidParameter
from .exactmath import exact_div


@dataclass(frozen=True)
class Deformation:
    """Curvature deformation with parameter lambda (kappa = -lambda)."""

    lam: float

    def __post_init__(self):
        if self.lam == 0:
            raise DegenerateCurvature("lambda = 0 (flat space) is not supported")

    @property
    def domain_max(self) -> float:
        """Upper end of the open radial domain."""
        if self.lam > 0:
            return math.inf
        return 1.0 / math.sqrt(-self.lam)

    @property
    def arc_max(self) -> float:
        """Arc-length image of the radial domain: inf, or pi/(2*sqrt(|lambda|))."""
        if self.lam > 0:
            return math.inf
        return math.pi / (2.0 * math.sqrt(-self.lam))


def _check_radius(deformation: Deformation, r):
    arr = np.asarray(r, dtype=float)
    # every r must satisfy the bounds, so a NaN, which satisfies none, fails
    if not ((arr > 0.0) & (arr < deformation.domain_max)).all():
        raise DomainError(
            f"radius outside the open domain (0, {deformation.domain_max}) "
            f"for lambda={deformation.lam}"
        )
    return arr


def deformation_factor(deformation: Deformation, r):
    """f(r) = sqrt(1 + lambda*r^2); accepts scalars or arrays."""
    arr = _check_radius(deformation, r)
    out = np.sqrt(1.0 + deformation.lam * arr * arr)
    return float(out) if np.isscalar(r) or out.ndim == 0 else out


def arc_coordinate(deformation: Deformation, r):
    """Arc-length coordinate x(r) = integral_0^r dr'/f(r'), in closed form."""
    arr = _check_radius(deformation, r)
    lam = deformation.lam
    if lam > 0:
        sl = math.sqrt(lam)
        out = np.arcsinh(sl * arr) / sl
    else:
        sl = math.sqrt(-lam)
        out = np.arcsin(sl * arr) / sl
    return float(out) if np.isscalar(r) or out.ndim == 0 else out


def radius_from_arc(deformation: Deformation, x):
    """Inverse of arc_coordinate."""
    arr = np.asarray(x, dtype=float)
    if not ((arr > 0.0) & (arr < deformation.arc_max)).all():
        raise DomainError(f"arc coordinate outside (0, {deformation.arc_max})")
    lam = deformation.lam
    if lam > 0:
        sl = math.sqrt(lam)
        out = np.sinh(sl * arr) / sl
    else:
        sl = math.sqrt(-lam)
        out = np.sin(sl * arr) / sl
    return float(out) if np.isscalar(x) or out.ndim == 0 else out


def reduce_radial(d: int, l: int, lam, curved_energy):
    """Return (L, E): effective angular momentum and reduced energy.

    L = l + (d-3)/2, an int at odd d and the exact Fraction at even d, and
    E = curved_energy - lambda*(d-1)^2/4. Raises InvalidParameter unless d and l
    are integers with d >= 2 and l >= 0. A warning is emitted when L < 0
    (d=2, l=0): downstream solvers require L >= 0.
    """
    for name, value, low in (("space dimension d", d, 2), ("angular momentum l", l, 0)):
        if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low:
            raise InvalidParameter(f"{name} must be an integer >= {low}, got {value!r}")
    num = 2 * l + d - 3
    L = num // 2 if num % 2 == 0 else Fraction(num, 2)
    E = curved_energy - exact_div(lam * (d - 1) ** 2, 4)
    if L < 0:
        warnings.warn(
            f"effective angular momentum L={L} < 0; the QES solvers require L >= 0",
            stacklevel=2,
        )
    return L, E
