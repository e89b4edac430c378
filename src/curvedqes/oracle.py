"""Independent spectral verification of the deformed radial Schrodinger operator.

In the arc-length coordinate x (dx = dr/f) the operator

    -sqrt(f) d/dr f d/dr sqrt(f) + V(r)

acting on psi becomes a plain -d^2/dx^2 + V(r(x)) acting on u = sqrt(f) psi,
so a symmetric 3-point finite difference with Dirichlet ends gives a
symmetric tridiagonal matrix whose lowest eigenvalues are found by
bisection/inverse iteration. At a non-integer L below 3/2, where u ~ x^(L+1)
at the origin would cost that stencil its order 2, the matrix is built from
u = x^(L+1) v with the weight x^(2L+2) and a free origin row (_stencil; Pryce,
Numerical Solution of Sturm-Liouville Problems, 1993, on singular endpoints).
The grid is cut where the potential wall exceeds WALL_CUTOFF |lambda|; past
that point the eigenfunctions carry essentially no mass, while keeping the
wall out of the matrix preserves the eigensolver's absolute accuracy. The
wall scan (default_arc_cutoff) reads a 20001-point scan per span but computes
only the points it reads: 201 coarse ones in one potential call, and with a
wall one more call of at most 201, the same cut as the whole scan. Every
check of a verification runs on (0, r_cut], r_cut the radius of that cut. The
solver climbs a ladder of levels (halvings of the largest grid) as one chain
of grids, coarsest first, each the one before it doubled or doubled plus one:
up to the largest level, or, given a tolerance, to the smallest whose
Richardson-extrapolated values certify it. At every L the gate reads three
levels N, N/2 and N/4, the last three grids solved: their observed order of
convergence and a grid-convergence-index bound on the extrapolated value
(Richardson and Gaunt, Phil. Trans. A 226 (1927) 299; Roache, J. Fluids Eng.
116 (1994) 405). Each grid takes its guess from the grids before it, and its
potential samples from the first level or the grid before it. The first, with
nothing solved to guess from, is bisected for its values alone; every later
grid is polished by inverse iteration from a ramp, shifted to the values the
grids before it predict, and certified by one Sturm count and residual bounds
(Parlett, The Symmetric Eigenvalue Problem, ch. 4 and 10), falling back to
bisection when the certificate fails. The returned level's matrix comes with
the estimate, for Sturm counts (_sturm_count).

Norms and overlaps use adaptive Gauss-Kronrod 7/15 panels (the pair inside
QUADPACK), one vector quadrature for many integrands: each refinement round
evaluates them once, as one array over every open panel shared by all, and
each meets its own error budget, relative to the norm so that small norms keep
their digits. Node search scans the grid of every pointwise check (_scan_grid)
for sign changes with array operations and polishes each bracketed root by
Brent's method, ported here from scipy.optimize.brentq. Both end at a probed
decay radius unless the caller, as run_verification does with r_cut, passes
the end in. A verification's two states share their exponent series, so each
window evaluates them together (susy.evaluate_forms): one evaluation with
derivatives on the caller's grid and V(r) gives both residuals and the values
both node scans bracket (_residuals), and one quadrature pass both norms and
their overlap, plus one for both tails at lambda > 0 (_integrals).

Everything here is deliberately independent of the closed-form route: the
matrix only sees eval_potential, and the quadrature/node utilities only see
pointwise wavefunction values.

The eigensolves call three LAPACK routines (dstebz, dstein, dgtsv) of
scipy's extension module scipy.linalg._flapack, loaded from its file at the
first solve (_flapack). Neither scipy.linalg, whose import takes about 0.45 s,
nor scipy.optimize is ever imported, and a caller that only builds closed
forms loads no SciPy at all.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import pathlib
import reprlib
import sys
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, GridTooCoarse, InvalidParameter, NonNormalizable, TruncationWarning
from .geometry import Deformation, _check_radius, radius_from_arc
from .potentials import PotentialSpec, eval_potential, is_finite_real
from .susy import WavefunctionForm, evaluate_forms

WALL_CUTOFF = 1.0e6  # the wall, in units of |lambda|: V scales with |lambda|
BOX_MARGIN = 1.0 - 1e-7  # the share of a box (lambda < 0) the wall scan, or a wall-less cut, spans
SCAN_POINTS = 20001  # points of each span default_arc_cutoff scans for the wall
SCAN_STRIDE = 100  # its coarse pass samples every SCAN_STRIDE-th of them
LADDER_FLOOR = 250  # the grid ladder starts at its smallest level at or above this, or 16 k
# LAPACK's dstebz counts eigenvalues with the squared off-diagonal entries: a
# matrix entry must square inside the double range
ENTRY_MAX = math.sqrt(np.finfo(float).max)
# brentq's step limit and smallest accepted rtol, as in scipy.optimize.brentq
BRENT_MAXITER = 100
BRENT_RTOL_MIN = 4 * float(np.finfo(float).eps)
POLISH_STEPS = 3  # most inverse-iteration steps per polished eigenpair
POLISH_RESIDUAL = 1e-6  # largest accepted ||T x - E x||, as a fraction of the guesses' gap
# The error gate of Richardson's values (_error_estimate). The safety factor is
# Roache's for an order that is not observed: the levels show the order of E,
# not of the extrapolated value. The stencil's order is 2: orders in ORDER_RANGE
# around it are trusted, and others, as on a grid not yet asymptotic, take the
# plain value's estimate. The scale floor, the closed-form check's own, only
# keeps a zero value from dividing. No estimate is below ESTIMATE_FLOOR, 4 ulps
# of the value: where three levels agree to the last bits, the differences are
# rounding, and an estimate of 0 would claim an exact value.
SAFETY_FACTOR = 3.0
ORDER_RANGE = (1.0, 3.0)
SCALE_FLOOR = 1e-30
ESTIMATE_FLOOR = 4 * float(np.finfo(float).eps)


@dataclass(frozen=True)
class SpectrumEstimate:
    """Lowest eigenvalues on a grid, with error estimates from N/2 and N/4 runs."""

    grid_points: int
    x_max: float
    eigenvalues: tuple
    richardson_error: tuple
    extrapolated: tuple
    error_estimate: tuple  # relative error estimate of each extrapolated value (_error_estimate)
    observed_order: tuple  # log2 of the ratio of successive differences; None where undefined
    method: str  # how the level at grid_points was solved: "bisection" or "inverse_iteration"
    # one column per eigenvalue, one row per matrix row: N - 1, or N at a weighted L (_stencil)
    eigenvectors: np.ndarray = field(repr=False, compare=False)
    matrix: tuple = field(repr=False, compare=False)  # (diag, off) of the level at grid_points

    def to_dict(self) -> dict:
        return {
            "grid_points": self.grid_points,
            "x_max": self.x_max,
            "method": self.method,
            "eigenvalues": list(self.eigenvalues),
            "richardson_error": list(self.richardson_error),
            "extrapolated": list(self.extrapolated),
            "error_estimate": list(self.error_estimate),
            "observed_order": list(self.observed_order),
        }


def _potential_on_arc(spec: PotentialSpec, x: np.ndarray) -> np.ndarray:
    defo = Deformation(float(spec.lam))
    r = radius_from_arc(defo, x)
    # f2 ** (k + 1) underflows to 0 near a family-2 wall: the inf it gives is wall
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        return eval_potential(spec, r)


def _walled(v: np.ndarray, lam: float) -> np.ndarray:
    """Mask of the potential values at or past the wall: non-finite or >= WALL_CUTOFF |lambda|."""
    return ~np.isfinite(v) | (v >= WALL_CUTOFF * abs(lam))


def _cut_radius(lam: float, x_cut: float) -> float:
    """Radius of the arc cut x_cut; BOX_MARGIN of the box's radius if x_cut is the box's end."""
    defo = Deformation(lam)
    return BOX_MARGIN * defo.domain_max if x_cut >= defo.arc_max else radius_from_arc(defo, x_cut)


def _check_arc_cut(lam: float, x_cut: float) -> None:
    """DomainError unless a grid cut at the arc coordinate x_cut lies in the domain: at
    most the box's end at lambda < 0, at a radius inside the double range at lambda > 0."""
    defo = Deformation(lam)
    if lam < 0:
        inside = x_cut <= defo.arc_max
    else:
        with np.errstate(over="ignore"):  # sinh past the double range: the cut is outside
            inside = math.isfinite(radius_from_arc(defo, x_cut))
    if not inside:
        raise DomainError(f"arc cut x_max={x_cut!r} outside the arc domain at lambda={lam:g}")


def _positive(name: str, value) -> float:
    """float(value); InvalidParameter unless value is a real number, not a bool, finite and > 0."""
    if isinstance(value, bool) or not is_finite_real(value) or value <= 0:
        raise InvalidParameter(f"{name} must be a finite number > 0, got {reprlib.repr(value)}")
    return float(value)


def _arc_cut(spec: PotentialSpec, x_max) -> float:
    """The arc cut of a window: default_arc_cutoff(spec), or a given x_max, which must be
    _positive and in the arc domain (_check_arc_cut)."""
    if x_max is None:
        return default_arc_cutoff(spec)
    x_cut = _positive("x_max", x_max)
    _check_arc_cut(float(spec.lam), x_cut)
    return x_cut


def _scan_points(lo: float, hi: float, start: int, stop: int, stride: int = 1) -> np.ndarray:
    """np.linspace(lo, hi, SCAN_POINTS)[start:stop:stride], computed as np.linspace computes
    it, point i as i * ((hi - lo) / (SCAN_POINTS - 1)) + lo and the last as hi, bit for bit."""
    i = np.arange(start, stop, stride, dtype=float)
    xs = i * ((hi - lo) / (SCAN_POINTS - 1)) + lo
    if i.size and i[-1] == SCAN_POINTS - 1:
        xs[-1] = hi
    return xs


def default_arc_cutoff(spec: PotentialSpec) -> float:
    """Arc coordinate where the potential wall passes WALL_CUTOFF |lambda|, or the full box.

    Each span is scanned at SCAN_POINTS np.linspace points, and the cut is the
    first of them at or after the potential's minimum (np.nanargmin) that is
    non-finite or >= WALL_CUTOFF |lambda|. lambda < 0 scans the box less its ends and
    cuts at the box's end if that finds no wall. lambda > 0 scans
    (0, 2^j / sqrt(lambda)], j = 1..6, in turn, then warns with
    TruncationWarning and cuts at 64 / sqrt(lambda). A scan that is NaN
    everywhere, as where lambda B_k overflows and V is inf - inf, raises
    InvalidParameter.

    The scan is sampled coarse to fine, not evaluated whole, and only the
    points it reads are computed, each as np.linspace computes it
    (_scan_points). The coarse pass takes every SCAN_STRIDE-th point, 201 of
    them, in one _potential_on_arc call. If no coarse point at or after the
    coarse minimum reaches the wall, the span has none and that one call is
    all it takes. Otherwise a second call evaluates the stride just before
    the first coarse point past the minimum that reaches the wall, 99
    points, and the cut is the first of them that does, or that coarse
    point. Only where that coarse point lies within one stride of the coarse
    minimum can the whole scan's minimum move the cut; there the second call
    evaluates instead the points within one stride of the coarse minimum, up
    to 201, which hold both that minimum and the stride before the wall. So
    a span costs one call, or two and at most 402 points with a wall. This
    gives the whole scan's point, the same float, provided no feature of the
    potential between its minimum and the wall is narrower than one stride.
    """
    lam = float(spec.lam)
    if lam < 0:
        cut = Deformation(lam).arc_max
        # stay clear of the end: sin(x) must not round up to the domain edge
        spans = [(cut * 1e-6, cut * BOX_MARGIN)]
    else:
        sl = math.sqrt(lam)
        cut = 64.0 / sl
        spans = [(2.0 ** j / sl * 1e-6, 2.0 ** j / sl) for j in range(1, 7)]
    for lo, hi in spans:
        coarse_x = _scan_points(lo, hi, 0, SCAN_POINTS, SCAN_STRIDE)
        coarse = _potential_on_arc(spec, coarse_x)
        if np.isnan(coarse).all():
            raise InvalidParameter(
                f"the potential is NaN over the whole wall scan at lambda={lam:g}: its "
                "coefficients times lambda leave the double range"
            )
        cc = int(np.nanargmin(coarse))
        walled = _walled(coarse, lam)
        # the whole scan's minimum i0 lies in (c - SCAN_STRIDE, c + SCAN_STRIDE], c = cc *
        # SCAN_STRIDE (at c - SCAN_STRIDE, coarse point cc - 1 would be a minimum before
        # cc), so its wall search starts at coarse point cc or cc + 1
        if not walled[cc:].any():
            continue
        wall = cc + int(walled[cc:].argmax())
        if wall > cc + 1:
            # coarse points cc and cc + 1 are not walled, and the stride before the wall
            # lies past i0: the cut is the same wherever i0 is
            a = wall * SCAN_STRIDE - SCAN_STRIDE + 1
            xs = _scan_points(lo, hi, a, wall * SCAN_STRIDE)
            v = _potential_on_arc(spec, xs)
        else:
            # i0 decides where the search starts: the points within one stride of c hold
            # it and the stride before the wall, which ends at c + SCAN_STRIDE or before
            c = cc * SCAN_STRIDE
            a = max(c - SCAN_STRIDE, 0)
            xs = _scan_points(lo, hi, a, min(c + SCAN_STRIDE + 1, SCAN_POINTS))
            v = _potential_on_arc(spec, xs)
            i0 = a + int(np.nanargmin(v))
            first = -(-i0 // SCAN_STRIDE)  # the first coarse point at or after the minimum
            if not walled[first:].any():
                continue
            wall = first + int(walled[first:].argmax())
            start = max(i0, wall * SCAN_STRIDE - SCAN_STRIDE + 1) - a
            xs, v = xs[start:wall * SCAN_STRIDE - a], v[start:wall * SCAN_STRIDE - a]
        # the first walled point of the stride before the walled coarse one; that one if none
        fine = _walled(v, lam)
        return float(xs[int(fine.argmax())] if fine.any() else coarse_x[wall])
    if lam > 0:
        warnings.warn(
            "potential never reached the wall cutoff; weakly confining tails may "
            "need an explicit x_max",
            TruncationWarning,
            stacklevel=2,
        )
    return cut


def _interior_potential(spec: PotentialSpec, n: int, x_max: float, half=None) -> np.ndarray:
    """Potential at the n - 1 interior points h j (h = x_max / n) of an n-interval grid.

    half, the values of the n / 2 grid, lends every other point of an even
    grid: x_max / (n / 2) * j == x_max / n * 2 j in floating point, so they
    equal fresh samples bit for bit, and only the odd j are evaluated. Either
    way the grid costs one _potential_on_arc call.
    """
    if half is None:
        return _potential_on_arc(spec, x_max / n * np.arange(1, n))
    v = np.empty(n - 1)
    v[1::2] = half
    v[::2] = _potential_on_arc(spec, x_max / n * np.arange(1, n, 2))
    return v


def _stencil(v: np.ndarray, h: float, a: float | None = None) -> tuple:
    """(diag, off, q, scale, edges, h): the matrix tridiag(off, diag, off) of the grid with
    step h and potential samples v at its interior points, and its Rayleigh quotient's terms.

    The grid takes -(w y')' + w q y = E w y by finite volumes: edges[i], the
    flux's weight, is the integral of w between rows i - 1 and i, and a row's
    mass that over its cell; scale = mass^(-1/2) makes the matrix symmetric,

        diag_i = (edges_i + edges_(i+1)) scale_i^2 / h^2 + q_i,
        off_i = -edges_(i+1) scale_i scale_(i+1) / h^2.

    Without a, w = 1 and y = u: the rows are the interior points, q = v, and
    every edge and mass is 1 in units of h, the plain stencil
    tridiag(-1/h^2, 2/h^2 + v, -1/h^2) bit for bit. With a = L + 1, u = x^a y
    and w = x^(2a), so y is smooth at the origin: the rows run from x_0 = 0,
    q = v - L(L+1)/x^2 is bounded (q_0 = q_1), and the origin row is free
    (edges_0 = 0: the flux w y' vanishes there), its cell clipped at 0. Edges
    and masses are in units of h^(2a+1) / (2a+1), which cancel. The
    eigenvectors are y scaled by mass^(1/2), with u's sign changes.

    Raises InvalidParameter when an entry is past ENTRY_MAX (or NaN).
    """
    n = v.size + 1
    if a is None:  # unit edges and masses: the formulas above fold to constants
        q, scale, edges = v, np.ones(n - 1), np.ones(n)
        kinetic, off = 2.0 / (h * h), np.full(n - 2, -1.0 / (h * h))
    else:
        t = np.arange(n + 1.0)  # x / h
        q = v - a * (a - 1.0) / (h * t[1:n]) ** 2
        q = np.concatenate((q[:1], q))
        edges = np.concatenate(([0.0], np.diff(t ** (2.0 * a + 1.0))))
        scale = 1.0 / np.sqrt(np.diff(np.maximum(t - 0.5, 0.0) ** (2.0 * a + 1.0)))
        kinetic = (edges[:-1] + edges[1:]) * scale ** 2 / (h * h)
        off = -edges[1:-1] * scale[:-1] * scale[1:] / (h * h)
    bound = float(np.max(kinetic)) + float(np.max(np.abs(q)))  # bounds every entry; NaN if one is
    if not bound < ENTRY_MAX:
        raise InvalidParameter(
            f"the oracle matrix at N={n} has entries up to {bound:.3e}, past the "
            f"{ENTRY_MAX:.3e} its eigensolver can square"
        )
    return kinetic + q, off, q, scale, edges, h


def _sturm_count(diag, off, x: float) -> int:
    """How many eigenvalues of tridiag(off, diag, off) are <= x: one Sturm count."""
    # dstebz clamps -inf to its Gershgorin bound, and an infinite tolerance leaves nothing to refine
    return int(dstebz(diag, off, 1, -math.inf, x, 0, 0, math.inf, "E")[0])


def _polish(stencil: tuple, guess):
    """The lowest len(guess) eigenpairs of T = tridiag(off, diag, off) of a _stencil, or None.

    guess holds increasing estimates p_0 < ... < p_{k-1} of the lowest k
    eigenvalues. With g their smallest gap (max(1, |p_0|) for k = 1), the
    window is (lo, hi] = (p_0 - g/2, p_{k-1} + g/2]. The pairs are certified
    when one Sturm count finds exactly k eigenvalues <= hi, and each
    inverse-iteration vector x_i with Rayleigh quotient E_i has a residual
    r_i = ||T x_i - E_i x_i|| <= POLISH_RESIDUAL g with [E_i - r_i, E_i + r_i]
    inside the window and apart from its neighbours. Each such interval holds
    an eigenvalue of T (Parlett, ch. 4); k disjoint ones account for all k
    eigenvalues <= hi, so none lies at or below lo and the i-th interval
    holds the i-th. None is returned when any check fails.

    Each pair starts from a ramp, takes up to POLISH_STEPS steps, shifted to
    p_i and orthogonalised against the earlier vectors, and stops at the
    first whose residual is within the bound. A poor guess costs steps or a
    None, never a wrong pair: the checks above decide.

    E_i is the Rayleigh quotient in difference form, with z = scale x and its
    zero Dirichlet ends, sum edges_j (z_j - z_(j-1))^2 / h^2 + sum q_j x_j^2,
    which does not cancel against the diagonal's kinetic part.
    """
    p = np.asarray(guess, dtype=float)
    k = p.size
    g = float((p[1:] - p[:-1]).min()) if k > 1 else max(1.0, abs(float(p[0])))
    if not (np.isfinite(p).all() and g > 0.0):
        return None
    lo, hi = float(p[0]) - g / 2.0, float(p[-1]) + g / 2.0
    diag, off, q, scale, edges, h = stencil
    if _sturm_count(diag, off, hi) != k:
        return None
    bound = POLISH_RESIDUAL * g
    vecs = np.empty((k, diag.size))  # one row per vector, returned transposed
    w = np.empty(k)
    res = np.empty(k)
    # a ramp, not ones: ones is orthogonal to every odd mode of a symmetric well
    ramp = np.linspace(1.0, 2.0, diag.size)
    for i in range(k):
        shifted = diag - p[i]
        x = ramp  # dgtsv solves into a copy
        for _ in range(POLISH_STEPS):
            x, info = dgtsv(off, shifted, off, x)[3:]
            if info != 0:
                return None
            if i:  # the first pair has no earlier vector to project out
                x -= (vecs[:i] @ x) @ vecs[:i]
            norm = math.sqrt(x @ x)
            # a zero vector leaves nothing to normalise, a non-finite one nothing to certify
            if not 0.0 < norm < math.inf:
                return None
            x /= norm
            z = x * scale
            dz = z[1:] - z[:-1]
            kinetic = (edges[1:-1] * dz) @ dz + edges[0] * z[0] ** 2 + edges[-1] * z[-1] ** 2
            w[i] = kinetic / (h * h) + (q * x) @ x
            tx = (diag - w[i]) * x
            tx[:-1] += off * x[1:]
            tx[1:] += off * x[:-1]
            res[i] = math.sqrt(tx @ tx)
            if res[i] <= bound:
                break
        vecs[i] = x
    ok = (
        (res <= bound).all()
        and (w - res > lo).all()
        and (w + res <= hi).all()
        and (w[1:] - w[:-1] > res[:-1] + res[1:]).all()
    )
    return (w, vecs.T) if ok else None


# The eigensolvers: three LAPACK routines of scipy's extension module
# scipy.linalg._flapack, loaded at the first solve. They are module attributes,
# looked up at each call, so a caller can wrap them.
_lapack = None


def _flapack():
    """scipy.linalg._flapack, loaded from its file without importing scipy.linalg.

    `import scipy` keeps scipy's own set-up of its shared libraries. The
    loaded module is kept here, and the sys.modules entry its load leaves
    is dropped, so a later import of scipy.linalg loads the submodule
    through the import system: that sets the package attribute, and the
    extension's functions are the same objects. If scipy.linalg is already
    imported, or the file is not found, its module is used.
    """
    global _lapack
    if _lapack is None:
        _lapack = sys.modules.get("scipy.linalg._flapack") or _load_flapack()
    return _lapack


def _load_flapack():
    import scipy

    name = "scipy.linalg._flapack"
    folder = pathlib.Path(scipy.__file__).parent / "linalg"
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = folder / f"_flapack{suffix}"
        if path.is_file():
            spec = importlib.util.spec_from_file_location(name, path)
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            sys.modules.pop(name, None)
            return module
    from scipy.linalg import _flapack

    return _flapack


def eigh_tridiagonal(d, e, k: int):
    """The lowest k eigenvalues of tridiag(e, d, e) and their eigenvectors, one column each.

    The eigenvalues by bisection (_bisect), the eigenvectors by inverse
    iteration (dstein), sorted as scipy.linalg.eigh_tridiagonal(d, e,
    select="i", select_range=(0, k - 1)) sorts them: the same LAPACK calls
    give the same arrays, bit for bit. Raises np.linalg.LinAlgError on a
    nonzero LAPACK info.
    """
    w, iblock, isplit = _bisect(d, e, k)
    v, info = _flapack().dstein(d, e, w, iblock, isplit)
    if info != 0:
        raise np.linalg.LinAlgError(f"dstein (eigh_tridiagonal) returned info={info}")
    order = np.argsort(w)  # block order to matrix order
    return w[order], v[:, order]


def _bisect(d, e, k: int) -> tuple:
    """The lowest k eigenvalues of tridiag(e, d, e) by dstebz, in block order, and its blocks."""
    m, w, iblock, isplit, info = dstebz(d, e, 2, 0.0, 1.0, 1, k, 0.0, "B")
    if info != 0:
        raise np.linalg.LinAlgError(f"dstebz (eigh_tridiagonal) returned info={info}")
    return w[:m], iblock, isplit


def dgtsv(*args):
    """LAPACK's dgtsv (tridiagonal solve)."""
    return _flapack().dgtsv(*args)


def dstebz(*args):
    """LAPACK's dstebz (tridiagonal eigenvalues by bisection)."""
    return _flapack().dstebz(*args)


def _tridiag_lowest(stencil: tuple, k: int, guess=None):
    """Lowest k eigenvalues of the matrix of a _stencil, their eigenvectors, the method.

    With a guess it is polished (_polish), or bisected (eigh_tridiagonal) if the
    polish is not certified; without one, bisected for its values alone (_bisect),
    the same bits, and the eigenvectors are None.
    """
    if guess is None:
        return np.sort(_bisect(*stencil[:2], k)[0]), None, "bisection"
    polished = _polish(stencil, guess)
    if polished is not None:
        return (*polished, "inverse_iteration")
    return (*eigh_tridiagonal(*stencil[:2], k), "bisection")


def _extrapolate(w: np.ndarray, w_half: np.ndarray, n: int) -> np.ndarray:
    """Richardson extrapolation of second-order values on n and n // 2 intervals.

    The step ratio is n / (n // 2): exactly 2, and the divisor exactly 3, on
    an even grid; 2 + 2 / (n - 1) on an odd one.
    """
    return w + (w - w_half) / ((n / (n // 2)) ** 2 - 1.0)


def _error_estimate(w, w_half, w_quarter, x, x_half):
    """Relative error estimate of each extrapolated value x, and the observed order.

    w, w_half and w_quarter are the plain values at N, N/2 and N/4; x and
    x_half the extrapolations at N and at N/2. With d = E(N) - E(N/2) and d' =
    E(N/2) - E(N/4), the observed order is p = log2(d' / d), the order of the
    plain values. Where p is defined and inside ORDER_RANGE the estimate is a
    grid convergence index, SAFETY_FACTOR |x - x_half| / (2^p - 1). It bounds
    the error of x when x converges at order p or faster, and x converges at
    least as fast as E. Elsewhere (a zero difference, differences of opposite
    sign, an order out of range) it is the plain value's estimate |d| / 3,
    which assumes the stencil's order 2. Each is relative to max(|x|,
    SCALE_FLOOR), the scale of the closed-form check, and at least
    ESTIMATE_FLOOR. The order is returned as NaN where it is undefined.
    """
    d, d_half = w - w_half, w_half - w_quarter
    with np.errstate(all="ignore"):  # zero differences, opposite signs, 2^p past the range
        order = np.log2(d_half / d)
        gci = SAFETY_FACTOR * np.abs(x - x_half) / (2.0 ** order - 1.0)
    trusted = (order >= ORDER_RANGE[0]) & (order <= ORDER_RANGE[1])  # False for NaN
    error = np.where(trusted, gci, np.abs(d) / 3.0)
    relative = np.maximum(error / np.maximum(np.abs(x), SCALE_FLOOR), ESTIMATE_FLOOR)
    return relative, np.where(np.isfinite(order), order, np.nan)


def lowest_eigenvalues(
    spec: PotentialSpec,
    k: int = 2,
    grid_points: int = 20000,
    x_max: float | None = None,
    rtol: float | None = None,
) -> SpectrumEstimate:
    """Lowest k eigenvalues of the deformed Schrodinger operator for spec.

    A second-order finite difference in the arc coordinate (_stencil) is solved
    at a level N and at N/2 and N/4. `eigenvalues` holds the plain values at N,
    `eigenvectors` their grid vectors (one column each, of N - 1 rows, or of N
    at a non-integer L below 3/2, where the origin is a row of the weighted
    stencil), and `grid_points` records N. `richardson_error` is |E(N) -
    E(N/2)|, and `extrapolated` the Richardson extrapolation E(N) + (E(N) -
    E(N/2)) / 3 (_extrapolate: the divisor follows the step ratio on an odd
    grid), which removes the O(h^2) term. `error_estimate` bounds the relative
    error of each extrapolated value, and `observed_order` is the order the
    three levels show (_error_estimate).

    The grid spans the arc cut x_max, by default default_arc_cutoff(spec).
    The solver walks one chain of grids, coarsest first: grid_points >> j
    for j = J + 2 down to 0, where J halvings reach the smallest level
    >= max(LADDER_FLOOR, 16 k) (312 at the default grid_points and k <= 19,
    whose chain is 78, 156, 312, 625, ..., 20000; 2500 at k = 100, so that
    the coarsest grid, 625, keeps 4 k intervals). Each grid is the one before
    it doubled, or doubled plus one, and is solved once. The last three grids
    solved are a level's N, N/2 and N/4. Without rtol the solver visits every
    level and returns at N = grid_points. With rtol, grid_points is the largest grid it may use:
    it stops at the first level whose `error_estimate` is <= rtol for every
    eigenvalue. Each grid takes what it needs from the grids before it:
    * its potential samples (_interior_potential): the first level is
      sampled first, a coarser grid nested in it takes every stride-th of
      its samples (156 and 78 in 312), a grid twice the one before it
      evaluates only its new points (1250 after 625), and any other grid is
      sampled afresh (625, which is not twice 312). A _potential_on_arc
      call's fixed cost dominates, each run of LONG_RUN equal terms one
      step: 28-54 us on 625 points, 32-67 us on 1250 (2-core Xeon, m <= 60),
      flat from m = 8. So the ladder saves calls, not points: one for the
      first level and the coarser grids it nests, then at most one per grid;
    * its guess: the second-order prediction
      E(N') = E* - (E(N) - E(N/2)) / 3 (N/N')^2 from the last two grids
      solved, or the values of the one grid solved.
    The first grid, with nothing solved to guess from, is bisected for its
    values alone; every later grid is polished (_polish) and bisected only
    where the polish is not certified. `method` records how the returned
    level was solved, and `matrix` holds its (diag, off) (_sturm_count).

    An eigenvector's certified residual does not bound the rounding in its
    tail, where count_sign_changes can read a spurious node (2 for psi1 at
    (2, 60, 0, 21.544, -1)): count a level's nodes by T_N's Sturm counts.

    Raises InvalidParameter unless a given rtol or x_max is a real number,
    not a bool, finite and > 0, and unless k is below the coarsest grid's
    intervals (grid_points >> 2 at most); DomainError when x_max lies past
    the box's end (lambda < 0) or where the radius leaves the double range (lambda > 0);
    GridTooCoarse when rtol is given and an estimate still exceeds it at
    grid_points; warns with TruncationWarning when an eigenvector keeps
    non-negligible mass near the grid cut.
    """
    if isinstance(k, bool) or not isinstance(k, int) or k < 1:
        raise InvalidParameter(f"k must be an integer >= 1, got {k!r}")
    if isinstance(grid_points, bool) or not isinstance(grid_points, int) or grid_points < 200:
        raise InvalidParameter(f"grid_points must be an integer >= 200, got {grid_points!r}")
    if rtol is not None:
        _positive("rtol", rtol)
    L = float(spec.L)
    # u ~ x^(L+1) at the origin leaves the plain stencil an error of order 2L + 1, under 4
    # here; the weight x^(2L+2) overflows the origin row at large L
    a = L + 1.0 if L < 1.5 and not L.is_integer() else None
    # J, the first level's halvings: the largest j with grid_points >> j >= max(LADDER_FLOOR,
    # 16 k), or 0, so that the coarsest grid keeps 4 k intervals where grid_points allows
    J = max(0, (grid_points // max(LADDER_FLOOR, 16 * k)).bit_length() - 1)
    grids = [grid_points >> j for j in range(J + 2, -1, -1)]
    if k >= grids[0]:
        raise InvalidParameter(
            f"k must be < {grids[0]}, the coarsest grid's intervals at grid_points={grid_points}"
        )
    x_cut = _arc_cut(spec, x_max)
    first = grids[2]
    top = _interior_potential(spec, first, x_cut)
    solved = []  # (eigenvalues, eigenvectors, method) of each grid, in chain order
    for i, n in enumerate(grids):
        doubled = i > 0 and n == 2 * grids[i - 1]
        if first % n == 0:
            # the first level, or a grid it nests: first = stride n, stride a power of 2,
            # and x_max / first * stride j == x_max / n * j bit for bit
            stride = first // n
            v = top[stride - 1::stride]
        else:
            v = _interior_potential(spec, n, x_cut, v if doubled else None)
        if len(solved) > 1:
            # second order: E(n) = E* - (E(N) - E(N/2)) / 3 (N/n)^2 from the last two grids
            w_last, w_half = solved[-1][0], solved[-2][0]
            guess = w_last + (w_last - w_half) / 3.0 * (1.0 - (grids[i - 1] / n) ** 2)
        else:
            guess = solved[-1][0] if solved else None
        stencil = _stencil(v, x_cut / n, a)
        solved.append(_tridiag_lowest(stencil, k, guess))
        if i < 2:
            continue
        w, w_half, w_quarter = solved[-1][0], solved[-2][0], solved[-3][0]
        extrapolated = _extrapolate(w, w_half, n)
        previous = _extrapolate(w_half, w_quarter, n // 2)
        error, order = _error_estimate(w, w_half, w_quarter, extrapolated, previous)
        if rtol is not None and (error <= rtol).all():
            break
    else:
        if rtol is not None:
            raise GridTooCoarse(
                f"relative error estimate {error.max():.3e} of the extrapolated eigenvalues "
                f"exceeds rtol={rtol:.3e}"
            )
    w_fine, vecs, method = solved[-1]
    if x_cut < Deformation(float(spec.lam)).arc_max * (1.0 - 1e-12):  # the cut leaves domain out
        edge = max(3, n // 100)
        for i in range(vecs.shape[1]):
            mass = float((vecs[-edge:, i] ** 2).sum())
            if mass > 1e-12:
                warnings.warn(
                    f"eigenvector {i} keeps mass {mass:.2e} near the grid cut",
                    TruncationWarning,
                    stacklevel=2,
                )
    return SpectrumEstimate(
        grid_points=n,
        x_max=x_cut,
        eigenvalues=tuple(float(v) for v in w_fine),
        richardson_error=tuple(float(v) for v in np.abs(w_fine - w_half)),
        extrapolated=tuple(float(v) for v in extrapolated),
        error_estimate=tuple(float(v) for v in error),
        observed_order=tuple(None if math.isnan(v) else float(v) for v in order),
        method=method,
        eigenvectors=vecs,
        matrix=stencil[:2],
    )


def _scan_grid(lam: float, r_max: float) -> np.ndarray:
    """The 2000 geometric points from 1e-4 / sqrt|lambda| to r_max of every pointwise check.

    DomainError unless 0 < r_max < the radial domain's end.
    """
    _check_radius(Deformation(lam), r_max)
    return np.geomspace(1e-4 / math.sqrt(abs(lam)), r_max, 2000)


def schrodinger_residual(
    spec: PotentialSpec,
    psi: WavefunctionForm,
    energy: float,
    x_max: float | None = None,
) -> float:
    """Max scaled residual of the eigenvalue equation over the 2000-point _scan_grid.

    The residual |pi^2 psi + (V - E) psi| / (|lambda| + |E| |psi|), NaN if any
    point's is, uses analytic derivatives of the peak-normalized closed form.
    The grid ends at the radius of the arc cut x_max, which defaults to
    default_arc_cutoff(spec). Raises NonNormalizable when psi vanishes on the
    whole grid, and for a given x_max what lowest_eigenvalues raises for it.
    """
    lam = float(spec.lam)
    r = _scan_grid(lam, _cut_radius(lam, _arc_cut(spec, x_max)))
    return _residuals(lam, [(psi, energy)], r, eval_potential(spec, r))[0][0]


def _residuals(lam: float, states, r: np.ndarray, v: np.ndarray) -> tuple:
    """(residuals, values): schrodinger_residual of each (psi, energy) in states, and each
    psi's values on the grid, the ones find_nodes brackets (_nodes).

    The caller's grid r and potential samples v on it, and one joint evaluation
    of the states' psi, psi' and psi'' (evaluate_forms), serve every residual.
    """
    f2 = 1.0 + lam * r * r
    evaluated = evaluate_forms([psi for psi, _ in states], r, derivatives=True)
    residuals = []
    for (_, energy), (psi_v, dpsi, d2psi) in zip(states, evaluated):
        peak = np.abs(psi_v).max()
        if peak == 0.0:
            raise NonNormalizable("wavefunction vanishes on the whole grid")
        psi_v, dpsi, d2psi = psi_v / peak, dpsi / peak, d2psi / peak
        kinetic = -f2 * d2psi - 2.0 * lam * r * dpsi - lam * (2.0 + lam * r * r) / (4.0 * f2) * psi_v
        res = np.abs(kinetic + (v - energy) * psi_v) / (abs(lam) + abs(energy) * np.abs(psi_v))
        residuals.append(float(res.max()))
    return residuals, [values[0] for values in evaluated]


def _decay_radius(psi: WavefunctionForm) -> float:
    """Radius past the peak where |psi| has fallen by 1e-13; NonNormalizable if never."""
    lam = float(psi.lam)
    if lam < 0:
        return (1.0 - 1e-9) / math.sqrt(-lam)
    sl = math.sqrt(lam)
    r = np.geomspace(1e-6 / sl, 1e8 / sl, 6000)
    with np.errstate(over="ignore", invalid="ignore"):
        g = np.abs(psi.value(r)) * np.sqrt(r)  # sqrt weight distinguishes 1/sqrt(r) tails
    # far out the polynomial overflows while the exponential underflows: inf * 0 is NaN there
    peak = float(np.nanmax(g))
    if peak == 0.0:
        raise NonNormalizable("wavefunction vanishes on the probe grid")
    # an infinite peak leaves every suffix below the threshold; a NaN one, none
    if peak == math.inf:
        raise NonNormalizable("wavefunction overflows on the probe grid")
    # suffix maxima, NaN skipped: the cut must leave nothing behind, an interior node is not a tail
    suffix = np.fmax.accumulate(g[::-1])[::-1]
    below = suffix <= 1e-13 * peak
    if not np.any(below):
        raise NonNormalizable("no decaying tail found on (0, inf)")
    return float(r[int(np.argmax(below))])


# Gauss-Kronrod 7/15 pair on [-1, 1], as in QUADPACK's qk15: the Kronrod
# nodes from the outermost to the centre with their weights, and the 7-point
# Gauss weights, which sit on every other node.
_XK = np.array([
    0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
    0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
    0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
    0.207784955007898467600689403773245, 0.0,
])
_WK = np.array([
    0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
    0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
    0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
    0.204432940075298892414161999234649, 0.209482141084727828012999174891714,
])
_WG = np.array([
    0.0, 0.129484966168869693270611432679082, 0.0, 0.279705391489276667901467771423780,
    0.0, 0.381830050505118944950369775488975, 0.0, 0.417959183673469387755102040816327,
])
_GK_NODES = np.concatenate([-_XK[:-1], _XK[::-1]])
_GK_KRONROD = np.concatenate([_WK[:-1], _WK[::-1]])
_GK_GAUSS = np.concatenate([_WG[:-1], _WG[::-1]])

NORM_EPSREL = 1.49e-8
OVERLAP_EPSREL = 1e-10
OVERLAP_EPSABS = 1e-13  # the overlap of orthogonal states is ~0: an absolute floor
TAIL_RATIO = 1e-10  # the largest tail past a lambda > 0 norm's end, relative to the norm
START_PANELS = 16
MAX_SPLITS = 2000


def _gauss_kronrod(fun, a: float, b: float, budget) -> np.ndarray:
    """Integrals of the rows of a vectorised fun over [a, b] by adaptive Gauss-Kronrod 7/15 panels.

    fun(r) gives one row per integrand (a 1-d array is one row), and
    budget(totals) each row's error budget from the current estimates. The
    START_PANELS equal panels are shared by every row and refined in rounds.
    Each round evaluates fun once, on the 15 nodes of every open panel, and
    estimates each row's error on each panel as QUADPACK's qk15 does. A panel
    is closed when, in every row, its error fits its share of that row's
    budget, in proportion to its width, or is at or below qk15's round-off
    floor, 50 eps times the integral of the row's |fun| over the panel, which
    bisection cannot lower; every other panel is bisected. Once MAX_SPLITS
    bisections are spent the current estimates are returned, and so are they
    as soon as one is not finite.
    """
    edges = np.linspace(a, b, START_PANELS + 1)
    lo, hi = edges[:-1], edges[1:]
    closed = 0.0
    splits = 0
    eps = np.finfo(float).eps
    while True:
        mid = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)
        fx = fun((mid[:, None] + half[:, None] * _GK_NODES).ravel()).reshape(
            -1, lo.size, _GK_NODES.size)
        # an inf row (|psi|^2 past the double range) may hold inf - inf: its total is not finite
        with np.errstate(over="ignore", invalid="ignore"):
            kron = fx @ _GK_KRONROD
            totals = closed + kron @ half
        if not np.isfinite(totals).all():
            return totals
        with np.errstate(divide="ignore", invalid="ignore"):
            resasc = half * (np.abs(fx - 0.5 * kron[..., None]) @ _GK_KRONROD)
            err = np.abs(half * (kron - fx @ _GK_GAUSS))
            err = np.where((resasc != 0.0) & (err != 0.0),
                           resasc * np.minimum(1.0, (200.0 * err / resasc) ** 1.5), err)
        floor = 50.0 * eps * half * (np.abs(fx) @ _GK_KRONROD)  # qk15's round-off floor
        share = budget(totals)[:, None] * ((hi - lo) / (b - a))
        # no bisection takes a panel's error below its floor: a row there is done
        open_ = (err > np.maximum(floor, share)).any(axis=0)
        n_open = int(np.count_nonzero(open_))
        if n_open == 0 or splits + n_open > MAX_SPLITS:
            return totals
        closed += kron[:, ~open_] @ half[~open_]
        splits += n_open
        lo, mid, hi = lo[open_], mid[open_], hi[open_]
        lo, hi = np.concatenate([lo, mid]), np.concatenate([mid, hi])


def quadrature_norm(psi: WavefunctionForm, r_max: float | None = None) -> float:
    """Integral of |psi|^2 dr over the open domain, by adaptive quadrature.

    The integral ends at the radius r_max, which defaults to _decay_radius(psi).
    For lambda > 0, NonNormalizable is raised when the tail over
    [r_max, 2 r_max] exceeds TAIL_RATIO of the norm; the tail is integrated
    to an absolute error of a tenth of that bound, all its check needs.
    A given r_max must be _positive (InvalidParameter) and below the radial
    domain's end (DomainError).
    """
    return _integrals((psi,), _decay_radius(psi) if r_max is None else _positive("r_max", r_max))[0]


def _integrals(forms, hi: float) -> list:
    """The quadrature_norm to hi of each of forms (one, or a pair sharing lambda), and of a
    pair their overlap after the norms.

    One _gauss_kronrod pass integrates every |psi|^2, and a pair's raw product
    psi_a psi_b, over [0, hi], each round one joint evaluation of the forms
    (evaluate_forms). A norm's budget is NORM_EPSREL of it, the product's
    max(OVERLAP_EPSABS sqrt(I_a I_b), OVERLAP_EPSREL |I|), the overlap's
    targets in units of the norms. At lambda > 0 one more pass integrates
    every |psi|^2 over [hi, 2 hi], each to a tenth of its tail bound. DomainError
    unless 0 < hi < the radial domain's end.
    """
    k = len(forms)
    lam = float(forms[0].lam)
    _check_radius(Deformation(lam), hi)

    def integrands(r):
        values = evaluate_forms(forms, r)
        # past 1e154 |psi|^2 is inf, which the norm's check rejects
        with np.errstate(over="ignore", invalid="ignore"):
            rows = [p * p for p in values]
            if k == 2:
                rows.append(values[0] * values[1])
        return np.array(rows)

    def budget(totals):
        out = NORM_EPSREL * np.abs(totals)
        if k == 2:
            scale = math.sqrt(abs(totals[0])) * math.sqrt(abs(totals[1]))
            out[2] = max(OVERLAP_EPSABS * scale, OVERLAP_EPSREL * abs(totals[2]))
        return out

    totals = [float(t) for t in _gauss_kronrod(integrands, 0.0, hi, budget)]
    norms = totals[:k]
    for value in norms:
        if not math.isfinite(value) or value <= 0.0:
            raise NonNormalizable(f"squared norm evaluated to {value}")
    if lam > 0:
        # the tail beyond the cutoff must be negligible, not just small
        bounds = TAIL_RATIO * np.array(norms)
        tails = _gauss_kronrod(lambda r: integrands(r)[:k], hi, 2.0 * hi, lambda _: bounds / 10.0)
        if (tails > bounds).any():
            raise NonNormalizable("tail integral does not decay")
    if k == 2:
        totals[2] /= math.sqrt(norms[0]) * math.sqrt(norms[1])
    return totals


def overlap(psi_a: WavefunctionForm, psi_b: WavefunctionForm, r_max: float | None = None) -> float:
    """Normalized inner product <a, b> / (||a|| ||b||): the pair row of _integrals.

    Both norms and the raw product are integrated to the radius r_max in one pass, by
    default to the larger _decay_radius of the two states, so each norm takes that one
    window. At lambda > 0 each norm's tail past it is checked as quadrature_norm checks
    it: NonNormalizable when it exceeds TAIL_RATIO of the norm. A given r_max is checked
    as quadrature_norm checks it. InvalidParameter unless both states share lambda: each
    is defined on its own curvature's domain.
    """
    if float(psi_a.lam) != float(psi_b.lam):
        raise InvalidParameter(
            f"overlap needs two states of one lambda, got {psi_a.lam} and {psi_b.lam}")
    hi = (max(_decay_radius(psi_a), _decay_radius(psi_b)) if r_max is None
          else _positive("r_max", r_max))
    return _integrals((psi_a, psi_b), hi)[2]


def brentq(f, a: float, b: float, xtol: float, rtol: float) -> float:
    """A zero of f in [a, b], where f(a) and f(b) differ in sign, by Brent's method.

    A port of scipy.optimize.brentq (R. P. Brent, Algorithms for Minimization
    without Derivatives, 1973, ch. 4), step for step and in the same float
    operations, so it returns the same roots bit for bit. Each step takes the
    inverse quadratic (or secant) step when that is short enough, and bisects
    otherwise; it stops when f is exactly 0 or half the bracket is within
    delta = (xtol + rtol |x|) / 2. A step whose denominator is 0 (the product
    of differences underflows where f is tiny) bisects, as C's inf or NaN step
    does there. ValueError for xtol <= 0, rtol < BRENT_RTOL_MIN,
    a NaN value of f or ends of one sign; RuntimeError after BRENT_MAXITER steps.
    """
    if xtol <= 0:
        raise ValueError(f"xtol too small ({xtol:g} <= 0)")
    if rtol < BRENT_RTOL_MIN:
        raise ValueError(f"rtol too small ({rtol:g} < {BRENT_RTOL_MIN:g})")

    def value(x):
        fx = float(f(x))
        if math.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return fx

    # cur is the best estimate, blk the other end of the bracket and pre the
    # estimate before cur; scur is the last step and spre the one before it
    xpre, xcur = float(a), float(b)
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(BRENT_MAXITER):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:  # C's inf or NaN step, which the test below rejects
                stry = math.inf
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):  # a good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = value(xcur)
    raise RuntimeError(f"Failed to converge after {BRENT_MAXITER} iterations.")


def find_nodes(psi: WavefunctionForm, r_max: float | None = None) -> list:
    """Interior zeros of psi: the sign changes of its values on the _scan_grid, polished
    by Brent's method. The grid ends at r_max, by default _decay_radius(psi); a given
    r_max is checked as quadrature_norm checks it.
    """
    r = _scan_grid(float(psi.lam), _decay_radius(psi) if r_max is None else _positive("r_max", r_max))
    return _nodes(psi, r, psi.value(r))


def _nodes(psi: WavefunctionForm, r: np.ndarray, values: np.ndarray) -> list:
    """Each bracket of a sign change of psi's values on the grid r, polished on psi alone."""
    return [float(brentq(lambda x: float(psi.value(x)), r[i], r[j], xtol=1e-13, rtol=1e-15))
            for i, j in zip(*_sign_changes(values, 1e-13))]


def _sign_changes(values, floor: float) -> tuple:
    """(i, j) of each sign change of a sampled profile, past entries <= floor times its peak."""
    arr = np.asarray(values, dtype=float)
    mag = np.abs(arr)
    idx = np.flatnonzero(mag > floor * mag.max())
    signs = np.sign(arr[idx])
    at = np.flatnonzero(signs[:-1] != signs[1:])
    return idx[at], idx[at + 1]


def count_sign_changes(values) -> int:
    """Sign changes of a sampled profile, ignoring entries below 1e-9 of its peak."""
    return len(_sign_changes(values, 1e-9)[0])
