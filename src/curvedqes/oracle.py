"""Independent spectral verification of the deformed radial Schrodinger operator.

In the arc-length coordinate x (dx = dr/f) the operator

    -sqrt(f) d/dr f d/dr sqrt(f) + V(r)

acting on psi becomes a plain -d^2/dx^2 + V(r(x)) acting on u = sqrt(f) psi,
so a symmetric 3-point finite difference with Dirichlet ends gives a
symmetric tridiagonal matrix whose lowest eigenvalues are found by
bisection/inverse iteration.  The grid is cut where the potential wall
exceeds WALL_CUTOFF |lambda|; past that point the eigenfunctions carry
essentially no mass, while keeping the wall out of the matrix preserves the
eigensolver's absolute accuracy. Every check of a verification runs on
(0, r_cut], r_cut the radius of that cut. The solver climbs a ladder of levels
(halvings of the largest grid) as one chain of grids, coarsest first, each
the one before it doubled or doubled plus one: up to the largest level, or,
given a tolerance, to the smallest whose Richardson-extrapolated values
certify it. The gate reads three levels N, N/2 and N/4, the last three grids
solved: their observed order of convergence and a grid-convergence-index
bound on the extrapolated value (Richardson and Gaunt, Phil. Trans. A 226
(1927) 299; Roache, J. Fluids Eng. 116 (1994) 405). At a non-integer L below
3/2 the wavefunction's x^(L+1) at the origin adds an h^(2L+1) term, which
each level fits through N, N/2 and N/4 instead, and the gate compares that
fit with the one through N/2, N/4 and N/8 (Navot, J. Math. Phys. 40 (1961)
271; Sidi, Practical Extrapolation Methods, ch. 1-2). Each grid takes its
start and its guess from the grids before it, and its potential samples
from the first level or the grid before it. The first, with nothing solved
to guess from, is bisected; every later grid is polished by inverse
iteration, shifted to the values the grids before it predict and started
from the previous grid's eigenvectors where it doubles that grid, and
certified by one Sturm count and residual bounds (Parlett, The Symmetric
Eigenvalue Problem, ch. 4 and 10), falling back to bisection when the
certificate fails. A warm-started pair certifies after one step.

Norms and overlaps use adaptive Gauss-Kronrod 7/15 panels (the pair inside
QUADPACK): each refinement round evaluates the wavefunction once, as one
array over every open panel, against a relative error target, so small norms
keep their digits. Node search scans for sign changes with array operations
and polishes each bracketed root by Brent's method, ported here from
scipy.optimize.brentq. Both end at a probed decay radius unless the caller,
as run_verification does with r_cut, passes the end in. A verification's two
states share their exponent series, and its node scan, residual grid and the
first round of its norms, tails and overlap evaluate them together
(susy.evaluate_forms) through the private helpers _find_nodes,
_schrodinger_residuals and _norms_and_overlap: the same values as one state
at a time.

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
import sys
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import GridTooCoarse, InvalidParameter, NonNormalizable, TruncationWarning
from .geometry import Deformation, radius_from_arc
from .potentials import PotentialSpec, eval_potential
from .susy import WavefunctionForm, evaluate_forms

WALL_CUTOFF = 1.0e6  # the wall, in units of |lambda|: V scales with |lambda|
BOX_MARGIN = 1.0 - 1e-7  # the share of a box (lambda < 0) the wall scan, or a wall-less cut, spans
SCAN_POINTS = 20001  # points of each span default_arc_cutoff scans for the wall
SCAN_STRIDE = 100  # its coarse pass samples every SCAN_STRIDE-th of them
LADDER_FLOOR = 1000  # the grid ladder starts at its smallest level at or above this
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
# plain value's estimate. The floor, the closed-form check's own, only keeps a
# zero value from dividing.
SAFETY_FACTOR = 3.0
ORDER_RANGE = (1.0, 3.0)
SCALE_FLOOR = 1e-30


@dataclass(frozen=True)
class SpectrumEstimate:
    """Lowest eigenvalues on a grid, with error estimates from N/2 and N/4 runs (and N/8)."""

    grid_points: int
    x_max: float
    eigenvalues: tuple
    richardson_error: tuple
    extrapolated: tuple
    error_estimate: tuple  # relative error estimate of each extrapolated value (_error_estimate)
    observed_order: tuple  # log2 of the ratio of successive differences; None where undefined
    method: str  # how the level at grid_points was solved: "bisection" or "inverse_iteration"
    eigenvectors: np.ndarray = field(repr=False, compare=False)  # one column per eigenvalue

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


def default_arc_cutoff(spec: PotentialSpec) -> float:
    """Arc coordinate where the potential wall passes WALL_CUTOFF |lambda|, or the full box.

    Each span is scanned at SCAN_POINTS np.linspace points, and the cut is the
    first of them at or after the potential's minimum (np.nanargmin) that is
    non-finite or >= WALL_CUTOFF |lambda|. lambda < 0 scans the box less its ends and
    cuts at the box's end if that finds no wall. lambda > 0 scans
    (0, 2^j / sqrt(lambda)], j = 1..6, in turn, then warns with
    TruncationWarning and cuts at 64 / sqrt(lambda).

    The scan is sampled coarse to fine, not evaluated whole: every
    SCAN_STRIDE-th point, then the points within one stride of the coarse
    minimum, then the stride just before the first coarse point past the
    minimum that reaches the wall. This gives the whole scan's point, the
    same float, provided no feature of the potential between its minimum and
    the wall is narrower than one stride.
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
        xs = np.linspace(lo, hi, SCAN_POINTS)
        coarse = _potential_on_arc(spec, xs[::SCAN_STRIDE])
        c = int(np.nanargmin(coarse)) * SCAN_STRIDE
        a = max(c - SCAN_STRIDE, 0)
        i0 = a + int(np.nanargmin(_potential_on_arc(spec, xs[a:c + SCAN_STRIDE + 1])))
        first = -(-i0 // SCAN_STRIDE)  # the first coarse point at or after the minimum
        walled = _walled(coarse[first:], lam)
        if np.any(walled):
            wall = (first + int(np.argmax(walled))) * SCAN_STRIDE
            a = max(i0, wall - SCAN_STRIDE + 1)
            # the points before the walled coarse one; the coarse one if none of them
            fine = np.append(_walled(_potential_on_arc(spec, xs[a:wall]), lam), True)
            return float(xs[a + int(np.argmax(fine))])
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


def _prolong(vecs: np.ndarray) -> np.ndarray:
    """Grid vectors (one per column) on n intervals, moved onto the 2n-interval grid.

    The shared points keep their values bit for bit; each new point is the
    mean of its neighbours, with zero Dirichlet ends.
    """
    # one row per vector, the grid innermost: numpy loops over long axes, not over k
    ends = np.zeros((vecs.shape[1], len(vecs) + 2))
    ends[:, 1:-1] = vecs.T
    fine = np.empty((vecs.shape[1], 2 * len(vecs) + 1))
    fine[:, 1::2] = ends[:, 1:-1]
    fine[:, ::2] = (ends[:, :-1] + ends[:, 1:]) / 2
    return fine.T


def _polish(diag: np.ndarray, off: np.ndarray, v: np.ndarray, h: float, guess, start=None):
    """The lowest len(guess) eigenpairs of T = tridiag(off, diag, off), or None.

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

    start, an (N - 1, k) array, holds the vectors pair i starts from: the
    half grid's eigenvectors, prolonged, make one step enough. Without it
    every pair starts from a ramp. Each pair takes up to
    POLISH_STEPS steps, shifted to p_i and orthogonalised against the earlier
    vectors, and stops at the first whose residual is within the bound. A
    poor start costs steps or a None, never a wrong pair: the checks above
    decide.

    E_i is the Rayleigh quotient in difference form, sum (x_{j+1} - x_j)^2 / h^2
    (x_0 = x_N = 0) + sum v_j x_j^2, which does not cancel against the
    2/h^2 diagonal.
    """
    p = np.asarray(guess, dtype=float)
    k = p.size
    g = float(np.min(np.diff(p))) if k > 1 else max(1.0, abs(float(p[0])))
    if not (np.all(np.isfinite(p)) and g > 0.0):
        return None
    lo, hi = float(p[0]) - g / 2.0, float(p[-1]) + g / 2.0
    # one Sturm count at hi: dstebz clamps -inf to its Gershgorin bound, and an
    # infinite tolerance leaves nothing to refine
    if dstebz(diag, off, 1, -math.inf, hi, 0, 0, math.inf, "E")[0] != k:
        return None
    bound = POLISH_RESIDUAL * g
    vecs = np.empty((k, diag.size))  # one row per vector, returned transposed
    w = np.empty(k)
    res = np.empty(k)
    for i in range(k):
        shifted = diag - p[i]
        # a ramp, not ones: ones is orthogonal to every odd mode of a symmetric well
        x = np.linspace(1.0, 2.0, diag.size) if start is None else start[:, i]
        for _ in range(POLISH_STEPS):
            x, info = dgtsv(off, shifted, off, x)[3:]
            if info != 0:
                return None
            x -= (vecs[:i] @ x) @ vecs[:i]
            norm = np.linalg.norm(x)
            # a zero start leaves nothing to normalise, a non-finite one nothing to certify
            if not 0.0 < norm < math.inf:
                return None
            x /= norm
            dx = np.diff(x)
            w[i] = (dx @ dx + x[0] ** 2 + x[-1] ** 2) / (h * h) + (v * x) @ x
            tx = (diag - w[i]) * x
            tx[:-1] += off * x[1:]
            tx[1:] += off * x[:-1]
            res[i] = np.linalg.norm(tx)
            if res[i] <= bound:
                break
        vecs[i] = x
    ok = (
        np.all(res <= bound)
        and np.all(w - res > lo)
        and np.all(w + res <= hi)
        and np.all(np.diff(w) > res[:-1] + res[1:])
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

    The eigenvalues by bisection (dstebz), the eigenvectors by inverse
    iteration (dstein), sorted as scipy.linalg.eigh_tridiagonal(d, e,
    select="i", select_range=(0, k - 1)) sorts them: the same LAPACK calls
    give the same arrays, bit for bit. Raises np.linalg.LinAlgError on a
    nonzero LAPACK info.
    """
    lapack = _flapack()
    m, w, iblock, isplit, info = lapack.dstebz(d, e, 2, 0.0, 1.0, 1, k, 0.0, "B")
    if info != 0:
        raise np.linalg.LinAlgError(f"dstebz (eigh_tridiagonal) returned info={info}")
    w = w[:m]
    v, info = lapack.dstein(d, e, w, iblock, isplit)
    if info != 0:
        raise np.linalg.LinAlgError(f"dstein (eigh_tridiagonal) returned info={info}")
    order = np.argsort(w)  # block order to matrix order
    return w[order], v[:, order]


def dgtsv(*args):
    """LAPACK's dgtsv (tridiagonal solve)."""
    return _flapack().dgtsv(*args)


def dstebz(*args):
    """LAPACK's dstebz (tridiagonal eigenvalues by bisection)."""
    return _flapack().dstebz(*args)


def _tridiag_lowest(v: np.ndarray, h: float, k: int, guess=None, start=None):
    """Lowest k eigenvalues of the grid with samples v and step h, their eigenvectors, the method.

    The matrix is tridiag(-1/h^2, 2/h^2 + v, -1/h^2). With a guess it is
    polished (_polish, from start when given); without one, or when the
    polish is not certified, it is bisected.
    """
    n = v.size + 1
    bound = 2.0 / (h * h) + float(np.max(np.abs(v)))  # bounds every entry; NaN if one is
    if not bound < ENTRY_MAX:
        raise InvalidParameter(
            f"the oracle matrix at N={n} has entries up to {bound:.3e}, past the "
            f"{ENTRY_MAX:.3e} its eigensolver can square"
        )
    diag = 2.0 / (h * h) + v
    off = np.full(n - 2, -1.0 / (h * h))
    if guess is not None:
        polished = _polish(diag, off, v, h, guess, start)
        if polished is not None:
            return (*polished, "inverse_iteration")
    return (*eigh_tridiagonal(diag, off, k), "bisection")


def _extrapolate(w: np.ndarray, w_half: np.ndarray, n: int) -> np.ndarray:
    """Richardson extrapolation of second-order values on n and n // 2 intervals.

    The step ratio is n / (n // 2): exactly 2, and the divisor exactly 3, on
    an even grid; 2 + 2 / (n - 1) on an odd one.
    """
    return w + (w - w_half) / ((n / (n // 2)) ** 2 - 1.0)


def _origin_term(t: float, p: float) -> float:
    """(t^p - t^2) / (p - 2), which is t^2 log t at p = 2.

    With t^2 it spans the same functions as t^2 and t^p, but stays apart from
    t^2 as p nears 2, where t^p alone would leave the fit singular.
    """
    z = (p - 2.0) * math.log(t)
    return t * t * math.log(t) * (math.expm1(z) / z if z else 1.0)


def _fit(values, ns, p: float) -> np.ndarray:
    """E* of E(h) = E* + a h^2 + b h^p through the values at ns[0] > ns[1] > ns[2] intervals.

    The steps are the exact h = x_max / n, taken relative to the finest,
    t = ns[0] / n, so odd levels (4001 to 2000) fit as well as even ones. At
    p = 2 (L = 1/2) the h^p term is h^2 log h (_origin_term).
    """
    t = [ns[0] / n for n in ns]
    a = np.array([[1.0, s * s, _origin_term(s, p)] for s in t])
    return np.linalg.solve(a, np.array(values))[0]


def _error_estimate(w, w_half, w_quarter, x, x_half, fitted: bool = False):
    """Relative error estimate of each extrapolated value x, and the observed order.

    w, w_half and w_quarter are the plain values at N, N/2 and N/4; x and
    x_half the extrapolations at N and at N/2. With d = E(N) - E(N/2) and
    d' = E(N/2) - E(N/4), the observed order is p = log2(d' / d), the order
    of the plain values. A fitted x (_fit: x from N, N/2 and N/4, x_half from
    N/2, N/4 and N/8) is estimated by |x - x_half|: the fit leaves an error
    of order 3 or more, so x_half's is several times x's. Otherwise x is
    Richardson's. Where p is defined and inside ORDER_RANGE its estimate is a
    grid convergence index: SAFETY_FACTOR |x - x_half| / (2^p - 1). It
    bounds the error of x when x converges at order p or faster, and x
    converges at least as fast as E. Elsewhere (a zero difference,
    differences of opposite sign, an order out of range) it is the plain
    value's estimate |d| / 3, which assumes the stencil's order 2. Each is
    relative to max(|x|, SCALE_FLOOR), the scale of the closed-form check.
    The order is returned as NaN where it is undefined.
    """
    d, d_half = w - w_half, w_half - w_quarter
    with np.errstate(all="ignore"):  # zero differences, opposite signs, 2^p past the range
        order = np.log2(d_half / d)
        gci = SAFETY_FACTOR * np.abs(x - x_half) / (2.0 ** order - 1.0)
    if fitted:
        error = np.abs(x - x_half)
    else:
        trusted = (order >= ORDER_RANGE[0]) & (order <= ORDER_RANGE[1])  # False for NaN
        error = np.where(trusted, gci, np.abs(d) / 3.0)
    return error / np.maximum(np.abs(x), SCALE_FLOOR), np.where(np.isfinite(order), order, np.nan)


def lowest_eigenvalues(
    spec: PotentialSpec,
    k: int = 2,
    grid_points: int = 20000,
    x_max: float | None = None,
    rtol: float | None = None,
) -> SpectrumEstimate:
    """Lowest k eigenvalues of the deformed Schrodinger operator for spec.

    A second-order finite difference in the arc coordinate is solved at a
    level N and at N/2 and N/4. `eigenvalues` holds the plain values at N,
    `eigenvectors` their grid vectors (one column each), and `grid_points`
    records N. `richardson_error` is |E(N) - E(N/2)|, and `extrapolated` the
    Richardson extrapolation E(N) + (E(N) - E(N/2)) / 3 (_extrapolate: the
    divisor follows the step ratio on an odd grid), which removes the
    O(h^2) term. `error_estimate` bounds the relative error of each
    extrapolated value, and `observed_order` is the order the three levels
    show (_error_estimate).

    At a non-integer L below 3/2 the wavefunction's u ~ x^(L+1) at the
    origin puts an h^(2L+1) term into E(h), h^2 log h at L = 1/2, which the
    Richardson value keeps. There `extrapolated` is E* of the fit
    E(h) = E* + a h^2 + b h^(2L+1) through N, N/2 and N/4 (_fit), and
    `error_estimate` is its distance to the fit through N/2, N/4 and N/8,
    relative to |E*|. `observed_order` stays the order of the plain values.
    Integer L, and L >= 3/2, whose term is of order 4 or more, keep
    Richardson's value.

    The solver walks one chain of grids, coarsest first: grid_points >> j
    for j = J + depth down to 0, where J halvings reach the smallest level
    >= LADDER_FLOOR and depth is 2, or 3 where the levels are fitted. Each
    grid is the one before it doubled, or doubled plus one, and is solved
    once. The last `depth` + 1 grids solved are a level's N, N/2, N/4 (and
    N/8). Without rtol the solver visits every level and returns at
    N = grid_points. With rtol, grid_points is the largest grid it may use:
    it stops at the first level whose `error_estimate` is <= rtol for every
    eigenvalue. Each grid takes what it needs from the grids before it:
    * its potential samples (_interior_potential): the first level is
      sampled first, a coarser grid nested in it takes every stride-th of
      its samples, a grid twice the one before it evaluates only its new
      points, and any other grid is sampled afresh. One _potential_on_arc
      call costs O(m) array passes whatever its size, so the ladder saves
      calls, not points: one for the first level and the coarser grids it
      nests, then at most one per grid;
    * its start: the eigenvectors of the grid before it, prolonged
      (_prolong), where it is that grid doubled, and a ramp where it is not
      (625 after 312, 4001 after 2000);
    * its guess: the second-order prediction
      E(N') = E* - (E(N) - E(N/2)) / 3 (N/N')^2 from the last two grids
      solved, or the values of the one grid solved.
    The first grid, with nothing solved to guess from, is bisected; every
    later grid is polished (_polish) and bisected only where the polish is
    not certified. Every grid returns its eigenvectors; `method` records how
    the returned level was solved.

    Raises GridTooCoarse when rtol is given and an estimate still exceeds it
    at grid_points; warns with TruncationWarning when an eigenvector keeps
    non-negligible mass near the grid cut.
    """
    if k < 1:
        raise InvalidParameter("k must be >= 1")
    if grid_points < 200:
        raise InvalidParameter("grid_points must be >= 200")
    if rtol is not None and not (math.isfinite(rtol) and rtol > 0):
        raise InvalidParameter(f"rtol must be a finite number > 0, got {rtol}")
    L = float(spec.L)
    # u ~ x^(L+1) at the origin: E(h) carries an h^(2L+1) term, fitted below order 4
    p = 2.0 * L + 1.0 if L < 1.5 and not L.is_integer() else None
    depth = 2 if p is None else 3  # the coarser runs of a level: N/2 and N/4, or to N/8
    # J, the first level's halvings: the largest j with grid_points >> j >= LADDER_FLOOR, or 0
    J = max(0, (grid_points // LADDER_FLOOR).bit_length() - 1)
    grids = [grid_points >> j for j in range(J + depth, -1, -1)]
    if k >= grids[0]:
        raise InvalidParameter(
            f"k must be < {grids[0]}, the coarsest grid's intervals at grid_points={grid_points}"
        )
    x_cut = float(x_max) if x_max is not None else default_arc_cutoff(spec)
    first = grids[depth]
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
        start = _prolong(solved[-1][1]) if doubled else None
        solved.append(_tridiag_lowest(v, x_cut / n, k, guess, start))
        if i < depth:
            continue
        ns = [n >> j for j in range(depth + 1)]
        w = [solved[i - j][0] for j in range(depth + 1)]
        if p is None:
            extrapolated = _extrapolate(w[0], w[1], n)
            previous = _extrapolate(w[1], w[2], ns[1])
        else:
            extrapolated, previous = _fit(w[:3], ns[:3], p), _fit(w[1:], ns[1:], p)
        error, order = _error_estimate(*w[:3], extrapolated, previous, p is not None)
        if rtol is not None and np.all(error <= rtol):
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
            mass = float(np.sum(vecs[-edge:, i] ** 2))
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
        richardson_error=tuple(float(v) for v in np.abs(w_fine - w[1])),
        extrapolated=tuple(float(v) for v in extrapolated),
        error_estimate=tuple(float(v) for v in error),
        observed_order=tuple(None if math.isnan(v) else float(v) for v in order),
        method=method,
        eigenvectors=vecs,
    )


def schrodinger_residual(
    spec: PotentialSpec,
    psi: WavefunctionForm,
    energy: float,
    x_max: float | None = None,
) -> float:
    """Max scaled residual of the eigenvalue equation over a 2000-point geometric grid.

    The residual |pi^2 psi + (V - E) psi| / (|lambda| + |E| |psi|), NaN if any
    point's is, uses analytic derivatives of the peak-normalized closed form.
    The grid runs from 1e-4 / sqrt|lambda| to the radius of the arc cut x_max,
    which defaults to default_arc_cutoff(spec). Raises NonNormalizable when
    psi vanishes on the whole grid.
    """
    r_max = None if x_max is None else _cut_radius(float(spec.lam), x_max)
    return _schrodinger_residuals(spec, [(psi, energy)], r_max)[0]


def _schrodinger_residuals(spec: PotentialSpec, states, r_max: float | None = None) -> list:
    """schrodinger_residual of each (psi, energy) in states, on one grid to r_max and one V(r).

    The states' psi, psi' and psi'' are one joint evaluation (evaluate_forms).
    """
    lam = float(spec.lam)
    if r_max is None:
        r_max = _cut_radius(lam, default_arc_cutoff(spec))
    r = np.geomspace(1e-4 / math.sqrt(abs(lam)), r_max, 2000)
    f2 = 1.0 + lam * r * r
    v = eval_potential(spec, r)
    out = []
    derivatives = evaluate_forms([psi for psi, _ in states], r, derivatives=True)
    for (_, energy), (psi_v, dpsi, d2psi) in zip(states, derivatives):
        peak = np.max(np.abs(psi_v))
        if peak == 0.0:
            raise NonNormalizable("wavefunction vanishes on the whole grid")
        psi_v, dpsi, d2psi = psi_v / peak, dpsi / peak, d2psi / peak
        kinetic = -f2 * d2psi - 2.0 * lam * r * dpsi - lam * (2.0 + lam * r * r) / (4.0 * f2) * psi_v
        res = np.abs(kinetic + (v - energy) * psi_v) / (abs(lam) + abs(energy) * np.abs(psi_v))
        out.append(float(np.max(res)))
    return out


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


def _panel_nodes(lo: np.ndarray, hi: np.ndarray):
    """The 15 Kronrod nodes of each panel [lo_i, hi_i], panel by panel; the midpoints; the half-widths."""
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    return (mid[:, None] + half[:, None] * _GK_NODES).ravel(), mid, half


def _start_panels(a: float, b: float):
    """The START_PANELS equal panels of [a, b] that _gauss_kronrod's first round evaluates."""
    edges = np.linspace(a, b, START_PANELS + 1)
    return edges[:-1], edges[1:]


def _first_nodes(a: float, b: float) -> np.ndarray:
    """The nodes of _gauss_kronrod's first round over [a, b]."""
    return _panel_nodes(*_start_panels(a, b))[0]


def _gauss_kronrod(fun, a: float, b: float, epsrel: float, epsabs: float = 0.0,
                   first: np.ndarray | None = None) -> float:
    """Integral of a vectorised fun over [a, b] by adaptive Gauss-Kronrod 7/15 panels.

    The START_PANELS equal panels are refined in rounds. Each round
    evaluates fun once, on the 15 nodes of every open panel, and
    estimates each panel's error as QUADPACK's qk15 does. A panel is closed
    when its error fits its share of the budget max(epsabs, epsrel |I|),
    in proportion to its width, or is at or below qk15's round-off floor,
    50 eps times the integral of |fun| over the panel, which bisection cannot
    lower; every other panel is bisected. Once
    MAX_SPLITS bisections are spent the current estimate is returned.
    A non-finite estimate is returned as soon as it appears.

    first, when given, is fun on the first round's nodes (_first_nodes(a,
    b)), evaluated by the caller together with other integrands over [a, b].
    """
    lo, hi = _start_panels(a, b)
    closed = 0.0
    splits = 0
    eps = np.finfo(float).eps
    while True:
        nodes, mid, half = _panel_nodes(lo, hi)
        fx = (fun(nodes) if first is None else first).reshape(-1, _GK_NODES.size)
        first = None
        kron = fx @ _GK_KRONROD
        total = closed + float(np.sum(half * kron))
        if not math.isfinite(total):
            return total
        with np.errstate(divide="ignore", invalid="ignore"):
            resasc = half * (np.abs(fx - 0.5 * kron[:, None]) @ _GK_KRONROD)
            err = np.abs(half * (kron - fx @ _GK_GAUSS))
            err = np.where((resasc != 0.0) & (err != 0.0),
                           resasc * np.minimum(1.0, (200.0 * err / resasc) ** 1.5), err)
        floor = 50.0 * eps * half * (np.abs(fx) @ _GK_KRONROD)  # qk15's round-off floor
        budget = max(epsabs, epsrel * abs(total))
        # no bisection takes a panel's error below its floor: a panel there is closed
        open_ = err > np.maximum(floor, budget * (hi - lo) / (b - a))
        n_open = int(np.count_nonzero(open_))
        if n_open == 0 or splits + n_open > MAX_SPLITS:
            return total
        closed += float(np.sum(half[~open_] * kron[~open_]))
        splits += n_open
        lo, mid, hi = lo[open_], mid[open_], hi[open_]
        lo, hi = np.concatenate([lo, mid]), np.concatenate([mid, hi])


def quadrature_norm(psi: WavefunctionForm, r_max: float | None = None) -> float:
    """Integral of |psi|^2 dr over the open domain, by adaptive quadrature.

    The integral ends at the radius r_max, which defaults to _decay_radius(psi).
    For lambda > 0, NonNormalizable is raised when the tail over
    [r_max, 2 r_max] exceeds TAIL_RATIO of the norm; the tail is integrated
    to an absolute error of a tenth of that bound, all its check needs.
    """
    return _norms((psi,), _decay_radius(psi) if r_max is None else r_max)[0]


def _squared(values: np.ndarray) -> np.ndarray:
    # past 1e154 |psi|^2 is inf, which the norm's check rejects
    with np.errstate(over="ignore"):
        return values ** 2


def _norms(forms, hi: float, values=None) -> list:
    """quadrature_norm of each of forms, sharing lambda, to hi.

    Each form's integral and its check, then its tail's, come before the next
    form's, as one quadrature_norm call after another would run them. Every
    integral over [0, hi] or [hi, 2 hi] opens on the same nodes, where the
    forms are one joint evaluation (evaluate_forms); values, when given, are
    the forms there over [0, hi].
    """
    lam = float(forms[0].lam)
    if values is None:
        values = evaluate_forms(forms, _first_nodes(0.0, hi))
    tails = None
    out = []
    for i, psi in enumerate(forms):
        def squared(r, psi=psi):
            return _squared(psi.value(r))

        value = _gauss_kronrod(squared, 0.0, hi, NORM_EPSREL, first=_squared(values[i]))
        if not math.isfinite(value) or value <= 0.0:
            raise NonNormalizable(f"squared norm evaluated to {value}")
        if lam > 0:
            if tails is None:
                tails = evaluate_forms(forms, _first_nodes(hi, 2.0 * hi))
            # the tail beyond the cutoff must be negligible, not just small
            tail = _gauss_kronrod(squared, hi, 2.0 * hi, NORM_EPSREL, TAIL_RATIO / 10.0 * value,
                                  _squared(tails[i]))
            if tail > TAIL_RATIO * value:
                raise NonNormalizable("tail integral does not decay")
        out.append(value)
    return out


def overlap(
    psi_a: WavefunctionForm,
    psi_b: WavefunctionForm,
    norms: tuple | None = None,
    r_max: float | None = None,
) -> float:
    """Normalized inner product <a, b> / (||a|| ||b||).

    norms, when given, are the squared norms of (psi_a, psi_b) to r_max. Every integral
    ends at the radius r_max, by default each psi's _decay_radius (the product the larger).
    """
    ends = (r_max, r_max) if r_max is not None else (_decay_radius(psi_a), _decay_radius(psi_b))
    if norms is None:
        norms = tuple(quadrature_norm(p, h) for p, h in zip((psi_a, psi_b), ends))
    return _overlap(psi_a, psi_b, norms, max(ends))


def _overlap(psi_a, psi_b, norms, hi: float, values=None) -> float:
    """overlap over [0, hi]; values, when given, are (psi_a, psi_b) on the first round's nodes.

    The pair is evaluated jointly (evaluate_forms), which takes one form at a
    time where the two do not share an exponent series.
    """
    scale = math.sqrt(norms[0]) * math.sqrt(norms[1])

    def product(r):
        a, b = evaluate_forms((psi_a, psi_b), r)
        return a * b / scale

    first = None if values is None else values[0] * values[1] / scale
    return _gauss_kronrod(product, 0.0, hi, OVERLAP_EPSREL, OVERLAP_EPSABS, first)


def _norms_and_overlap(psi0: WavefunctionForm, psi1: WavefunctionForm, r_max: float) -> tuple:
    """(quadrature_norm of psi0, of psi1, their overlap), every integral to r_max.

    The three integrals over [0, r_max] open on the same nodes, where the
    pair is one joint evaluation; the tails share another.
    """
    values = evaluate_forms((psi0, psi1), _first_nodes(0.0, r_max))
    norms = _norms((psi0, psi1), r_max, values)
    return (*norms, _overlap(psi0, psi1, norms, r_max, values))


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
    """Interior zeros of psi, located by bisection after a 4001-point sign-change scan.

    The scan runs from 1e-6 / sqrt|lambda| to r_max, by default _decay_radius(psi).
    """
    return _find_nodes((psi,), r_max)[0]


def _find_nodes(forms, r_max: float | None = None) -> list:
    """find_nodes of each of forms, sharing lambda, from one scan.

    The scan's 4001 values are one joint evaluation (evaluate_forms); each
    form's brackets are then polished on the form alone. Without r_max the
    scan ends at the first form's _decay_radius.
    """
    hi = _decay_radius(forms[0]) if r_max is None else r_max
    grid = np.linspace(1e-6 / math.sqrt(abs(float(forms[0].lam))), hi, 4001)
    return [
        [float(brentq(lambda r, psi=psi: float(psi.value(r)), grid[i], grid[j],
                      xtol=1e-13, rtol=1e-15)) for i, j in zip(*_sign_changes(vals, 1e-13))]
        for psi, vals in zip(forms, evaluate_forms(forms, grid))
    ]


def _sign_changes(values, floor: float) -> tuple:
    """(i, j) of each sign change of a sampled profile, past entries <= floor times its peak."""
    arr = np.asarray(values, dtype=float)
    idx = np.flatnonzero(np.abs(arr) > floor * np.max(np.abs(arr)))
    signs = np.sign(arr[idx])
    at = np.flatnonzero(signs[:-1] != signs[1:])
    return idx[at], idx[at + 1]


def count_sign_changes(values) -> int:
    """Sign changes of a sampled profile, ignoring entries below 1e-9 of its peak."""
    return len(_sign_changes(values, 1e-9)[0])
