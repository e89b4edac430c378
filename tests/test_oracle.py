import math
import os
import pathlib
import subprocess
import sys
import textwrap
import warnings
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import simpson
from scipy.linalg import eigh_tridiagonal
from scipy.optimize import brentq

import curvedqes
from curvedqes import (
    Deformation,
    DomainError,
    GridTooCoarse,
    NonNormalizable,
    TruncationWarning,
    WavefunctionForm,
    count_sign_changes,
    eval_potential,
    find_nodes,
    general_two_state,
    lowest_eigenvalues,
    node_location,
    oracle,
    oscillator_from_beta,
    overlap,
    quadrature_norm,
    radius_from_arc,
    reduced_spec,
    schrodinger_residual,
)

BOX = oscillator_from_beta(0, -1, L=0)  # V = 0 on (0, 1), arc box (0, pi/2)


def test_box_spectrum():
    est = lowest_eigenvalues(BOX, k=3, grid_points=20000)
    assert est.x_max == pytest.approx(math.pi / 2, rel=1e-15)
    for n, ev in enumerate(est.eigenvalues, start=1):
        assert abs(ev - 4 * n * n) / (4 * n * n) < 1e-6


def test_box_convergence_is_second_order():
    errs = []
    for n in (2000, 4000, 8000):
        est = lowest_eigenvalues(BOX, k=1, grid_points=n)
        errs.append(abs(est.eigenvalues[0] - 4.0))
    for i in (0, 1):
        ratio = errs[i] / errs[i + 1]
        assert 4.0 / 1.5 < ratio < 4.0 * 1.5


def test_richardson_error_tracks_grid():
    est_a = lowest_eigenvalues(BOX, k=1, grid_points=4000)
    est_b = lowest_eigenvalues(BOX, k=1, grid_points=8000)
    ratio = est_a.richardson_error[0] / est_b.richardson_error[0]
    assert 2.5 < ratio < 6.0


def test_grid_too_coarse():
    with pytest.raises(GridTooCoarse):
        lowest_eigenvalues(BOX, k=3, grid_points=2000, rtol=1e-12)


def test_grid_validation():
    with pytest.raises(ValueError):
        lowest_eigenvalues(BOX, k=0)
    with pytest.raises(ValueError):
        lowest_eigenvalues(BOX, k=1, grid_points=100)
    # the coarsest grid, 200 // 2 // 2 = 50 intervals, holds 49 eigenvalues
    assert len(lowest_eigenvalues(BOX, k=49, grid_points=200).eigenvalues) == 49
    with pytest.raises(ValueError, match="k must be < 50"):
        lowest_eigenvalues(BOX, k=50, grid_points=200)


def test_rtol_must_be_finite_and_positive():
    # a NaN rtol would turn the GridTooCoarse gate off: rel > nan is never true
    for rtol in (float("nan"), float("inf"), 0.0, -1e-6):
        with pytest.raises(ValueError, match="rtol"):
            lowest_eigenvalues(BOX, k=1, rtol=rtol)


def _fresh_potential(spec, n, x_max):
    """The potential at the interior points of an n-interval arc grid, in one call."""
    r = radius_from_arc(Deformation(float(spec.lam)), x_max / n * np.arange(1, n))
    with np.errstate(over="ignore", invalid="ignore"):
        return eval_potential(spec, r)


SPECS = {
    "box": BOX,
    "family1": general_two_state(1, 4, 0, 1, 1).spec,
    "family2": general_two_state(2, 4, 0, 1, -1).spec,
    "weighted": general_two_state(1, 4, Fraction(1, 2), 1, 1).spec,
}


@pytest.mark.parametrize("name", ["family1", "family2"])
def test_refined_and_halved_potentials_equal_fresh_samples(name):
    spec = SPECS[name]
    x_max = oracle.default_arc_cutoff(spec)
    top = oracle._interior_potential(spec, 1250, x_max)
    # refined by one level from the grid half as fine
    refined = oracle._interior_potential(spec, 2500, x_max, top)
    assert np.array_equal(refined, _fresh_potential(spec, 2500, x_max))
    # sampled afresh, then strided from a grid 2, 4 or 8 times as fine
    finest = oracle._interior_potential(spec, 10000, x_max)
    for v, n, stride in ((finest, 10000, 1), (top, 625, 2), (finest, 5000, 2), (finest, 2500, 4),
                         (finest, 1250, 8)):
        assert np.array_equal(v[stride - 1::stride], _fresh_potential(spec, n, x_max))


EPS = np.finfo(float).eps


def _matrix(spec, n, x_max):
    """Diagonal and off-diagonal of the oracle's n-interval matrix.

    At a non-integer L below 3/2 it is the weighted stencil of u = x^(L+1) v, in
    units of x: with w = x^(2L+2), the flux weights are w's mean over each
    interval, the masses its integral over each cell (clipped at 0), and
    Q = V - L(L+1)/x^2 (Q(0) = Q(h)); rows x_0 = 0 to x_(n-1), scaled by
    mass^(-1/2).
    """
    h = x_max / n
    v = _fresh_potential(spec, n, x_max)
    L = float(spec.L)
    if L >= 1.5 or L.is_integer():
        return 2.0 / (h * h) + v, np.full(n - 2, -1.0 / (h * h))
    p = 2.0 * L + 3.0
    x = h * np.arange(n + 1)
    flux = np.diff(x ** p) / (p * h)
    mass = np.diff(np.clip(x - h / 2, 0.0, None) ** p) / p
    q = v - L * (L + 1.0) / x[1:n] ** 2
    q = np.concatenate(([q[0]], q))
    diag = (np.concatenate(([0.0], flux[:-1])) + flux) / h / mass + q
    return diag, -flux[:-1] / h / np.sqrt(mass[:-1] * mass[1:])


def _norm1(spec, n, x_max):
    diag, off = _matrix(spec, n, x_max)
    return float(np.max(np.abs(diag)) + 2.0 * np.max(np.abs(off)))


def _tight_bisection(spec, k, n, x_max):
    diag, off = _matrix(spec, n, x_max)
    return eigh_tridiagonal(diag, off, select="i", select_range=(0, k - 1), eigvals_only=True,
                            tol=1e-14)


@pytest.mark.parametrize("name", sorted(SPECS))
def test_without_rtol_polishes_every_level_up_to_grid_points(name):
    spec, k, n = SPECS[name], 2, 20000
    est = lowest_eigenvalues(spec, k=k)
    assert est.grid_points == n
    assert est.method == "inverse_iteration"
    w = np.array(est.eigenvalues)
    w_half = w - 3.0 * (np.array(est.extrapolated) - w)  # extrapolated = w + (w - w_half) / 3
    for size, values in ((n, w), (n // 2, w_half)):
        ref = _tight_bisection(spec, k, size, est.x_max)
        assert np.all(np.abs(values - ref) <= 4 * EPS * _norm1(spec, size, est.x_max))
    # N - 1 interior rows, and the origin's too at the weighted L = 1/2
    assert est.eigenvectors.shape == (n - (name != "weighted"), k)
    for i in range(k):
        assert count_sign_changes(est.eigenvectors[:, i]) == i


# at L = 1/4 and a large B_2m these configs need the whole ladder: each estimate
# exceeds its rtol one level below grid_points. The weighted stencil's rows include
# the origin: N of them
ODD_GRID_CONFIGS = {4001: (1, 1, Fraction(1, 4), 40000, 1), 2501: (1, 1, Fraction(1, 4), 10000, 1)}


# an odd grid_points halves to a level it is not nested with: 4001 to 2000, 2501 to 1250;
# with these rtols the ladder climbs to grid_points and certifies there
@pytest.mark.parametrize("grid, rtol", [(4001, None), (4001, 2e-6), (2501, None), (2501, 4e-6)])
def test_odd_grid_points_are_solved_without_a_nested_start(grid, rtol):
    spec, k = general_two_state(*ODD_GRID_CONFIGS[grid]).spec, 2
    est = lowest_eigenvalues(spec, k=k, grid_points=grid, rtol=rtol)
    assert est.grid_points == grid
    assert est.eigenvectors.shape == (grid, k)
    error = np.abs(np.array(est.eigenvalues) - _tight_bisection(spec, k, grid, est.x_max))
    assert np.all(error <= 4 * EPS * _norm1(spec, grid, est.x_max))


def test_odd_first_level_halves_to_a_ramp_start():
    # 2002 starts the ladder at 1001, which is not nested with its half grid 500:
    # it starts from a ramp, and 2002 from its prolonged vectors
    spec, k = SPECS["family1"], 2
    est = lowest_eigenvalues(spec, k=k, grid_points=2002)
    assert est.grid_points == 2002 and est.method == "inverse_iteration"
    error = np.abs(np.array(est.eigenvalues) - _tight_bisection(spec, k, 2002, est.x_max))
    assert np.all(error <= 4 * EPS * _norm1(spec, 2002, est.x_max))


@pytest.mark.parametrize("name", sorted(SPECS))
def test_polish_matches_tight_bisection(name):
    spec, k, n = SPECS[name], 3, 2500
    x_max = oracle.default_arc_cutoff(spec)
    diag, off = _matrix(spec, n // 2, x_max)
    guess = eigh_tridiagonal(diag, off, select="i", select_range=(0, k - 1), eigvals_only=True)
    a = 1.5 if name == "weighted" else None
    v = _fresh_potential(spec, n, x_max)
    w, vecs, method = oracle._tridiag_lowest(v, x_max / n, k, a, guess)
    assert method == "inverse_iteration"
    diag, off = _matrix(spec, n, x_max)
    ref = eigh_tridiagonal(diag, off, select="i", select_range=(0, k - 1), eigvals_only=True,
                           tol=1e-14)
    assert np.all(np.abs(w - ref) <= 4 * EPS * _norm1(spec, n, x_max))
    assert vecs.shape == (diag.size, k)
    assert np.allclose(np.linalg.norm(vecs, axis=0), 1.0, rtol=0, atol=1e-12)
    for i in range(k):
        assert count_sign_changes(vecs[:, i]) == i


@pytest.mark.parametrize(
    "pick", ["skips_E0", "skips_E1", "not_increasing", "window_holds_E2", "far_from_E1"]
)
def test_polish_falls_back_to_bisection(pick):
    spec, n = SPECS["family1"], 2500
    x_max = oracle.default_arc_cutoff(spec)
    diag, off = _matrix(spec, n, x_max)
    e = eigh_tridiagonal(diag, off, select="i", select_range=(0, 2), eigvals_only=True)
    guess = {
        "skips_E0": [e[1], e[2]],
        # inverse iteration converges to E0 and E2: only the Sturm count objects
        "skips_E1": [e[0], e[2]],
        "not_increasing": [e[1], e[0]],
        # the window reaches past p_1 by half of p_1 - p_0, beyond E2
        "window_holds_E2": [e[0], (e[1] + e[2]) / 2],
        # the counts pass, but 3 steps leave a residual far above the bound
        "far_from_E1": [e[0], e[1] + (e[2] - e[1]) / 10],
    }[pick]
    v = _fresh_potential(spec, n, x_max)
    assert oracle._polish(oracle._stencil(v, x_max / n), guess) is None
    w, vecs, method = oracle._tridiag_lowest(v, x_max / n, 2, guess=guess)
    ref_w, ref_vecs = eigh_tridiagonal(diag, off, select="i", select_range=(0, 1))
    assert method == "bisection"
    assert np.array_equal(w, ref_w) and np.array_equal(vecs, ref_vecs)


# the coarsest grid is the first level's N/4 run, 1250 // 2 // 2 = 312 intervals, at
# every L: 311 interior rows, or 312 where L = 1/2 takes the origin as a row too
@pytest.mark.parametrize(
    "config, rows_bisected",
    [((1, 4, 0, 1, 1), 311), ((2, 4, 0, 1, -1), 311), ((1, 4, Fraction(1, 2), 1, 1), 312)],
    ids=["config0", "config1", "config2"],
)
def test_ladder_bisects_only_its_coarsest_grid(config, rows_bisected, monkeypatch):
    rows = []
    original = oracle.eigh_tridiagonal

    def counted(d, e, k):
        rows.append(d.size)
        return original(d, e, k)

    monkeypatch.setattr(oracle, "eigh_tridiagonal", counted)
    # with or without rtol: the ladder is the only solve path, and its first solve, the
    # one with nothing solved to guess from, is its coarsest grid
    for rtol in (1e-6, None):
        rows.clear()
        est = lowest_eigenvalues(general_two_state(*config).spec, k=2, rtol=rtol)
        assert rows == [rows_bisected]
        assert est.method == "inverse_iteration"


# rtol=1e-10 steps the first two past their first level; at L = 1/2 a ramp start
# needs a second step, a warm one does not
@pytest.mark.parametrize(
    "config, rtol",
    [((1, 4, 0, 1, 1), 1e-10), ((2, 4, 0, 1, -1), 1e-10), ((1, 4, Fraction(1, 2), 1, 1), 1e-6)],
    ids=["config0", "config1", "config2"],
)
def test_ladder_warm_starts_every_level_after_the_first(config, rtol, monkeypatch):
    steps = Counter()  # inverse-iteration steps by interval count
    polished = []  # (intervals, start) of every polish, in order
    vectors = {}  # the eigenvectors each grid returned, by interval count
    dgtsv, polish, bisect = oracle.dgtsv, oracle._polish, oracle.eigh_tridiagonal
    origin = Fraction(config[2]).denominator != 1  # L = 1/2: the origin is a row too

    def intervals(diag):
        return diag.size + 1 - origin

    def counted(dl, d, du, b, **kwargs):
        steps[intervals(d)] += 1
        return dgtsv(dl, d, du, b, **kwargs)

    def recorded_polish(stencil, guess, start=None):
        out = polish(stencil, guess, start)
        polished.append((intervals(stencil[0]), start))
        if out is not None:
            vectors[intervals(stencil[0])] = out[1]
        return out

    def recorded_bisection(d, e, k):
        out = bisect(d, e, k)
        vectors[intervals(d)] = out[1]
        return out

    monkeypatch.setattr(oracle, "dgtsv", counted)
    monkeypatch.setattr(oracle, "_polish", recorded_polish)
    monkeypatch.setattr(oracle, "eigh_tridiagonal", recorded_bisection)
    k = 2
    est = lowest_eigenvalues(general_two_state(*config).spec, k=k, rtol=rtol)
    assert est.method == "inverse_iteration"
    ns = [n for n, _ in polished]
    assert ns == sorted(set(ns)) and ns[-1] == est.grid_points
    warm = 0
    for n, start in polished:
        if n % 2 == 0 and n // 2 in vectors:
            # the half grid's eigenvectors, prolonged: one step per pair
            assert np.array_equal(start, oracle._prolong(vectors[n // 2], origin))
            assert steps[n] == k
            warm += 1
        else:
            # no nested half grid (312 to 625, or nothing solved below): a ramp start
            assert start is None and steps[n] <= 2 * k
    assert warm >= 1


# a ramp start certifies the same N and method here, but the tail of psi1 swings back
# to about +1.6e-11, 1.0e-9 of its peak: a spurious sign change above count_sign_changes'
# relative floor
@pytest.mark.parametrize("config", [(1, 1, Fraction(1, 2), 3, 1), (1, 2, Fraction(1, 2), 1, 1)])
def test_warm_start_leaves_each_eigenvector_its_nodes(config):
    est = lowest_eigenvalues(general_two_state(*config).spec, k=2, rtol=1e-6)
    for i in range(2):
        assert count_sign_changes(est.eigenvectors[:, i]) == i


@pytest.mark.parametrize("config", [(1, 4, 0, 1, 1), (2, 4, 0, 1, -1)])
def test_ladder_starts_from_the_nearest_solved_level(config, monkeypatch):
    polished = []  # (intervals, start, vectors) of every polish, in order
    original = oracle._polish

    def recorded(stencil, guess, start=None):
        out = original(stencil, guess, start)
        polished.append((stencil[0].size + 1, start, out[1]))
        return out

    monkeypatch.setattr(oracle, "_polish", recorded)
    # an rtol the first level misses and the next one certifies
    est = lowest_eigenvalues(general_two_state(*config).spec, k=2, rtol=1e-10)
    (n0, start0, vecs0), (n1, start1, vecs1), (n2, start2, _) = polished
    # the first level's half grid, 625, is not nested with the bisected 312: a ramp
    assert (n0, n1, n2) == (625, 1250, 2500) and est.grid_points == n2
    assert start0 is None
    # each step up prolongs the grid just solved: its points are kept bit for bit
    assert np.array_equal(start1[1::2], vecs0) and np.array_equal(start2[1::2], vecs1)


def test_prolonging_by_two_averages_neighbours():
    spec, n = SPECS["family1"], 1250
    diag, off = _matrix(spec, n, oracle.default_arc_cutoff(spec))
    vecs = eigh_tridiagonal(diag, off, select="i", select_range=(0, 1))[1]
    fine = oracle._prolong(vecs)
    assert fine.shape == (2 * n - 1, 2)
    # the shared points keep their values: [1::2] gives the vectors back
    assert np.array_equal(fine[1::2], vecs)
    ends = np.vstack([np.zeros(2), vecs, np.zeros(2)])  # zero Dirichlet ends
    assert np.array_equal(fine[::2], (ends[:-1] + ends[1:]) / 2)


@pytest.mark.parametrize("config", [(1, 4, 0, 1, 1), (2, 4, 0, 1, -1)])
def test_ladder_evaluates_each_potential_sample_once(config, monkeypatch):
    spec = general_two_state(*config).spec
    x_max = oracle.default_arc_cutoff(spec)
    points = []
    original = oracle._potential_on_arc

    def counted(spec, x):
        points.append(x.size)
        return original(spec, x)

    monkeypatch.setattr(oracle, "_potential_on_arc", counted)
    est = lowest_eigenvalues(spec, k=2, x_max=x_max, rtol=1e-6)
    # every level is nested in the finest one solved, the certified level, except the
    # first level's N/4 run: 312 intervals, not nested with 625, keep 311 samples of their own
    assert sum(points) == est.grid_points - 1 + 311


# A _potential_on_arc call costs O(m) array passes whatever its size, so the ladder
# counts calls: one for the first level and the coarser grids it nests (625 in 1250;
# 500 and 250 in 1000), then one for each other grid. A grid twice the one before it
# evaluates only its new points (2500). L = 1/2, on the weighted stencil, walks the
# same chain from the same samples
@pytest.mark.parametrize(
    "config, grid_points, sizes",
    [
        ((1, 4, 0, 1, 1), 20000, [1249, 311, 1250, 2500, 5000, 10000]),
        ((1, 4, Fraction(1, 2), 1, 1), 20000, [1249, 311, 1250, 2500, 5000, 10000]),
        ((1, 4, 0, 1, 1), 4001, [999, 1000, 4000]),
    ],
    ids=["default", "weighted", "odd"],
)
def test_ladder_samples_each_grid_in_at_most_one_call(config, grid_points, sizes, monkeypatch):
    spec = general_two_state(*config).spec
    x_max = oracle.default_arc_cutoff(spec)
    points = []
    original = oracle._potential_on_arc

    def counted(spec, x):
        points.append(x.size)
        return original(spec, x)

    monkeypatch.setattr(oracle, "_potential_on_arc", counted)
    lowest_eigenvalues(spec, k=2, grid_points=grid_points, x_max=x_max)
    assert points == sizes


def _count_solves(monkeypatch):
    calls = []
    original = oracle._tridiag_lowest

    def counted(v, h, k, *args):
        out = original(v, h, k, *args)
        calls.append((v.size + 1, out[1].shape == (v.size, k)))  # (n, returned its vectors)
        return out

    monkeypatch.setattr(oracle, "_tridiag_lowest", counted)
    return calls


@pytest.mark.parametrize("config", [(1, 4, 0, 1, 1), (2, 4, 0, 1, -1)])
def test_rtol_stops_at_a_smaller_certified_grid(config, monkeypatch):
    calls = _count_solves(monkeypatch)
    est = lowest_eigenvalues(general_two_state(*config).spec, k=2, rtol=1e-6)
    assert est.grid_points < 20000
    assert np.all(np.array(est.error_estimate) <= 1e-6)
    assert est.eigenvectors.shape == (est.grid_points - 1, 2)
    # coarsest first, no grid solved twice: the first solve is the first level's N/4
    # run, and the last the certified grid
    sizes = [n for n, _ in calls]
    assert sizes == sorted(set(sizes))
    assert calls[0][0] == 312 and calls[-1][0] == est.grid_points
    # every solve returns its eigenvectors: the certified grid nests on its half grid
    # and starts from them
    assert all(returned for _, returned in calls)
    assert (est.grid_points // 2, True) in calls


def test_ladder_reuses_the_previous_level_as_half_grid(monkeypatch):
    # four levels at rtol=1e-9 need 2500 points, one step up from the first level
    calls = _count_solves(monkeypatch)
    spec = general_two_state(2, 2, 1, 1, -1).spec
    est = lowest_eigenvalues(spec, k=4, rtol=1e-9)
    assert est.grid_points == 2500
    # coarsest first: 1250 and 625 are also the N/2 and N/4 runs of 2500, and no grid
    # is solved again. Every solve, the bisected 312 too, returns its vectors
    assert calls == [(312, True), (625, True), (1250, True), (2500, True)]
    # the levels 2500 and 1250 agree with tight bisections of the same grids within eps ||T||_1
    fine = _tight_bisection(spec, 4, 2500, est.x_max)
    half = _tight_bisection(spec, 4, 1250, est.x_max)
    bound = EPS * _norm1(spec, 2500, est.x_max)
    assert np.all(np.abs(np.subtract(est.eigenvalues, fine)) <= 4 * bound)
    assert np.all(np.abs(np.subtract(est.richardson_error, np.abs(fine - half))) <= 8 * bound)


def _certifies_within_its_estimate(L, B2m, certified):
    """lowest_eigenvalues(k=2, rtol=1e-6) of (1, 1, L, B2m, 1) climbs to the grid certified,
    where each estimate bounds its closed-form error; half that grid raises GridTooCoarse."""
    sol = general_two_state(1, 1, L, B2m, 1)
    est = lowest_eigenvalues(sol.spec, k=2, rtol=1e-6)
    assert est.grid_points == certified
    exact = np.array([float(sol.E0), float(sol.E1)])
    error = np.abs(np.array(est.extrapolated) - exact) / np.abs(exact)
    assert np.all(error <= np.array(est.error_estimate))
    assert np.all(np.array(est.error_estimate) <= 1e-6)
    with pytest.raises(GridTooCoarse, match="exceeds rtol=1.000e-06"):
        lowest_eigenvalues(sol.spec, k=2, grid_points=certified // 2, rtol=1e-6)


def test_ladder_certifies_the_former_grid_failure_within_its_estimate():
    # at L = 1/10 and a large B_2m the plain stencil's order 2L + 1 never certified; the
    # weighted stencil climbs two levels
    _certifies_within_its_estimate(Fraction(1, 10), 10000, 5000)


@pytest.mark.parametrize("L", [Fraction(1, 100), Fraction(3, 10)])
def test_probe_grid_failures_certify_within_their_estimates(L):
    # the input-space probe's two GridTooCoarse configs under the h^(2L+1) fit that
    # preceded the weighted stencil, at B_2m = 1e6
    _certifies_within_its_estimate(L, 10**6, 10000)


def test_truncation_warning_when_cut_too_short():
    sol = general_two_state(1, 1, 1, 1, 1)
    with pytest.warns(TruncationWarning):
        lowest_eigenvalues(sol.spec, k=2, grid_points=2000, x_max=0.8)


# default_arc_cutoff on each of its branches, as float.hex and TruncationWarning count
ARC_CUTOFFS = {
    "lam<0, full box": (oscillator_from_beta(0, -1), "0x1.921fb54442d18p+0", 0),
    "lam<0, wall": (oscillator_from_beta(3, -1), "0x1.9180229ce4144p+0", 0),
    "lam>0, first span": (reduced_spec(1, 8, 0, 1, 1), "0x1.f3263a2748624p-1", 0),
    "lam>0, second span": (reduced_spec(1, 2, 0, 1, 1), "0x1.347460e5e0ff6p+1", 0),
    "lam>0, third span": (reduced_spec(1, 1, 0, 1, 1), "0x1.098600969b100p+2", 0),
    "lam>0, fallback": (oscillator_from_beta(2, 1), "0x1.0000000000000p+6", 1),
}


@pytest.mark.parametrize("branch", sorted(ARC_CUTOFFS))
def test_default_arc_cutoff_is_pinned_on_every_branch(branch):
    spec, hex_value, n_warnings = ARC_CUTOFFS[branch]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        x_cut = oracle.default_arc_cutoff(spec)
    assert x_cut.hex() == hex_value
    assert sum(issubclass(w.category, TruncationWarning) for w in caught) == n_warnings


def test_weakly_confining_potential_warns_but_solves():
    # base oscillator with lam > 0 never reaches the wall cutoff; the bound
    # level beta(2L+3) - lam(L+1)^2 = 5 is still recovered at reduced accuracy
    spec = oscillator_from_beta(2, 1, L=0)
    with pytest.warns(TruncationWarning):
        est = lowest_eigenvalues(spec, k=1, grid_points=20000)
    assert abs(est.eigenvalues[0] - 5.0) < 1e-4


def test_oracle_matches_closed_form_energies():
    sol = general_two_state(1, 1, 1, 1, 1)
    est = lowest_eigenvalues(sol.spec, k=2, grid_points=20000)
    assert abs(est.eigenvalues[0] + 15.5) / 15.5 < 1e-6
    assert abs(est.eigenvalues[1] + 1.5) / 1.5 < 1e-6
    sol2 = general_two_state(2, 1, 1, 1, -1)
    est2 = lowest_eigenvalues(sol2.spec, k=2, grid_points=20000)
    assert abs(est2.eigenvalues[0] - 2.5) / 2.5 < 1e-6
    assert abs(est2.eigenvalues[1] - 30.5) / 30.5 < 1e-6


def test_oracle_eigenvector_node_theorem():
    sol = general_two_state(2, 2, 1, 1, -1)
    est = lowest_eigenvalues(sol.spec, k=3, grid_points=8000)
    for n in range(3):
        assert count_sign_changes(est.eigenvectors[:, n]) == n


def test_oracle_tracks_curvature_scale():
    # E scales linearly in lambda, the domain scales as 1/sqrt(|lambda|)
    sol = general_two_state(1, 1, 1, 1, 4)
    assert (sol.E0, sol.E1) == (-62, -6)
    est = lowest_eigenvalues(sol.spec, k=2, grid_points=20000)
    assert abs(est.eigenvalues[0] + 62) / 62 < 1e-6
    sol2 = general_two_state(2, 1, 0, 4, -4)
    assert (sol2.E0, sol2.E1) == (18, 130)
    est2 = lowest_eigenvalues(sol2.spec, k=2, grid_points=20000)
    assert est2.x_max < math.pi / 4  # quarter box, cut at the wall
    assert abs(est2.eigenvalues[0] - 18) / 18 < 1e-6
    assert abs(est2.eigenvalues[1] - 130) / 130 < 1e-6


def test_half_integer_angular_momentum():
    # d = 4, l = 0 reduces to L = 1/2; closed forms stay exact rationals
    from fractions import Fraction

    sol = general_two_state(1, 1, Fraction(1, 2), 1, 1)
    assert sol.E0 == Fraction(-49, 4) and sol.E1 == Fraction(-1, 4)
    assert schrodinger_residual(sol.spec, sol.psi0, float(sol.E0)) < 1e-9
    nodes = find_nodes(sol.psi1)
    assert len(nodes) == 1 and abs(nodes[0] - math.sqrt(2.0)) < 1e-10
    est = lowest_eigenvalues(sol.spec, k=2, grid_points=20000)
    for level, exact in ((0, -12.25), (1, -0.25)):
        assert abs(est.extrapolated[level] - exact) / abs(exact) < 1e-6


@pytest.mark.parametrize("fam,lam", [(1, 1), (2, -1)])
@pytest.mark.parametrize("m", [1, 2, 3, 4])
@pytest.mark.parametrize("L,B2m", [(0, 1), (2, 4)])
def test_oracle_matrix_all_orders(fam, lam, m, L, B2m):
    # Richardson-extrapolated lowest two levels against the closed forms
    sol = general_two_state(fam, m, L, B2m, lam)
    est = lowest_eigenvalues(sol.spec, k=2, grid_points=12000)
    assert est.eigenvalues[0] < est.eigenvalues[1]
    for level, exact in ((0, float(sol.E0)), (1, float(sol.E1))):
        assert abs(est.extrapolated[level] - exact) / abs(exact) < 1e-6


@pytest.mark.parametrize("fam,m,lam", [(1, 1, 1), (1, 3, 1), (2, 2, -1), (2, 3, -1)])
def test_schrodinger_residual_of_closed_forms(fam, m, lam):
    sol = general_two_state(fam, m, 1 if m < 3 else 0, 1, lam)
    assert schrodinger_residual(sol.spec, sol.psi0, float(sol.E0)) < 1e-9
    assert schrodinger_residual(sol.spec, sol.psi1, float(sol.E1)) < 1e-9


def test_schrodinger_residual_detects_wrong_energy():
    sol = general_two_state(1, 1, 1, 1, 1)
    assert schrodinger_residual(sol.spec, sol.psi0, float(sol.E0) + 1.0) > 1e-6


def test_count_nodes_ground_and_excited():
    for fam, lam in ((1, 1), (2, -1)):
        sol = general_two_state(fam, 2, 1, 4, lam)
        assert len(find_nodes(sol.psi0)) == 0
        nodes = find_nodes(sol.psi1)
        assert len(nodes) == 1
        assert abs(nodes[0] - node_location(sol)) < 1e-8


def _find_nodes_by_pair_loop(psi, grid):
    """Reference: the per-pair sign-change scan that find_nodes vectorises."""
    vals = psi.value(grid)
    floor = 1e-13 * np.max(np.abs(vals))
    idx = np.flatnonzero(np.abs(vals) > floor)
    roots = []
    for i, j in zip(idx[:-1], idx[1:]):
        if np.sign(vals[i]) != np.sign(vals[j]):
            root = brentq(lambda r: float(psi.value(r)), grid[i], grid[j], xtol=1e-13, rtol=1e-15)
            roots.append(float(root))
    return roots


@pytest.mark.parametrize("fam,lam", [(1, 1), (2, -1)])
@pytest.mark.parametrize("m", [1, 2, 3, 4, 8, 12, 30, 60])
def test_find_nodes_matches_pair_loop(fam, lam, m):
    # the pair loop polishes with scipy.optimize.brentq: the roots must be its own
    sol = general_two_state(fam, m, 1, 4, lam)
    r_max = 4.0 if lam > 0 else 1.0 - 1e-9
    grid = np.geomspace(1e-4, r_max, 2000)  # the scan starts at 1e-4 / sqrt|lambda|
    assert np.array_equal(grid, oracle._scan_grid(lam, r_max))
    for psi in (sol.psi0, sol.psi1):
        assert find_nodes(psi, r_max=r_max) == _find_nodes_by_pair_loop(psi, grid)


def test_find_nodes_several_roots_match_pair_loop():
    # P(u) = (u - 0.1)(u - 0.3)(u - 0.6) on the lambda = -1 domain: three nodes
    psi = WavefunctionForm(1, 1, exp_finv=(-0.5,), prefactor=(-0.018, 0.27, -1.0, 1.0), lam=-1)
    nodes = find_nodes(psi)
    assert nodes == pytest.approx(np.sqrt([0.1, 0.3, 0.6]), abs=1e-12)
    assert nodes == _find_nodes_by_pair_loop(psi, oracle._scan_grid(-1.0, 1.0 - 1e-9))


def test_count_sign_changes_synthetic_profile():
    x = np.linspace(0, 1, 2001)[1:-1]
    assert count_sign_changes(np.sin(3 * math.pi * x)) == 2


def test_quadrature_norm_family1_converges():
    sol = general_two_state(1, 1, 1, 1, 1)
    norm = quadrature_norm(sol.psi0)
    assert norm > 0 and math.isfinite(norm)
    # independent check: composite Simpson with step halving
    vals = []
    for n in (40001, 80001):
        r = np.linspace(1e-9, 12.0, n)
        vals.append(simpson(sol.psi0.value(r) ** 2, x=r))
    assert abs(vals[0] - vals[1]) / vals[1] < 1e-10
    assert norm == pytest.approx(vals[1], rel=1e-9)


def test_quadrature_norm_is_relative_for_small_norms():
    # family 2 norms at m = 60 are ~1e-9, below an absolute 1.49e-8 target;
    # reference: composite Simpson on 400k points over the whole box
    sol = general_two_state(2, 60, 2, 1, -1)
    r = np.linspace(0.0, 1.0 - 1e-9, 400001)
    for psi in (sol.psi0, sol.psi1):
        ref = simpson(psi.value(r) ** 2, x=r)
        assert 1e-10 < ref < 1e-7
        assert quadrature_norm(psi) == pytest.approx(ref, rel=1e-9)


def test_quadrature_norm_family2_wall_suppression():
    sol = general_two_state(2, 1, 1, 1, -1)
    # essential suppression at the wall: psi -> 0 as r -> 1
    assert abs(sol.psi0.value(1 - 1e-9)) < 1e-30
    assert quadrature_norm(sol.psi0) > 0


def test_vanishing_wavefunction_is_not_normalizable():
    psi = WavefunctionForm(0, 0, prefactor=(0,), lam=1)
    with pytest.raises(NonNormalizable, match="vanishes"):
        oracle._decay_radius(psi)
    with pytest.raises(NonNormalizable, match="vanishes"):
        schrodinger_residual(general_two_state(1, 1, 1, 1, 1).spec, psi, 1.0)


def test_overflowing_wavefunction_is_not_normalizable():
    # 1e300 u overflows on the probe grid: an infinite peak, no NaN
    psi = WavefunctionForm(1, 0, exp_r2=(-1e-40,), prefactor=(1.0, 1e300), lam=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonNormalizable, match="overflows"):
            oracle._decay_radius(psi)
        with pytest.raises(NonNormalizable, match="overflows"):
            find_nodes(psi)


def test_non_normalizable_rejected():
    # f^(-1/2) on lambda > 0: |psi|^2 ~ 1/r, diverges logarithmically
    psi = WavefunctionForm(0, -0.5, lam=1)
    with pytest.raises(NonNormalizable):
        quadrature_norm(psi)


def test_orthogonality_of_two_states():
    for fam, lam in ((1, 2), (2, -2)):
        sol = general_two_state(fam, 1, 0, 4, lam)
        assert abs(overlap(sol.psi0, sol.psi1)) < 1e-8


def test_overlap_closes_panels_at_their_round_off_floor(monkeypatch):
    # the overlap of orthogonal states is ~0, so its panels reach qk15's round-off floor
    # before their share of the absolute budget: refining them spent all MAX_SPLITS
    # bisections, about 35000 points
    sol = general_two_state(1, 1, 2, 1, 1)
    r_cut = oracle._cut_radius(1.0, oracle.default_arc_cutoff(sol.spec))
    points = []
    original = oracle._gauss_kronrod

    def counted(fun, *args, **kwargs):
        def fun_counted(r):
            points.append(r.size)
            return fun(r)

        return original(fun_counted, *args, **kwargs)

    monkeypatch.setattr(oracle, "_gauss_kronrod", counted)
    assert abs(overlap(sol.psi0, sol.psi1, r_cut)) < 1e-15
    assert sum(points) <= 1000


@pytest.mark.parametrize("config", [(1, 1, 2, 1, 1), (2, 8, Fraction(1, 2), 3, -1),
                                    (1, 30, 0, 4, 1)])
def test_overlap_is_the_pair_row_of_the_integrals(config):
    sol = general_two_state(*config)
    r_cut = oracle._cut_radius(float(sol.lam), oracle.default_arc_cutoff(sol.spec))
    assert overlap(sol.psi0, sol.psi1, r_cut) == oracle._integrals((sol.psi0, sol.psi1), r_cut)[2]
    # by default both norms and the product end at the larger decay radius
    hi = max(oracle._decay_radius(sol.psi0), oracle._decay_radius(sol.psi1))
    assert overlap(sol.psi0, sol.psi1) == oracle._integrals((sol.psi0, sol.psi1), hi)[2]


# every window end must lie in the open radial domain (0, 1) of lambda = -1: a NaN, an
# end at or past the domain's end, or one at or below 0 raises DomainError
@pytest.mark.parametrize("r_max", [math.nan, 0.0, -1.0, 1.0, 2.0])
@pytest.mark.parametrize("helper", [
    lambda sol, r_max: find_nodes(sol.psi1, r_max=r_max),
    lambda sol, r_max: quadrature_norm(sol.psi0, r_max=r_max),
    lambda sol, r_max: overlap(sol.psi0, sol.psi1, r_max=r_max),
], ids=["find_nodes", "quadrature_norm", "overlap"])
def test_a_window_outside_the_domain_raises_domain_error(helper, r_max):
    sol = general_two_state(2, 1, 0, 1, -1)
    with pytest.raises(DomainError, match="outside the open domain"):
        helper(sol, r_max)


def _gaussian_end(ratio):
    """The end r of exp(-r^2 / 2) whose tail over [r, 2r] is ratio times its norm to r."""
    return brentq(lambda r: math.erfc(r) - math.erfc(2.0 * r) - ratio * math.erf(r), 1.0, 10.0,
                  xtol=1e-15, rtol=1e-15)


def test_tail_guard_decides_at_its_bound():
    # psi^2 = exp(-r^2): the norm to r is sqrt(pi)/2 erf(r), its tail sqrt(pi)/2 (erf(2r) - erf(r))
    psi = WavefunctionForm(0, 0, exp_r2=(Fraction(-1, 2),), lam=1)
    with pytest.raises(NonNormalizable, match="tail"):
        quadrature_norm(psi, _gaussian_end(2e-10))
    end = _gaussian_end(5e-11)
    assert quadrature_norm(psi, end) == pytest.approx(math.sqrt(math.pi) / 2 * math.erf(end),
                                                      rel=1e-8)


def test_tail_guard_closes_in_one_round(monkeypatch):
    # tails of about 1e-134 of the norm: the guard's absolute target closes each in its
    # first round, 16 panels of 15 points
    sol = general_two_state(1, 4, 0, Fraction(9, 4), 1)
    r_cut = oracle._cut_radius(1.0, oracle.default_arc_cutoff(sol.spec))
    points = Counter()
    original = oracle._gauss_kronrod

    def counted(fun, a, *args, **kwargs):
        def fun_counted(r):
            points[a] += r.size
            return fun(r)

        return original(fun_counted, a, *args, **kwargs)

    monkeypatch.setattr(oracle, "_gauss_kronrod", counted)
    for psi in (sol.psi0, sol.psi1):
        points.clear()
        quadrature_norm(psi, r_cut)
        assert points[r_cut] <= 240


@pytest.mark.parametrize("m", [20, 30, 60])
def test_standalone_integrals_find_the_tail_at_high_order(m):
    # far out on the probe grid the polynomial of psi1 overflows while its exponential
    # underflows; the NaN samples there must not hide the decay before them
    for L in (0, 1, 2, Fraction(1, 2)):
        for B in (1, 4, Fraction(9, 4), 2, 3):
            sol = general_two_state(1, m, L, B, 1)
            r_cut = oracle._cut_radius(1.0, oracle.default_arc_cutoff(sol.spec))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                norm = quadrature_norm(sol.psi1)
                nodes = find_nodes(sol.psi1)
                assert abs(overlap(sol.psi0, sol.psi1)) < 1e-8
            assert norm == pytest.approx(quadrature_norm(sol.psi1, r_cut), rel=1e-7)
            assert len(nodes) == 1 and nodes[0] == pytest.approx(float(sol.r0), abs=1e-8)


# Both lanes: sqrt(B_2m) rational (exact closed forms) and irrational (float closed forms)
HONESTY_B = (1, 4, Fraction(9, 4), 2, 3, Fraction(5, 2), Fraction(7, 2))
# non-integer L below 3/2, where the ladder solves the weighted stencil
WEIGHTED_L = (Fraction(1, 100), Fraction(1, 10), Fraction(3, 10), Fraction(7, 10), Fraction(13, 10))


@pytest.mark.parametrize("family", [1, 2])
@pytest.mark.parametrize("m", range(1, 9))
def test_certified_estimate_bounds_the_closed_form_error(family, m):
    # the ladder certifies rtol, and each estimate bounds the relative error of its
    # extrapolated value against the closed form; below 1e-9 the eigensolver's
    # rounding may outgrow an estimate of converged values
    lam = 1 if family == 1 else -1
    for L in (0, Fraction(1, 2), 1, 2, *WEIGHTED_L):
        for B in HONESTY_B:
            sol = general_two_state(family, m, L, B, lam)
            est = lowest_eigenvalues(sol.spec, k=2, rtol=1e-6)
            exact = np.array([float(sol.E0), float(sol.E1)])
            error = np.abs(np.array(est.extrapolated) - exact) / np.abs(exact)
            estimate = np.array(est.error_estimate)
            assert np.all(estimate <= 1e-6), (L, B)
            assert np.all((error <= estimate) | (error < 1e-9)), (L, B, error, estimate)


@pytest.mark.parametrize("config", [(1, 4, 0, 1, 1), (2, 4, 0, 1, -1)])
def test_estimate_is_tight_at_the_first_level(config):
    # X converges at fourth order here, so the bound is ~15x its error. The 312-interval
    # N/4 grid is not nested with 625: extrapolating with a step ratio of 2 instead of
    # 625 / 312 would inflate the estimate over 100-fold
    sol = general_two_state(*config)
    est = lowest_eigenvalues(sol.spec, k=2, grid_points=1250)
    exact = np.array([float(sol.E0), float(sol.E1)])
    error = np.abs(np.array(est.extrapolated) - exact) / np.abs(exact)
    assert np.all(error <= np.array(est.error_estimate))
    assert np.all(np.array(est.error_estimate) <= 20 * error)


def test_error_estimate_falls_back_to_the_plain_gate():
    w = np.array([-24.5, 15.5, 40.0, 60.0, 80.0])
    d = np.array([1e-4, 2e-4, 0.0, 1e-4, 1e-4])  # E(N) - E(N/2)
    # second order in the first entry; then opposite signs, a zero difference in either
    # pair, and an order of 6
    d_half = np.array([4e-4, -8e-4, 1e-4, 64e-4, 0.0])
    w_half = w - d
    w_quarter = w_half - d_half
    x = w + d / 3.0
    x_half = w_half + d_half / 3.0
    error, order = oracle._error_estimate(w, w_half, w_quarter, x, x_half)
    plain = np.abs(w - w_half) / 3.0 / np.abs(x)
    assert order[0] == pytest.approx(2.0) and error[0] != plain[0]
    assert np.all(np.isnan(order[[1, 2, 4]])) and order[3] == pytest.approx(6.0)
    assert np.array_equal(error[1:], plain[1:])


def test_undefined_order_takes_the_plain_gate(monkeypatch):
    # the first level's N/4 run made to return E(1250): the differences
    # E(N) - E(N/2) and E(N/2) - E(N/4) then differ in sign, so the order is
    # undefined at N = 1250 and the gate there reads the plain value's estimate
    spec = general_two_state(1, 4, 0, 1, 1).spec
    w = np.array(lowest_eigenvalues(spec, k=2, grid_points=1250).eigenvalues)
    original = oracle._tridiag_lowest

    def flipped(v, h, k, *args):
        out = original(v, h, k, *args)
        return (w, *out[1:]) if v.size + 1 == 312 else out

    monkeypatch.setattr(oracle, "_tridiag_lowest", flipped)
    est = lowest_eigenvalues(spec, k=2, grid_points=1250)
    assert est.observed_order == (None, None)
    plain = np.array(est.richardson_error) / 3.0 / np.abs(est.extrapolated)
    assert np.array_equal(est.error_estimate, plain)
    # the plain estimate misses rtol at 1250, where the unpatched gate certifies
    assert lowest_eigenvalues(spec, k=2, rtol=1e-6).grid_points == 2500
    monkeypatch.undo()
    assert lowest_eigenvalues(spec, k=2, rtol=1e-6).grid_points == 1250


def _run(*args):
    src = str(pathlib.Path(curvedqes.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=60,
    )


def test_scipy_linalg_is_never_loaded():
    # the oracle loads scipy's LAPACK module from its file: scipy.linalg stays out, and
    # a later import of scipy.linalg shares the loaded module's functions and sets
    # the package attribute
    code = textwrap.dedent(
        """
        import sys
        import curvedqes
        from curvedqes import oracle

        def loaded():
            return [name in sys.modules for name in ("scipy.optimize", "scipy.linalg")]

        print(*loaded())
        curvedqes.general_two_state(1, 3, 0, 1, 1)
        print(*loaded())
        curvedqes.run_verification(1, 3, 0, 1, 1, rtol=1e-6)
        print(*loaded())
        import scipy.linalg.lapack
        print(all(getattr(oracle._flapack(), name) is getattr(scipy.linalg.lapack, name)
                  for name in ("dstebz", "dstein", "dgtsv")))
        print(scipy.linalg._flapack.dstebz is oracle._flapack().dstebz)
        """
    )
    out = _run("-c", code)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["False"] * 6 + ["True"] * 2
    # a whole `curvedqes verify`, with every import it makes logged to stderr
    cli = ("import sys; from curvedqes.cli import main; sys.exit(main(['verify', '--family', "
           "'2', '--m', '2', '--L', '1', '--lambda', '-1', '--B', '1']))")
    out = _run("-X", "importtime", "-c", cli)
    assert out.returncode == 0, out.stderr
    imported = [line.rsplit("|", 1)[1].strip() for line in out.stderr.splitlines()
                if line.startswith("import time:")]
    assert "numpy" in imported and "scipy" in imported
    assert not [name for name in imported if name.startswith(("scipy.linalg", "scipy.optimize"))]


def test_lapack_fallback_imports_the_same_functions():
    # with no extension file found, the module comes through scipy.linalg
    code = textwrap.dedent(
        """
        import importlib.machinery
        import sys
        from curvedqes import oracle

        importlib.machinery.EXTENSION_SUFFIXES = [".missing"]
        lapack = oracle._flapack()
        print("scipy.linalg" in sys.modules)
        import scipy.linalg.lapack
        print(all(getattr(lapack, name) is getattr(scipy.linalg.lapack, name)
                  for name in ("dstebz", "dstein", "dgtsv")))
        """
    )
    out = _run("-c", code)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["True", "True"]


@pytest.mark.parametrize("n", [1250, 1251])  # an odd and an even count of rows
@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(SPECS))
def test_eigh_tridiagonal_matches_scipy_bit_for_bit(name, k, n):
    spec = SPECS[name]
    diag, off = _matrix(spec, n, oracle.default_arc_cutoff(spec))
    select = {"select": "i", "select_range": (0, k - 1)}
    w, vecs = oracle.eigh_tridiagonal(diag, off, k)
    ref_w, ref_vecs = eigh_tridiagonal(diag, off, **select)
    assert np.array_equal(w, ref_w) and np.array_equal(vecs, ref_vecs)
    # the values equal SciPy's eigenvalues-only path too
    assert np.array_equal(w, eigh_tridiagonal(diag, off, eigvals_only=True, **select))


SYNTHETIC = [
    (lambda x: x**3 - 2.0, 0.0, 2.0),
    (lambda x: math.cos(x) - x, -1.0, 2.0),
    (lambda x: math.exp(x) - 1e3, 0.0, 20.0),
    (lambda x: math.tanh(50.0 * (x - 0.3)), -1.0, 1.0),  # a step: bisection steps
    (lambda x: (x - 1e-3) ** 5, -0.5, 0.7),  # a flat root: 100 steps miss the tighter tolerances
    (lambda x: math.sin(x), 3.0, 4.0),
    (lambda x: 1.0 / (x - 0.5) - 2.0, 0.6, 10.0),
    (lambda x: x - 7.25, 7.25, 9.0),  # a root at an end
]


@pytest.mark.parametrize("xtol,rtol", [(2e-12, 4 * np.finfo(float).eps), (1e-13, 1e-15), (1e-6, 1e-9)])
@pytest.mark.parametrize("case", range(len(SYNTHETIC)))
def test_brentq_matches_scipy_on_synthetic_functions(case, xtol, rtol):
    f, a, b = SYNTHETIC[case]
    for lo, hi in ((a, b), (b, a)):
        got = _outcome(oracle.brentq, f, lo, hi, xtol=xtol, rtol=rtol)
        assert got == _outcome(brentq, f, lo, hi, xtol=xtol, rtol=rtol)


def _outcome(solver, *args, **kwargs):
    """The root solver returns, or the type and message of what it raises."""
    try:
        return solver(*args, **kwargs)
    except (ValueError, RuntimeError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize(
    "f,a,b,xtol,rtol",
    [
        (lambda x: x * x + 1.0, -1.0, 1.0, 1e-13, 1e-15),  # ends of one sign
        (lambda x: x - 3.0, 1.0, 2.0, 1e-13, 1e-15),
        (lambda x: x - 0.3, 0.0, 1.0, 0.0, 1e-15),  # tolerances below SciPy's floor
        (lambda x: x - 0.3, 0.0, 1.0, 1e-13, 1e-17),
        (lambda x: math.nan if x > 0.5 else x - 0.3, 0.0, 1.0, 1e-13, 1e-15),  # NaN inside
        (lambda x: (x - 1e-3) ** 5, -0.5, 0.7, 1e-13, 1e-15),  # no convergence in 100 steps
    ],
)
def test_brentq_raises_as_scipy_does(f, a, b, xtol, rtol):
    got = _outcome(oracle.brentq, f, a, b, xtol=xtol, rtol=rtol)
    assert isinstance(got, tuple)
    assert got == _outcome(brentq, f, a, b, xtol=xtol, rtol=rtol)


@pytest.mark.parametrize(
    "f,a,b",
    [
        (lambda x: 1e-110 * (x**3 - 2.0), 0.0, 2.0),
        (lambda x: 1e-110 * (math.cos(x) - x), -1.0, 2.0),
        (lambda x: 1e-160 * (x**3 - 2.0), 2.0, 0.0),
    ],
)
def test_brentq_bisects_where_the_step_denominator_is_zero(f, a, b):
    # tiny values make the extrapolation's product of differences underflow to
    # 0: SciPy's C step is then inf or NaN, its step test fails and it bisects
    root = oracle.brentq(f, a, b, xtol=1e-13, rtol=1e-15)
    assert min(a, b) <= root <= max(a, b)
    assert f(root - 1e-12) * f(root + 1e-12) <= 0.0
    assert root == brentq(f, a, b, xtol=1e-13, rtol=1e-15)


@pytest.mark.parametrize(
    "config",
    [(1, 1, 1, 1, 1), (1, 4, 0, 2, 1), (1, 16, 2, 3, 1), (1, 1, Fraction(1, 2), 2, 0.3),
     (2, 2, 0, 4, -1), (2, 30, 1, 4, -1)],
)
def test_joint_scan_and_integrals_equal_the_one_form_calls(config):
    # the pair's one evaluation on the residual grid gives each form's own residual and
    # nodes bit for bit; its one quadrature pass gives each norm and the overlap within
    # its own budget of a one-form run to epsrel 1e-13 (tails included for lambda > 0)
    sol = general_two_state(*config)
    r_cut = oracle._cut_radius(float(sol.lam), oracle.default_arc_cutoff(sol.spec))
    pair = (sol.psi0, sol.psi1)
    energies = (float(sol.E0), float(sol.E1))
    res, nodes = oracle._residuals_and_nodes(sol.spec, list(zip(pair, energies)), r_cut)
    assert nodes == [find_nodes(p, r_max=r_cut) for p in pair]
    x_cut = oracle.default_arc_cutoff(sol.spec)
    assert res == [schrodinger_residual(sol.spec, p, e, x_cut) for p, e in zip(pair, energies)]
    norm0, norm1, ortho = oracle._integrals(pair, r_cut)

    def reference(fun):
        return oracle._gauss_kronrod(fun, 0.0, r_cut, lambda t: 1e-13 * np.abs(t))[0]

    for norm, psi in ((norm0, sol.psi0), (norm1, sol.psi1)):
        assert abs(norm - reference(lambda r, psi=psi: psi.value(r) ** 2)) \
            <= oracle.NORM_EPSREL * norm
    product = reference(lambda r: sol.psi0.value(r) * sol.psi1.value(r))
    scale = math.sqrt(norm0) * math.sqrt(norm1)
    assert abs(ortho * scale - product) \
        <= max(oracle.OVERLAP_EPSABS * scale, oracle.OVERLAP_EPSREL * abs(product))
