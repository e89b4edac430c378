"""Property-based tests of the oracle: over the advertised input space, and over
the start blocks its inverse-iteration polish may be handed."""

from fractions import Fraction

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from curvedqes import (  # noqa: E402
    Deformation,
    GridTooCoarse,
    eval_potential,
    general_two_state,
    lowest_eigenvalues,
    oracle,
    radius_from_arc,
)

EPS = np.finfo(float).eps


@settings(max_examples=25, deadline=5000, derandomize=True, database=None)
@given(
    family=st.sampled_from([1, 2]),
    m=st.integers(1, 8),
    L=st.sampled_from([0, Fraction(1, 2), 1, 2]),
    B2m=st.fractions(min_value=Fraction(1, 4), max_value=8, max_denominator=4),
)
def test_ladder_certifies_or_raises_and_matches_bisection(family, m, L, B2m):
    spec = general_two_state(family, m, L, B2m, 1 if family == 1 else -1).spec
    try:
        est = lowest_eigenvalues(spec, k=2, rtol=1e-6, return_vectors=False)
    except GridTooCoarse:
        return
    w = np.array(est.eigenvalues)
    assert np.all(np.isfinite(w))
    # bisection on the same matrix, and its accuracy eps ||T||_1
    n, h = est.grid_points, est.x_max / est.grid_points
    r = radius_from_arc(Deformation(float(spec.lam)), h * np.arange(1, n))
    with np.errstate(over="ignore", invalid="ignore"):
        diag = 2.0 / (h * h) + eval_potential(spec, r)
    off = np.full(n - 2, -1.0 / (h * h))
    ref = eigh_tridiagonal(diag, off, select="i", select_range=(0, 1), eigvals_only=True)
    norm1 = np.max(np.abs(diag)) + 2.0 / (h * h)
    assert np.all(np.abs(w - ref) <= 4 * EPS * norm1)


SPEC = general_two_state(1, 4, 0, 1, 1).spec
X_MAX = oracle.default_arc_cutoff(SPEC)
N = 2500


def _matrix(n):
    """Diagonal, off-diagonal, potential and step of SPEC's n-interval matrix."""
    h = X_MAX / n
    v = oracle._interior_potential(SPEC, n, X_MAX, {})
    return 2.0 / (h * h) + v, np.full(n - 2, -1.0 / (h * h)), v, h


def _polish_certifies_or_falls_back(k, start):
    """A polish from start either matches a tight bisection or returns None and
    leaves the level to the plain bisection, bit for bit."""
    half, half_off = _matrix(N // 2)[:2]
    guess = eigh_tridiagonal(half, half_off, select="i", select_range=(0, k - 1), eigvals_only=True)
    diag, off, v, h = _matrix(N)
    polished = oracle._polish(diag, off, v, h, guess, start)
    if polished is None:
        w, vecs, method = oracle._tridiag_lowest(SPEC, k, N, X_MAX, True, {}, guess, start=start)
        ref_w, ref_vecs = eigh_tridiagonal(diag, off, select="i", select_range=(0, k - 1))
        assert method == "bisection"
        assert np.array_equal(w, ref_w) and np.array_equal(vecs, ref_vecs)
    else:
        ref = eigh_tridiagonal(diag, off, select="i", select_range=(0, k - 1), eigvals_only=True,
                               tol=1e-14)
        norm1 = np.max(np.abs(diag)) + 2.0 * abs(off[0])
        assert np.all(np.abs(polished[0] - ref) <= 4 * EPS * norm1)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("bad", ["swapped", "one_vector_twice", "zeros"])
def test_bad_start_certifies_or_falls_back(bad):
    # the warm start the ladder would give: the N/2 eigenvectors, prolonged
    diag, off = _matrix(N // 2)[:2]
    good = oracle._transfer(eigh_tridiagonal(diag, off, select="i", select_range=(0, 2))[1], N // 2, N)
    start = {
        "swapped": good[:, ::-1],
        "one_vector_twice": good[:, [0, 0, 2]],
        "zeros": np.zeros_like(good),
    }[bad]
    _polish_certifies_or_falls_back(3, start)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=25, deadline=5000, derandomize=True, database=None)
@given(k=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
def test_random_start_certifies_or_falls_back(k, seed):
    start = np.random.default_rng(seed).standard_normal((N - 1, k))
    _polish_certifies_or_falls_back(k, start)
