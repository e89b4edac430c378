"""Property-based tests of the oracle over the advertised input space."""

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
