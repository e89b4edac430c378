"""Property-based tests of the oracle: over the advertised input space, over
the guesses its inverse-iteration polish may be handed, and of its arc
cutoff against the whole scan; of the model input validation in
front of it; and of whole verifications over every order and curvature."""

import math
import warnings
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
    NonNormalizable,
    TruncationWarning,
    eval_potential,
    general_two_state,
    lowest_eigenvalues,
    oracle,
    radius_from_arc,
    reduced_spec,
    run_verification,
)
from curvedqes.cli import _USER_ERRORS  # noqa: E402
from curvedqes.potentials import MAX_ORDER  # noqa: E402

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
        est = lowest_eigenvalues(spec, k=2, rtol=1e-6)
    except GridTooCoarse:
        return
    w = np.array(est.eigenvalues)
    assert np.all(np.isfinite(w))
    # bisection on the same matrix, the weighted stencil's at L = 1/2, and its accuracy
    # eps ||T||_1
    n, h = est.grid_points, est.x_max / est.grid_points
    r = radius_from_arc(Deformation(float(spec.lam)), h * np.arange(1, n))
    with np.errstate(over="ignore", invalid="ignore"):
        v = eval_potential(spec, r)
    diag, off = oracle._stencil(v, h, None if L == int(L) else float(L) + 1.0)[:2]
    ref = eigh_tridiagonal(diag, off, select="i", select_range=(0, 1), eigvals_only=True)
    norm1 = np.max(np.abs(diag)) + 2.0 * np.max(np.abs(off))
    assert np.all(np.abs(w - ref) <= 4 * EPS * norm1)


SPEC = general_two_state(1, 4, 0, 1, 1).spec
X_MAX = oracle.default_arc_cutoff(SPEC)
N = 2500


def _matrix(n):
    """Diagonal, off-diagonal, potential and step of SPEC's n-interval matrix."""
    h = X_MAX / n
    v = oracle._interior_potential(SPEC, n, X_MAX)
    return 2.0 / (h * h) + v, np.full(n - 2, -1.0 / (h * h)), v, h


def _polish_certifies_or_falls_back(k, guess):
    """A polish either matches a tight bisection or returns None and leaves the
    level to the plain bisection, bit for bit."""
    diag, off, v, h = _matrix(N)
    stencil = oracle._stencil(v, h)
    polished = oracle._polish(stencil, guess)
    if polished is None:
        w, vecs, method = oracle._tridiag_lowest(stencil, k, guess)
        ref_w, ref_vecs = eigh_tridiagonal(diag, off, select="i", select_range=(0, k - 1))
        assert method == "bisection"
        assert np.array_equal(w, ref_w) and np.array_equal(vecs, ref_vecs)
    else:
        ref = eigh_tridiagonal(diag, off, select="i", select_range=(0, k - 1), eigvals_only=True,
                               tol=1e-14)
        norm1 = np.max(np.abs(diag)) + 2.0 * abs(off[0])
        assert np.all(np.abs(polished[0] - ref) <= 4 * EPS * norm1)


LEVELS = eigh_tridiagonal(*_matrix(N)[:2], select="i", select_range=(0, 4), eigvals_only=True)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=60, deadline=5000, derandomize=True, database=None)
@given(
    k=st.integers(1, 3),
    # per guess: None for its own level i, else a level that skips or repeats one
    levels=st.lists(st.one_of(st.none(), st.integers(0, 4)), min_size=3, max_size=3),
    # shifts as a fraction of the E1 - E0 gap: none, small, or gross
    shifts=st.lists(st.one_of(st.just(0.0), st.floats(-1e-4, 1e-4), st.floats(-0.6, 0.6)),
                    min_size=3, max_size=3),
)
def test_perturbed_guess_certifies_or_falls_back(k, levels, shifts):
    # the one Sturm count at the window's top and the residual intervals certify
    # only the lowest k pairs; any other guess leaves the level to bisection
    gap = LEVELS[1] - LEVELS[0]
    guess = [LEVELS[i if j is None else j] + shift * gap
             for i, (j, shift) in enumerate(zip(levels[:k], shifts[:k]))]
    _polish_certifies_or_falls_back(k, guess)


# exact and float scalars, with 0, negatives, +-inf and nan each drawn often
SCALARS = st.one_of(
    st.sampled_from([0, 0.0, -1, math.inf, -math.inf, math.nan]), st.fractions(), st.floats()
)


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(
    family=st.sampled_from([0, 1, 2]),
    m=st.one_of(st.integers(-1, 62), st.just(True)),
    L=SCALARS,
    B2m=SCALARS,
    lam=SCALARS,
)
def test_model_input_constructs_or_raises_a_user_error(family, m, L, B2m, lam):
    # anything but a user error (InvariantError, OverflowError, a bare
    # ValueError) propagates and fails the test
    try:
        sol = general_two_state(family, m, L, B2m, lam)
    except _USER_ERRORS:
        return
    for value in (sol.E0, sol.E1, sol.r0):
        assert not isinstance(value, float) or math.isfinite(value)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    family=st.sampled_from([1, 2]),
    m=st.integers(1, MAX_ORDER),
    L=st.sampled_from([0, Fraction(1, 100), Fraction(1, 10), Fraction(3, 10), Fraction(1, 2),
                       Fraction(7, 10), 1, Fraction(13, 10), 2]),
    B2m=st.one_of(
        st.fractions(min_value=Fraction(1, 100), max_value=100, max_denominator=100),
        st.floats(min_value=0.01, max_value=100.0),
    ),
    scale=st.floats(-3.0, 3.0).map(lambda e: 10.0 ** e),
)
def test_verification_passes_over_the_input_space(family, m, L, B2m, scale):
    # a non-integer L below 3/2 leaves the plain stencil an error of order 2L + 1 at the
    # origin: the weighted stencil certifies it
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        report = run_verification(family, m, L, B2m, scale if family == 1 else -scale,
                                  rtol=1e-6)
    assert all(math.isfinite(c.value) for c in report.checks)
    assert report.passed, [c for c in report.checks if not c.passed]


def test_half_integer_L_at_large_B2m_verifies():
    # u ~ x^(3/2) at the origin would put h^2 log h into the plain stencil's E(h); the
    # weighted stencil keeps order 2
    report = run_verification(1, 1, Fraction(1, 2), Fraction(166, 25), 1, rtol=1e-6)
    assert report.passed
    assert report.grid_points <= 2500


# The input-space probe's misses left at lambda = +-1, each to pass when its ROADMAP
# item lands. Item 5: a weak family-2 wall puts the cut inside the well, and E0 is
# off by 6.7e-6 to 6.6e-4 under an estimate below 1e-6
@pytest.mark.filterwarnings("ignore::curvedqes.TruncationWarning")
@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 5: oracle_E0 fails")
@pytest.mark.parametrize("L", [0, Fraction(1, 100), Fraction(3, 10), Fraction(5, 4),
                               Fraction(3, 2), Fraction(5, 2), 7])
def test_weak_wall_verifies(L):
    report = run_verification(2, 1, L, 1e-4, -1, rtol=1e-6)
    assert report.passed, [c for c in report.checks if not c.passed]


# Item 4: the wavefunction's raw values underflow or overflow on normalizable states,
# one config per NonNormalizable message
@pytest.mark.filterwarnings("ignore::curvedqes.TruncationWarning")
@pytest.mark.xfail(strict=True, raises=NonNormalizable, reason="ROADMAP item 4")
@pytest.mark.parametrize(
    "args",
    [(1, 30, 100, 1e6, 1), (2, 30, 100, 1e4, -1), (1, 1, 100, 1e-4, 1), (2, 8, 0, 1e6, -1)],
    ids=["tail does not decay", "norm is 0.0", "norm is inf", "vanishes on the grid"],
)
def test_normalizable_state_verifies(args):
    assert run_verification(*args, rtol=1e-6).passed


def _whole_scan_arc_cutoff(spec):
    """default_arc_cutoff with every point of each span's 20001-point scan evaluated:
    the reference its coarse-to-fine sampling must reproduce bit for bit."""
    lam = float(spec.lam)
    if lam < 0:
        cut = Deformation(lam).arc_max
        spans = [(cut * 1e-6, cut * (1.0 - 1e-7))]
    else:
        sl = math.sqrt(lam)
        cut = 64.0 / sl
        spans = [(2.0 ** j / sl * 1e-6, 2.0 ** j / sl) for j in range(1, 7)]
    for lo, hi in spans:
        xs = np.linspace(lo, hi, 20001)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            v = eval_potential(spec, radius_from_arc(Deformation(lam), xs))
        i0 = int(np.nanargmin(v))
        tail = v[i0:]
        bad = ~np.isfinite(tail) | (tail >= 1e6 * abs(lam))
        if np.any(bad):
            return float(xs[i0 + int(np.argmax(bad))])
    return cut


def _assert_cutoff_is_the_whole_scans(spec):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        assert oracle.default_arc_cutoff(spec).hex() == _whole_scan_arc_cutoff(spec).hex()


@settings(max_examples=250, deadline=None, derandomize=True, database=None)
@given(
    family=st.sampled_from([1, 2]),
    m=st.integers(1, MAX_ORDER),
    L=st.sampled_from([0, Fraction(1, 10), Fraction(1, 2), 1, 2]),
    B2m=st.one_of(
        st.fractions(min_value=Fraction(1, 100), max_value=100, max_denominator=100),
        st.floats(min_value=0.01, max_value=100.0),
    ),
    scale=st.one_of(st.sampled_from([Fraction(1, 4), 1, 9]), st.floats(0.001, 1000.0)),
)
def test_arc_cutoff_is_the_whole_scans(family, m, L, B2m, scale):
    _assert_cutoff_is_the_whole_scans(reduced_spec(family, m, L, B2m, scale if family == 1 else -scale))


@pytest.mark.parametrize("args", [(1, 1, 0, 10**300, 1), (1, 1, 0, 1, 1e300), (2, 1, 0, 1, -1e300)])
def test_arc_cutoff_is_the_whole_scans_at_the_extremes(args):
    # B_2m = 10^300 puts the wall at the first scan point; lambda = +-1e300
    # scales the potential to ~1e300 and the box to ~1e-150
    _assert_cutoff_is_the_whole_scans(reduced_spec(*args))


@pytest.mark.parametrize("args, near", [
    ((1, 8, 0, 1, 1), False), ((2, 1, 0, 1, -1), False),
    ((1, 1, 0, 10**300, 1), True), ((2, 1, Fraction(1, 2), 10**6, -1), True),
])
def test_arc_cutoff_is_the_whole_scans_on_both_branches(args, near, monkeypatch):
    # where the wall lies within one stride of the coarse minimum (near), the whole scan's
    # minimum can move the cut: the second call takes the 101 or 201 points around the
    # coarse minimum. Elsewhere it takes the 99 points before the walled coarse point
    sizes = []
    original = oracle._potential_on_arc

    def counted(spec, x):
        sizes.append(x.size)
        return original(spec, x)

    monkeypatch.setattr(oracle, "_potential_on_arc", counted)
    _assert_cutoff_is_the_whole_scans(reduced_spec(*args))
    assert len(sizes) >= 2 and (sizes[-1] > oracle.SCAN_STRIDE - 1) == near


@pytest.mark.parametrize("args", [(2, 60, 0, 1, -1), (2, 12, 0, 1.0, Fraction(-1, 4))])
def test_arc_cutoff_raises_no_runtime_warning(args):
    # near the family-2 wall f^2 ** (k + 1) underflows to 0; the inf it gives is wall
    spec = reduced_spec(*args)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cut = oracle.default_arc_cutoff(spec)
    assert cut.hex() == _whole_scan_arc_cutoff(spec).hex()


def test_arc_cutoff_wall_at_the_first_scan_point():
    assert oracle.default_arc_cutoff(reduced_spec(1, 1, 0, 10**300, 1)) == 2e-06
