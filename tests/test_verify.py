import warnings
from fractions import Fraction

import numpy as np
import pytest

from curvedqes import (
    InvalidParameter,
    NonNormalizable,
    PoleAtNode,
    eval_potential,
    general_two_state,
    oracle,
    potentials,
    riccati_apply,
    run_verification,
    susy,
    twostate,
    verify,
    w_minus_from_w_plus,
)


def test_report_passes_on_reference_config():
    report = run_verification(1, 1, 1, 1, 1)
    assert report.passed
    assert report.closed_E0 == -15.5 and report.closed_E1 == -1.5
    assert abs(report.oracle_E0 + 15.5) < 1e-5


def test_report_passes_at_order_four():
    assert run_verification(1, 4, 0, 4, 1).passed
    assert run_verification(2, 4, 0, 4, -1).passed


def test_report_serialization():
    report = run_verification(2, 1, 1, 1, -1)
    doc = report.to_dict()
    assert doc["passed"] is True
    assert doc["closed_form"]["E0"] == 2.5
    assert {c["name"] for c in doc["checks"]} >= {
        "riccati_v1",
        "riccati_v2",
        "pair_identity",
        "oracle_E0",
        "residual_psi0",
        "nodes_psi1",
        "orthogonality",
    }
    table = report.format_table()
    assert "overall: pass" in table


@pytest.mark.parametrize("config", [(1, 2, 0, 4, 1), (2, 2, 0, 4, -1)])
def test_every_report_carries_every_check(config):
    report = run_verification(*config, rtol=1e-6)
    assert [c.name for c in report.checks] == list(verify.TOLERANCES)
    assert [c["name"] for c in report.to_dict()["checks"]] == list(verify.TOLERANCES)


def test_perturbed_coefficient_breaks_riccati():
    # the same superpotential checked against a potential with B1 off by 1%
    sol = general_two_state(1, 1, 1, 1, 1)
    spoiled = type(sol.spec)(
        family=sol.spec.family, m=1, L=1, A=sol.spec.A,
        B=(sol.spec.B[0] * 1.01, sol.spec.B[1]), lam=1,
    )
    r = np.geomspace(1e-2, 3.0, 400)
    v = eval_potential(spoiled, r)
    res = np.abs(riccati_apply(sol.w, "minus", r) + float(sol.E0) - v) / (1 + np.abs(v))
    assert res.max() > 1e-3


def test_decay_radii_and_norms_computed_once(monkeypatch):
    # the radius of the oracle's wall cut ends every window: no decay-radius probe runs,
    # and each state's norm is integrated once, both states in one joint _norms call
    calls = {"_decay_radius": [], "_norms": [], "quadrature_norm": []}

    def counted(name):
        original = getattr(oracle, name)

        def wrapper(*args, **kwargs):
            calls[name].append(args)
            return original(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(oracle, name, counted(name))
    report = run_verification(1, 1, 1, 1, 1)
    assert report.passed
    assert calls["_decay_radius"] == [] and calls["quadrature_norm"] == []
    assert [len(args[0]) for args in calls["_norms"]] == [2]


def test_arc_cutoff_computed_once(monkeypatch):
    calls = []
    original = oracle.default_arc_cutoff

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(oracle, "default_arc_cutoff", counted)
    report = run_verification(1, 1, 1, 1, 1, rtol=1e-6)
    assert report.passed
    assert len(calls) == 1


@pytest.mark.parametrize("config", [(1, 1, 1, 1, 1), (2, 8, 0, 2, -1)])
def test_residual_grid_and_potential_computed_once(monkeypatch, config):
    sizes = []
    original = oracle.eval_potential

    def counted(spec, r):
        sizes.append(np.size(r))
        return original(spec, r)

    monkeypatch.setattr(oracle, "eval_potential", counted)
    report = run_verification(*config, rtol=1e-6)
    assert sizes.count(2000) == 1  # one residual grid for psi0 and psi1
    # the shared grid gives schrodinger_residual's values bit for bit
    sol = general_two_state(*config)
    checks = {c.name: c.value for c in report.checks}
    for name, psi, e in (("residual_psi0", sol.psi0, sol.E0), ("residual_psi1", sol.psi1, sol.E1)):
        assert checks[name] == oracle.schrodinger_residual(sol.spec, psi, float(e), x_max=report.x_max)


def test_report_records_the_certified_grid():
    report = run_verification(2, 4, 0, 1, -1, rtol=1e-6)
    est = oracle.lowest_eigenvalues(general_two_state(2, 4, 0, 1, -1).spec, k=2, rtol=1e-6)
    assert report.grid_points == est.grid_points < 20000
    assert report.x_max == est.x_max
    block = report.to_dict()["oracle"]
    assert (block["grid_points"], block["x_max"]) == (report.grid_points, report.x_max)
    assert f"N = {report.grid_points}" in report.format_table()
    # without rtol the single level is grid_points itself
    assert run_verification(2, 1, 1, 1, -1, grid_points=4000).grid_points == 4000


def test_report_says_how_the_certified_level_was_solved():
    report = run_verification(2, 4, 0, 1, -1, rtol=1e-6)
    assert report.oracle_method == report.to_dict()["oracle"]["method"] == "inverse_iteration"
    assert "inverse_iteration" not in report.format_table()
    # without rtol every level up to grid_points is polished too
    assert run_verification(2, 1, 1, 1, -1, grid_points=4000).oracle_method == "inverse_iteration"


def test_report_shows_a_polish_fallback(monkeypatch):
    polished = run_verification(2, 4, 0, 1, -1, rtol=1e-6)
    monkeypatch.setattr(oracle, "_polish", lambda *args: None)
    report = run_verification(2, 4, 0, 1, -1, rtol=1e-6)
    assert report.to_dict()["oracle"]["method"] == "bisection"
    assert report.passed and report.grid_points == polished.grid_points


def test_report_carries_the_certified_error_estimate():
    report = run_verification(2, 4, 0, 1, -1, rtol=1e-6)
    est = oracle.lowest_eigenvalues(general_two_state(2, 4, 0, 1, -1).spec, k=2, rtol=1e-6)
    assert report.oracle_error_estimate == est.error_estimate
    assert report.oracle_order == est.observed_order
    block = report.to_dict()["oracle"]
    assert block["error_estimate"] == list(report.oracle_error_estimate)
    assert block["observed_order"] == list(report.oracle_order)
    assert max(report.oracle_error_estimate) <= 1e-6
    # a smooth potential: the three levels show the stencil's second order
    assert all(1.9 < p < 2.1 for p in report.oracle_order)
    # the table is unchanged: the estimate lives in the report and its JSON
    assert "error_estimate" not in report.format_table()


def test_gate_scale_is_no_looser_than_the_check():
    # E1 = -1/4: a gate relative to max(1, |E|) would certify a 4x larger error,
    # and at 10000 points it would let the check read ~9e-7 against 1e-6
    report = run_verification(1, 1, Fraction(1, 2), 4, 1, rtol=1e-6)
    assert report.closed_E1 == -0.25
    assert report.passed
    checks = {c.name: c.value for c in report.checks}
    for name, estimate in zip(("oracle_E0", "oracle_E1"), report.oracle_error_estimate):
        assert checks[name] <= estimate <= 1e-6


def _w_minus_identity_by_loop(sol):
    """Reference: the scalar loop that the vectorised w_minus_identity check replaces."""
    r = verify._check_grid(sol)
    wm = sol.pair.w_minus
    wm_fun = w_minus_from_w_plus(sol.pair.w_plus, float(sol.pair.delta_e))
    vals = []
    for ri in r[:: max(1, len(r) // 100)]:
        try:
            wm_i = wm.value(float(ri))
            vals.append(abs(wm_fun(float(ri)) - wm_i) / (1.0 + abs(wm_i)))
        except PoleAtNode:
            continue
    return max(vals)


@pytest.mark.parametrize(
    "config", [(1, 1, 1, 1, 1), (1, 8, 2, 2, 1), (2, 2, 0, 4, -1), (2, 8, 1, 3, -1)]
)
def test_w_minus_identity_matches_scalar_loop(config):
    report = run_verification(*config)
    value = next(c.value for c in report.checks if c.name == "w_minus_identity")
    # array and scalar evaluation may round differently in the last bits
    assert value == pytest.approx(_w_minus_identity_by_loop(general_two_state(*config)), abs=1e-13)


def test_each_superpotential_is_sampled_once(monkeypatch):
    # W, W+ and W- take one pass each on the check grid, and every W check reads those
    # samples: the pole mask and the W- identity take W+ and W+' from W+'s one pass
    calls = {"_sums": 0, "validate_model": 0, "w_minus_from_w_plus": 0, "w_plus_poles": 0}

    def counted(name, original):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(susy.Superpotential, "_sums",
                        counted("_sums", susy.Superpotential._sums))
    validate_model = counted("validate_model", potentials.validate_model)
    for module in (potentials, twostate):
        monkeypatch.setattr(module, "validate_model", validate_model)
    for name in ("w_minus_from_w_plus", "w_plus_poles"):
        wrapper = counted(name, getattr(susy, name))
        monkeypatch.setattr(susy, name, wrapper)
        monkeypatch.setattr(verify, name, wrapper, raising=False)
    report = run_verification(2, 8, 1, 3, -1, rtol=1e-6)
    assert report.passed
    # general_two_state validates the model and the partner spec validates itself
    assert calls == {"_sums": 3, "validate_model": 2, "w_minus_from_w_plus": 0, "w_plus_poles": 0}


# near a zero of W+, (2, 8, 1/2, 3, -1) and (2, 30, 0, 1.4678, -1), the identity reads
# the cancellation of f W+' - delta_e: the public helper stays its reference
@pytest.mark.parametrize(
    "config", [(1, 1, 1, 1, 1), (2, 8, Fraction(1, 2), 3, -1), (2, 30, 0, 1.4678, -1)]
)
def test_w_minus_identity_is_the_helpers_bit_for_bit(config):
    report = run_verification(*config, rtol=1e-6)
    sol = general_two_state(*config)
    lam = float(sol.lam)
    r = verify._check_grid(sol, oracle._cut_radius(lam, report.x_max))
    rs = r[:: len(r) // 100]
    rs = rs[~susy.w_plus_poles(sol.pair.w_plus, rs)]
    wm = sol.pair.w_minus.value(rs)
    wm_from_wp = w_minus_from_w_plus(sol.pair.w_plus, float(sol.pair.delta_e))(rs)
    want = (np.abs(wm_from_wp - wm) / (np.sqrt(abs(lam)) + np.abs(wm))).max()
    assert next(c.value for c in report.checks if c.name == "w_minus_identity") == want


def test_w_minus_identity_without_a_sample_raises_a_user_error():
    # at lambda = -1e-300 W+ is at its pole floor at every sample point
    with pytest.raises(InvalidParameter, match="w_minus_identity"):
        run_verification(2, 1, 0, 1, -1e-300, rtol=1e-6)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("family, lam", [(1, 1e300), (2, -1e300)])
def test_oracle_matrix_out_of_range_raises_a_user_error(family, lam):
    # x_max ~ 1e-150: 1/h^2 squares past the double range in the eigensolver
    with pytest.raises(InvalidParameter, match="oracle matrix"):
        run_verification(family, 1, 0, 1, lam, rtol=1e-6)


# family 1 from m = 20 and family 2 from m = 42: every window ends at the wall
# cut, where psi has decayed and V is finite
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("family, m", [(1, 20), (1, 30), (1, 60), (2, 42), (2, 60)])
@pytest.mark.parametrize("L, B2m", [(0, 1), (1, 4), (Fraction(1, 2), Fraction(9, 4)), (2, 3)])
def test_high_orders_verify(family, m, L, B2m):
    lam = 1 if family == 1 else -1
    report = run_verification(family, m, L, B2m, lam, rtol=1e-6)
    assert report.passed, [c for c in report.checks if not c.passed]


# the wall and the residual scale with |lambda|, as the operator does
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("family", [1, 2])
@pytest.mark.parametrize("scale", [1e-4, 1e-2, 1, 1e2, 1e4, 1e6, 1e8])
@pytest.mark.parametrize("m", [1, 8, 30])
@pytest.mark.parametrize("L", [0, 1])
def test_every_curvature_scale_verifies(family, scale, m, L):
    report = run_verification(family, m, L, 1, scale if family == 1 else -scale, rtol=1e-6)
    assert report.passed, [c for c in report.checks if not c.passed]


# W scales as sqrt|lambda|: with sqrt|lambda| + |W-| as its scale, the W- identity reads
# the unit problem's size at every curvature
@pytest.mark.parametrize("family, m, L, B2m",
                         [(1, 8, 1, 2), (1, 2, 0, 4), (2, 8, 1, 2), (2, 2, 0, 4)])
def test_w_minus_identity_keeps_its_size_at_every_curvature(family, m, L, B2m):
    def value(scale):
        report = run_verification(family, m, L, B2m, scale if family == 1 else -scale, rtol=1e-6)
        return next(c.value for c in report.checks if c.name == "w_minus_identity")

    unit = value(1)
    for scale in (1e-4, 1e4):
        assert unit / 10 <= value(scale) <= 10 * unit, scale


# family 2 at lambda = -1 where the degree-n expansion of psi1's prefactor
# cancelled (condition number 1.5e10 at m = 60) and residual_psi1 read 1.2e-9 to
# 4.8e-6; its two-term bracket l + h (f^2)^n keeps them at round-off
@pytest.mark.filterwarnings("ignore::curvedqes.TruncationWarning")  # the weak wall at L = 100
@pytest.mark.parametrize(
    "m,L,B2m",
    [(30, 100, 1e-4), (60, 100, 1e-2)]
    + [(60, L, 1e-4) for L in (Fraction(1, 100), Fraction(5, 4), Fraction(3, 2),
                               Fraction(5, 2), 7, 25, 100)],
)
def test_family2_high_order_psi1_residual_passes(m, L, B2m):
    checks = {c.name: c for c in run_verification(2, m, L, B2m, -1, rtol=1e-6).checks}
    assert checks["residual_psi1"].passed, checks["residual_psi1"].value


@pytest.mark.parametrize("L", [0, Fraction(5, 2)])
def test_family1_steep_tail_psi1_residual_stays_at_round_off(L):
    # B_2m = 1e6 (s = 1000): evaluating the bracket as plain l + h (f^2)^n
    # moves this from 1.9e-12 to 1.2e-9; near the origin it takes F - 1 by expm1
    checks = {c.name: c for c in run_verification(1, 30, L, 1e6, 1, rtol=1e-6).checks}
    assert checks["residual_psi1"].value <= 1e-11


def test_overflowing_norm_raises_nonnormalizable_without_a_warning():
    # psi0 passes 1e154 on the norm's nodes: its square is inf, which the norm rejects
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonNormalizable, match="squared norm evaluated to inf"):
            run_verification(1, 1, 100, 1e-4, 1, rtol=1e-6)
