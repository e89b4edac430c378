import dataclasses
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from curvedqes import (
    InvalidParameter,
    NonNormalizable,
    eval_potential,
    general_two_state,
    oracle,
    potentials,
    riccati_apply,
    run_verification,
    susy,
    twostate,
    verify,
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
    # and one quadrature pass over [0, r_cut] integrates both norms and the overlap, with
    # one more for both tails at lambda > 0
    calls = {"_decay_radius": [], "_gauss_kronrod": [], "quadrature_norm": []}

    def counted(name):
        original = getattr(oracle, name)

        def wrapper(*args, **kwargs):
            calls[name].append(args)
            return original(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(oracle, name, counted(name))
    for config, starts in (((1, 1, 1, 1, 1), 2), ((2, 8, 0, 2, -1), 1)):
        for found in calls.values():
            found.clear()
        report = run_verification(*config)
        assert report.passed
        assert calls["_decay_radius"] == [] and calls["quadrature_norm"] == []
        r_cut = oracle._cut_radius(report.lam, report.x_max)
        assert [args[1:3] for args in calls["_gauss_kronrod"]] \
            == [(0.0, r_cut), (r_cut, 2.0 * r_cut)][:starts]


def test_pair_is_evaluated_once_on_the_residual_grid(monkeypatch):
    # the residual grid serves the node scan too: one evaluation of the pair with
    # derivatives on its 2000 points, and no 4001-point scan
    grids = []
    original = susy.evaluate_forms

    def counted(forms, r, derivatives=False):
        grids.append((len(forms), np.size(r), derivatives))
        return original(forms, r, derivatives)

    monkeypatch.setattr(oracle, "evaluate_forms", counted)
    report = run_verification(1, 4, 1, 2, 1, rtol=1e-6)
    assert report.passed
    assert [g for g in grids if g[2]] == [(2, 2000, True)]
    assert all(size != 4001 for _, size, _ in grids)


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


def _w_minus_identity_by_loop(sol, r):
    """Reference: the w_minus_identity check as a scalar loop over the check grid r."""
    lam = float(sol.lam)
    w_plus, de = sol.pair.w_plus, float(sol.pair.delta_e)
    vals = []
    for ri in r:
        ri = float(ri)
        wm = sol.pair.w_minus.value(ri)
        gap = abs(math.sqrt(1.0 + lam * ri * ri) * w_plus.derivative(ri) - (w_plus.value(ri) * wm + de))
        vals.append(gap / (w_plus.magnitude(ri) * (math.sqrt(abs(lam)) + abs(wm))))
    return max(vals)


@pytest.mark.parametrize(
    "config", [(1, 1, 1, 1, 1), (1, 8, 2, 2, 1), (2, 2, 0, 4, -1), (2, 8, 1, 3, -1)]
)
def test_w_minus_identity_matches_scalar_loop(config):
    report = run_verification(*config)
    sol = general_two_state(*config)
    r = verify._check_grid(sol, oracle._cut_radius(float(sol.lam), report.x_max))
    value = next(c.value for c in report.checks if c.name == "w_minus_identity")
    # array and scalar evaluation may round differently in the last bits
    assert value == pytest.approx(_w_minus_identity_by_loop(sol, r), abs=1e-13)


def test_each_superpotential_is_sampled_once(monkeypatch):
    # W, W+ and W- take one pass each on the check grid, and every W check reads those
    # samples: both generating-pair checks take W+, W+' and its magnitude from W+'s one pass
    calls = {"_sums": 0, "validate_model": 0, "w_minus_from_w_plus": 0}

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
    wrapper = counted("w_minus_from_w_plus", susy.w_minus_from_w_plus)
    monkeypatch.setattr(susy, "w_minus_from_w_plus", wrapper)
    monkeypatch.setattr(verify, "w_minus_from_w_plus", wrapper, raising=False)
    report = run_verification(2, 8, 1, 3, -1, rtol=1e-6)
    assert report.passed
    # general_two_state validates the model and the partner spec validates itself
    assert calls == {"_sums": 3, "validate_model": 2, "w_minus_from_w_plus": 0}


# both generating-pair checks read one gap |f W+' - (W+ W- + delta_e)|, near a zero of
# W+ too, as at (2, 8, 1/2, 3, -1) and (2, 30, 0, 1.4678, -1): the public samples of
# W+ and W- give both bit for bit
@pytest.mark.parametrize(
    "config", [(1, 1, 1, 1, 1), (2, 8, Fraction(1, 2), 3, -1), (2, 30, 0, 1.4678, -1)]
)
def test_w_minus_identity_is_the_helpers_bit_for_bit(config):
    report = run_verification(*config, rtol=1e-6)
    sol = general_two_state(*config)
    lam = float(sol.lam)
    r = verify._check_grid(sol, oracle._cut_radius(lam, report.x_max))
    wp, wp_der, wp_mag = (sol.pair.w_plus.value(r), sol.pair.w_plus.derivative(r),
                          sol.pair.w_plus.magnitude(r))
    wm = sol.pair.w_minus.value(r)
    lhs = np.sqrt(1.0 + lam * r * r) * wp_der
    rhs = wp * wm + float(sol.pair.delta_e)
    gap = np.abs(lhs - rhs)
    values = {c.name: c.value for c in report.checks}
    assert values["pair_identity"] == (gap / (abs(lam) + np.abs(lhs) + np.abs(rhs))).max()
    assert values["w_minus_identity"] == (gap / (wp_mag * (math.sqrt(abs(lam)) + np.abs(wm)))).max()


# the configs where w_minus_identity, as (f W+' - delta_e) / W+ - W-, read the rounding
# of f W+' - delta_e over |W+| near psi1's node: 1.34e-10 and 1.21e-10
@pytest.mark.parametrize("config", [(2, 30, 0, 1.4678, -1), (2, 60, 0, 21.544, -1)])
def test_w_minus_identity_passes_near_the_node_of_psi1(config):
    report = run_verification(*config, rtol=1e-6)
    assert len(report.checks) == 13
    assert report.passed, [c for c in report.checks if not c.passed]


# a pair whose delta_e is off by 1 part in 1e9 fails both generating-pair checks
@pytest.mark.parametrize(
    "config", [(1, 1, 1, 1, 1), (2, 8, Fraction(1, 2), 3, -1), (1, 60, 0, 2, 1),
               (2, 30, 0, 1.4678, -1)]
)
def test_generating_pair_checks_catch_a_wrong_delta_e(monkeypatch, config):
    def perturbed(*args, **kwargs):
        sol = general_two_state(*args, **kwargs)
        pair = dataclasses.replace(sol.pair, delta_e=float(sol.pair.delta_e) * (1 + 1e-9))
        return dataclasses.replace(sol, pair=pair)

    monkeypatch.setattr(verify, "general_two_state", perturbed)
    values = {c.name: c.value for c in run_verification(*config, rtol=1e-6).checks}
    assert values["pair_identity"] > 1e-10 and values["w_minus_identity"] > 1e-10


def test_vanishing_curvature_raises_a_typed_error():
    # at lambda = -1e-300 |psi|^2 leaves the double range over the window
    with pytest.raises(NonNormalizable, match="squared norm evaluated to inf"):
        run_verification(2, 1, 0, 1, -1e-300, rtol=1e-6)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("family, lam", [(1, 1e300), (2, -1e300)])
def test_oracle_matrix_out_of_range_raises_a_user_error(family, lam):
    # x_max ~ 1e-150: 1/h^2 squares past the double range in the eigensolver
    with pytest.raises(InvalidParameter, match="oracle matrix"):
        run_verification(family, 1, 0, 1, lam, rtol=1e-6)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_all_nan_wall_scan_raises_a_user_error():
    # lambda B_k overflows to +-inf, so V is inf - inf at every point the wall scan samples
    with pytest.raises(InvalidParameter, match=r"NaN over the whole wall scan at lambda=1e\+200"):
        run_verification(1, 1, 0, 2e200, 1e200, rtol=1e-6)


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
