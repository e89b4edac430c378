from fractions import Fraction

import numpy as np
import pytest

from curvedqes import (
    InvalidParameter,
    PoleAtNode,
    eval_potential,
    general_two_state,
    oracle,
    riccati_apply,
    run_verification,
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
    counts = {"_decay_radius": 0, "quadrature_norm": 0}

    def counted(name):
        original = getattr(oracle, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for name in counts:
        wrapper = counted(name)
        monkeypatch.setattr(oracle, name, wrapper)
        monkeypatch.setattr(verify, name, wrapper)
    report = run_verification(1, 1, 1, 1, 1)
    assert report.passed
    assert counts["_decay_radius"] <= 2
    assert counts["quadrature_norm"] == 2


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
