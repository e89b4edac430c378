import math
import os
import pathlib
import subprocess
import sys
import textwrap
from fractions import Fraction as F

import numpy as np
import pytest

import curvedqes
from curvedqes import (
    Deformation,
    GeneratingPair,
    InvalidOrder,
    InvalidParameter,
    InvariantError,
    SignMismatch,
    compatibility,
    eval_potential,
    riccati_apply,
    find_nodes,
    general_two_state,
    generating_pair,
    node_location,
    reduced_spec,
    riccati_system_residuals,
    solve_first_step,
    solve_second_step,
    wavefunction_from_superpotential,
)
from curvedqes.exactmath import exact_sqrt
from curvedqes.twostate import _node_radius

SQUARES = (1, 4, 9)


def first_step_consistent_inputs(family, m, L, B_free, lam):
    """Choose (A, B) on the first-step constraint surface for exact inputs."""
    probe = solve_first_step(family, m, L, 0, B_free, lam)
    cons = dict(probe.constraints)
    A = -cons["A"]
    B = list(B_free)
    for k in range(1, m):  # each constraint is the given B_k minus the value the match needs
        B[k - 1] = B_free[k - 1] - cons[f"B{k}"]
    return A, tuple(B)


def test_first_step_family1_m1_parameters():
    step = solve_first_step(1, 1, 2, F(3, 4), (-10, 1), 1)
    assert step.params.xi == -3
    assert step.params.tail[0] == 1
    # eta/lambda = B1/(2 sqrt(B2)) + sqrt(B2)/2 + L + 2
    assert step.params.eta == -5 + F(1, 2) + 4


def test_first_step_family1_m1_ground_energy_is_figure_value():
    step = solve_first_step(1, 1, 1, F(3, 4), (-10, 1), 1)
    assert step.ground_energy == F(-31, 2)
    assert dict(step.constraints)["A"] == 0


def test_first_step_family2_m2_parameters():
    spec = reduced_spec(2, 2, 1, 4, -1)
    B = spec.B
    step = solve_first_step(2, 2, 1, spec.A, B, -1)
    assert step.params.xi == -2
    assert step.params.tail[1] == 2  # |lam| sqrt(B4)
    # tail[0] = |lam| (B3 + B4) / (2 sqrt(B4))
    assert step.params.tail[0] == F(B[2] + B[3], 4)
    assert step.max_constraint_residual() == 0


def test_second_step_eta_shifts():
    for fam, lam, shift_m1, shift_m2 in ((1, 1, 3, 3), (2, -1, 3, 3)):
        spec = reduced_spec(fam, 1, 1, 4, lam)
        s1 = solve_first_step(fam, 1, 1, spec.A, spec.B, lam)
        s2 = solve_second_step(fam, 1, s1)
        assert s2.params.eta - s1.params.eta == shift_m1 * abs(lam)
        assert s2.params.xi == s1.params.xi - 1
        assert s2.params.tail[0] == s1.params.tail[0]

    for fam, lam in ((1, 1), (2, -1)):
        spec = reduced_spec(fam, 2, 0, 9, lam)
        s1 = solve_first_step(fam, 2, 0, spec.A, spec.B, lam)
        s2 = solve_second_step(fam, 2, s1)
        assert s2.params.eta - s1.params.eta == 5 * abs(lam)
        assert s2.params.tail[1] == s1.params.tail[1]


def test_family2_m1_second_step_energy_term():
    # with B1 = 0, B2 = 1, L = 0 the primed ground energy reduces to
    # 1 + 21/2 + 59/2 = 41
    A, B = first_step_consistent_inputs(2, 1, 0, (0, 1), -1)
    s1 = solve_first_step(2, 1, 0, A, B, -1)
    s2 = solve_second_step(2, 1, s1)
    assert s2.ground_energy == 41


@pytest.mark.parametrize("fam,lam", [(1, 1), (2, -1)])
@pytest.mark.parametrize("m", [1, 2, 3, 4, 8])
def test_riccati_system_vanishes_on_step_solutions(fam, lam, m):
    for L in (0, 1, 3):
        for B2m in SQUARES:
            B_free = (-3,) + (2,) * (2 * m - 2) + (B2m,)
            A, B = first_step_consistent_inputs(fam, m, L, B_free, lam)
            step = solve_first_step(fam, m, L, A, B, lam)
            res = riccati_system_residuals(fam, m, step.params, L, A, B, step.ground_energy, lam)
            for name, value in res.items():
                assert value == 0, f"family{fam} m={m} residual {name} = {value}"


@pytest.mark.parametrize("fam,lam", [(1, 1), (2, -1)])
@pytest.mark.parametrize("m", [1, 2, 3, 4, 8])
def test_constraint_closure_on_compatible_specs(fam, lam, m):
    # both steps constrain A and B_1..B_{m-1}, each to 0: a dropped constraint would close too
    names = ("A",) + tuple(f"B{k}" for k in range(1, m))
    for L in (0, 1, 2, 3):
        for B2m in SQUARES:
            spec = compatibility(fam, m, L, B2m, lam)
            s1 = solve_first_step(fam, m, L, spec.A, spec.B, lam)
            s2 = solve_second_step(fam, m, s1)
            assert tuple(name for name, _ in s1.constraints) == names
            assert tuple(name for name, _ in s2.constraints) == names
            assert s1.max_constraint_residual() == 0
            assert s2.max_constraint_residual() == 0


def test_compatibility_examples():
    spec = compatibility(1, 1, 1, 1, 1)
    assert spec.B[0] == -10 and spec.A == F(3, 4)
    spec = compatibility(2, 2, 0, 9, -1)
    assert spec.B == (-12, -21, 9, 9) and spec.A == F(-13, 4)


def test_compatibility_matches_general_coefficients():
    for L in range(4):
        for B2m in SQUARES:
            assert compatibility(1, 2, L, B2m, 1) == reduced_spec(1, 2, L, B2m, 1)
            assert compatibility(2, 1, L, B2m, -1) == reduced_spec(2, 1, L, B2m, -1)


@pytest.mark.parametrize("fam,lam", [(1, 1), (2, -1)])
@pytest.mark.parametrize("m", [1, 2, 3, 4, 8])
def test_general_reduces_to_step_construction(fam, lam, m):
    for L in (0, 1, 2, 3):
        for B2m in SQUARES:
            sol = general_two_state(fam, m, L, B2m, lam)
            spec = compatibility(fam, m, L, B2m, lam)
            assert sol.spec.A == spec.A and sol.spec.B == spec.B

            s1 = solve_first_step(fam, m, L, spec.A, spec.B, lam)
            s2 = solve_second_step(fam, m, s1)
            assert sol.E0 == s1.ground_energy
            assert sol.E1 == s2.ground_energy

            # ansatz parameters are the coefficients of the general W
            w1 = s1.superpotential()
            assert w1.terms == sol.w.terms
            w2 = s2.superpotential()
            assert w2.terms == sol.w_prime.terms

            psi_step = wavefunction_from_superpotential(w1)
            assert psi_step == sol.psi0


def test_eta_consistency_on_compatible_specs():
    for (fam, m, L, B2m, lam), eta in (
        ((1, 1, 2, 9, 1), F(-3, 2)),
        ((1, 2, 1, 4, 1), F(-5, 2)),
        ((2, 1, 1, 4, -1), 2 - F(3, 2)),
        ((2, 2, 1, 9, -1), 3 - F(5, 2)),
    ):
        spec = reduced_spec(fam, m, L, B2m, lam)
        assert solve_first_step(fam, m, L, spec.A, spec.B, lam).params.eta == eta


def test_general_m3_energies():
    sol = general_two_state(1, 3, 0, 1, 1)
    assert sol.E0 == F(-39, 2) and sol.E1 == F(21, 2)
    sol = general_two_state(2, 3, 0, 1, -1)
    assert sol.E0 == F(-23, 2) and sol.E1 == F(57, 2)


@pytest.mark.parametrize("fam,lam", [(1, 1), (2, -1)])
def test_delta_e_positive_and_consistent(fam, lam):
    for m in (1, 2, 3, 5, 8):
        for L in (0, 2):
            for B2m in (1, 9):
                sol = general_two_state(fam, m, L, B2m, lam)
                assert sol.delta_e > 0
                assert sol.E1 - sol.E0 == sol.delta_e
                s = int(math.isqrt(B2m))
                if fam == 1:
                    assert sol.delta_e == 2 * m * lam * (2 * L + 3 + 2 * s)
                else:
                    assert sol.delta_e == (2 * m + 2) * abs(lam) * (2 * L + 3 + 2 * s)


def test_node_location_closed_forms():
    sol = general_two_state(1, 1, 1, 1, 1)
    assert node_location(sol) == pytest.approx(math.sqrt(2.5), rel=1e-14)
    sol = general_two_state(1, 2, 1, 1, 1)
    assert node_location(sol) == pytest.approx(math.sqrt(math.sqrt(3.5) - 1), rel=1e-13)
    sol = general_two_state(2, 1, 1, 1, -1)
    assert node_location(sol) == pytest.approx(math.sqrt(1 - math.sqrt(2.0 / 7.0)), rel=1e-13)


@pytest.mark.parametrize("fam,lam", [(1, 1), (2, -1)])
@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_node_location_matches_bisection(fam, lam, m):
    sol = general_two_state(fam, m, 1, 4, lam)
    nodes = find_nodes(sol.psi1)
    assert len(nodes) == 1
    assert abs(nodes[0] - node_location(sol)) < 1e-10
    assert sol.r0 == node_location(sol)


@pytest.mark.parametrize("config", [(1, 1, 1, 1, 1), (2, 3, F(1, 2), 2.25, -1),
                                    (1, 30, 0, 1e-4, 0.3), (2, 60, 25, 1e6, -1e3)])
def test_node_location_is_the_solutions_r0(config):
    # general_two_state stores the closed-form node as r0; node_location returns it
    sol = general_two_state(*config)
    assert node_location(sol) == sol.r0 == _node_radius(sol.family, sol.m, sol.L,
                                                        exact_sqrt(sol.B2m), sol.lam)


def test_node_inside_domain():
    for fam, lam in ((1, 2), (2, -2)):
        for m in (1, 2, 5):
            for L in (0, 3):
                sol = general_two_state(fam, m, L, 4, lam)
                assert 0 < sol.r0 < Deformation(float(lam)).domain_max


@pytest.mark.parametrize("fam,lam", [(1, 1), (2, -1)])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_second_superpotential_refactorizes_partner(fam, lam, m):
    # W'^2 - f W'' + E1 equals the partner potential plus its shift, pointwise
    from curvedqes import partner_shift

    sol = general_two_state(fam, m, 1, 4, lam)
    partner, R = partner_shift(sol.spec)
    r = np.geomspace(1e-2, 2.5 if lam > 0 else 0.99, 400)
    lhs = riccati_apply(sol.w_prime, "minus", r) + float(sol.E1)
    rhs = eval_potential(partner, r) + float(R) + float(sol.E0)
    assert np.max(np.abs(lhs - rhs) / (1 + np.abs(rhs))) < 1e-12


def test_large_order_construction():
    sol = general_two_state(1, 12, 1, 4, 1)
    # E0 = -[(2m+2) sqrt(B) + 3m + 5/2 + (2m+3) L + L^2]
    assert sol.E0 == F(-237, 2) and sol.E1 == F(195, 2)
    assert sol.delta_e == 216
    assert len(sol.psi1.prefactor) == 13
    for fam, lam, r_hi in ((1, 1, 1.5), (2, -1, 0.9)):
        sol = general_two_state(fam, 12, 1, 4, lam)
        r = np.geomspace(1e-3, r_hi, 400)
        v = eval_potential(sol.spec, r)
        res = np.abs(riccati_apply(sol.w, "minus", r) + float(sol.E0) - v) / (1 + np.abs(v))
        assert res.max() < 1e-10
        nodes = find_nodes(sol.psi1)
        assert len(nodes) == 1
        assert abs(nodes[0] - sol.r0) < 1e-10
    # the cap itself still constructs exactly
    sol = general_two_state(1, 60, 0, 1, 1)
    assert sol.E0 == F(-609, 2)
    assert len(sol.psi1.prefactor) == 61


def test_float_parameter_lane():
    # irrational sqrt(B_2m) degrades gracefully to floats; identities still hold
    sol = general_two_state(1, 2, 0.7, 2.0, 0.5)
    assert isinstance(sol.E0, float)
    r = np.geomspace(1e-3, 4.0, 600)
    v = eval_potential(sol.spec, r)
    res = np.abs(riccati_apply(sol.w, "minus", r) + sol.E0 - v) / (1 + np.abs(v))
    assert res.max() < 1e-10
    nodes = find_nodes(sol.psi1)
    assert len(nodes) == 1 and abs(nodes[0] - sol.r0) < 1e-12

    sol2 = general_two_state(2, 1, F(1, 2), F(1, 2), -2)
    assert isinstance(sol2.E0, float)  # sqrt(1/2) is irrational
    r2 = np.geomspace(1e-3, 0.7, 400)
    v2 = eval_potential(sol2.spec, r2)
    res2 = np.abs(riccati_apply(sol2.w, "minus", r2) + sol2.E0 - v2) / (1 + np.abs(v2))
    assert res2.max() < 1e-10


def test_order_validation():
    for m in (0, 61):
        with pytest.raises(InvalidOrder):
            solve_first_step(1, m, 0, 1, (1,) * (2 * m), 1)
    with pytest.raises(InvalidOrder):
        general_two_state(1, 0, 0, 1, 1)
    with pytest.raises(InvalidOrder):
        general_two_state(1, 61, 0, 1, 1)
    with pytest.raises(SignMismatch):
        general_two_state(1, 1, 0, 1, -1)
    with pytest.raises(SignMismatch):
        general_two_state(2, 1, 0, 1, 1)
    with pytest.raises(ValueError):
        general_two_state(1, 1, 0, 0, 1)


def test_bool_order_is_rejected():
    with pytest.raises(InvalidOrder):
        general_two_state(1, True, 0, 1, 1)


NON_FINITE = (float("inf"), float("-inf"), float("nan"), 10**400)


@pytest.mark.parametrize("fam,lam", [(1, 1), (2, -1)])
@pytest.mark.parametrize("m", [1, 2, 3, 8])
@pytest.mark.parametrize("bad", NON_FINITE)
def test_first_step_rejects_non_finite_free_coefficients(fam, lam, m, bad):
    spec = reduced_spec(fam, m, 1, 4, lam)
    with pytest.raises(InvalidParameter, match="B must be a list of numbers"):
        solve_first_step(fam, m, 1, spec.A, bad, lam)
    with pytest.raises(InvalidParameter, match="A must be finite"):
        solve_first_step(fam, m, 1, bad, spec.B, lam)
    for k in range(1, 2 * m):  # B_2m goes through validate_model's own check
        B = list(spec.B)
        B[k - 1] = bad
        with pytest.raises(InvalidParameter, match=f"B_{k} must be finite"):
            solve_first_step(fam, m, 1, spec.A, B, lam)


@pytest.mark.parametrize("fam, m, B2m, lam", [
    (1, 1, F(10**308), F(10**308)),  # E0 a 464-digit integer
    (2, 1, F(10**308), -F(10**308)),
    (2, 3, 1, -F(10**308)),
    (1, 60, 1, F(10**306)),
])
def test_exact_lane_past_the_double_range_raises_a_user_error(fam, m, B2m, lam):
    # exact arithmetic never overflows, but the solution's consumers take floats
    with pytest.raises(InvalidParameter, match="E0 must be finite as a float"):
        general_two_state(fam, m, 0, B2m, lam)


def test_second_step_rejects_a_mismatched_first_step():
    spec = reduced_spec(1, 1, 1, 4, 1)
    first = solve_first_step(1, 1, 1, spec.A, spec.B, 1)
    second = solve_second_step(1, 1, first)
    for args in ((2, 1, first), (1, 2, first), (1, 1, second), (1, 1, "x"), (1, 1, spec)):
        with pytest.raises(InvalidParameter, match="matching first step"):
            solve_second_step(*args)


def test_generating_pair_identity_scaled():
    for fam, lam in ((1, 1), (2, -1)):
        for m in (1, 2, 3, 4):
            pair = generating_pair(fam, m, 1, 4, lam)
            r = np.geomspace(1e-3, 3.0 if lam > 0 else 0.99, 700)
            f = np.sqrt(1 + lam * r * r)
            lhs = f * pair.w_plus.derivative(r)
            rhs = pair.w_plus.value(r) * pair.w_minus.value(r) + float(pair.delta_e)
            res = np.abs(lhs - rhs) / (1 + np.abs(lhs) + np.abs(rhs))
            assert res.max() < 1e-10


def _same(values, expected):
    assert list(values) == list(expected)
    assert [type(v) for v in values] == [type(v) for v in expected]


@pytest.mark.parametrize("fam,lam", [(1, 1), (2, -1)])
@pytest.mark.parametrize("m", [1, 8, 30, 60])
@pytest.mark.parametrize("L", [1, 0.3])
@pytest.mark.parametrize("B2m", [2, F(7, 2)])
def test_float_lane_coefficients_bit_for_bit(fam, lam, m, L, B2m):
    # each coefficient in the float lane is the same float expression, term by term
    sol = general_two_state(fam, m, L, B2m, lam)
    s = math.sqrt(B2m)
    low = -B2m - (2 * L + 1) * s
    if fam == 1:
        top = -B2m - (2 * L + 4 * m + 3) * s
        _same(sol.psi0.exp_r2, [-(s * math.comb(m, k) / (2 * k)) for k in range(1, m + 1)])
        assert sol.psi0.exp_finv == ()
        l, h, n, sign = -(2 * L + 3) - 2 * s, 2 * s, m, 1
    else:
        top = B2m - 2 * (2 * m + 1) * s
        assert sol.psi0.exp_r2 == ()
        _same(sol.psi0.exp_finv, [-(s / (2 * k)) for k in range(1, m + 1)])
        l, h, n, sign = 2 * s, -(2 * L + 3) - 2 * s, m + 1, -1
    assert (sol.psi1.exp_r2, sol.psi1.exp_finv) == (sol.psi0.exp_r2, sol.psi0.exp_finv)
    _same(sol.psi1.prefactor,
          [l + h] + [h * math.comb(n, k) * sign**k for k in range(1, n + 1)])
    _same(sol.spec.B, [low] * (m - 1) + [top] + [B2m] * m)


@pytest.mark.parametrize("fam,lam", [(1, 1), (2, -1)])
@pytest.mark.parametrize("m", [1, 2, 8, 60])
def test_exact_lane_spec_coefficients_are_ints_where_whole(fam, lam, m):
    for L in (0, 1, F(1, 2)):
        for B2m in (1, 4, F(9, 4)):
            spec = general_two_state(fam, m, L, B2m, lam).spec
            for b in spec.B + (spec.A,):
                assert type(b) is (int if b.denominator == 1 else F), (L, B2m, b)


def test_solution_serialization_keys():
    sol = general_two_state(2, 2, 1, 1, -1)
    doc = sol.to_dict()
    assert set(doc) == {
        "family", "m", "L", "lambda", "B2m", "spec", "E0", "E1", "r0", "psi0", "psi1",
    }
    assert set(doc["psi0"]) == {"a", "b", "exp_r2", "exp_finv"}
    assert set(doc["psi1"]) == {"a", "b", "exp_r2", "exp_finv", "prefactor"}
    assert doc["E0"] == -4.5 and doc["E1"] == 37.5
    assert doc["spec"]["family"] == 2


def _shift_pair_delta(monkeypatch, offset):
    """Make the generating pair report a delta_e that disagrees with E1 - E0."""
    from curvedqes import twostate

    real = twostate._generating_pair

    def shifted(*args):
        pair = real(*args)
        return GeneratingPair(pair.w_plus, pair.w_minus, pair.delta_e + offset)

    monkeypatch.setattr(twostate, "_generating_pair", shifted)


@pytest.mark.parametrize("B2m", [4, 2.0])  # exact lane, float lane
def test_energy_gap_invariant_raises_typed_error(monkeypatch, B2m):
    _shift_pair_delta(monkeypatch, 1)
    with pytest.raises(InvariantError):
        general_two_state(1, 2, 1, B2m, 1)


def test_energy_gap_invariant_survives_optimize_flag():
    code = textwrap.dedent(
        """
        from curvedqes import GeneratingPair, InvariantError, twostate

        real = twostate._generating_pair
        twostate._generating_pair = lambda *a: GeneratingPair(
            real(*a).w_plus, real(*a).w_minus, real(*a).delta_e + 1
        )
        try:
            twostate.general_two_state(2, 3, 0, 4, -1)
        except InvariantError:
            print("optimized" if not __debug__ else "debug", "raised")
        """
    )
    src = str(pathlib.Path(curvedqes.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-O", "-c", code],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=60,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "optimized raised"


# Off the constraint surface at L = 1/2, A = 11/5, per (family, m): B, then for step 1 and
# step 2 the constraints, (xi, eta, tail[0], tail[1], ...) and the ground energy at |lam| = 1
# (None: m = 1 has no tail[1]). The constraints do not depend on lam; every parameter but xi
# and the energy scale with |lam|.
OFF_SURFACE_B3 = (F(5, 7), F(2, 3), F(-1, 2), F(3, 4), F(-4, 5), 9)
OFF_SURFACE = {
    (1, 3): (OFF_SURFACE_B3, (
        ((F(-472599419341, 14762250000), F(13572486953, 2296350000), F(4260391, 291600)),
         (F(-3, 2), F(652529, 121500), F(3187, 2700), F(41, 30), 3), F(5040600023, 164025000)),
        ((F(-2567801795341, 14762250000), F(16994898953, 2296350000), F(6165511, 291600)),
         (F(-5, 2), F(1503029, 121500), F(3187, 2700), F(41, 30), 3), F(17120529623, 164025000)),
    )),
    (2, 3): (OFF_SURFACE_B3, (
        ((F(-15254854771, 14762250000), F(13572486953, 2296350000), F(4260391, 291600)),
         (F(-3, 2), F(531029, 121500), F(3187, 2700), F(41, 30), 3), F(5122612523, 164025000)),
        ((F(-1200410566771, 14762250000), F(16994898953, 2296350000), F(6165511, 291600)),
         (F(-5, 2), F(1381529, 121500), F(3187, 2700), F(41, 30), 3), F(17858642123, 164025000)),
    )),
    (1, 2): ((F(5, 7), F(2, 3), F(-1, 2), 9), (
        ((F(-91521269, 3732480), F(568511, 36288)), (F(-3, 2), F(4055, 864), F(17, 12), 3),
         F(147247, 5184)),
        ((F(-413706869, 3732480), F(798335, 36288)), (F(-5, 2), F(8375, 864), F(17, 12), 3),
         F(438103, 5184)),
    )),
    (2, 2): ((F(5, 7), F(2, 3), F(-1, 2), 9), (
        ((F(15429691, 3732480), F(568511, 36288)), (F(-3, 2), F(3191, 864), F(17, 12), 3),
         F(149839, 5184)),
        ((F(-127199429, 3732480), F(798335, 36288)), (F(-5, 2), F(7511, 864), F(17, 12), 3),
         F(461431, 5184)),
    )),
    (1, 1): ((F(-7, 3), 4), (
        ((F(-6641, 720),), (F(-3, 2), F(35, 12), 2, None), F(229, 12)),
        ((F(-32081, 720),), (F(-5, 2), F(71, 12), 2, None), F(211, 4)),
    )),
    (2, 1): ((F(-7, 3), 4), (
        ((F(7279, 720),), (F(-3, 2), F(23, 12), 2, None), F(235, 12)),
        ((F(3199, 720),), (F(-5, 2), F(59, 12), 2, None), F(229, 4)),
    )),
}


@pytest.mark.parametrize("fam,lam", [(1, 1), (1, F(1, 3)), (2, -1), (2, F(-2, 5))])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_step_values_off_the_constraint_surface(fam, lam, m):
    B, expected = OFF_SURFACE[fam, m]
    s1 = solve_first_step(fam, m, F(1, 2), F(11, 5), B, lam)
    s2 = solve_second_step(fam, m, s1)
    for step, (cons, (xi, eta, *tail), e0) in zip((s1, s2), expected):
        assert step.constraints == tuple(zip(("A", "B1", "B2"), cons))
        p = step.params
        assert (p.xi, p.eta) == (xi, abs(lam) * eta)
        assert p.tail == tuple(abs(lam) * c for c in tail if c is not None)
        assert step.ground_energy == abs(lam) * e0
    # step 1 solves every other key of its system; B_k's residual is -|lam| times its constraint
    res = riccati_system_residuals(fam, m, s1.params, F(1, 2), F(11, 5), B, s1.ground_energy, lam)
    assert {key for key, v in res.items() if v} <= {"E0", *("A", "B1", "B2")[:m]}
    assert [res[f"B{k}"] for k in range(1, m)] == [-abs(lam) * v for v in expected[0][0][1:]]


def _derivative_magnitude(w, r):
    """Sum of the absolute values of the two parts of each term's r-derivative."""
    lam = float(w.lam)
    f2 = 1.0 + lam * r * r
    out = np.zeros_like(r)
    for t in w.terms:
        term = np.abs(float(t.coeff) * r**t.r_exp * np.sqrt(f2) ** t.f_exp)
        out += term * (abs(t.r_exp) / r + abs(t.f_exp * lam) * r / f2)
    return out


@pytest.mark.parametrize("fam,lam", [(1, 1), (2, -1)])
def test_w_and_w_prime_are_read_off_the_generating_pair(fam, lam):
    # run_verification reads W off the generating pair and does not sample W's own
    # expansion: W = (W+ - W-)/2, and W' = (W+ + W-)/2, in value and slope
    r = np.geomspace(1e-3, 2.0 if lam > 0 else 0.99, 200)
    for m in range(1, 61):
        sol = general_two_state(fam, m, F(1, 2), F(9, 4), lam)
        wp, wm = sol.pair.w_plus, sol.pair.w_minus
        for w, sign in ((sol.w, -1), (sol.w_prime, 1)):
            value = (wp.value(r) + sign * wm.value(r)) / 2
            slope = (wp.derivative(r) + sign * wm.derivative(r)) / 2
            assert np.all(np.abs(w.value(r) - value) <= 1e-13 * w.magnitude(r))
            assert np.all(np.abs(w.derivative(r) - slope) <= 1e-13 * _derivative_magnitude(w, r))
