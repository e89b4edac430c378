"""The public surface of curvedqes: adding or removing an export is an edit here."""

import types

import curvedqes

PUBLIC = [
    "AnsatzParams",
    "CdsiStepResult",
    "Deformation",
    "DegenerateCurvature",
    "DomainError",
    "Family",
    "GeneratingPair",
    "GridTooCoarse",
    "InvalidOrder",
    "InvalidParameter",
    "InvariantError",
    "NonNormalizable",
    "NotConstrained",
    "PoleAtNode",
    "PotentialSpec",
    "SignMismatch",
    "SpectrumEstimate",
    "Superpotential",
    "Term",
    "TruncationWarning",
    "TwoStateSolution",
    "UnsupportedTerm",
    "VerificationReport",
    "WavefunctionForm",
    "arc_coordinate",
    "compatibility",
    "count_sign_changes",
    "deformation_factor",
    "eval_potential",
    "find_nodes",
    "general_two_state",
    "generating_pair",
    "lowest_eigenvalues",
    "node_location",
    "oscillator_from_beta",
    "oscillator_ground_energy",
    "oscillator_partner",
    "oscillator_superpotential",
    "overlap",
    "partner_shift",
    "quadrature_norm",
    "radius_from_arc",
    "reduce_radial",
    "reduced_spec",
    "riccati_apply",
    "riccati_system_residuals",
    "run_verification",
    "schrodinger_residual",
    "solve_first_step",
    "solve_second_step",
    "spec_from_dict",
    "spec_from_json",
    "spec_to_dict",
    "spec_to_json",
    "w_minus_from_w_plus",
    "wavefunction_from_superpotential",
]


def test_public_names_are_pinned():
    names = sorted(
        name
        for name, value in vars(curvedqes).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert names == PUBLIC
