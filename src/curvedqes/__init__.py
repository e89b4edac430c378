"""Quasi-exactly solvable extensions of the oscillator on a constant-curvature space.

Closed-form two-state solutions for two families of extended oscillator
potentials, built through deformed-SUSY factorization, together with an
independent finite-difference spectral oracle that validates every piece.
"""

from .errors import (
    DegenerateCurvature,
    DomainError,
    GridTooCoarse,
    InvalidOrder,
    InvalidParameter,
    InvariantError,
    NonNormalizable,
    NotConstrained,
    PoleAtNode,
    SignMismatch,
    TruncationWarning,
    UnsupportedTerm,
)
from .geometry import (
    Deformation,
    arc_coordinate,
    deformation_factor,
    radius_from_arc,
    reduce_radial,
)
from .potentials import (
    Family,
    PotentialSpec,
    eval_potential,
    oscillator_from_beta,
    reduced_spec,
    spec_from_dict,
    spec_from_json,
    spec_to_dict,
    spec_to_json,
)
from .susy import (
    GeneratingPair,
    Superpotential,
    Term,
    WavefunctionForm,
    oscillator_ground_energy,
    oscillator_partner,
    oscillator_superpotential,
    partner_shift,
    riccati_apply,
    w_minus_from_w_plus,
    wavefunction_from_superpotential,
)
from .twostate import (
    AnsatzParams,
    CdsiStepResult,
    TwoStateSolution,
    compatibility,
    general_two_state,
    generating_pair,
    node_location,
    riccati_system_residuals,
    solve_first_step,
    solve_second_step,
)
from .oracle import (
    SpectrumEstimate,
    count_sign_changes,
    find_nodes,
    lowest_eigenvalues,
    overlap,
    quadrature_norm,
    schrodinger_residual,
)
from .verify import VerificationReport, run_verification

__version__ = "0.1.0"
