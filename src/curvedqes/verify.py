"""End-to-end verification: closed-form solutions against the spectral oracle.

One configuration (family, m, L, B_2m, lambda) is pushed through every
consistency check the package offers: Riccati factorization of both partners,
the generating-pair identity (one residual, read against its terms and, as the
W- identity, in W-'s units), eigenvalue comparison against the
finite-difference oracle, pointwise Schrodinger residuals, node counts and
node location, and quadrature orthogonality.  The report carries one entry
per check with its threshold so failures are attributable.

oracle_node_counts reads the paper's claim that psi0 and psi1 are the ground
and first excited states: Sturm counts of the oracle's matrix T_N must find 0
eigenvalues at or below E0 - (E1 - E0)/2 and 1 at or below (E0 + E1)/2. By the
oscillation theorem they are T_N's eigenvector node counts, free of rounding.

Every pointwise check reads one grid (oracle._scan_grid) and one V(r) on it.
W+ and W- are sampled there once each (Superpotential._sums, two terms each
at any m): the Riccati checks read W = (W+ - W-)/2 and W's slope
(W+' - W-')/2 off those samples, as the paper builds W, and W's own expansion
is not sampled. The Schrodinger residuals read psi's exponent series and
slopes as Horner sums of its stored coefficients (susy._horner).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .oracle import (
    _cut_radius,
    _integrals,
    _nodes,
    _residuals,
    _scan_grid,
    _sturm_count,
    default_arc_cutoff,
    lowest_eigenvalues,
)
from .potentials import eval_potential
from .susy import partner_shift
from .twostate import TwoStateSolution, general_two_state

TOLERANCES = {
    "riccati_v1": 1e-10,
    "riccati_v2": 1e-10,
    "pair_identity": 1e-10,
    "w_minus_identity": 1e-10,
    "oracle_E0": 1e-6,
    "oracle_E1": 1e-6,
    "residual_psi0": 1e-9,
    "residual_psi1": 1e-9,
    "nodes_psi0": 0,
    "nodes_psi1": 0,
    "node_location": 1e-8,
    "orthogonality": 1e-8,
    "oracle_node_counts": 0,
}


@dataclass(frozen=True)
class CheckResult:
    name: str
    value: float
    threshold: float
    passed: bool


@dataclass
class VerificationReport:
    """Results of the full invariant suite for one configuration."""

    config_id: str
    family: int
    m: int
    L: float
    B2m: float
    lam: float
    closed_E0: float
    closed_E1: float
    oracle_E0: float
    oracle_E1: float
    oracle_error: tuple
    oracle_error_estimate: tuple  # relative error estimate of the extrapolated E0, E1
    oracle_order: tuple  # observed order of E0, E1 over N, N/2, N/4; None where undefined
    grid_points: int
    x_max: float
    oracle_method: str  # how the level at grid_points was solved (SpectrumEstimate.method)
    norm_psi0: float
    norm_psi1: float
    checks: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "config_id": self.config_id,
            "family": self.family,
            "m": self.m,
            "L": self.L,
            "B2m": self.B2m,
            "lambda": self.lam,
            "closed_form": {"E0": self.closed_E0, "E1": self.closed_E1},
            "oracle": {
                "E0": self.oracle_E0,
                "E1": self.oracle_E1,
                "richardson_error": list(self.oracle_error),
                "error_estimate": list(self.oracle_error_estimate),
                "observed_order": list(self.oracle_order),
                "grid_points": self.grid_points,
                "x_max": self.x_max,
                "method": self.oracle_method,
            },
            "norms": {"psi0": self.norm_psi0, "psi1": self.norm_psi1},
            "checks": [
                {
                    "name": c.name,
                    "value": c.value,
                    "threshold": c.threshold,
                    "passed": c.passed,
                }
                for c in self.checks
            ],
            "passed": self.passed,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    def format_table(self) -> str:
        lines = [
            f"config {self.config_id}",
            f"  closed form: E0 = {self.closed_E0:.12g}   E1 = {self.closed_E1:.12g}",
            f"  oracle:      E0 = {self.oracle_E0:.12g}   E1 = {self.oracle_E1:.12g}"
            f"   N = {self.grid_points}",
            f"  norms:       |psi0|^2 = {self.norm_psi0:.6g}   |psi1|^2 = {self.norm_psi1:.6g}",
            f"  {'check':<20} {'value':>12} {'threshold':>12}  status",
        ]
        for c in self.checks:
            status = "pass" if c.passed else "FAIL"
            lines.append(f"  {c.name:<20} {c.value:>12.3e} {c.threshold:>12.3e}  {status}")
        lines.append(f"  overall: {'pass' if self.passed else 'FAIL'}")
        return "\n".join(lines)


def _check_grid(sol: TwoStateSolution, r_max: float | None = None) -> np.ndarray:
    """1000 geometric points from 1e-3 / sqrt|lambda| to r_max, default the wall cut's radius:
    acceptance criterion 5's grid, kept because its test imports it; no verification samples it."""
    lam = float(sol.lam)
    if r_max is None:
        r_max = _cut_radius(lam, default_arc_cutoff(sol.spec))
    return np.geomspace(1e-3 / math.sqrt(abs(lam)), r_max, 1000)


def run_verification(
    family,
    m: int,
    L,
    B2m,
    lam,
    grid_points: int = 20000,
    rtol: float | None = None,
) -> VerificationReport:
    """Build the closed-form solution and run every check against the oracle.

    oracle_E0 and oracle_E1 compare the closed forms with the oracle's
    Richardson-extrapolated eigenvalues. The eigenvalue solver climbs its grid
    ladder up to grid_points. rtol, when given, is forwarded to it: it then
    stops at the smallest grid whose estimate of the relative error of those
    extrapolated values is <= rtol, and raises GridTooCoarse if even
    grid_points cannot. The estimate is relative to the extrapolated value
    itself, as the check is relative to the closed form, and the report
    carries it with the observed order of convergence.
    """
    sol = general_two_state(family, m, L, B2m, lam)
    # the oracle first: the radius of its wall cut ends every window below
    est = lowest_eigenvalues(sol.spec, k=2, grid_points=grid_points, rtol=rtol)
    r_cut = _cut_radius(float(sol.lam), est.x_max)
    checks: list[CheckResult] = []

    def add(name, value):
        tol = TOLERANCES[name]
        checks.append(CheckResult(name, float(value), float(tol), float(value) <= tol))

    r = _scan_grid(float(sol.lam), r_cut)
    v = eval_potential(sol.spec, r)
    e0f, e1f = float(sol.E0), float(sol.E1)

    # one pass each samples W+ and W- with their slopes, and W+ with its term magnitude too;
    # W = (W+ - W-)/2 and its slope are read off them: V1 = W^2 - f W', V2 = W^2 + f W', each
    # residual scaled by its terms' sizes: at L = 0 their 1/r^2 parts cancel near the origin.
    # With r = rho / sqrt|lambda|, V and E scale as |lambda| and W as sqrt|lambda|: the
    # floor of each scale is |lambda| (sqrt|lambda| for W-), the unit problem's 1
    scale = abs(float(sol.lam))
    f = np.sqrt(1.0 + float(sol.lam) * r * r)
    wp, wp_der, wp_mag = sol.pair.w_plus._sums(r)
    wm, wm_der, _ = sol.pair.w_minus._sums(r)
    w, dw = 0.5 * (wp - wm), 0.5 * (wp_der - wm_der)
    w2, fdw = w * w, f * dw
    size = scale + w2 + np.abs(fdw)
    res_v1 = np.abs(w2 - fdw + e0f - v) / (size + np.abs(v))
    add("riccati_v1", res_v1.max())

    partner, shift_const = partner_shift(sol.spec)
    v2 = eval_potential(partner, r) + float(shift_const)
    res_v2 = np.abs(w2 + fdw - v2) / (size + np.abs(v2))
    add("riccati_v2", res_v2.max())

    # one gap of f W+' = W+ W- + delta_e serves both pair checks; the W- identity divides
    # it by W+'s term magnitude, not by |W+|, which vanishes at psi1's node
    lhs = f * wp_der
    rhs = wp * wm + float(sol.pair.delta_e)
    gap = np.abs(lhs - rhs)
    add("pair_identity", (gap / (scale + np.abs(lhs) + np.abs(rhs))).max())
    add("w_minus_identity", (gap / (wp_mag * (math.sqrt(scale) + np.abs(wm)))).max())

    # compare against the Richardson-extrapolated values: extrapolation removes
    # the O(h^2) grid bias but cannot mask a genuine disagreement
    rel0 = abs(est.extrapolated[0] - e0f) / max(1e-30, abs(e0f))
    rel1 = abs(est.extrapolated[1] - e1f) / max(1e-30, abs(e1f))
    add("oracle_E0", rel0)
    add("oracle_E1", rel1)

    # psi0 and psi1 share their exponent series: one joint evaluation on the grid gives both
    # residuals and the values the node scans bracket, and one quadrature pass every integral
    states = [(sol.psi0, e0f), (sol.psi1, e1f)]
    res, (values0, values1) = _residuals(float(sol.lam), states, r, v)
    nodes0, nodes1 = _nodes(sol.psi0, r, values0), _nodes(sol.psi1, r, values1)
    add("residual_psi0", res[0])
    add("residual_psi1", res[1])
    add("nodes_psi0", len(nodes0))
    add("nodes_psi1", abs(len(nodes1) - 1))
    add("node_location", abs(nodes1[0] - sol.r0) if len(nodes1) == 1 else math.inf)

    norm0, norm1, ortho = _integrals((sol.psi0, sol.psi1), r_cut)
    add("orthogonality", abs(ortho))

    probes = (e0f - (e1f - e0f) / 2, (e0f + e1f) / 2)  # T_N holds i levels at or below probe i
    add("oracle_node_counts", sum(_sturm_count(*est.matrix, x) != i for i, x in enumerate(probes)))

    return VerificationReport(
        config_id=f"family{int(sol.family)}-m{sol.m}-L{float(L):g}-B{float(B2m):g}-lam{float(lam):g}",
        family=int(sol.family),
        m=sol.m,
        L=float(L),
        B2m=float(B2m),
        lam=float(lam),
        closed_E0=e0f,
        closed_E1=e1f,
        oracle_E0=est.eigenvalues[0],
        oracle_E1=est.eigenvalues[1],
        oracle_error=est.richardson_error[:2],
        oracle_error_estimate=est.error_estimate[:2],
        oracle_order=est.observed_order[:2],
        grid_points=est.grid_points,
        x_max=est.x_max,
        oracle_method=est.method,
        norm_psi0=norm0,
        norm_psi1=norm1,
        checks=checks,
    )
