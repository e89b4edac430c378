"""Workloads of the curvedqes benchmark: their inputs, their ops and the output checks.

Every op is one call into the library's public functions, made the way the
CLI makes it: `run_verification(..., rtol=1e-6)` for `curvedqes verify`
with its default `--tol`, and `general_two_state(...)` for `solve`/`sweep`.
lambda is +1 for family 1 and -1 for family 2.

Inputs come in two lanes. In the exact lane sqrt(B_2m) is rational, so the
closed form stays in ints and Fractions; in the float lane sqrt(B_2m) is
irrational and the closed form is computed in floats. Both lanes run in every
workload, because the exact lane is what exact-algebra work moves and the
float lane is what users with arbitrary B_2m get.

A run is a seeded sequence of passes. A pass holds a fixed multiset of
strata (family, m, lane, and for the verify workloads L and B_2m, where the
seed only pairs each L with one of the float-lane B_2m); the seed draws the
remaining inputs and the order of the ops. The failing share and the cost of
a pass therefore change little with the seed or with the number of passes a
run has time for.

Why each workload exists:

* verify-low, m in {1, 2, 4, 8}: the everyday certification call. It is
  bound by the finite-difference oracle: eigensolves are about a third of an
  op, quadrature and node scans about half, construction under 1%. It holds a
  known failure: family 1, m=1, L=1/2 raises GridTooCoarse at the default
  20000-point grid for B_2m in {9/4, 4} and for every float-lane B_2m used
  here, because the Richardson estimate sits just above rtol=1e-6.
* verify-high, m in {16, 30, 60}: the per-term loops of the wavefunction
  forms and the adaptive quadrature callbacks grow with m. It holds the known
  large-order defects, counted as failures and never filtered out: family 1
  with m >= 20 raises NonNormalizable, and family 2 with m = 60 returns
  passed=False (NaN riccati_v1/riccati_v2). About half its ops fail today.
* sweep, m in 1..60: construction only, no oracle. An oracle optimisation
  must leave it unchanged; exact-algebra work shows here, where an exact-lane
  op at m=60 costs about 13x a float-lane one.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

L_SET = (0, 1, 2, Fraction(1, 2))
EXACT_B = (1, 4, Fraction(9, 4))  # rational sqrt(B_2m)
FLOAT_B = (2, 3, Fraction(5, 2), Fraction(7, 2))  # irrational sqrt(B_2m)
MAX_ORDER = 60
VERIFY_RTOL = 1e-6  # the CLI's default --tol
# float-lane closed forms may move in the last bits when a later change
# reorders the arithmetic; exact-lane values must stay exact and equal
FLOAT_RTOL = 1e-12

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"


@dataclass(frozen=True)
class Config:
    family: int
    m: int
    L: int | Fraction
    B: int | Fraction

    @property
    def lam(self) -> int:
        return 1 if self.family == 1 else -1

    @property
    def key(self) -> str:
        return f"{self.family} {self.m} {self.L} {self.B}"


def _verify_pass(orders, rng: random.Random) -> list:
    """Every (family, m, L) with each exact-lane B_2m and one float-lane B_2m;
    within each (family, m) the seed pairs the L values with the float-lane
    B_2m one to one, so that every (family, m, B_2m) stratum is in the pass."""
    ops = []
    for family in (1, 2):
        for m in orders:
            floats = rng.sample(FLOAT_B, len(FLOAT_B))
            for L, B_float in zip(L_SET, floats, strict=True):
                ops += [Config(family, m, L, B) for B in EXACT_B]
                ops.append(Config(family, m, L, B_float))
    rng.shuffle(ops)
    return ops


def _sweep_pass(orders, rng: random.Random) -> list:
    """Every (family, m, lane) once, with L and B_2m drawn by the seed."""
    ops = [
        Config(family, m, rng.choice(L_SET), rng.choice(lane))
        for family in (1, 2)
        for m in orders
        for lane in (EXACT_B, FLOAT_B)
    ]
    rng.shuffle(ops)
    return ops


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "verify" or "sweep"
    orders: tuple
    # fixed, so that set-up time does not depend on the seed
    warmup: Config

    def passes(self, seed: int):
        """Endless seeded sequence of passes; a run takes whole passes from it."""
        make_pass = _verify_pass if self.kind == "verify" else _sweep_pass
        rng = random.Random(seed)
        while True:
            yield make_pass(self.orders, rng)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("verify-low", "verify", (1, 2, 4, 8), Config(1, 4, 0, 1)),
        Workload("verify-high", "verify", (16, 30, 60), Config(2, 16, 0, 1)),
        Workload("sweep", "sweep", tuple(range(1, MAX_ORDER + 1)), Config(1, 30, 0, 1)),
    )
}


def call(lib, kind: str, cfg: Config):
    """The op itself: one library call, looked up on its module at call time."""
    if kind == "verify":
        return lib.verify.run_verification(cfg.family, cfg.m, cfg.L, cfg.B, cfg.lam, rtol=VERIFY_RTOL)
    return lib.twostate.general_two_state(cfg.family, cfg.m, cfg.L, cfg.B, cfg.lam)


# ---------------------------------------------------------------------------
# output checks against the reference table


def _encode(value) -> str | float:
    if isinstance(value, float):
        return value
    return str(Fraction(value))


def _decode(value):
    return Fraction(value) if isinstance(value, str) else float(value)


def reference_entry(sol) -> list:
    """[E0, E1, delta_e] of a solution, exact values as "p/q" strings."""
    return [_encode(sol.E0), _encode(sol.E1), _encode(sol.delta_e)]


def load_reference(path: Path = REFERENCE_PATH) -> dict:
    data = json.loads(path.read_text(encoding="utf-8"))
    return {key: [_decode(v) for v in row] for key, row in data.items()}


def _same(got, want) -> bool:
    if isinstance(want, Fraction):
        return isinstance(got, (int, Fraction)) and got == want
    return math.isclose(float(got), want, rel_tol=FLOAT_RTOL, abs_tol=FLOAT_RTOL)


def _same_float(got: float, want) -> bool:
    if isinstance(want, Fraction):
        return got == float(want)
    return math.isclose(got, want, rel_tol=FLOAT_RTOL, abs_tol=FLOAT_RTOL)


def check(lib, kind: str, cfg: Config, result, reference: dict):
    """Return (failure reason or None, mismatch flag) for one op's result.

    A mismatch is a wrong output: a closed-form value that differs from the
    reference table, or a spec that differs from the explicit m <= 2 route.
    """
    want = reference.get(cfg.key)
    if want is None:
        raise KeyError(f"no reference entry for {cfg.key}")
    if kind == "verify":
        if not (_same_float(result.closed_E0, want[0]) and _same_float(result.closed_E1, want[1])):
            return "mismatch:closed_form", True
        if not result.passed:
            return "checks:" + ",".join(c.name for c in result.checks if not c.passed), False
        return None, False
    if not all(_same(got, w) for got, w in zip((result.E0, result.E1, result.delta_e), want)):
        return "mismatch:closed_form", True
    if cfg.m <= 2 and result.spec != lib.twostate.compatibility(cfg.family, cfg.m, cfg.L, cfg.B, cfg.lam):
        return "mismatch:compatibility", True
    return None, False


def oracle_relerr(report) -> float | None:
    """Largest oracle_E0/oracle_E1 check value of a verification report."""
    values = [c.value for c in report.checks if c.name in ("oracle_E0", "oracle_E1")]
    values = [v for v in values if math.isfinite(v)]
    return max(values) if values else None
