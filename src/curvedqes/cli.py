"""Command-line interface: solve, verify, figures, sweep, spectrum.

Numbers on the command line are parsed as exact rationals when possible, so
closed-form output stays exact for integer parameters.  CSV output is
deterministic: fixed grids, 17 significant digits, '.' decimal, ',' column
separator, LF line endings.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from .errors import (
    DegenerateCurvature,
    DomainError,
    GridTooCoarse,
    InvalidOrder,
    InvalidParameter,
    NonNormalizable,
    NotConstrained,
    SignMismatch,
    UnsupportedTerm,
)
from .oracle import lowest_eigenvalues
from .potentials import MAX_ORDER, eval_potential, validate_model
from .susy import evaluate_forms
from .twostate import general_two_state
from .verify import run_verification

_USER_ERRORS = (
    DomainError,
    DegenerateCurvature,
    SignMismatch,
    InvalidOrder,
    InvalidParameter,
    NotConstrained,
    UnsupportedTerm,
    NonNormalizable,
    GridTooCoarse,
)


def _number(text: str):
    """Exact scalar from the command line: int, then Fraction, then float.

    ValueError for text none of them reads, as for a zero denominator such as 1/0,
    so that argparse reports a usage error.
    """
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return Fraction(text)
    except ZeroDivisionError as exc:
        raise ValueError(f"zero denominator in {text!r}") from exc
    except ValueError:
        return float(text)


def _is_number(text: str) -> bool:
    try:
        _number(text)
    except ValueError:
        return False
    return True


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that reads a number after a space as an option's value.

    argparse takes a token such as -1/4 or -2.5e-1 for an option and rejects
    `--lambda -1/4`; a numeric token after a `--name` is therefore joined to
    it, as `--lambda=-1/4`. No option of this CLI is named like a number.
    """

    def parse_known_args(self, args=None, namespace=None):
        joined = []
        for tok in sys.argv[1:] if args is None else args:
            prev = joined[-1] if joined else ""
            if tok.startswith("-") and prev.startswith("--") and "=" not in prev and _is_number(tok):
                joined[-1] = f"{prev}={tok}"
            else:
                joined.append(tok)
        return super().parse_known_args(joined, namespace)


def _fmt(value: float) -> str:
    return f"{float(value):.17g}"


def _add_model_args(parser):
    parser.add_argument("--family", type=int, required=True, help="family: 1 or 2")
    parser.add_argument("--m", type=int, default=1, help="extension order (default 1)")
    parser.add_argument("--L", type=_number, default=0, help="effective angular momentum")
    parser.add_argument("--lambda", dest="lam", type=_number, required=True,
                        help="curvature parameter (kappa = -lambda)")
    parser.add_argument("--B", type=_number, default=1, help="top coefficient B_2m")


def _add_grid_args(parser):
    parser.add_argument("--grid", type=int, default=20000,
                        help="largest grid points (default 20000)")
    parser.add_argument("--tol", type=float, default=1e-6, help="relative tolerance")


def _add_output_args(parser):
    parser.add_argument("--out", type=Path, default=None, help="output path")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")


def _emit(text: str, out: Path | None):
    if out is None:
        print(text)
    else:
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(text + "\n", encoding="utf-8", newline="\n")


def cmd_solve(args) -> int:
    sol = general_two_state(args.family, args.m, args.L, args.B, args.lam)
    if args.format == "json":
        _emit(json.dumps(sol.to_dict(), indent=2), args.out)
        return 0
    lines = [
        f"family {int(sol.family)}, m={sol.m}, L={_fmt(sol.L)}, lambda={_fmt(sol.lam)}, "
        f"B_2m={_fmt(sol.B2m)}",
        f"A      = {_fmt(sol.spec.A)}",
        "B      = [" + ", ".join(_fmt(b) for b in sol.spec.B) + "]",
        f"E0     = {_fmt(sol.E0)}",
        f"E1     = {_fmt(sol.E1)}",
        f"dE     = {_fmt(sol.delta_e)}",
        f"r0     = {_fmt(sol.r0)}",
        f"psi0:  a={_fmt(sol.psi0.r_power)} b={_fmt(sol.psi0.f_power)} "
        f"exp_r2={[float(c) for c in sol.psi0.exp_r2]} "
        f"exp_finv={[float(c) for c in sol.psi0.exp_finv]}",
        f"psi1:  a={_fmt(sol.psi1.r_power)} b={_fmt(sol.psi1.f_power)} "
        f"prefactor={[float(c) for c in sol.psi1.prefactor]}",
    ]
    _emit("\n".join(lines), args.out)
    return 0


def cmd_verify(args) -> int:
    report = run_verification(args.family, args.m, args.L, args.B, args.lam,
                              grid_points=args.grid, rtol=args.tol)
    text = report.to_json() if args.format == "json" else report.format_table()
    _emit(text, args.out)
    return 0 if report.passed else 1


def cmd_spectrum(args) -> int:
    sol = general_two_state(args.family, args.m, args.L, args.B, args.lam)
    est = lowest_eigenvalues(sol.spec, k=args.k, grid_points=args.grid, rtol=args.tol)
    if args.format == "json":
        _emit(json.dumps(est.to_dict(), indent=2), args.out)
        return 0
    # the Richardson-extrapolated values, the ones --tol certifies, with their relative
    # error estimates
    lines = ["level,extrapolated,error_estimate"]
    for i, (ev, err) in enumerate(zip(est.extrapolated, est.error_estimate)):
        lines.append(f"{i},{_fmt(ev)},{_fmt(err)}")
    _emit("\n".join(lines), args.out)
    return 0


def cmd_sweep(args) -> int:
    # every input is checked before the loop, which an empty m range would skip:
    # each (L, B_2m) by the one model rule, at m = 1, then the m range
    for L in args.L_list:
        for B in args.B_list:
            validate_model(args.family, 1, L, B, args.lam)
    if not 1 <= args.m_max <= MAX_ORDER:
        raise InvalidOrder(f"--m-max must be in [1, {MAX_ORDER}], got {args.m_max}")
    rows = []
    for m in range(1, args.m_max + 1):
        for L in args.L_list:
            for B in args.B_list:
                sol = general_two_state(args.family, m, L, B, args.lam)
                rows.append((m, float(L), float(B), float(sol.E0), float(sol.E1),
                             float(sol.delta_e), sol.r0))
    if args.format == "json":
        keys = ("m", "L", "B2m", "E0", "E1", "delta_e", "r0")
        _emit(json.dumps([dict(zip(keys, row)) for row in rows], indent=2), args.out)
        return 0
    lines = ["m,L,B2m,E0,E1,delta_e,r0"]
    for row in rows:
        lines.append(f"{row[0]}," + ",".join(_fmt(v) for v in row[1:]))
    _emit("\n".join(lines), args.out)
    return 0


FIGURE_GRID_POINTS = 1000


def _figure_rows_potential(specs, r):
    cols = [r]
    for spec in specs:
        cols.append(eval_potential(spec, r))
    return np.column_stack(cols)


def _figure_rows_wavefunctions(sol, r):
    """r, psi0 and psi1 on r, each divided by its peak on a dense grid over r's span;
    the pair shares its exponent series, so each grid is one joint evaluation."""
    pair = (sol.psi0, sol.psi1)
    dense = np.linspace(r[0], r[-1], 40001)
    peak0, peak1 = (np.max(np.abs(v)) for v in evaluate_forms(pair, dense))
    psi0, psi1 = evaluate_forms(pair, r)
    return np.column_stack([r, psi0 / peak0, psi1 / peak1])


def _write_csv(path: Path, comment: str, columns, rows) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(f"# {comment}\n")
            fh.write(",".join(columns) + "\n")
            for row in rows:
                fh.write(",".join(_fmt(v) for v in row) + "\n")
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc


def cmd_figures(args) -> int:
    outdir = args.out if args.out is not None else Path("figures")
    outdir.mkdir(parents=True, exist_ok=True)

    sol1 = general_two_state(1, 1, 1, 1, 1)
    sol1b = general_two_state(1, 2, 1, 1, 1)
    sol2 = general_two_state(2, 1, 1, 1, -1)
    sol2b = general_two_state(2, 2, 1, 1, -1)

    r_pos = np.linspace(0.05, 4.0, FIGURE_GRID_POINTS)
    r_neg = np.linspace(0.05, 0.999, FIGURE_GRID_POINTS)

    _write_csv(
        outdir / "fig1.csv",
        "figure 1: potentials, family 1, m=1 and m=2, lambda=1, L=1, B_2m=1",
        ("r", "V_m1", "V_m2"),
        _figure_rows_potential((sol1.spec, sol1b.spec), r_pos),
    )
    _write_csv(
        outdir / "fig2.csv",
        "figure 2: wavefunctions (peak-normalized), family 1, m=1, lambda=1, L=1, B_2m=1",
        ("r", "psi0", "psi1"),
        _figure_rows_wavefunctions(sol1, r_pos),
    )
    _write_csv(
        outdir / "fig3.csv",
        "figure 3: potentials, family 2, m=1 and m=2, lambda=-1, L=1, B_2m=1",
        ("r", "V_m1", "V_m2"),
        _figure_rows_potential((sol2.spec, sol2b.spec), r_neg),
    )
    _write_csv(
        outdir / "fig4.csv",
        "figure 4: wavefunctions (peak-normalized), family 2, m=1, lambda=-1, L=1, B_2m=1",
        ("r", "psi0", "psi1"),
        _figure_rows_wavefunctions(sol2, r_neg),
    )
    print(f"wrote fig1.csv fig2.csv fig3.csv fig4.csv to {outdir}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="curvedqes",
        description="QES extensions of the quantum oscillator on a constant-curvature space",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="closed-form two-state solution")
    _add_model_args(p)
    _add_output_args(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("verify", help="run the full invariant suite for one config")
    _add_model_args(p)
    _add_grid_args(p)
    _add_output_args(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("spectrum", help="lowest oracle eigenvalues for one config")
    _add_model_args(p)
    _add_grid_args(p)
    _add_output_args(p)
    p.add_argument("--k", type=int, default=3, help="number of eigenvalues")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("sweep", help="closed-form sweep over m, L, B_2m")
    p.add_argument("--family", type=int, required=True, help="family: 1 or 2")
    p.add_argument("--lambda", dest="lam", type=_number, required=True)
    p.add_argument("--m-max", type=int, default=3)
    p.add_argument("--L-list", type=lambda s: [_number(v) for v in s.split(",")],
                   default=[0, 1, 2])
    p.add_argument("--B-list", type=lambda s: [_number(v) for v in s.split(",")],
                   default=[1, 4])
    _add_output_args(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("figures", help="export the four reference curves as CSV")
    p.add_argument("--out", type=Path, default=None, help="output directory (default figures)")
    p.set_defaults(func=cmd_figures)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _USER_ERRORS as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"IOError: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
