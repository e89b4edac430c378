import json
import pathlib

import numpy as np
import pytest

from curvedqes.cli import main


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_solve_prints_figure_energies(capsys):
    code, out, _ = run_cli(
        ["solve", "--family", "1", "--m", "1", "--L", "1", "--lambda", "1", "--B", "1"],
        capsys,
    )
    assert code == 0
    assert "E0     = -15.5" in out
    assert "E1     = -1.5" in out


def test_solve_family2_m2(capsys):
    code, out, _ = run_cli(
        ["solve", "--family", "2", "--m", "2", "--L", "1", "--lambda", "-1", "--B", "1"],
        capsys,
    )
    assert code == 0
    assert "E0     = -4.5" in out
    assert "E1     = 37.5" in out


def test_solve_sign_mismatch_exit_code(capsys):
    code, _, err = run_cli(
        ["solve", "--family", "1", "--m", "1", "--L", "1", "--lambda", "-1", "--B", "1"],
        capsys,
    )
    assert code == 2
    assert err.splitlines()[0].startswith("SignMismatch:")


# validate_model is the one family rule: argparse takes any int, and the model's
# typed error is the single stderr line README promises
@pytest.mark.parametrize("command", ["solve", "verify", "spectrum", "sweep"])
def test_family_outside_one_and_two_exits_with_one_line(capsys, command):
    code, out, err = run_cli([command, "--family", "3", "--lambda", "1"], capsys)
    assert (code, out) == (2, "")
    assert err == "InvalidParameter: the QES construction needs family 1 or 2, got 3\n"


# sweep checks its inputs before its loop: an empty m range no longer skips them
@pytest.mark.parametrize(
    "args, err",
    [
        (["--family", "1", "--lambda", "nan", "--m-max", "0"],
         "InvalidParameter: lambda must be finite as a float, got nan"),
        (["--family", "0", "--lambda", "1", "--m-max", "0"],
         "InvalidParameter: the QES construction needs family 1 or 2, got 0"),
        (["--family", "1", "--lambda", "1", "--L-list", "0,-1", "--m-max", "0"],
         "InvalidParameter: L = -1 must be >= 0"),
        (["--family", "1", "--lambda", "1", "--m-max", "-3"],
         "InvalidOrder: --m-max must be in [1, 60], got -3"),
        (["--family", "1", "--lambda", "1", "--m-max", "61"],
         "InvalidOrder: --m-max must be in [1, 60], got 61"),
    ],
    ids=["nan_lambda", "family_0", "negative_L", "negative_m_max", "m_max_past_60"],
)
def test_sweep_checks_every_input_before_its_loop(capsys, args, err):
    code, out, got = run_cli(["sweep", *args], capsys)
    assert (code, out, got) == (2, "", err + "\n")


def test_solve_json_output(capsys):
    code, out, _ = run_cli(
        ["solve", "--family", "1", "--m", "1", "--L", "1", "--lambda", "1", "--B", "1",
         "--format", "json"],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["E0"] == -15.5 and doc["E1"] == -1.5
    assert doc["spec"]["B"] == [-10.0, 1.0]
    assert doc["psi1"]["prefactor"] == [-5.0, 2.0]


def test_verify_passes_on_figure_config(capsys):
    code, out, _ = run_cli(
        ["verify", "--family", "2", "--m", "1", "--L", "1", "--lambda", "-1", "--B", "1"],
        capsys,
    )
    assert code == 0
    assert "overall: pass" in out


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_verify_passes_in_a_narrow_box(capsys):
    # the wall scales with |lambda|: at a fixed wall the cut fell inside psi0 here
    code, out, _ = run_cli(["verify", "--family", "2", "--m", "1", "--lambda", "-1000"], capsys)
    assert code == 0
    assert "overall: pass" in out


@pytest.mark.parametrize("family, lam", [("1", "1"), ("2", "-1")])
@pytest.mark.parametrize("L", ["0.1", "0.25"])
def test_verify_passes_below_L_one_half(capsys, family, lam, L):
    # u ~ x^(L+1) at the origin: the ladder fits E(h)'s h^(2L+1) term
    code, out, _ = run_cli(
        ["verify", "--family", family, "--m", "1", "--L", L, "--lambda", lam, "--B", "1"], capsys
    )
    assert code == 0
    assert "overall: pass" in out


def test_verify_json_format(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, _, _ = run_cli(
        ["verify", "--family", "1", "--m", "1", "--L", "0", "--lambda", "1", "--B", "4",
         "--format", "json", "--out", str(target)],
        capsys,
    )
    assert code == 0
    doc = json.loads(target.read_text())
    assert doc["passed"] is True
    names = {c["name"] for c in doc["checks"]}
    assert "riccati_v1" in names and "oracle_E0" in names
    # the oracle block says how well the compared values are known
    checks = {c["name"]: c["value"] for c in doc["checks"]}
    block = doc["oracle"]
    assert len(block["observed_order"]) == 2
    for name, estimate in zip(("oracle_E0", "oracle_E1"), block["error_estimate"]):
        assert checks[name] <= estimate <= 1e-6


def test_spectrum_command(capsys):
    code, out, _ = run_cli(
        ["spectrum", "--family", "1", "--m", "1", "--L", "1", "--lambda", "1", "--B", "1",
         "--k", "2"],
        capsys,
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "level,extrapolated,error_estimate"
    e0 = float(lines[1].split(",")[1])
    assert abs(e0 + 15.5) < 1e-4


def test_spectrum_command_takes_k_100(capsys):
    # the ladder starts where its coarsest grid keeps 4 k intervals: 625 at k = 100
    code, out, _ = run_cli(
        ["spectrum", "--family", "1", "--m", "1", "--L", "1", "--lambda", "1", "--B", "1",
         "--k", "100"],
        capsys,
    )
    assert code == 0
    assert len(out.strip().splitlines()) == 101


def test_spectrum_grid_too_coarse_exit_code(capsys):
    # the estimate of E1 = -1/4 at 2000 points is ~1.2e-8, above --tol
    code, _, err = run_cli(
        ["spectrum", "--family", "1", "--m", "1", "--L", "1/2", "--lambda", "1", "--B", "4",
         "--grid", "2000", "--tol", "1e-9"],
        capsys,
    )
    assert code == 2
    assert "GridTooCoarse:" in err


@pytest.mark.parametrize("tol", ["nan", "0", "-1e-6"])
def test_verify_rejects_tol_that_cannot_gate(capsys, tol):
    code, out, err = run_cli(
        ["verify", "--family", "2", "--m", "1", "--L", "1", "--lambda", "-1", "--B", "1",
         f"--tol={tol}"],
        capsys,
    )
    assert code == 2
    assert err.startswith("InvalidParameter: rtol must be a finite number > 0")
    assert out == ""


@pytest.mark.parametrize(
    "flag,value,name",
    [("--lambda", "inf", "lambda"), ("--B", "inf", "B_2m"), ("--B", "nan", "B_2m"),
     ("--L", "1e400", "L")],
)
def test_solve_rejects_non_finite_input(capsys, flag, value, name):
    args = {"--family": "1", "--m": "1", "--L": "1", "--lambda": "1", "--B": "1", flag: value}
    code, out, err = run_cli(["solve"] + [x for kv in args.items() for x in kv], capsys)
    assert code == 2
    assert err.startswith(f"InvalidParameter: {name} must be finite")
    assert err.count("\n") == 1
    assert out == ""


@pytest.mark.parametrize(
    "command, value, message",
    [("solve", "1e308", "E0 must be finite as a float"),
     ("sweep", "1e308", "E0 must be finite as a float"),
     ("verify", "1e200", "the potential is NaN over the whole wall scan at lambda=1e+200")],
)
def test_values_past_the_double_range_exit_with_one_line(capsys, command, value, message):
    # the CLI parses 1e308 as an exact Fraction: the exact lane's E0 leaves the double range;
    # at 1e200 lambda B_k overflows in the wall scan
    code, out, err = run_cli([command, "--family", "1", "--lambda", value, "--B", value], capsys)
    assert (code, out) == (2, "")
    assert err.startswith(f"InvalidParameter: {message}") and err.count("\n") == 1


def test_sweep_command(capsys):
    code, out, _ = run_cli(
        ["sweep", "--family", "1", "--lambda", "1", "--m-max", "2",
         "--L-list", "0,1", "--B-list", "1"],
        capsys,
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "m,L,B2m,E0,E1,delta_e,r0"
    assert len(lines) == 1 + 2 * 2 * 1


def test_sweep_json_matches_csv(capsys):
    args = ["sweep", "--family", "2", "--lambda", "-1", "--m-max", "2",
            "--L-list", "0,1/2", "--B-list", "1,4"]
    code, csv_out, _ = run_cli(args, capsys)
    assert code == 0
    code, json_out, _ = run_cli(args + ["--format", "json"], capsys)
    assert code == 0
    rows = json.loads(json_out)
    header, *lines = csv_out.strip().splitlines()
    assert len(rows) == len(lines) == 2 * 2 * 2
    keys = header.split(",")
    for row, line in zip(rows, lines):
        assert list(row) == keys
        assert [float(v) for v in line.split(",")] == [float(row[key]) for key in keys]


@pytest.mark.parametrize(
    "args, option",
    [(["solve", "--family", "1", "--lambda", "1", "--B", "1/0"], "--B"),
     (["solve", "--family", "1", "--lambda", "1", "--L", "3/0"], "--L"),
     (["sweep", "--family", "1", "--lambda", "1", "--B-list", "1,2/0"], "--B-list"),
     (["solve", "--family", "1", "--lambda", "-1/0"], "--lambda")],
)
def test_zero_denominator_is_a_usage_error(capsys, args, option):
    # Fraction raises ZeroDivisionError on a zero denominator; the parser must see a ValueError,
    # also where it tests whether a token after an option is a number: -1/0 is then not one,
    # and --lambda is left without its value
    with pytest.raises(SystemExit) as exc:
        main(args)
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert f"error: argument {option}: " in err and "Traceback" not in err


def test_figures_rejects_format(capsys, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["figures", "--format", "json", "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "--format" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_spectrum_json_names_the_method(capsys):
    code, out, _ = run_cli(
        ["spectrum", "--family", "2", "--m", "1", "--L", "1", "--lambda", "-1", "--B", "1",
         "--k", "2", "--format", "json"],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["method"] == "inverse_iteration"
    assert doc["grid_points"] < 20000
    assert len(doc["error_estimate"]) == len(doc["observed_order"]) == 2
    assert max(doc["error_estimate"]) <= 1e-6


# L = 1/4 configs at large B_2m whose estimates exceed each tol one level below the grid
ODD_GRID_CONFIGS = {
    "4001": ["--family", "1", "--m", "1", "--L", "1/4", "--lambda", "1", "--B", "40000"],
    "2501": ["--family", "1", "--m", "1", "--L", "1/4", "--lambda", "1", "--B", "10000"],
}


@pytest.mark.parametrize("grid, tol", [("4001", "2e-6"), ("2501", "4e-6")])
def test_verify_on_an_odd_grid(capsys, grid, tol):
    # an odd --grid halves to a level it is not nested with; the ladder still reaches it
    args = ["verify", *ODD_GRID_CONFIGS[grid], "--grid", grid]
    code, out, err = run_cli(args + ["--tol", tol], capsys)
    assert code == 0
    assert f"N = {grid}" in out
    # at the default --tol the estimate at N = grid exceeds 1e-6: a typed error, not a crash
    code, out, err = run_cli(args, capsys)
    assert (code, out) == (2, "")
    assert err.startswith("GridTooCoarse:") and len(err.splitlines()) == 1


def test_invalid_order_exit_code(capsys):
    code, _, err = run_cli(
        ["verify", "--family", "1", "--m", "0", "--L", "0", "--lambda", "1", "--B", "1"],
        capsys,
    )
    assert code == 2
    assert "InvalidOrder:" in err


@pytest.fixture(scope="module")
def figures_dir(tmp_path_factory):
    outdir = tmp_path_factory.mktemp("figs")
    assert main(["figures", "--out", str(outdir)]) == 0
    return outdir


def _read_csv(path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# figure")
    header = lines[1].split(",")
    data = np.array([[float(v) for v in ln.split(",")] for ln in lines[2:]])
    return header, data


def test_figures_exist_and_deterministic(figures_dir, tmp_path):
    names = ["fig1.csv", "fig2.csv", "fig3.csv", "fig4.csv"]
    for name in names:
        assert (figures_dir / name).exists()
    second = tmp_path / "again"
    assert main(["figures", "--out", str(second)]) == 0
    for name in names:
        assert (figures_dir / name).read_bytes() == (second / name).read_bytes()


def test_figures_match_committed_goldens(figures_dir):
    # regenerate with: python -m curvedqes.cli figures --out tests/golden
    golden = pathlib.Path(__file__).parent / "golden"
    for name in ["fig1.csv", "fig2.csv", "fig3.csv", "fig4.csv"]:
        assert (figures_dir / name).read_bytes() == (golden / name).read_bytes()


def test_fig1_centrifugal_dominates_first_row(figures_dir):
    header, data = _read_csv(figures_dir / "fig1.csv")
    assert header == ["r", "V_m1", "V_m2"]
    assert data.shape == (1000, 3)
    r0, v1 = data[0, 0], data[0, 1]
    assert r0 == pytest.approx(0.05)
    assert abs(v1 - 800.0) / 800.0 < 0.02  # L(L+1)/r^2 = 800 dominates


def test_fig2_excited_state_changes_sign_once(figures_dir):
    _, data = _read_csv(figures_dir / "fig2.csv")
    psi1 = data[:, 2]
    signs = np.sign(psi1[np.abs(psi1) > 1e-12])
    flips = np.nonzero(signs[:-1] != signs[1:])[0]
    assert len(flips) == 1
    r_flip = data[flips[0], 0]
    assert abs(r_flip - 1.58113883) < 0.005
    # peak-normalized on a denser grid than the export grid
    assert 0.999 < np.max(np.abs(psi1)) <= 1.0


def test_fig3_wall_divergence(figures_dir):
    _, data = _read_csv(figures_dir / "fig3.csv")
    v1 = data[:, 1]
    assert v1[-1] > 1e6
    assert np.all(np.diff(v1[-50:]) > 0)


def test_fig4_node_near_closed_form(figures_dir):
    _, data = _read_csv(figures_dir / "fig4.csv")
    psi1 = data[:, 2]
    signs = np.sign(psi1[np.abs(psi1) > 1e-12])
    flips = np.nonzero(signs[:-1] != signs[1:])[0]
    assert len(flips) == 1
    assert abs(data[flips[0], 0] - 0.6822591268) < 0.005


@pytest.mark.parametrize("command", ["solve", "verify", "spectrum", "sweep"])
@pytest.mark.parametrize("value", ["-1/4", "-2.5e-1"])
def test_negative_lambda_after_a_space(capsys, command, value):
    args = [command, "--family", "2"]
    spaced = run_cli(args + ["--lambda", value], capsys)
    assert spaced == run_cli(args + [f"--lambda={value}"], capsys)
    assert spaced[0] == 0


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("family, lam", [("1", "1e300"), ("2", "-1e300")])
def test_verify_oracle_matrix_out_of_range_exit_code(capsys, family, lam):
    code, out, err = run_cli(["verify", "--family", family, "--lambda", lam], capsys)
    assert code == 2 and out == ""
    assert err.splitlines()[0].startswith("InvalidParameter: the oracle matrix")


def test_verify_at_vanishing_curvature_exit_code(capsys):
    code, out, err = run_cli(["verify", "--family", "2", "--lambda", "-1e-300"], capsys)
    assert code == 2 and out == ""
    assert err == "NonNormalizable: squared norm evaluated to inf\n"
