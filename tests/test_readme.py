import pathlib
import re
import shlex

from curvedqes import cli

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def _block(heading, lang):
    text = README.read_text()
    section = text[text.index(heading):]
    return re.search(rf"```{lang}\n(.*?)```", section, re.S).group(1)


def _cli_commands():
    lines = _block("## CLI", "sh").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("curvedqes ")]


def test_library_example_runs_as_documented(capsys):
    exec(compile(_block("## Library example", "python"), "README.md", "exec"), {})
    out = capsys.readouterr().out.splitlines()
    # the values its comments promise
    assert out[:2] == ["-9/2 75/2", "(-4, -9, 1, 1)"]
    assert 0.0 < float(out[2]) < 1.0
    assert out[-1].strip() == "overall: pass"


def test_cli_block_runs_as_documented(capsys, tmp_path):
    commands = _cli_commands()
    assert [argv[0] for argv in commands] == ["solve", "verify", "spectrum", "sweep", "figures"]
    for argv in commands:
        if argv[0] == "figures":
            argv[argv.index("--out") + 1] = str(tmp_path)
        assert cli.main(argv) == 0, argv
        out = capsys.readouterr().out
        if argv[0] == "solve":
            # the energies its comment promises: E0 = -31/2, E1 = -3/2
            assert "E0     = -15.5" in out.splitlines()
            assert "E1     = -1.5" in out.splitlines()
    assert sorted(p.name for p in tmp_path.iterdir()) == [f"fig{i}.csv" for i in range(1, 5)]


def _error_bullet(name):
    return README.read_text().split(f"- `{name}`:")[1].split("\n- ")[0]


def test_error_list_names_the_oracle_range_limits():
    # oracle._stencil's limit, the norm's at vanishing curvature, and the window of
    # the oracle helpers
    assert "oracle matrix" in _error_bullet("InvalidParameter")
    assert "lambda = -1e-300" in _error_bullet("NonNormalizable")
    window = _error_bullet("DomainError")
    assert "NaN" in window and all(name in window for name in
                                   ("find_nodes", "quadrature_norm", "overlap"))
