import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def _library_example():
    text = README.read_text()
    section = text[text.index("## Library example"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_runs_as_documented(capsys):
    exec(compile(_library_example(), "README.md", "exec"), {})
    out = capsys.readouterr().out.splitlines()
    # the values its comments promise
    assert out[:2] == ["-9/2 75/2", "(-4, -9, 1, 1)"]
    assert 0.0 < float(out[2]) < 1.0
    assert out[-1].strip() == "overall: pass"
