import copy
import importlib.util
import json
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
# tools is not a package: load the gate script from its file
_spec = importlib.util.spec_from_file_location("bench_gates", ROOT / "tools" / "bench_gates.py")
bench_gates = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_gates)


@pytest.fixture(scope="module")
def committed():
    return {p.name: json.loads(p.read_text()) for p in ROOT.glob("BENCH_*.json")}


def _row(m, **fields):
    return {"family": 1, "m": m, "L": "0", "B2m": "1", "lambda": "1", "outcome": "pass",
            "grid_points": 312, "x_max": "0x1.0p+2", "warnings": {}, **fields}


def _uncut(m, **fields):
    """A row of a file from before rows recorded their cut."""
    row = _row(m, **fields)
    del row["x_max"]
    return row


def _doc(configs=None, probe=None, untraced=()):
    doc = {"configs": configs if configs is not None else [_row(1)], "untraced": list(untraced)}
    if probe is not False:
        doc["probe"] = {"configs": probe if probe is not None else [
            _row(2), _row(3, outcome="error", grid_points=None, x_max=None, error="DomainError",
                       message="outside", error_module="curvedqes.errors")]}
    return doc


def _offending(docs, now):
    return {name: found for name, _, found in bench_gates.gates(docs, now) if found}


def test_the_newest_committed_file_gated_against_itself_passes_every_gate(committed):
    # every committed file has configs, so each gate reads the newest file, BENCH_39.json
    results = bench_gates.gates(committed, committed["BENCH_39.json"])
    assert len(results) == 7
    for name, refs, found in results:
        assert found == [], name
        assert refs in ([], ["BENCH_39.json"]), name


def _lose_matrix_pass(doc):
    doc["configs"][0]["outcome"] = "fail"


def _drop_matrix_row(doc):
    doc["configs"].clear()


def _lose_probe_pass(doc):
    doc["probe"]["configs"][0]["outcome"] = "error"
    doc["probe"]["configs"][0]["error_module"] = "curvedqes.errors"


def _untyped_error(doc):
    doc["probe"]["configs"][1]["error_module"] = "numpy.linalg"


def _new_warning(doc):
    doc["probe"]["configs"][0]["warnings"]["TruncationWarning"] = 1


def _climb(doc):
    doc["configs"][0]["grid_points"] = 625


def _move_cut(doc):
    doc["probe"]["configs"][0]["x_max"] = "0x1.0000000000001p+2"


def _untrace(doc):
    doc["untraced"].append("oracle.brentq")


@pytest.mark.parametrize("mutate, gate, key", [
    (_lose_matrix_pass, 0, ("configs", 1, 1)),
    (_drop_matrix_row, 0, ("configs", 1, 1)),
    (_lose_probe_pass, 1, ("probe", 1, 2)),
    (_untyped_error, 2, ("probe", 1, 3)),
    (_new_warning, 3, ("probe", 1, 2)),
    (_climb, 4, ("configs", 1, 1)),
    (_move_cut, 5, ("probe", 1, 2)),
    (_untrace, 6, ("oracle.brentq",)),
])
def test_each_mutation_trips_its_gate_alone_and_names_the_row(mutate, gate, key):
    before = _doc()
    now = copy.deepcopy(before)
    mutate(now)
    assert _offending({"BENCH_1.json": before}, before) == {}
    names = [name for name, _, _ in bench_gates.gates({"BENCH_1.json": before}, now)]
    [(name, [row])] = _offending({"BENCH_1.json": before}, now).items()
    assert name == names[gate]
    assert row[row.index(key[0]):][:len(key)] == key, row


def test_a_runtime_warning_is_gated_in_the_run_alone():
    before = _doc()
    now = copy.deepcopy(before)
    now["configs"][0]["warnings"]["RuntimeWarning"] = 2
    found = _offending({"BENCH_1.json": before}, now)
    names = [name for name, _, _ in bench_gates.gates({}, now)]
    # a category the reference row lacks is also a new warning category
    assert set(found) == {names[2], names[3]}
    assert found[names[2]] == [("configs", 1, 1, "0", "1", "1", "RuntimeWarning", 2)]


def test_newest_reads_the_highest_number_that_holds_the_field():
    # BENCH_10 is newer than BENCH_9 by number, not by name, and records no probe and no
    # cut: the probe and the cuts are read against BENCH_9, the rest against BENCH_10, and
    # no gate reads BENCH_8, whose row fails and whose untraced list lacks what the run's has
    cut = _row(1, x_max="0x1.8p+1")
    docs = {"BENCH_8.json": _doc(configs=[_row(1, outcome="fail")]),
            "BENCH_9.json": _doc(configs=[cut]),
            "BENCH_10.json": _doc(configs=[_uncut(1, grid_points=625)], probe=False, untraced=["oracle.quad"])}
    assert bench_gates.newest(docs, lambda doc: "probe" in doc) == "BENCH_9.json"
    assert bench_gates.newest(docs, lambda doc: "nothing" in doc) is None
    run = _doc(configs=[cut], untraced=["oracle.quad"])
    both = ["BENCH_10.json", "BENCH_9.json"]
    assert [refs for _, refs, _ in bench_gates.gates(docs, run)] == [
        ["BENCH_10.json"], ["BENCH_9.json"], [], both, both, ["BENCH_9.json"], ["BENCH_10.json"]]
    assert _offending(docs, run) == {}
    moved = _offending(docs, _doc(configs=[_row(1)], untraced=["oracle.quad"]))
    assert [row[:3] for rows in moved.values() for row in rows] == [("BENCH_9.json", "configs", 1)]


def test_a_section_no_file_records_is_skipped():
    # no committed file records a cut: the cut gate reads nothing and passes
    docs = {"BENCH_1.json": _doc(configs=[_uncut(1)], probe=False)}
    name, refs, found = bench_gates.gates(docs, _doc())[5]
    assert (refs, found) == ([], [])


def test_main_reports_every_gate_and_exits_1_on_an_offending_row(committed, tmp_path, capsys):
    run = copy.deepcopy(committed["BENCH_39.json"])
    (tmp_path / "b.json").write_text(json.dumps(run))
    assert bench_gates.main([str(tmp_path / "b.json")]) == 0
    run["untraced"].append("oracle.brentq")
    (tmp_path / "b.json").write_text(json.dumps(run))
    capsys.readouterr()
    assert bench_gates.main([str(tmp_path / "b.json")]) == 1
    out = capsys.readouterr().out.splitlines()
    assert sum(": 0 offending rows against" in line for line in out) == 6
    assert out[-2:] == ["No patch point the newest BENCH file traces is untraced: 1 offending "
                        "rows against BENCH_39.json", "('BENCH_39.json', 'oracle.brentq')"]


def test_a_committed_file_given_as_the_run_is_not_its_own_reference(capsys):
    assert bench_gates.main([str(ROOT / "BENCH_39.json")]) == 0
    assert capsys.readouterr().out.splitlines()[0].endswith("against BENCH_36.json")
