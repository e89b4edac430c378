"""Gate a BENCH trajectory run against the committed BENCH_<pr>.json files.

Run on a file written by tools/bench_trajectory.py:

    python3 tools/bench_trajectory.py --out /tmp/b.json && python3 tools/bench_gates.py /tmp/b.json

Rows are matched on (family, m, L, B2m, lambda), in the matrix section
("configs") and the probe section ("probe"). Each gate but the third reads
the newest committed file that holds what it compares (newest); the run
itself is never its own reference. The script prints every gate's count of
offending rows, its reference files and the rows, and exits 1 if any gate
found one. It reads JSON only.
"""

from __future__ import annotations

import argparse
import json
import operator
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
KEY = ("family", "m", "L", "B2m", "lambda")
SECTIONS = ("configs", "probe")


def rows(doc: dict, section: str) -> dict:
    """The rows of one section of a BENCH file by key; none for a file without a probe."""
    found = doc.get("probe", {}).get("configs", []) if section == "probe" else doc["configs"]
    return {tuple(r[k] for k in KEY): r for r in found}


def newest(docs: dict, has) -> str | None:
    """The name of the highest-numbered file of docs (name -> contents) for which has holds."""
    return max((name for name, doc in docs.items() if has(doc)),
               key=lambda name: int(name[len("BENCH_"):-len(".json")]), default=None)


def against(docs: dict, now: dict, sections, offends, field: str | None = None) -> tuple:
    """(reference files, offending rows) of a gate that reads each section of the run against
    the newest file holding it, and whose rows record field if one is given: a row offends
    where offends(its row there or None, its row in the run or None) names what moved."""
    refs, found = [], []
    for section in sections:
        ref = newest(docs, lambda d: section in d
                     and (field is None or any(field in r for r in rows(d, section).values())))
        if ref is None:
            continue
        refs.append(ref)
        before, after = rows(docs[ref], section), rows(now, section)
        for key in {**before, **after}:
            moved = offends(before.get(key), after.get(key))
            if moved:
                found.append((ref, section, *key, *moved))
    return sorted(set(refs)), found


def lost(then, now):
    """A row that passes there and not in the run, a missing row included."""
    outcome = (now or {}).get("outcome", "missing")
    return then and then["outcome"] == "pass" and outcome != "pass" and [outcome]


def new_warnings(then, now):
    """The warning categories a row records in the run and not there."""
    return then and now and sorted(set(now["warnings"]) - set(then["warnings"]))


def worse(field: str, compare):
    """A row whose field is compare(there, in the run), with no null on either side."""
    def offends(then, now):
        a, b = (then or {}).get(field), (now or {}).get(field)
        return a is not None and b is not None and compare(a, b) and [a, b]
    return offends


def gates(docs: dict, now: dict) -> list:
    """[(name, reference files, offending rows)] of every gate of the run now against docs,
    the committed files by name, under the names of CI's bench-outcomes steps."""
    run = [(section, key, r) for section in SECTIONS for key, r in rows(now, section).items()]
    traced = newest(docs, lambda d: "untraced" in d)
    untraced = set(now["untraced"]) - set(docs[traced]["untraced"]) if traced else set()
    return [
        ("Every config that passes in the newest BENCH file passes",
         *against(docs, now, ["configs"], lost)),
        ("Every probe config that passes in the newest BENCH file with a probe passes",
         *against(docs, now, ["probe"], lost)),
        ("No config ends in an untyped exception or records a RuntimeWarning", [],
         [(section, *key, r["error"], r["message"]) for section, key, r in run
          if r["outcome"] == "error" and r["error_module"] != "curvedqes.errors"]
         + [(section, *key, "RuntimeWarning", r["warnings"]["RuntimeWarning"])
            for section, key, r in run if "RuntimeWarning" in r["warnings"]]),
        ("No config records a warning category its row in the newest BENCH file does not",
         *against(docs, now, SECTIONS, new_warnings)),
        ("No config certifies at a larger N than its row in the newest BENCH file",
         *against(docs, now, SECTIONS, worse("grid_points", operator.lt))),
        ("No config's cut moves from its row in the newest BENCH file that records cuts",
         *against(docs, now, SECTIONS, worse("x_max", operator.ne), field="x_max")),
        ("No patch point the newest BENCH file traces is untraced", [traced] if traced else [],
         [(traced, name) for name in sorted(untraced)]),
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("run", type=pathlib.Path, help="the file bench_trajectory.py wrote")
    run = parser.parse_args(argv).run
    docs = {p.name: json.loads(p.read_text()) for p in ROOT.glob("BENCH_*.json")
            if p.resolve() != run.resolve()}
    results = gates(docs, json.loads(run.read_text()))
    for name, refs, found in results:
        print(f"{name}: {len(found)} offending rows against {', '.join(refs) or run}", *found,
              sep="\n")
    return 1 if any(found for _, _, found in results) else 0


if __name__ == "__main__":
    sys.exit(main())
