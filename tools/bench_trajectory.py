"""Write a BENCH trajectory file: verification time, outcome and layer times per config.

Run from the root of the repository:

    python3 tools/bench_trajectory.py --out BENCH_24.json

The library is imported from ./src, on one thread. The config matrix is fixed:
both families (lambda = +1 and -1 times |lambda|), m in ORDERS and each
(L, B_2m, |lambda|) of PAIRS, which hold L = 1/10 and 1/2, |lambda| = 1e-3 and
1e3, and the stratum B_2m in {1e-4, 1e6}, L in {25, 100}, where some inputs
do not verify. Every outcome is recorded; none is filtered out.

For each config the file records:

* verify_ms: the median over REPEATS calls of run_verification(rtol=1e-6),
  the call `curvedqes verify` makes, failed calls included with their time;
* outcome: "pass", "fail" with the failing checks, or "error" with the type
  of the exception raised;
* grid_points: the N the oracle certified (null on an error);
* x_max: the arc cut of the oracle's grid, the wall scan's, as float.hex
  (null on an error), so that a cut that moves by one bit shows;
* warnings: the warnings the first timed call raised, counted by the name
  of their category; no warning is silenced;
* layers_self_ms: the self time of each span of perfbench/layers.py in one
  further call, traced;
* estimate_ratio: oracle_E0 and oracle_E1, the relative errors of the
  oracle's extrapolated E0 and E1 against the closed form, each over the
  oracle's own error_estimate for it (absent on an error). Above 1, the
  estimate did not bound the error.

An error also records its message and the module of its type (error_module):
every typed error of the library is from curvedqes.errors. Each section
records as `check_max` the largest value of every check over its configs
that return a report (NaN values left out), so the check values that moved
between two files can be read from them, and as `grid_points_counts` how
many of those configs certified each N, so a change that moves the ladder
shows in one line.

The file's `probe` section is the input-space probe, outcomes only: both
families at lambda = +-1, m in PROBE_ORDERS, L in PROBE_L and B_2m in
PROBE_B, one untimed run_verification(rtol=1e-6) each, recorded as above
without times or layers. The script prints its outcome counts, the configs
with each warning category, the largest estimate ratio, the count of
configs per certified N and check_max.

Once per file it records the throughput of general_two_state over the sweep
workload's inputs (m = 1..60, both families, each L), one figure per lane
(rational or irrational sqrt(B_2m)), and the median wall time of a fresh
`python -m curvedqes.cli verify` process. It also lists as `untraced` the
patch points of perfbench/layers.py that the library no longer has: their
spans are absent from layers_self_ms, as if they took no time.

Every time is scaled to perfbench's reference host speed: after each call
the script times chunks of perfbench/hostspeed.py's kernel for a tenth of the
call's time, and multiplies the times of a config (or a lane) by the
reference chunk time over the median chunk time of its own calls
(`host_speed_factor`), so that a drift of the shared host's speed over the
run scales each config by its own factor. Each start-up time is scaled by
kernel chunks timed right after its process, and the median is also given
unscaled. The benchmark's files are imported, never changed.

Per-config times come from one file each and carry the shared host's
swings; a speed claim rests on paired runs of perfbench/run.py, and these
files show where the time goes and which configs verify.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import itertools
import json
import math
import platform
import statistics
import subprocess
import sys
import warnings
from collections import Counter
from fractions import Fraction
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import curvedqes  # noqa: E402
from hostspeed import REFERENCE_CHUNK_S, HostSpeed  # noqa: E402
from layers import Tracer  # noqa: E402
from workloads import EXACT_B, FLOAT_B, L_SET, MAX_ORDER, VERIFY_RTOL  # noqa: E402

ORDERS = (1, 2, 4, 8, 16, 30, 60)
PAIRS = (  # (L, B_2m, |lambda|)
    (0, 1, 1),
    (Fraction(1, 10), Fraction(9, 4), 1),
    (Fraction(1, 2), 2, 1),
    (1, 4, 1e-3),
    (1, 3, 1e3),
    (25, 1e-4, 1),
    (100, 1e-4, 1),
    (25, 1e6, 1),
    (100, 1e6, 1),
)
PROBE_ORDERS = (1, 8, 30, 60)
PROBE_L = (0, Fraction(1, 100), Fraction(3, 10), Fraction(5, 4), Fraction(3, 2), Fraction(5, 2),
           7, 25, 100)
PROBE_B = (1e-4, 1e-2, 1e2, 1e4, 1e6)
KEY = ("family", "m", "L", "B2m", "lambda")
REPEATS = 5  # timed calls per config
LANE_PASSES = 3  # passes over each general_two_state lane
KERNEL_SHARE = 0.1  # reference-kernel time after each call, as a share of its time
STARTUP_REPEATS = 7
STARTUP_KERNEL_S = 0.15  # kernel time that scales each start-up time
STARTUP_ARGS = ("verify", "--family", "1", "--m", "4", "--L", "0", "--lambda", "1", "--B", "1")


def timed(speed: HostSpeed, fn, *args):
    """(seconds, result or None, exception or None) of one call, then kernel chunks."""
    t0 = perf_counter()
    try:
        result, error = fn(*args), None
    except Exception as exc:  # an outcome to record, never fatal
        result, error = None, exc
    elapsed = perf_counter() - t0
    speed.sample(elapsed * KERNEL_SHARE)
    return elapsed, result, error


def verify(family, m, L, B2m, lam):
    return curvedqes.verify.run_verification(family, m, L, B2m, lam, rtol=VERIFY_RTOL)


def outcome(report, error) -> dict:
    if error is not None:
        return {"outcome": "error", "error": type(error).__name__,
                "error_module": type(error).__module__, "message": str(error), "grid_points": None,
                "x_max": None}
    failed = [c.name for c in report.checks if not c.passed]
    values = {c.name: c.value for c in report.checks}
    ratios = {name: values[name] / est if est > 0 else None
              for name, est in zip(("oracle_E0", "oracle_E1"), report.oracle_error_estimate)}
    return {"outcome": "fail" if failed else "pass", "failed_checks": failed,
            "grid_points": report.grid_points, "x_max": report.x_max.hex(),
            "estimate_ratio": ratios}


def fold_checks(check_max: dict, report) -> None:
    """Raise check_max to each check value of report (None on an error); NaN is left out."""
    if report is None:
        return
    for c in report.checks:
        if not math.isnan(c.value):
            check_max[c.name] = max(check_max.get(c.name, c.value), c.value)


def config_row(family, m, L, B2m, lam) -> dict:
    return dict(zip(KEY, (family, m, str(L), str(B2m), str(lam))))


def warning_counts(caught) -> dict:
    return dict(sorted(Counter(w.category.__name__ for w in caught).items()))


def traced_layers(args) -> dict:
    """Self time in seconds of every span of one traced call, unscaled."""
    tracer = Tracer()
    with tracer.installed(curvedqes):
        tracer.recording = True
        try:
            verify(*args)
        except Exception:  # its outcome was recorded untraced
            pass
        tracer.recording = False
    return {name: st.self_s for name, st in sorted(tracer.spans.items()) if st.calls}


def untraced() -> list:
    """The patch points perfbench/layers.py names and the library no longer has."""
    tracer = Tracer()
    with tracer.installed(curvedqes):
        pass
    return sorted(tracer.missing)


def factor(speed: HostSpeed) -> float:
    return REFERENCE_CHUNK_S / statistics.median(speed.chunks)


def run_configs() -> tuple:
    """(rows, check_max) of the config matrix."""
    rows, check_max = [], {}
    for family in (1, 2):
        for m in ORDERS:
            for L, B2m, alam in PAIRS:
                args = (family, m, L, B2m, alam if family == 1 else -alam)
                speed, times = HostSpeed(), []
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    for i in range(REPEATS):
                        elapsed, report, error = timed(speed, verify, *args)
                        times.append(elapsed)
                        if i == 0:
                            counts = warning_counts(caught)
                    layers = traced_layers(args)
                scale = factor(speed)
                row = config_row(*args)
                row["verify_ms"] = statistics.median(times) * scale * 1e3
                row.update(outcome(report, error))
                row["warnings"] = counts
                row["layers_self_ms"] = {name: t * scale * 1e3 for name, t in layers.items()}
                row["host_speed_factor"] = scale
                rows.append(row)
                fold_checks(check_max, report)
                print(json.dumps({k: row[k] for k in (*KEY, "outcome")}), file=sys.stderr,
                      flush=True)
    return rows, check_max


def run_probe() -> tuple:
    """(rows, check_max): one untimed run_verification per probe config, its outcome,
    warnings and estimate ratios."""
    rows, check_max = [], {}
    for family, m, L, B2m in itertools.product((1, 2), PROBE_ORDERS, PROBE_L, PROBE_B):
        args = (family, m, L, B2m, 1 if family == 1 else -1)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                report, error = verify(*args), None
            except Exception as exc:  # an outcome to record, never fatal
                report, error = None, exc
        row = config_row(*args)
        row.update(outcome(report, error))
        row["warnings"] = warning_counts(caught)
        rows.append(row)
        fold_checks(check_max, report)
    return rows, check_max


def grid_counts(rows) -> dict:
    """How many rows certified each N, smallest N first; rows that raised have none."""
    counts = Counter(row["grid_points"] for row in rows if row["grid_points"] is not None)
    return {str(n): counts[n] for n in sorted(counts)}


def summary(name, rows, check_max) -> str:
    """Outcome counts, the configs with each warning category, the largest estimate ratio,
    the count of configs per certified N and the largest value of each check."""
    outcomes = Counter(row["outcome"] for row in rows)
    warned = Counter(category for row in rows for category in row["warnings"])
    ratios = [(ratio, check, tuple(row[k] for k in KEY)) for row in rows
              for check, ratio in row.get("estimate_ratio", {}).items() if ratio is not None]
    above = sum(ratio > 1 for ratio, _, _ in ratios)
    worst = max(ratios, default=None)
    return (f"{name}: {dict(sorted(outcomes.items()))}, configs warned "
            f"{dict(sorted(warned.items()))}, {above} of {len(ratios)} estimate ratios above 1, "
            f"largest {worst}, configs per certified N {grid_counts(rows)}, check_max "
            + ", ".join(f"{check} {value:.3g}" for check, value in check_max.items()))


def lane_throughput(lane) -> float:
    """Scaled ops per second of general_two_state over m = 1..MAX_ORDER, both families, L_SET x lane."""
    speed, ops, total = HostSpeed(), 0, 0.0
    for _ in range(LANE_PASSES):
        for family in (1, 2):
            lam = 1 if family == 1 else -1
            for m in range(1, MAX_ORDER + 1):
                for L in L_SET:
                    for B2m in lane:
                        elapsed, _, error = timed(
                            speed, curvedqes.twostate.general_two_state, family, m, L, B2m, lam
                        )
                        if error is not None:
                            raise error
                        ops += 1
                        total += elapsed
    return ops / (total * factor(speed))


def startup_seconds() -> tuple:
    """Median wall time of a fresh `python -m curvedqes.cli verify` process: (scaled, unscaled)."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    times, scaled = [], []
    for _ in range(STARTUP_REPEATS):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-m", "curvedqes.cli", *STARTUP_ARGS], cwd=ROOT, env=env,
                       check=True, stdout=subprocess.DEVNULL)
        times.append(perf_counter() - t0)
        speed = HostSpeed()
        speed.sample(STARTUP_KERNEL_S)
        scaled.append(times[-1] * factor(speed))
    return statistics.median(scaled), statistics.median(times)


def source_version() -> str | None:
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=ROOT,
                             capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def environment() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "source": source_version(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, required=True, help="the JSON file to write")
    args = parser.parse_args(argv)

    verify(1, 4, 0, 1, 1)  # warm-up: imports and the LAPACK load
    rows, check_max = run_configs()
    probe, probe_check_max = run_probe()
    startup, startup_raw = startup_seconds()
    doc = {
        "env": environment(),
        "matrix": {"orders": ORDERS, "pairs": [[str(v) for v in p] for p in PAIRS],
                   "repeats": REPEATS, "rtol": VERIFY_RTOL},
        "configs": rows,
        "check_max": check_max,
        "grid_points_counts": grid_counts(rows),
        "probe": {"orders": PROBE_ORDERS, "L": [str(L) for L in PROBE_L],
                  "B2m": [str(B) for B in PROBE_B], "rtol": VERIFY_RTOL, "configs": probe,
                  "check_max": probe_check_max, "grid_points_counts": grid_counts(probe)},
        "general_two_state_ops_per_s": {
            name: lane_throughput(lane) for name, lane in (("exact", EXACT_B), ("float", FLOAT_B))
        },
        "startup_verify_s": startup,
        "startup_verify_s_unscaled": startup_raw,
        "untraced": untraced(),
    }
    args.out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {args.out}", summary("configs", rows, check_max),
          summary("probe", probe, probe_check_max), sep="\n", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
