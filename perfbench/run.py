"""curvedqes benchmark: replay a seeded sequence of build-and-certify ops.

Run from the root of the repository:

    python3 perfbench/run.py --workload verify-low --seed 1 --seconds 10 --trace 0

The library is imported from ./src, in this one process and on one thread
(the BLAS/OpenMP pools are pinned to one thread). The loop is closed with a
single client: the next op starts when the previous one has returned. A run
takes whole passes of the workload's seeded op sequence (see workloads.py):
at least one, and another only while it is due to end within --seconds,
judged by the length of the pass before it. It checks the output of every op.

Every time below is scaled to a reference host speed. After each op the run
times chunks of a fixed reference kernel that does not touch the library
(hostspeed.py), for a tenth of the op's time and at least one chunk; a time
is reported multiplied by the reference chunk time over the median chunk time
of its phase. This takes out most of the swings in speed of the shared host
the benchmark runs on. The unscaled values and the factor are printed on the
line before the result.

--trace 0 prints the end-to-end metrics:

* setup_s: median over fresh processes of the time from launch to the end of
  one warm-up op (imports of numpy, scipy and curvedqes included), each
  scaled by kernel chunks the process times right after it;
* ops_per_s: ops attempted per second of time spent in ops;
* op_ms_p50, op_ms_p90: op latency, failed ops included with their time;
* pass_frac: share of ops that passed. An op fails when it raises, when its
  report has passed=False, or when its output differs from reference.json;
  fail_frac = 1 - pass_frac. It is reported as the passing share because a
  workload where nothing fails must still give a non-zero figure;
* peak_rss_mb: peak resident set size of the measuring process.

--trace 1 runs the same sequence twice, with half of --seconds each: once as
above, then with the per-layer spans of layers.py installed, and prints the
per-layer metrics (means per traced op) and trace.overhead_pct, which
compares the scaled medians of the two phases.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. `correct` is false when any op returned a
wrong closed-form value; failing ops that report their failure are counted
in `failed` and in pass_frac instead.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import select
import statistics
import subprocess
import sys
import warnings
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy

from layers import OTHER_METRICS, Tracer
from workloads import WORKLOADS, call, check, load_reference, oracle_relerr

# hostspeed is imported inside the functions that use it: it imports
# scipy.linalg, which a set-up probe must load through the library alone.

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
# reference-kernel time after each op, as a share of the op's time
KERNEL_SHARE = 0.1
# reference-kernel time of each set-up probe
PROBE_KERNEL_S = 0.15
PROBE_TIMEOUT_S = 60
# numpy's own defaults, stated so that a caller's settings cannot change the count
ERRSTATE = {"divide": "warn", "over": "warn", "invalid": "warn", "under": "ignore"}


def import_library():
    """Import curvedqes from ./src; exit with a non-zero code when it is not there."""
    sys.path.insert(0, str(SRC))
    try:
        import curvedqes
    except ImportError as exc:
        sys.exit(f"cannot import curvedqes from {SRC}: {exc}")
    if SRC.resolve() not in Path(curvedqes.__file__).resolve().parents:
        sys.exit(f"curvedqes was imported from {curvedqes.__file__}, not from {SRC}")
    return curvedqes


@dataclass
class Phase:
    speed: object  # the HostSpeed of this phase
    latencies: list = field(default_factory=list)  # seconds, one per op, unscaled
    failures: Counter = field(default_factory=Counter)
    mismatches: int = 0
    warnings: int = 0
    relerr_max: float | None = None

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    def scaled(self) -> list:
        """Op latencies in seconds, scaled to the reference host speed."""
        factor = self.speed.factor()
        return [t * factor for t in self.latencies]


def percentile_ms(latencies: list, q: int) -> float:
    if len(latencies) == 1:
        return latencies[0] * 1e3
    return statistics.quantiles(latencies, n=100, method="inclusive")[q - 1] * 1e3


def timed_op(lib, kind, cfg, tracer=None):
    """(seconds, result or None, exception name or None, warnings caught) of one op."""
    with warnings.catch_warnings(record=True) as caught, np.errstate(**ERRSTATE):
        warnings.simplefilter("always")
        result, error = None, None
        if tracer is not None:
            tracer.recording = True
        t0 = perf_counter()
        try:
            result = call(lib, kind, cfg)
        except Exception as exc:  # a failing op is counted, never fatal
            error = type(exc).__name__
        elapsed = perf_counter() - t0
        if tracer is not None:
            tracer.recording = False
    return elapsed, result, error, len(caught)


def run_phase(lib, workload, seed: int, seconds: float, reference, tracer=None) -> Phase:
    from hostspeed import HostSpeed

    phase = Phase(HostSpeed())
    start = perf_counter()
    for ops in workload.passes(seed):
        pass_start = perf_counter()
        for cfg in ops:
            elapsed, result, error, n_warn = timed_op(lib, workload.kind, cfg, tracer)
            phase.speed.sample(elapsed * KERNEL_SHARE)
            phase.latencies.append(elapsed)
            phase.warnings += n_warn
            if error is not None:
                phase.failures[error] += 1
                continue
            reason, mismatch = check(lib, workload.kind, cfg, result, reference)
            if reason is not None:
                phase.failures[reason] += 1
            phase.mismatches += mismatch
            if workload.kind == "verify":
                rel = oracle_relerr(result)
                if rel is not None and (phase.relerr_max is None or rel > phase.relerr_max):
                    phase.relerr_max = rel
        now = perf_counter()
        if (now - start) + (now - pass_start) > seconds:
            return phase


def setup_probe(workload) -> None:
    """Body of one set-up probe process: import, run the warm-up op, say so,
    then print the median chunk time of the reference kernel."""
    lib = import_library()
    timed_op(lib, workload.kind, workload.warmup)
    print("ready", flush=True)
    from hostspeed import HostSpeed, kernel_chunk

    kernel_chunk()  # first call, not timed
    speed = HostSpeed()
    speed.sample(PROBE_KERNEL_S)
    print(statistics.median(speed.chunks), flush=True)


def measure_setup(name: str) -> tuple[float, float]:
    """Median over fresh probe processes of the time from launch to the end of
    the warm-up op: (scaled, unscaled)."""
    from hostspeed import REFERENCE_CHUNK_S

    times, scaled = [], []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload", name],
            cwd=ROOT,
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            ready, _, _ = select.select([proc.stdout], [], [], PROBE_TIMEOUT_S)
            line = proc.stdout.readline() if ready else ""
            elapsed = perf_counter() - t0
            rest, _ = proc.communicate(timeout=PROBE_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if proc.returncode != 0 or line.strip() != "ready":
            sys.exit(f"set-up probe failed with exit code {proc.returncode}")
        times.append(elapsed)
        scaled.append(elapsed * REFERENCE_CHUNK_S / float(rest))
    return statistics.median(scaled), statistics.median(times)


def environment(args) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "threads": {v: os.environ[v] for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def end_to_end(phase: Phase, setup_s: float, latencies: list) -> dict:
    n = len(latencies)
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "ops_per_s": {"value": n / sum(latencies), "unit": "1/s"},
        "op_ms_p50": {"value": statistics.median(latencies) * 1e3, "unit": "ms"},
        "op_ms_p90": {"value": percentile_ms(latencies, 90), "unit": "ms"},
        "pass_frac": {"value": (n - phase.failed) / n, "unit": "fraction"},
        "peak_rss_mb": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "unit": "MB",
        },
    }


def per_layer(plain: Phase, traced: Phase, tracer: Tracer) -> dict:
    n = len(traced.latencies)
    out = tracer.metrics(n)
    relerr = [p.relerr_max for p in (plain, traced) if p.relerr_max is not None]
    units = {name: unit for name, unit, _better, _moves in OTHER_METRICS}
    overhead = (statistics.median(traced.scaled()) / statistics.median(plain.scaled()) - 1.0) * 100.0
    out["verify.warnings.count"] = {"value": traced.warnings / n, "unit": units["verify.warnings.count"]}
    # 0 on sweep, which produces no verification reports
    out["oracle.relerr_max"] = {"value": max(relerr, default=0.0), "unit": units["oracle.relerr_max"]}
    out["trace.overhead_pct"] = {"value": overhead, "unit": units["trace.overhead_pct"]}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    if args.setup_probe:
        setup_probe(workload)
        return 0
    if args.seed is None or args.seconds is None or args.seconds <= 0:
        parser.error("--seed and a positive --seconds are required")

    lib = import_library()
    reference = load_reference()
    print(json.dumps({"env": environment(args)}), flush=True)

    if args.trace:
        timed_op(lib, workload.kind, workload.warmup)
        plain = run_phase(lib, workload, args.seed, args.seconds / 2, reference)
        tracer = Tracer()
        with tracer.installed(lib):
            traced = run_phase(lib, workload, args.seed, args.seconds / 2, reference, tracer)
        if tracer.missing:
            print(json.dumps({"untraced": tracer.missing}), flush=True)
        phases = (plain, traced)
        metrics = per_layer(plain, traced, tracer)
    else:
        setup_s, setup_raw = measure_setup(args.workload)
        timed_op(lib, workload.kind, workload.warmup)
        phase = run_phase(lib, workload, args.seed, args.seconds, reference)
        phases = (phase,)
        metrics = end_to_end(phase, setup_s, phase.scaled())
        raw = end_to_end(phase, setup_raw, phase.latencies)
        print(json.dumps({
            "unscaled": {k: v["value"] for k, v in raw.items() if v["unit"] in ("s", "1/s", "ms")},
            "host_speed_factor": phase.speed.factor(),
            "kernel_chunks": len(phase.speed.chunks),
        }), flush=True)

    failures = sum((p.failures for p in phases), Counter())
    print(json.dumps({"failures": dict(sorted(failures.items()))}), flush=True)
    print(json.dumps({
        "correct": all(p.mismatches == 0 for p in phases),
        "attempted": sum(len(p.latencies) for p in phases),
        "failed": sum(p.failed for p in phases),
        "metrics": metrics,
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
