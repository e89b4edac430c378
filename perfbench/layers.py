"""Per-layer tracing for the benchmark: spans around the calls into each module.

The layers are the package modules twostate, susy, potentials, geometry,
exactmath, oracle and verify. Each traced function is replaced where its
caller looks it up (for example `curvedqes.verify.lowest_eigenvalues` and
`curvedqes.oracle.quadrature_norm`) by a wrapper that records a span. Spans
nest: a span's self time is its duration minus the time of the wrapped calls
made inside it. The library itself is not changed; `Tracer.installed()`
restores every original on exit.

Each per-layer metric below names the end-to-end metric it should move and on
which workload, so that a change to one layer can be checked against it.
"""

from __future__ import annotations

import contextlib
import functools
from dataclasses import dataclass
from fractions import Fraction
from time import perf_counter

import numpy as np


def _size(i):
    return lambda args, kwargs, result: int(np.size(args[i]))


def _grid_points(args, kwargs, result):
    return int(result.grid_points)


# (module path, attribute, span name, work counter or None). The counter
# receives (args, kwargs, result) of each call and returns the work it did.
PATCHES = (
    ("verify", "run_verification", "verify.run_verification", None),
    ("verify", "general_two_state", "twostate.general_two_state", None),
    ("twostate", "general_two_state", "twostate.general_two_state", None),
    ("twostate", "generating_pair", "twostate.generating_pair", None),
    ("twostate", "reduced_spec", "potentials.reduced_spec", None),
    ("twostate", "wavefunction_from_superpotential", "susy.wavefunction_from_superpotential", None),
    ("twostate", "apply_raising", "susy.apply_raising", None),
    ("verify", "node_location", "twostate.node_location", None),
    ("verify", "riccati_apply", "susy.riccati_apply", None),
    ("verify", "partner_shift", "susy.partner_shift", None),
    ("verify", "eval_potential", "potentials.eval_potential", _size(1)),
    ("oracle", "eval_potential", "potentials.eval_potential", _size(1)),
    ("oracle", "radius_from_arc", "geometry.radius_from_arc", _size(1)),
    ("verify", "lowest_eigenvalues", "oracle.lowest_eigenvalues", _grid_points),
    ("oracle", "default_arc_cutoff", "oracle.default_arc_cutoff", None),
    ("oracle", "eigh_tridiagonal", "oracle.eigensolve", _size(0)),
    ("verify", "schrodinger_residual", "oracle.schrodinger_residual", None),
    ("verify", "find_nodes", "oracle.find_nodes", None),
    ("oracle", "brentq", "oracle.brentq", None),
    ("verify", "quadrature_norm", "oracle.quadrature_norm", None),
    ("oracle", "quadrature_norm", "oracle.quadrature_norm", None),
    ("verify", "overlap", "oracle.overlap", None),
    ("oracle", "quad", "oracle.quad", None),
    ("susy.WavefunctionForm", "value", "susy.wavefunction_value", _size(1)),
    ("susy.WavefunctionForm", "derivatives", "susy.wavefunction_derivatives", _size(1)),
)

# Per-layer metrics, each a mean per traced op: (metric, span, field, unit,
# better, what it should move). Fields are calls, work (the span's counter)
# and self_ms.
SPAN_METRICS = (
    ("oracle.eigensolve.calls", "oracle.eigensolve", "calls", "calls/op", "lower",
     "op_ms_p50 on verify-low; nothing on sweep"),
    ("oracle.eigensolve.rows", "oracle.eigensolve", "work", "rows/op", "lower",
     "op_ms_p50 on verify-low; nothing on sweep"),
    ("oracle.eigensolve.self_ms", "oracle.eigensolve", "self_ms", "ms/op", "lower",
     "op_ms_p50 on verify-low; nothing on sweep"),
    ("oracle.grid_points", "oracle.lowest_eigenvalues", "work", "points/op", "lower",
     "op_ms_p50 on verify-low; nothing on sweep"),
    ("oracle.lowest_eigenvalues.self_ms", "oracle.lowest_eigenvalues", "self_ms", "ms/op", "lower",
     "op_ms_p50 on verify-low; nothing on sweep"),
    ("oracle.quad.calls", "oracle.quad", "calls", "calls/op", "lower",
     "op_ms_p90 on verify-high, op_ms_p50 on verify-low; nothing on sweep"),
    ("oracle.quad.self_ms", "oracle.quad", "self_ms", "ms/op", "lower",
     "op_ms_p90 on verify-high, op_ms_p50 on verify-low; nothing on sweep"),
    ("oracle.quadrature_norm.calls", "oracle.quadrature_norm", "calls", "calls/op", "lower",
     "op_ms_p90 on verify-high, op_ms_p50 on verify-low; nothing on sweep"),
    ("oracle.quadrature_norm.self_ms", "oracle.quadrature_norm", "self_ms", "ms/op", "lower",
     "op_ms_p90 on verify-high, op_ms_p50 on verify-low; nothing on sweep"),
    ("oracle.overlap.self_ms", "oracle.overlap", "self_ms", "ms/op", "lower",
     "op_ms_p90 on verify-high, op_ms_p50 on verify-low; nothing on sweep"),
    ("susy.wavefunction_value.calls", "susy.wavefunction_value", "calls", "calls/op", "lower",
     "op_ms_p90 on verify-high, op_ms_p50 on verify-low; nothing on sweep"),
    ("susy.wavefunction_value.points", "susy.wavefunction_value", "work", "points/op", "lower",
     "op_ms_p90 on verify-high, op_ms_p50 on verify-low; nothing on sweep"),
    ("susy.wavefunction_value.self_ms", "susy.wavefunction_value", "self_ms", "ms/op", "lower",
     "op_ms_p90 on verify-high, op_ms_p50 on verify-low; nothing on sweep"),
    ("oracle.default_arc_cutoff.calls", "oracle.default_arc_cutoff", "calls", "calls/op", "lower",
     "op_ms_p50 on verify-low"),
    ("oracle.default_arc_cutoff.self_ms", "oracle.default_arc_cutoff", "self_ms", "ms/op", "lower",
     "op_ms_p50 on verify-low"),
    ("potentials.eval_potential.calls", "potentials.eval_potential", "calls", "calls/op", "lower",
     "op_ms_p50 on verify-low"),
    ("potentials.eval_potential.points", "potentials.eval_potential", "work", "points/op", "lower",
     "op_ms_p50 on verify-low"),
    ("potentials.eval_potential.self_ms", "potentials.eval_potential", "self_ms", "ms/op", "lower",
     "op_ms_p50 on verify-low"),
    ("geometry.radius_from_arc.points", "geometry.radius_from_arc", "work", "points/op", "lower",
     "op_ms_p50 on verify-low"),
    ("oracle.find_nodes.self_ms", "oracle.find_nodes", "self_ms", "ms/op", "lower",
     "op_ms_p50 on the verify workloads only"),
    ("oracle.brentq.calls", "oracle.brentq", "calls", "calls/op", "lower",
     "op_ms_p50 on the verify workloads only"),
    ("oracle.schrodinger_residual.self_ms", "oracle.schrodinger_residual", "self_ms", "ms/op", "lower",
     "op_ms_p50 on the verify workloads only"),
    ("susy.wavefunction_derivatives.self_ms", "susy.wavefunction_derivatives", "self_ms", "ms/op", "lower",
     "op_ms_p50 on the verify workloads only"),
    ("twostate.general_two_state.self_ms", "twostate.general_two_state", "self_ms", "ms/op", "lower",
     "ops_per_s and op_ms_p90 on sweep; under 1% of verify-low"),
    ("twostate.generating_pair.self_ms", "twostate.generating_pair", "self_ms", "ms/op", "lower",
     "ops_per_s and op_ms_p90 on sweep"),
    ("potentials.reduced_spec.self_ms", "potentials.reduced_spec", "self_ms", "ms/op", "lower",
     "ops_per_s and op_ms_p90 on sweep"),
    ("susy.wavefunction_from_superpotential.self_ms", "susy.wavefunction_from_superpotential",
     "self_ms", "ms/op", "lower", "ops_per_s and op_ms_p90 on sweep"),
    ("susy.apply_raising.self_ms", "susy.apply_raising", "self_ms", "ms/op", "lower",
     "ops_per_s and op_ms_p90 on sweep"),
    ("twostate.node_location.calls", "twostate.node_location", "calls", "calls/op", "lower",
     "op_ms_p50 on the verify workloads; under 1% of verify-low"),
    ("susy.riccati_apply.self_ms", "susy.riccati_apply", "self_ms", "ms/op", "lower",
     "op_ms_p50 on the verify workloads; under 1% of verify-low"),
    ("susy.partner_shift.self_ms", "susy.partner_shift", "self_ms", "ms/op", "lower",
     "op_ms_p50 on the verify workloads; under 1% of verify-low"),
    ("verify.run_verification.self_ms", "verify.run_verification", "self_ms", "ms/op", "lower",
     "op_ms_p50 on the verify workloads: time no wrapped call covers"),
)

# Metrics the benchmark computes itself rather than from spans.
OTHER_METRICS = (
    ("exactmath.fraction_to_float.calls", "calls/op", "lower",
     "op_ms_p90 on verify-high, op_ms_p50 on verify-low; Fraction.__float__ calls"),
    ("verify.warnings.count", "count/op", "lower",
     "warnings raised per op, captured so they never reach stderr"),
    ("oracle.relerr_max", "1", "lower",
     "largest oracle_E0/oracle_E1 check value; shows the accuracy a grid change trades"),
    ("trace.overhead_pct", "%", "lower",
     "traced op_ms_p50 over untraced op_ms_p50, minus one"),
)


@dataclass
class SpanStats:
    calls: int = 0
    work: int = 0
    self_s: float = 0.0


class Tracer:
    """Nested spans and call counts, recorded only while `recording` is set."""

    def __init__(self):
        self.spans: dict[str, SpanStats] = {}
        self.fraction_floats = 0
        self.recording = False
        self.missing: list[str] = []  # patch targets the library no longer has
        self._children: list[float] = []  # child time of each open span

    def wrap(self, name: str, fn, counter=None):
        stats = self.spans.setdefault(name, SpanStats())

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            stack = self._children
            stack.append(0.0)
            result = None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                dt = perf_counter() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dt
                stats.calls += 1
                stats.self_s += dt - child
                if counter is not None and result is not None:
                    stats.work += counter(args, kwargs, result)

        return wrapper

    @contextlib.contextmanager
    def installed(self, lib):
        """Install every wrapper; restore the originals on exit, however it is left."""
        saved = []
        own_float = Fraction.__dict__.get("__float__")
        base_float = Fraction.__float__

        def counted_float(value):
            if self.recording:
                self.fraction_floats += 1
            return base_float(value)

        try:
            Fraction.__float__ = counted_float
            for path, attr, name, counter in PATCHES:
                owner = _resolve(lib, path)
                original = None if owner is None else owner.__dict__.get(attr)
                if original is None:
                    # renamed or removed in the library: its metrics read 0
                    self.missing.append(f"{path}.{attr}")
                    continue
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original, counter))
            yield self
        finally:
            if own_float is None:
                del Fraction.__float__
            else:
                Fraction.__float__ = own_float
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)
            _check_restored(saved, own_float)

    def metrics(self, ops: int) -> dict:
        """Per-op means of every span metric."""
        out = {}
        for metric, span, field, unit, _better, _moves in SPAN_METRICS:
            st = self.spans.get(span, SpanStats())
            value = {"calls": st.calls, "work": st.work, "self_ms": st.self_s * 1e3}[field]
            out[metric] = {"value": value / ops, "unit": unit}
        out["exactmath.fraction_to_float.calls"] = {
            "value": self.fraction_floats / ops,
            "unit": "calls/op",
        }
        return out


def _resolve(lib, path: str):
    obj = lib
    for part in path.split("."):
        obj = getattr(obj, part, None)
    return obj


def _check_restored(saved, own_float):
    leftover = [f"{owner.__name__}.{attr}" for owner, attr, original in saved
                if owner.__dict__[attr] is not original]
    if Fraction.__dict__.get("__float__") is not own_float:
        leftover.append("Fraction.__float__")
    if leftover:
        raise RuntimeError(f"trace wrappers left installed: {', '.join(leftover)}")
