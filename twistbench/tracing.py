"""Per-layer spans around the program's public functions.

install() wraps every public function of the traced modules in each
namespace that binds it (the defining module, importing modules and the
package re-exports), plus a few methods at class level.  A span records
its name, start, end, parent span and op id; self time is the span's
duration minus the durations of its wrapped children.  Spans are only
recorded while an op is running, so the benchmark's own checks, which
call the program too, leave no trace.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from array import array

MODULES = ("linalg", "transpositions", "matpoly", "mtheta", "ybe", "cli", "_kernels")
METHODS = (
    ("mtheta", "MThetaBasis", "__init__"),
    ("mtheta", "ThetaElement", "det"),
    ("mtheta", "ThetaDomain", "sample"),
    ("transpositions", "TwistedMap", "apply"),
    ("transpositions", "ScalarDomain", "sample"),
    ("transpositions", "MatrixDomain", "sample"),
    ("transpositions", "VectorDomain", "sample"),
)

# points a verifier needs per sample, to measure how many draws it wastes
# (points per sample, position of the samples argument)
VERIFIER_POINTS = {
    "transpositions.verify_involution": (2, 1),
    "transpositions.verify_braid": (3, 1),
    "ybe.verify_inverse": (2, 1),
    "ybe.verify_tybe": (3, 1),
    "ybe.verify_L": (2, 2),
    "ybe.q_check": (2, 2),
    "ybe.gf_verify": (2, 1),
}
DOMAIN_SAMPLES = {
    "mtheta.ThetaDomain.sample",
    "transpositions.ScalarDomain.sample",
    "transpositions.MatrixDomain.sample",
    "transpositions.VectorDomain.sample",
}


class Tracer:
    def __init__(self):
        self.active = False
        self.op = -1
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        # one entry per finished span, in finishing order
        self.span_id = array("l")
        self.span_name = array("l")
        self.span_parent = array("l")
        self.span_op = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self._next_id = 0
        self._stack: list[list] = []  # [span id, name, start, child seconds]
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.counters = {
            "exps": 0,
            "nongeneric": 0,
            "points_needed": 0,
            "points_drawn": 0,
            "sample_tries": 0,
            "sample_ok": 0,
        }

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _count(self, name, args, kwargs) -> None:
        c = self.counters
        if name == "_kernels.theta_eval":
            coeffs, zs = args[0], args[2]
            c["exps"] += coeffs.shape[0] * coeffs.shape[1] * zs.shape[0]
        elif name in VERIFIER_POINTS:
            points, pos = VERIFIER_POINTS[name]
            samples = kwargs.get("samples", args[pos] if len(args) > pos else 100)
            # gf_verify at m = 1 delegates to verifiers that count themselves
            if name != "ybe.gf_verify" or args[0].m > 1:
                c["points_needed"] += points * int(samples)
        elif name in DOMAIN_SAMPLES:
            if any(frame[1] in VERIFIER_POINTS for frame in self._stack):
                c["points_drawn"] += 1
        elif name == "mtheta.interpolate":
            if self._stack and self._stack[-1][1] == "mtheta.ThetaDomain.sample":
                c["sample_tries"] += 1

    def call(self, name, fn, args, kwargs, nongeneric):
        if not self.active:
            return fn(*args, **kwargs)
        self._count(name, args, kwargs)
        span = self._next_id
        self._next_id += 1
        frame = [span, name, time.perf_counter(), 0.0]
        self._stack.append(frame)
        ok = False
        try:
            out = fn(*args, **kwargs)
            ok = True
            return out
        except nongeneric:
            if name == "transpositions.TwistedMap.apply":
                self.counters["nongeneric"] += 1
            raise
        finally:
            end = time.perf_counter()
            self._stack.pop()
            dur = end - frame[2]
            self.calls[name] = self.calls.get(name, 0) + 1
            self.self_s[name] = self.self_s.get(name, 0.0) + dur - frame[3]
            if ok and name == "mtheta.ThetaDomain.sample":
                self.counters["sample_ok"] += 1
            parent = -1
            if self._stack:
                self._stack[-1][3] += dur
                parent = self._stack[-1][0]
            self.span_id.append(span)
            self.span_name.append(self._name_id(name))
            self.span_parent.append(parent)
            self.span_op.append(self.op)
            self.span_start.append(frame[2])
            self.span_end.append(end)

    def spans(self):
        """Finished spans as (id, name, start, end, parent id, op id)."""
        for k in range(len(self.span_id)):
            yield (self.span_id[k], self.names[self.span_name[k]], self.span_start[k], self.span_end[k],
                   self.span_parent[k], self.span_op[k])

    def write(self, path, meta: dict) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps(meta) + "\n")
            for span in self.spans():
                fh.write(json.dumps(span) + "\n")

    def merge(self, other: dict) -> None:
        """Add the aggregates another process exported with export()."""
        for name, n in other["calls"].items():
            self.calls[name] = self.calls.get(name, 0) + n
        for name, s in other["self_s"].items():
            self.self_s[name] = self.self_s.get(name, 0.0) + s
        for key, n in other["counters"].items():
            self.counters[key] += n

    def export(self) -> dict:
        return {"calls": self.calls, "self_s": self.self_s, "counters": self.counters}


def _wrap(tracer, name, fn, nongeneric):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs, nongeneric)

    return wrapper


def install(tracer: Tracer):
    """Wrap the traced functions and methods; returns an undo callable."""
    from twistlab.errors import NonGeneric

    mods = {short: importlib.import_module(f"twistlab.{short}") for short in MODULES}
    namespaces = [m for key, m in sys.modules.items() if key == "twistlab" or key.startswith("twistlab.")]
    undo = []
    for short, mod in mods.items():
        for attr, fn in list(vars(mod).items()):
            if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                continue
            wrapper = _wrap(tracer, f"{short}.{attr}", fn, NonGeneric)
            for ns in namespaces:
                for key, val in list(vars(ns).items()):
                    if val is fn:
                        setattr(ns, key, wrapper)
                        undo.append((ns, key, fn))
    for short, cls_name, meth in METHODS:
        cls = getattr(mods[short], cls_name)
        fn = cls.__dict__[meth]
        setattr(cls, meth, _wrap(tracer, f"{short}.{cls_name}.{meth}", fn, NonGeneric))
        undo.append((cls, meth, fn))

    def uninstall():
        for owner, key, fn in reversed(undo):
            setattr(owner, key, fn)

    return uninstall


# ---------------------------------------------------------------------------
# layer metrics


def calls(name):
    return lambda t: t.calls.get(name, 0)


def self_time(*names):
    return lambda t: sum(t.self_s.get(n, 0.0) for n in names)


def counter(key):
    return lambda t: t.counters[key]


def ratio(num, den):
    """num / den, 0 when nothing was counted."""
    return lambda t: num(t) / den(t) if den(t) else 0.0


def hit_ratio(t):
    lookups = t.calls.get("mtheta.mtheta_basis", 0)
    return 1.0 - t.calls.get("mtheta.MThetaBasis.__init__", 0) / lookups if lookups else 0.0


C, S, R = "count", "s", "ratio"
# metric name -> (unit, better, how to read it from a Tracer)
LAYER_METRICS = {
    "kernels.theta_eval.calls": (C, "lower", calls("_kernels.theta_eval")),
    "kernels.theta_eval.exps": (C, "lower", counter("exps")),
    "kernels.theta_eval.self_s": (S, "lower", self_time(
        "_kernels.theta_eval", "_kernels.theta_eval_numpy", "_kernels.theta_eval_numba")),
    "mtheta.basis_builds": (C, "lower", calls("mtheta.MThetaBasis.__init__")),
    "mtheta.basis_lookups": (C, "lower", calls("mtheta.mtheta_basis")),
    "mtheta.basis_hit_ratio": (R, "higher", hit_ratio),
    "mtheta.basis_build.self_s": (S, "lower", self_time("mtheta.MThetaBasis.__init__")),
    "mtheta.det_zeros.calls": (C, "lower", calls("mtheta.det_zeros")),
    "mtheta.det_zeros.self_s": (S, "lower", self_time("mtheta.det_zeros")),
    "mtheta.element_det.calls": (C, "lower", calls("mtheta.ThetaElement.det")),
    "mtheta.interpolate.calls": (C, "lower", calls("mtheta.interpolate")),
    "mtheta.interpolate.self_s": (S, "lower", self_time("mtheta.interpolate")),
    "mtheta.fit_element.calls": (C, "lower", calls("mtheta.fit_element")),
    "mtheta.fit_element.self_s": (S, "lower", self_time("mtheta.fit_element")),
    "mtheta.theta_mu.self_s": (S, "lower", self_time("mtheta.theta_mu")),
    "mtheta.factorize_theta.self_s": (S, "lower", self_time("mtheta.factorize_theta")),
    "mtheta.act_ordered_theta.self_s": (S, "lower", self_time("mtheta.act_ordered_theta")),
    "mtheta.domain_sample.calls": (C, "lower", calls("mtheta.ThetaDomain.sample")),
    "mtheta.domain_sample.self_s": (S, "lower", self_time("mtheta.ThetaDomain.sample")),
    "mtheta.sample_yield": (R, "higher", ratio(counter("sample_ok"), counter("sample_tries"))),
    "transpositions.apply.calls": (C, "lower", calls("transpositions.TwistedMap.apply")),
    "transpositions.apply.self_s": (S, "lower", self_time("transpositions.TwistedMap.apply")),
    "transpositions.nongeneric": (C, "lower", counter("nongeneric")),
    "transpositions.draw_yield": (R, "higher", ratio(counter("points_needed"), counter("points_drawn"))),
    "transpositions.verify.self_s": (S, "lower", self_time(
        "transpositions.verify_involution", "transpositions.verify_braid")),
    "transpositions.act.self_s": (S, "lower", self_time("transpositions.act")),
    "matpoly.transpose_pair.calls": (C, "lower", calls("matpoly.transpose_pair")),
    "matpoly.transpose_pair.self_s": (S, "lower", self_time("matpoly.transpose_pair")),
    "matpoly.factorize.calls": (C, "lower", calls("matpoly.factorize")),
    "matpoly.factorize.self_s": (S, "lower", self_time("matpoly.factorize")),
    "matpoly.spectrum.self_s": (S, "lower", self_time("matpoly.spectrum")),
    "matpoly.multiply.self_s": (S, "lower", self_time("matpoly.multiply")),
    "matpoly.act_ordered.self_s": (S, "lower", self_time("matpoly.act_ordered")),
    "linalg.solve_sylvester.calls": (C, "lower", calls("linalg.solve_sylvester")),
    "linalg.solve_sylvester.self_s": (S, "lower", self_time("linalg.solve_sylvester")),
    "linalg.eigen.calls": (C, "lower", calls("linalg.eigen")),
    "linalg.eigen.self_s": (S, "lower", self_time("linalg.eigen")),
    "linalg.nullspace_vector.calls": (C, "lower", calls("linalg.nullspace_vector")),
    "linalg.nullspace_vector.self_s": (S, "lower", self_time("linalg.nullspace_vector")),
    "linalg.poly_roots.self_s": (S, "lower", self_time("linalg.poly_roots")),
    "linalg.canonical_order.self_s": (S, "lower", self_time("linalg.canonical_order")),
    "ybe.scattering.calls": (C, "lower", calls("ybe.scattering")),
    "ybe.scattering.self_s": (S, "lower", self_time("ybe.scattering")),
    "ybe.place.calls": (C, "lower", calls("ybe.place")),
    "ybe.place.self_s": (S, "lower", self_time("ybe.place")),
    "ybe.verify.self_s": (S, "lower", self_time("ybe.verify_inverse", "ybe.verify_tybe", "ybe.verify_L", "ybe.q_check")),
    "ybe.gf.self_s": (S, "lower", self_time(
        "ybe.gf_verify", "ybe.gf_compose", "ybe.local_gf_system", "ybe.block_swap_perm", "ybe.block_swap_word")),
}

# per CLI process, medians over the run's processes
CLI_METRICS = ("cli.import_numpy_s", "cli.import_twistlab_s", "cli.run_s", "cli.interp_s")


def layer_metrics(tracer: Tracer, cli_times=None) -> dict:
    out = {name: {"value": float(fn(tracer)), "unit": unit} for name, (unit, _, fn) in LAYER_METRICS.items()}
    for name in CLI_METRICS:
        vals = sorted(t[name] for t in cli_times or [])
        med = (vals[(len(vals) - 1) // 2] + vals[len(vals) // 2]) / 2 if vals else 0.0
        out[name] = {"value": med, "unit": S}
    return out
