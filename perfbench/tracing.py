"""Span tracing of the spapprox layers from outside the package.

``install()`` replaces the public functions of each layer module, at every
``spapprox`` module namespace that binds them, with wrappers that record a
span (name, phase, start, end, parent).  Spans stay in memory; per-layer
metrics are derived from them once, at the end of the run.  Nothing inside
``src/`` changes.

Two hot paths are counted instead of spanned, so that memory stays bounded
and the overhead stays small: ``PhiFunction.pow_p`` (calls and points) and
the ``next()`` calls of psi streams (items and time, charged to the span
that consumes the stream and attributed to the ``psi`` layer).
"""

from __future__ import annotations

import functools
import gzip
import json
import statistics
import sys
from collections import defaultdict
from time import perf_counter

LAYERS = ("spectrum", "psi", "classes", "moduli", "jackson", "inverse", "oracle")

# (module, attribute) -> span name.  Functions are wrapped wherever a
# spapprox module binds them (for example spapprox.inverse.omega_phi as well
# as spapprox.moduli.omega_phi).
FUNCTION_SPANS = {
    ("spectrum", "ladder_tail_norm"): "spectrum.tail",
    ("spectrum", "greedy_select"): "spectrum.greedy",
    ("psi", "build_charseq"): "psi.charseq",
    ("psi", "rearrangement"): "psi.rearrangement",
    ("psi", "rearrangement_padded"): "psi.rearrangement",
    ("psi", "tail_sum"): "psi.tail_sum",
    ("psi", "psi_integral"): "psi.transform",
    ("psi", "psi_derivative"): "psi.transform",
    ("classes", "class_sigma"): "classes.sigma",
    ("classes", "class_widths"): "classes.width",
    ("classes", "class_best_approx"): "classes.width",
    ("classes", "kolmogorov_ladder"): "classes.width",
    ("classes", "direct_identity_check"): "classes.identity",
    ("classes", "inverse_identity_check"): "classes.identity",
    ("moduli", "omega_phi"): "moduli.omega_phi",
    ("moduli", "averaged_omega"): "moduli.averaged_omega",
    ("moduli", "stieltjes"): "moduli.stieltjes",
    ("jackson", "jackson_I"): "jackson.jackson_I",
    ("jackson", "scaled_phi_integral"): "jackson.integral",
    ("jackson", "jackson_bound"): "jackson.bound",
    ("jackson", "jackson_constant"): "jackson.constant",
    ("jackson", "jackson_sharpness_witness"): "jackson.witness",
    ("jackson", "sigma_series"): "jackson.sigma_series",
    ("inverse", "inverse_bound_general"): "inverse.bound",
    ("inverse", "inverse_bound_alpha"): "inverse.bound",
    ("inverse", "sharpness_single_frequency"): "inverse.sharpness",
    ("oracle", "oracle_modulus"): "oracle.modulus",
    ("oracle", "oracle_charseq"): "oracle.charseq",
    ("oracle", "oracle_nterm_exhaustive"): "oracle.nterm",
    ("oracle", "oracle_quadrature"): "oracle.quadrature",
    ("oracle", "oracle_sigma_class"): "oracle.sigma",
}

# (module, class, method) -> span name
METHOD_SPANS = {
    ("moduli", "OmegaEvaluator", "__init__"): "moduli.evaluator",
    ("moduli", "OmegaEvaluator", "power_values"): "moduli.evaluator",
}

PSI_CLASSES = ("ProductPsi", "RadialPsi", "ExplicitTablePsi", "ExplicitSeqPsi", "PhasedPsi")

# span record fields
_NAME, _PHASE, _START, _END, _PARENT, _CHILD_S, _STREAM_S, _ERROR, _NESTED, _REPEAT = range(10)


def _integral_key(phi, p, v, tau, ratio, quad_tol=1e-11):
    """True identity of a scaled-integral request, independent of the
    library's own cache key: builtin generators by parameters, custom ones
    and custom density weights by the object itself (kept alive by the key,
    so a freed address is never mistaken for a repeat)."""
    phi_id = (phi.kind, phi.param, phi.theta) if phi.kind != "custom" else phi
    if v.kind == "density":
        w_id = ("density", v.label, v.tau) if v.label in ("cos", "t") else v
    elif v.kind == "pwl":
        w_id = ("pwl", tuple(v.knots_t.tolist()), tuple(v.knots_v.tolist()))
    else:
        w_id = ("atomic", tuple(v.points.tolist()), tuple(v.jumps.tolist()), v.tau)
    return (phi_id, float(p), w_id, float(tau), float(ratio), float(quad_tol))


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.open_names: dict[str, int] = defaultdict(int)
        self.phase = "timed"
        self.stream_depth = 0
        self.counts: dict[str, float] = defaultdict(float)
        self.seen_integrals: set = set()

    # -- recording ---------------------------------------------------------
    def wrap(self, fn, name: str, keyfn=None):
        spans, stack, open_names = self.spans, self.stack, self.open_names

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            repeat = None
            if keyfn is not None:
                key = keyfn(*args, **kwargs)
                repeat = key in self.seen_integrals
                self.seen_integrals.add(key)
            rec = [name, self.phase, 0.0, 0.0, parent, 0.0, 0.0, False,
                   open_names[name] > 0, repeat]
            stack.append(len(spans))
            spans.append(rec)
            open_names[name] += 1
            rec[_START] = perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                rec[_ERROR] = True
                raise
            finally:
                end = rec[_END] = perf_counter()
                open_names[name] -= 1
                stack.pop()
                if parent >= 0:
                    spans[parent][_CHILD_S] += end - rec[_START]

        return functools.wraps(fn)(traced)

    def wrap_stream(self, stream_fn):
        tracer = self

        def traced_stream(psi):
            it = stream_fn(psi)
            while True:
                if tracer.stream_depth:
                    # inner stream of a delegating system: the outer one
                    # already times and counts this item
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    yield item
                    continue
                tracer.stream_depth += 1
                t0 = perf_counter()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    dt = perf_counter() - t0
                    tracer.stream_depth -= 1
                    if tracer.stack:
                        tracer.spans[tracer.stack[-1]][_STREAM_S] += dt
                    tracer.counts[f"{tracer.phase}.stream_s"] += dt
                tracer.counts[f"{tracer.phase}.stream_items"] += 1
                yield item

        return traced_stream

    def wrap_pow_p(self, pow_p):
        counts = self.counts
        import numpy as np

        def traced_pow_p(phi, t, p):
            counts[f"{self.phase}.phi_pow_calls"] += 1
            counts[f"{self.phase}.phi_pow_points"] += np.size(t)
            return pow_p(phi, t, p)

        return traced_pow_p

    # -- installation ------------------------------------------------------
    def install(self):
        import importlib

        import spapprox.cli  # noqa: F401  (loads every module that binds names)

        mods = [m for name, m in list(sys.modules.items())
                if m is not None and (name == "spapprox" or name.startswith("spapprox."))]
        for (mod_name, attr), span in FUNCTION_SPANS.items():
            orig = getattr(importlib.import_module(f"spapprox.{mod_name}"), attr)
            keyfn = _integral_key if span == "jackson.integral" else None
            wrapped = self.wrap(orig, span, keyfn)
            for m in mods:
                for k, v in list(vars(m).items()):
                    if v is orig:
                        setattr(m, k, wrapped)
        for (mod_name, cls_name, meth), span in METHOD_SPANS.items():
            cls = getattr(importlib.import_module(f"spapprox.{mod_name}"), cls_name)
            setattr(cls, meth, self.wrap(vars(cls)[meth], span))
        psi_mod = importlib.import_module("spapprox.psi")
        for cls_name in PSI_CLASSES:
            cls = getattr(psi_mod, cls_name)
            setattr(cls, "stream", self.wrap_stream(vars(cls)["stream"]))
            setattr(cls, "power_sum_total", self.wrap(vars(cls)["power_sum_total"], "psi.power_sum"))
        phi_cls = importlib.import_module("spapprox.moduli").PhiFunction
        phi_cls.pow_p = self.wrap_pow_p(vars(phi_cls)["pow_p"])

    # -- reduction ---------------------------------------------------------
    def metrics(self, timed_s: float) -> dict:
        """Per-layer metrics of the timed phase (oracle: check phase)."""
        spans = self.spans
        timed = [s for s in spans if s[_PHASE] == "timed"]
        checked = [s for s in spans if s[_PHASE] == "check"]

        def calls(name):
            return sum(1 for s in timed if s[_NAME] == name)

        def busy(name):
            return sum(s[_END] - s[_START] for s in timed if s[_NAME] == name and not s[_NESTED])

        def layer(s):
            return s[_NAME].split(".", 1)[0]

        self_s = defaultdict(float)
        errors = defaultdict(int)
        for s in timed:
            self_s[layer(s)] += s[_END] - s[_START] - s[_CHILD_S] - s[_STREAM_S]
        self_s["psi"] += self.counts["timed.stream_s"]
        for s in spans:
            if s[_ERROR] and (s[_PARENT] < 0 or layer(spans[s[_PARENT]]) != layer(s)):
                errors[layer(s)] += 1
        integral = [s for s in timed if s[_NAME] == "jackson.integral"]
        first = [s[_END] - s[_START] for s in integral if not s[_REPEAT]]
        repeat = [s[_END] - s[_START] for s in integral if s[_REPEAT]]
        oracle = [s for s in checked if layer(s) == "oracle"]

        def med_us(xs):
            return statistics.median(xs) * 1e6 if xs else 0.0

        m = {
            "moduli.omega_phi.calls": calls("moduli.omega_phi"),
            "moduli.omega_phi.busy_s": busy("moduli.omega_phi"),
            "moduli.phi_pow.calls": self.counts["timed.phi_pow_calls"],
            "moduli.phi_pow.points": self.counts["timed.phi_pow_points"],
            "moduli.evaluator.calls": calls("moduli.evaluator"),
            "moduli.evaluator.busy_s": busy("moduli.evaluator"),
            "moduli.stieltjes.calls": calls("moduli.stieltjes"),
            "moduli.stieltjes.busy_s": busy("moduli.stieltjes"),
            "jackson.jackson_I.calls": calls("jackson.jackson_I"),
            "jackson.jackson_I.busy_s": busy("jackson.jackson_I"),
            "jackson.integral.calls": len(integral),
            "jackson.integral.first_us": med_us(first),
            "jackson.integral.repeat_ratio": len(repeat) / len(integral) if integral else 0.0,
            "jackson.integral.repeat_us": med_us(repeat),
            "jackson.sigma_series.calls": calls("jackson.sigma_series"),
            "jackson.sigma_series.busy_s": busy("jackson.sigma_series"),
            "jackson.sigma_series.errors": sum(
                1 for s in timed if s[_NAME] == "jackson.sigma_series" and s[_ERROR]),
            "inverse.bound.calls": calls("inverse.bound"),
            "spectrum.tail.calls": calls("spectrum.tail"),
            "spectrum.tail.busy_s": busy("spectrum.tail"),
            "spectrum.greedy.busy_s": busy("spectrum.greedy"),
            "psi.stream.items": self.counts["timed.stream_items"],
            "psi.stream.busy_s": self.counts["timed.stream_s"],
            "psi.charseq.busy_s": busy("psi.charseq"),
            "psi.power_sum.busy_s": busy("psi.power_sum"),
            "classes.sigma.busy_s": busy("classes.sigma"),
            "classes.width.busy_s": busy("classes.width"),
            "classes.identity.busy_s": busy("classes.identity"),
            "oracle.calls": len(oracle),
            "oracle.busy_s": sum(s[_END] - s[_START] for s in oracle),
        }
        for name in LAYERS:
            if name != "oracle":
                m[f"{name}.self_s"] = self_s[name]
            m[f"{name}.errors"] = errors[name]
        m["trace.timed_s"] = timed_s
        return m

    def dump(self, path: str):
        """Write every span, one JSON array per line, gzip-compressed."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(json.dumps(["name", "phase", "start", "end", "parent", "child_s",
                                 "stream_s", "error", "nested", "repeat"]) + "\n")
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")
