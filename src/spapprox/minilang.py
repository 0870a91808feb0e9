"""Compact textual descriptions of multiplier systems, modulus generators
and weights, used by the CLI and config files.

Grammar (whitespace-insensitive; see README for examples):

    psi   := "product:" "[" axis ("," axis)* "]"
           | "radial:" form ("," key "=" value)*        keys: d, r|norm, origin
           | "explicit:" ("harmonic" | "powseq(S)" | "geom(R)" | "file=" PATH | PATH.json)
    axis  := "pow(" NUM ")" | "geom(" NUM ")"           pow exponent is negative
    phi   := "alpha:" NUM | "theta:" "[" NUM ("," NUM)* "]" | "steklov:" INT
    v     := "cos" | "t" | "pwl:" PATH | "atomic:" PATH
    tau   := NUM | "pi" | "Npi/M" (simple pi fractions, e.g. "3pi/4")
"""

from __future__ import annotations

import json
import math
import re

import numpy as np

from .errors import ParseError
from .moduli import (
    PhiFunction,
    WeightMeasure,
    phi_alpha,
    phi_steklov,
    phi_theta,
    weight_atomic,
    weight_cos,
    weight_linear,
    weight_pwl,
)
from .psi import (
    AxisGeom,
    AxisPow,
    ExplicitSeqPsi,
    ExplicitTablePsi,
    ProductPsi,
    PsiSystem,
    RadialPsi,
)

_AXIS_RE = re.compile(r"^(pow|geom)\(([-+0-9.eE]+)\)$")
_FORM_RE = re.compile(r"^(pow|geom|powseq)\(([-+0-9.eE]+)\)$")


def parse_tau(text: str) -> float:
    t = text.strip().lower().replace(" ", "")
    m = re.fullmatch(r"(\d*\.?\d*)?pi(?:/(\d+\.?\d*))?", t)
    if m:
        num = float(m.group(1)) if m.group(1) else 1.0
        den = float(m.group(2)) if m.group(2) else 1.0
        return num * math.pi / den
    try:
        return float(t)
    except ValueError:
        raise ParseError(f"cannot parse tau value {text!r}") from None


def _parse_axis(token: str):
    m = _AXIS_RE.match(token.strip())
    if not m:
        raise ParseError(f"cannot parse axis {token!r} (want pow(-b) or geom(r))")
    kind, val = m.group(1), float(m.group(2))
    if kind == "pow":
        if val >= 0:
            raise ParseError(f"axis pow exponent must be negative, got {val}")
        return AxisPow(-val)
    return AxisGeom(val)


def parse_psi(text: str) -> PsiSystem:
    t = text.strip()
    head, _, body = t.partition(":")
    head = head.strip().lower()
    body = body.strip()
    if head == "product":
        body = body.removeprefix("axes=").strip()
        if not (body.startswith("[") and body.endswith("]")):
            raise ParseError(f"product axes must be a [..] list, got {body!r}")
        axes = [_parse_axis(tok) for tok in body[1:-1].split(",") if tok.strip()]
        if not axes:
            raise ParseError("product needs at least one axis")
        return ProductPsi(axes)
    if head == "radial":
        parts = [s.strip() for s in body.split(",") if s.strip()]
        form = None
        kwargs: dict = {"d": 1, "r": math.inf}
        for part in parts:
            if "=" in part:
                key, _, val = part.partition("=")
                key = key.strip().lower()
                val = val.strip()
                try:
                    if key in ("r", "norm"):
                        kwargs["r"] = math.inf if val in ("inf", "sup") else float(val)
                    elif key == "d":
                        kwargs["d"] = int(val)
                except ValueError:
                    raise ParseError(f"radial key {key!r} needs a number, got {val!r}") from None
                if key == "origin":
                    kwargs["origin"] = val
                elif key == "psi":
                    form = _parse_radial_form(val)
                elif key not in ("r", "norm", "d"):
                    raise ParseError(f"unknown radial key {key!r}")
            else:
                form = _parse_radial_form(part)
        if form is None:
            raise ParseError("radial spec needs a profile, e.g. pow(-2)")
        return RadialPsi(form, **kwargs)
    if head == "explicit":
        if body == "harmonic":
            return ExplicitSeqPsi.harmonic()
        m = _FORM_RE.match(body)
        if m:
            kind, val = m.group(1), float(m.group(2))
            if kind in ("pow", "powseq"):
                return ExplicitSeqPsi.power(abs(val))
            return ExplicitSeqPsi.geometric(val)
        path = body.removeprefix("file=").strip()
        if path.endswith(".json"):
            return load_psi_table(path)
        raise ParseError(f"cannot parse explicit spec {body!r}")
    raise ParseError(f"unknown psi kind {head!r} (want product/radial/explicit)")


def _parse_radial_form(token: str):
    m = _FORM_RE.match(token.strip())
    if not m:
        raise ParseError(f"cannot parse radial profile {token!r}")
    kind, val = m.group(1), float(m.group(2))
    if kind in ("pow", "powseq"):
        if val >= 0:
            raise ParseError("radial pow exponent must be negative")
        return ("pow", -val)
    return ("geom", val)


def load_psi_table(path: str) -> ExplicitTablePsi:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as e:
            raise ParseError(f"invalid psi table JSON: {e}") from None
    try:
        entries = {tuple(int(x) for x in item["k"]): float(item["value"]) for item in doc["entries"]}
        d = int(doc.get("d", 1))
    except (KeyError, TypeError) as e:
        raise ParseError(f"psi table missing field: {e}") from None
    return ExplicitTablePsi(entries, d)


def parse_phi(text: str) -> PhiFunction:
    t = text.strip()
    head, _, body = t.partition(":")
    head = head.strip().lower()
    body = body.strip()
    try:
        if head == "alpha":
            return phi_alpha(float(body))
        if head == "theta":
            if not (body.startswith("[") and body.endswith("]")):
                raise ParseError("theta weights must be a [..] list")
            weights = [complex(tok.strip()) for tok in body[1:-1].split(",") if tok.strip()]
            return phi_theta(weights)
        if head == "steklov":
            return phi_steklov(int(body))
    except ValueError as e:
        raise ParseError(f"cannot parse phi {text!r}: {e}") from None
    raise ParseError(f"unknown phi kind {head!r} (want alpha/theta/steklov)")


def parse_weight(text: str, tau: float) -> WeightMeasure:
    t = text.strip()
    if t == "cos":
        return weight_cos(tau)
    if t == "t":
        return weight_linear(tau)
    head, _, path = t.partition(":")
    fields = {"pwl": ("knots_t", "knots_v"), "atomic": ("points", "jumps")}.get(head)
    if fields and path:
        doc = _load_json(path)
        try:
            a, b = (np.asarray(doc[name], dtype=np.float64) for name in fields)
            tau = float(doc.get("tau", tau)) if head == "atomic" else tau
        except (KeyError, TypeError, ValueError) as e:
            raise ParseError(f"{head} weight file: missing or non-numeric field ({e})") from None
        return weight_pwl(a, b) if head == "pwl" else weight_atomic(a, b, tau=tau)
    raise ParseError(f"unknown weight {text!r} (want cos, t, pwl:FILE or atomic:FILE)")


def _load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as e:
            raise ParseError(f"invalid JSON in {path}: {e}") from None
