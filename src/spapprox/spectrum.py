"""Finite trigonometric sums over lattice or real-frequency spectra.

A :class:`Spectrum` is the universal function model of the library: a finite
map from frequencies to complex coefficients.  All norms here are
coefficient-space (discrete-metric) norms: ``||f||_p = (sum |coef|^p)^{1/p}``,
computed coordinate by coordinate by one kernel, ``_lp``.  Operations never
mutate their inputs; a Spectrum is safe to share between threads.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .errors import InputDomainError, ParseError

LatticeKey = tuple[int, ...]


def _lattice_component(x) -> int:
    """x as an int; integral values such as 2.0 are accepted, 1.7 is not."""
    i = int(x)
    if i != x:
        raise InputDomainError(f"lattice index component {x!r} is not an integer")
    return i


def _norm_lattice_key(k, d: int | None) -> tuple[LatticeKey, int]:
    if isinstance(k, (int, np.integer)):
        k = (int(k),)
    else:
        k = tuple(_lattice_component(x) for x in k)
    if d is None:
        d = len(k)
    if len(k) != d or d < 1:
        raise InputDomainError(f"lattice index {k!r} has wrong dimension (expected {d})")
    return k, d


def _freq_order_key(freq) -> tuple:
    """Deterministic frequency ordering: smaller |freq| first, negative before
    positive, then lexicographic for lattice indices."""
    if isinstance(freq, tuple):
        mag = math.sqrt(sum(x * x for x in freq))
        first = next((x for x in freq if x != 0), 0)
        return (mag, 0 if first < 0 else 1, freq)
    return (abs(freq), 0 if freq < 0 else 1, freq)


class Spectrum:
    """Immutable finite spectrum (frequency -> complex coefficient)."""

    __slots__ = ("kind", "d", "_freqs", "_coeffs", "_lookup", "_scalar_cache")

    def __init__(self, kind: str, entries: Mapping, d: int | None = None):
        if kind not in ("lattice", "real"):
            raise InputDomainError(f"unknown spectrum kind {kind!r}")
        norm: dict = {}
        if kind == "lattice":
            for k, c in entries.items():
                k, d = _norm_lattice_key(k, d)
                if k in norm:
                    raise InputDomainError(f"duplicate lattice frequency {k}")
                norm[k] = complex(c)
            if d is None:
                d = 1
        else:
            if d is not None and d != 1:
                raise InputDomainError("real-frequency spectra are one-dimensional")
            d = 1
            for lam, c in entries.items():
                lam = float(lam)
                if not math.isfinite(lam):
                    raise InputDomainError(f"non-finite frequency {lam}")
                if lam in norm:
                    raise InputDomainError(f"duplicate real frequency {lam}")
                norm[lam] = complex(c)
        for k, c in norm.items():
            if not (math.isfinite(c.real) and math.isfinite(c.imag)):
                raise InputDomainError(f"non-finite coefficient at frequency {k}")
        order = sorted(norm, key=_freq_order_key)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "_freqs", tuple(order))
        object.__setattr__(self, "_coeffs", tuple(norm[k] for k in order))
        object.__setattr__(self, "_lookup", norm)
        object.__setattr__(self, "_scalar_cache", None)

    def __setattr__(self, *a):  # immutability guard
        raise AttributeError("Spectrum is immutable")

    # -- constructors ------------------------------------------------------
    @classmethod
    def lattice(cls, entries: Mapping, d: int | None = None) -> "Spectrum":
        return cls("lattice", entries, d)

    @classmethod
    def real(cls, entries: Mapping) -> "Spectrum":
        return cls("real", entries)

    # -- accessors ---------------------------------------------------------
    @property
    def frequencies(self) -> tuple:
        return self._freqs

    @property
    def coefficients(self) -> tuple:
        return self._coeffs

    def coefficient(self, freq) -> complex:
        if self.kind == "lattice":
            freq, _ = _norm_lattice_key(freq, self.d)
        return self._lookup.get(freq, 0j)

    def __len__(self) -> int:
        return len(self._freqs)

    def __contains__(self, freq) -> bool:
        if self.kind == "lattice":
            freq, _ = _norm_lattice_key(freq, self.d)
        return freq in self._lookup

    def items(self):
        return zip(self._freqs, self._coeffs)

    def as_dict(self) -> dict:
        return dict(self.items())

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Spectrum)
            and self.kind == other.kind
            and self.d == other.d
            and self._freqs == other._freqs
            and self._coeffs == other._coeffs
        )

    def __hash__(self):
        return hash((self.kind, self.d, self._freqs, self._coeffs))

    def __repr__(self):
        inner = ", ".join(f"{k}: {c:.6g}" for k, c in self.items())
        return f"Spectrum({self.kind}, d={self.d}, {{{inner}}})"

    def scalar_frequencies(self) -> np.ndarray:
        """Frequencies as real numbers (lattice d=1 or real kind only)."""
        if self._scalar_cache is None:
            if self.kind == "lattice":
                if self.d != 1:
                    raise InputDomainError(
                        "scalar frequencies require a one-dimensional spectrum"
                    )
                vals = np.array([k[0] for k in self._freqs], dtype=np.float64)
            else:
                vals = np.array(self._freqs, dtype=np.float64)
            object.__setattr__(self, "_scalar_cache", vals)
        return self._scalar_cache

    def abs_coefficients(self) -> np.ndarray:
        return np.abs(np.array(self._coeffs, dtype=np.complex128))


# ---------------------------------------------------------------------------
# norms and approximations


def _lp(coefs, p: float) -> float:
    """The l_p norm of the coefficients: max |c| at p = inf, else
    (sum |c|^p)^{1/p} with the sum rounded once (``math.fsum``);
    InputDomainError when a modulus, a power, the sum or the root is past
    the double range."""
    if not 0 < p <= math.inf:
        raise InputDomainError(f"exponent p must satisfy 0 < p <= inf, got {p}")
    try:
        if p == math.inf:
            return max((abs(c) for c in coefs), default=0.0)
        return math.fsum(abs(c) ** p for c in coefs) ** (1.0 / p)
    except OverflowError:
        raise InputDomainError(f"the l_p norm is not a finite double (p={p:g})") from None


def sp_norm(f: Spectrum, p: float) -> float:
    """Coefficient-space norm: (sum |coef|^p)^{1/p}, or sup|coef| for p=inf."""
    if not p >= 1:
        raise InputDomainError(f"norm exponent must satisfy p >= 1, got {p}")
    return _lp(f.coefficients, p)


def _region_predicate(region) -> Callable:
    if callable(region):
        return region
    members = set()
    for k in region:
        members.add(tuple(int(x) for x in k) if isinstance(k, (tuple, list)) else k)

    def pred(freq):
        if isinstance(freq, tuple):
            return freq in members or (len(freq) == 1 and freq[0] in members)
        return freq in members

    return pred


def partial_sum(f: Spectrum, region) -> Spectrum:
    """Restriction of f to the given region (predicate or frequency set).

    Among all spectra supported in the region this restriction is the unique
    minimizer of ``sp_norm(f - g, p)`` for every p: the norm decomposes
    coordinate-wise, so keeping each in-region coefficient exactly is optimal.
    """
    pred = _region_predicate(region)
    return Spectrum(f.kind, {k: c for k, c in f.items() if pred(k)}, f.d)


def best_tail_approx(f: Spectrum, gamma, p: float) -> float:
    """Error of the best approximation by spectra supported in ``gamma``:
    the coefficient-norm of f outside gamma."""
    pred = _region_predicate(gamma)
    return _lp((c for k, c in f.items() if not pred(k)), p)


def ladder_tail_norm(f: Spectrum, lam: float, p: float) -> float:
    """Tail norm over |frequency| >= lam (best approximation by lower-band
    spectra); the scalar-frequency analogue of :func:`best_tail_approx`."""
    freqs = f.scalar_frequencies().tolist()
    return _lp((c for x, c in zip(freqs, f.coefficients) if abs(x) >= lam), p)


@dataclass(frozen=True)
class GreedyResult:
    indices: frozenset
    value: float
    tie: bool


def greedy_select(f: Spectrum, n: int, p: float) -> GreedyResult:
    """Keep the n largest coefficients; return the kept set and the tail norm.

    Tie-break among equal magnitudes: smaller |frequency| first, negative
    before positive, then lexicographic lattice order.  The tail value does
    not depend on how ties are resolved; ``tie`` reports whether they made
    the selected set non-unique.
    """
    if n < 0:
        raise InputDomainError("n must be >= 0")
    ranked = sorted(f.items(), key=lambda kc: (-abs(kc[1]), _freq_order_key(kc[0])))
    kept = ranked[:n]
    dropped = ranked[n:]
    tie = bool(kept and dropped and abs(kept[-1][1]) == abs(dropped[0][1]))
    value = _lp((c for _, c in dropped), p)
    return GreedyResult(frozenset(k for k, _ in kept), value, tie)


# ---------------------------------------------------------------------------
# difference and Steklov multipliers


@dataclass(frozen=True)
class DifferenceScheme:
    """Weights theta_0..theta_m of a generalized difference operator
    ``sum_j theta_j f(. - j h)``; the weights must sum to zero."""

    theta: tuple

    def __post_init__(self):
        th = tuple(complex(t) for t in self.theta)
        object.__setattr__(self, "theta", th)
        if not th or all(t == 0 for t in th):
            raise InputDomainError("difference scheme must have a nonzero weight")
        scale = max(abs(t) for t in th)
        if abs(sum(th)) > 1e-12 * scale:
            raise InputDomainError("difference weights must sum to zero")

    @classmethod
    def classical(cls, m: int) -> "DifferenceScheme":
        """Alternating binomial weights of the order-m forward difference."""
        return cls(tuple((-1) ** j * math.comb(m, j) for j in range(m + 1)))

    def symbol(self, t: float) -> complex:
        return sum(th * cmath.exp(-1j * j * t) for j, th in enumerate(self.theta))


def difference_multiplier(scheme: DifferenceScheme, lam: float, h: float) -> float:
    """|sum_j theta_j e^{-i j lam h}| -- the coefficient multiplier magnitude."""
    return abs(scheme.symbol(lam * h))


def apply_difference(f: Spectrum, scheme: DifferenceScheme, h: float) -> Spectrum:
    """Apply the difference operator coefficient-wise."""
    lams = f.scalar_frequencies()
    return Spectrum(
        f.kind,
        {k: c * scheme.symbol(float(lam) * h) for (k, c), lam in zip(f.items(), lams)},
        f.d,
    )


def _sinc(t: float) -> float:
    return 1.0 if t == 0.0 else math.sin(t) / t


def steklov_multiplier(m: int, lam: float, h: float) -> float:
    """(1 - sinc(lam h))^m, the multiplier of the m-fold centered-mean defect."""
    if m < 1:
        raise InputDomainError("Steklov order m must be >= 1")
    return max(0.0, 1.0 - _sinc(lam * h)) ** m

def apply_steklov_difference(f: Spectrum, m: int, h: float) -> Spectrum:
    """Apply (S_h - Id)^m coefficient-wise, where S_h is the centered
    sliding mean over [-h, h] (its multiplier on frequency lam is sinc(lam h))."""
    if m < 1:
        raise InputDomainError("Steklov order m must be >= 1")
    lams = f.scalar_frequencies()
    return Spectrum(
        f.kind,
        {
            k: c * (_sinc(float(lam) * h) - 1.0) ** m
            for (k, c), lam in zip(f.items(), lams)
        },
        f.d,
    )


# ---------------------------------------------------------------------------
# JSON interchange


def spectrum_to_json_dict(f: Spectrum) -> dict:
    if f.kind == "lattice":
        entries = [
            {"k": list(k), "re": c.real, "im": c.imag} for k, c in f.items()
        ]
        return {"kind": "lattice", "d": f.d, "entries": entries}
    entries = [{"lambda": lam, "re": c.real, "im": c.imag} for lam, c in f.items()]
    return {"kind": "real", "entries": entries}


def spectrum_from_json_dict(doc: dict) -> Spectrum:
    try:
        kind = doc["kind"]
        raw = list(doc["entries"])
        d = int(doc.get("d", 1)) if kind == "lattice" else None
    except (KeyError, TypeError, ValueError, OverflowError) as e:
        raise ParseError(f"spectrum document missing or bad field: {e}") from None
    if kind not in ("lattice", "real"):
        raise ParseError(f"unknown spectrum kind {kind!r}")
    entries: dict = {}
    for i, item in enumerate(raw):
        try:
            k = (tuple(_lattice_component(x) for x in item["k"]) if kind == "lattice"
                 else float(item["lambda"]))
            c = complex(float(item["re"]), float(item.get("im", 0.0)))
        except (KeyError, TypeError, ValueError, OverflowError) as e:
            raise ParseError(f"spectrum entry {i}: missing or malformed field ({e})") from None
        if k in entries:
            raise ParseError(f"duplicate frequency {k} in spectrum file")
        entries[k] = c
    return Spectrum(kind, entries, d)


def load_spectrum(path: str) -> Spectrum:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as e:
            raise ParseError(f"invalid spectrum JSON: {e}") from None
    return spectrum_from_json_dict(doc)


def save_spectrum(f: Spectrum, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(spectrum_to_json_dict(f), fh, indent=2, sort_keys=True)
        fh.write("\n")
