"""Finite trigonometric sums over lattice or real-frequency spectra.

A :class:`Spectrum` is the universal function model of the library: a finite
map from frequencies to complex coefficients.  All norms here are
coefficient-space (discrete-metric) norms: ``||f||_p = (sum |coef|^p)^{1/p}``,
computed by one kernel, ``_lp``, from the moduli of the coefficients (an
array, as ``Spectrum.abs_coefficients`` returns it) and their powers from
``_pow``.  Operations never mutate their inputs; a Spectrum is safe to
share between threads.

A :class:`DifferenceScheme` holds difference weights; the operators and
multipliers read the generator kernels, in ``moduli``.
"""

from __future__ import annotations

import cmath
import itertools
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

    __slots__ = ("kind", "d", "_freqs", "_coeffs", "_lookup", "_scalar_cache", "_abs_cache")

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
        object.__setattr__(self, "_abs_cache", None)

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
            if self.kind == "lattice" and self.d != 1:
                raise InputDomainError("scalar frequencies require a one-dimensional spectrum")
            # a d = 1 lattice index is a 1-tuple: one column, flattened
            object.__setattr__(self, "_scalar_cache", np.array(self._freqs, dtype=np.float64).reshape(-1))
        return self._scalar_cache

    def abs_coefficients(self) -> np.ndarray:
        """|c| of each coefficient, in the canonical order: np.hypot(re, im),
        the C library's hypot, which Python's abs(c) calls too (numpy's abs
        of a complex may differ in the last bit); inf past the double range.
        Computed once per spectrum, and read-only."""
        if self._abs_cache is None:
            coefs = np.array(self._coeffs, dtype=np.complex128)
            with np.errstate(over="ignore"):
                object.__setattr__(self, "_abs_cache", np.hypot(coefs.real, coefs.imag))
            self._abs_cache.flags.writeable = False
        return self._abs_cache


# ---------------------------------------------------------------------------
# norms and approximations


def _pow(x, y: float) -> np.ndarray:
    """x ** y elementwise through the C library's ``pow``, which Python's
    float ``**`` calls (numpy's own power may differ from it in the last
    bit): the one power of moduli and magnitudes, so that a sum of powers
    reads the same bits from an array as from Python floats.  A power past
    the double range reads inf."""
    x = np.ascontiguousarray(x, dtype=np.float64)
    try:
        return np.fromiter(map(math.pow, memoryview(x), itertools.repeat(y)),
                           np.float64, x.shape[0])
    except OverflowError:
        return np.array([_pow_or_inf(v, y) for v in x.tolist()], dtype=np.float64)


def _pow_or_inf(x: float, y: float) -> float:
    try:
        return math.pow(x, y)
    except OverflowError:
        return math.inf


def _lp(mags: np.ndarray, p: float) -> float:
    """The l_p norm of the moduli ``mags``: their max at p = inf, else
    (sum mags^p)^{1/p} with the powers from ``_pow`` and the sum rounded
    once (``math.fsum``); InputDomainError when a modulus, a power, the sum
    or the root is past the double range."""
    if not 0 < p <= math.inf:
        raise InputDomainError(f"exponent p must satisfy 0 < p <= inf, got {p}")
    try:
        norm = (float(np.max(mags, initial=0.0)) if p == math.inf
                else math.fsum(memoryview(_pow(mags, p))) ** (1.0 / p))
    except OverflowError:
        norm = math.inf
    if not math.isfinite(norm):
        raise InputDomainError(f"the l_p norm is not a finite double (p={p:g})")
    return norm


def sp_norm(f: Spectrum, p: float) -> float:
    """Coefficient-space norm: (sum |coef|^p)^{1/p}, or sup|coef| for p=inf."""
    if not p >= 1:
        raise InputDomainError(f"norm exponent must satisfy p >= 1, got {p}")
    return _lp(f.abs_coefficients(), p)


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
    return _lp(f.abs_coefficients()[[not pred(k) for k in f.frequencies]], p)


def ladder_tail_norm(f: Spectrum, lam: float, p: float) -> float:
    """Tail norm over |frequency| >= lam (best approximation by lower-band
    spectra); the scalar-frequency analogue of :func:`best_tail_approx`."""
    return _lp(f.abs_coefficients()[np.abs(f.scalar_frequencies()) >= lam], p)


@dataclass(frozen=True)
class GreedyResult:
    indices: frozenset
    value: float
    tie: bool


def greedy_select(f: Spectrum, n: int, p: float) -> GreedyResult:
    """Keep the n largest coefficients; return the kept set and the tail norm.

    Tie-break among equal magnitudes: the canonical order (smaller
    |frequency| first, negative before positive, then lexicographic lattice
    order), which a stable sort keeps.  The tail value does not depend on
    how ties are resolved; ``tie`` reports whether they made the selected
    set non-unique.
    """
    if n < 0:
        raise InputDomainError("n must be >= 0")
    mags = f.abs_coefficients()
    ranked = np.argsort(-mags, kind="stable")
    kept, dropped = ranked[:n], ranked[n:]
    tie = bool(kept.size and dropped.size and mags[kept[-1]] == mags[dropped[0]])
    return GreedyResult(frozenset(f.frequencies[i] for i in kept.tolist()), _lp(mags[dropped], p), tie)


# ---------------------------------------------------------------------------
# difference schemes (their multipliers and operators are in ``moduli``)


@dataclass(frozen=True)
class DifferenceScheme:
    """Weights theta_0..theta_m of a generalized difference operator
    ``sum_j theta_j f(. - j h)``; the weights must sum to zero."""

    theta: tuple

    def __post_init__(self):
        th = tuple(complex(t) for t in self.theta)
        object.__setattr__(self, "theta", th)
        if not all(cmath.isfinite(t) for t in th):
            raise InputDomainError("difference weights must be finite")
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
        """sum_j theta_j e^{-ijt}, summed term by term: an independent check
        of ``moduli.phi_theta``, which it loses digits to at small t."""
        return sum(th * cmath.exp(-1j * j * t) for j, th in enumerate(self.theta))


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
