"""Vanishing multiplier systems on the integer lattice.

A psi-system assigns a positive magnitude |psi(k)| to every lattice index,
with |psi(k)| -> 0 at infinity.  Its characteristic data -- the distinct
magnitudes in decreasing order (``eps``), their level sets (``g_n``) and the
cumulative counts (``delta``) -- drive every class-level formula in the
library.  Three variants are provided:

* ``ProductPsi``  -- per-axis one-dimensional factors (power or geometric);
  the level sets of the all power(-1) system are hyperbolic crosses.
* ``RadialPsi``   -- psi(k) = g(|k|_r) for a decreasing scalar profile g.
* Explicit systems: a finite lattice table with zero tail (a testing
  convenience that violates the everywhere-nonzero hypothesis and is flagged
  as such), or a one-dimensional sequence form whose decreasing rearrangement
  is given directly (power / geometric closed forms, or a head table with a
  tail rule).

Enumeration of the decreasing rearrangement is lazy and *certified*.  The
product, radial and sequence variants share one max-heap walk over per-axis
positions: along every axis the order 0, -1, 1, -2, 2, ... never increases
the magnitude, so each index not yet reached is dominated by one on the heap
and every pop is the largest magnitude left.  Each system runs one walk, and
every stream on it replays and extends that walk.  A magnitude that is not
positive ends the stream of a finite system; on an infinite system it can
only be an underflow, and the walk raises ``CertificationError`` at once.
Magnitudes are evaluated in a canonical order (integer accumulation where
possible) so that equal-by-construction values compare equal as doubles;
level grouping uses exact comparison.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import (
    CertificationError,
    ConvergenceError,
    InputDomainError,
)
from .spectrum import Spectrum

# ---------------------------------------------------------------------------
# lattice norms and orbit sums


def lattice_norm(k: Sequence[int], r: float) -> float:
    """|k|_r with canonical evaluation: components are sorted descending and
    integer powers are accumulated in exact integer arithmetic, so equal
    multisets of coordinates always produce the identical double."""
    mags = sorted((abs(int(x)) for x in k), reverse=True)
    if r == math.inf:
        return float(mags[0]) if mags else 0.0
    if r <= 0:
        raise InputDomainError(f"norm order must be in (0, inf], got {r}")
    ri = int(r)
    if ri == r and ri <= 6:
        total = sum(m ** ri for m in mags)
        if ri == 1:
            return float(total)
        return float(total) ** (1.0 / ri)
    # added largest first, one rounding per term (``sum`` of floats is
    # compensated from Python 3.12 on), as _orbit_norms adds its columns
    acc = 0.0
    for m in mags:
        acc += float(m) ** r
    return acc ** (1.0 / r)


def _pow(x: np.ndarray, y: float) -> np.ndarray:
    """x ** y elementwise through the C library's ``pow``, which Python's
    float ``**`` calls: numpy's own power may differ from it in the last
    bit, and the power sums reproduce the scalar magnitudes exactly."""
    x = np.ascontiguousarray(x, dtype=np.float64)
    return np.fromiter(map(math.pow, memoryview(x), itertools.repeat(y)),
                       np.float64, x.shape[0])


def _orbit_representatives(d: int, B: int) -> tuple[np.ndarray, np.ndarray]:
    """One index per orbit of the signed-permutation group on the box
    [-B, B]^d, as the rows B >= k_1 >= ... >= k_d >= 0, and the size
    2^{#nonzero} d! / prod(run lengths)! of each orbit.

    Rows grow one coordinate at a time (a row whose last entry is m gets
    the m + 1 continuations 0..m), so memory stays proportional to the
    C(B+d, d) representatives, never to the (2B+1)^d box."""
    reps = np.arange(B, -1, -1, dtype=np.int64)[:, None]
    for _ in range(d - 1):
        counts = reps[:, -1] + 1
        starts = np.cumsum(counts) - counts
        nxt = np.arange(int(counts.sum())) - np.repeat(starts, counts)
        reps = np.column_stack([np.repeat(reps, counts, axis=0), nxt])
    # prod(run lengths)! is the product of every entry's place in its run
    place = np.ones(reps.shape[0], dtype=np.int64)
    ties = np.ones(reps.shape[0], dtype=np.int64)
    for j in range(1, d):
        place = np.where(reps[:, j] == reps[:, j - 1], place + 1, 1)
        ties *= place
    return reps, (math.factorial(d) // ties) << np.count_nonzero(reps, axis=1)


def _orbit_norms(reps: np.ndarray, r: float) -> np.ndarray:
    """``lattice_norm`` of each row of ``_orbit_representatives``, by the
    same arithmetic, so every box point gets the double its scalar
    magnitude reads: exact integer power sums for integer r <= 6 (Python
    integers once int64 could overflow), float powers added largest first
    otherwise, and the root through the C library's ``pow``."""
    if r == math.inf:
        return reps[:, 0].astype(np.float64)
    ri = int(r)
    if ri == r and ri <= 6:
        fits = reps.shape[1] * int(reps[0, 0]) ** ri < 2 ** 63
        total = ((reps if fits else reps.astype(object)) ** ri).sum(axis=1)
        total = total.astype(np.float64)
        return total if ri == 1 else _pow(total, 1.0 / ri)
    powers = _pow(np.arange(reps[0, 0] + 1), r)[reps]
    acc = np.zeros(reps.shape[0])
    for column in powers.T:
        acc += column
    return _pow(acc, 1.0 / r)


def _orbit_fsum(terms: np.ndarray, sizes: np.ndarray) -> float:
    """Correctly rounded sum of each term counted its orbit size times.

    A size is split into its binary digits and a term times a power of two
    is exact, so the addends sum exactly to the box's sum and fsum rounds
    it once, at most log2(d! 2^d) + 1 addends per term."""
    parts = [terms[((sizes >> j) & 1).astype(bool)] * 2.0 ** j
             for j in range(int(sizes.max()).bit_length())]
    return math.fsum(memoryview(np.concatenate(parts)))


def _power_tail(s: float, K: int) -> tuple[float, float]:
    """(estimate, rigorous bound on |error|) for sum_{k>K} k^{-s}, s > 1."""
    if s <= 1:
        raise ConvergenceError(f"power tail diverges for exponent {s} <= 1")
    est = (K + 0.5) ** (1.0 - s) / (s - 1.0)
    bound = s / 24.0 * (K - 0.5) ** (-s - 1.0) if K >= 1 else math.inf
    return est, bound


# ---------------------------------------------------------------------------
# product axes


class AxisPow:
    """One-axis factor value(0) = 1, value(k) = |k|^{-beta}, beta > 0."""

    def __init__(self, beta: float):
        if not beta > 0:
            raise InputDomainError("axis power exponent must be positive")
        self.beta = float(beta)

    def weight(self, k: int) -> float:
        """Canonical reciprocal weight |k|'^beta (exact for beta = 1); a
        weight past the double range raises ``CertificationError``, as the
        underflow of its magnitude would."""
        kp = max(abs(k), 1)
        if self.beta == 1.0:
            return float(kp)
        try:
            return float(kp) ** self.beta
        except OverflowError:
            raise CertificationError(
                f"axis weight |{k}|^{self.beta:g} overflows; the magnitude "
                "cannot be represented"
            ) from None

    def value(self, k: int) -> float:
        return 1.0 / self.weight(k)

    def power_sum(self, e: float) -> tuple[float, float]:
        s = self.beta * e
        if s <= 1:
            raise ConvergenceError(
                f"axis power sum diverges: beta*e = {s} <= 1"
            )
        K = 20000
        partial = math.fsum(memoryview(_pow(np.arange(1, K + 1), -s)))
        tail, bound = _power_tail(s, K)
        return 1.0 + 2.0 * (partial + tail), 2.0 * bound

    def describe(self) -> str:
        return f"pow(-{self.beta:g})"


class AxisGeom:
    """One-axis factor value(k) = ratio^{|k|}, 0 < ratio < 1."""

    def __init__(self, ratio: float):
        if not 0 < ratio < 1:
            raise InputDomainError("axis geometric ratio must be in (0, 1)")
        self.ratio = float(ratio)

    def value(self, k: int) -> float:
        return self.ratio ** abs(k)

    def power_sum(self, e: float) -> tuple[float, float]:
        x = self.ratio ** e
        return 1.0 + 2.0 * x / (1.0 - x), 0.0

    def describe(self) -> str:
        return f"geom({self.ratio:g})"


def _axis_index(pos: int) -> int:
    """Lattice index at 0-based position pos of 0, -1, 1, -2, 2, ... (the
    value-descending order of symmetric axes); inverse of ``_seq_position``."""
    if pos % 2:
        return -((pos + 1) // 2)
    return pos // 2


def _seq_position(k: int) -> int:
    """Canonical 1-based position of lattice index k in 0, -1, 1, -2, 2, ..."""
    if k == 0:
        return 1
    return 2 * abs(k) if k < 0 else 2 * k + 1


def _monotone_walk(psi: "PsiSystem", magnitude: Callable[[tuple], float]
                   ) -> Iterator[tuple[float, tuple]]:
    """Certified (magnitude, index) pairs in nonincreasing order for a
    magnitude that never increases along any axis's order 0, -1, 1, -2, ...

    A max-heap keyed by (-value, position vector) holds the frontier.  The
    parent of a position is that position with its last nonzero coordinate
    lowered by one, so a popped position pushes children only along the axes
    from its last nonzero one on, and each position is pushed exactly once.
    The pairs found so far and the heap are the system's own ``_walk``: a
    stream first replays the pairs, then pops from the shared heap and
    appends, so every stream on one system reads one enumeration.  The heap
    top is checked before it is popped, so a non-positive top ends or raises
    at the same index for every reader."""
    if psi._walk is None:
        start = (0,) * psi.d
        psi._walk = ([], [(-magnitude(start), start, start)])
    found, heap = psi._walk
    d, i = psi.d, 0
    while True:
        if i == len(found):
            negv, pos, k = heap[0]
            if not -negv > 0:
                if psi.finite:
                    return
                raise CertificationError(
                    f"magnitude {-negv!r} at index {k} of an infinite system is not "
                    "positive (underflow); the rearrangement cannot be continued"
                )
            last = d - 1
            while last and not pos[last]:
                last -= 1
            # evaluate every child before the state changes, so a magnitude
            # that raises leaves the walk as it was
            children = []
            for j in range(last, d):
                child = pos[:j] + (pos[j] + 1,) + pos[j + 1:]
                ck = k[:j] + (_axis_index(child[j]),) + k[j + 1:]
                children.append((-magnitude(ck), child, ck))
            heapq.heapreplace(heap, children[0])
            for child in children[1:]:
                heapq.heappush(heap, child)
            found.append((-negv, k))
        yield found[i]
        i += 1


# ---------------------------------------------------------------------------
# psi-system variants


class PsiSystem:
    """Common interface; see module docstring for the variants.

    A system is immutable after construction: its streams share one walk,
    which keeps every magnitude it has read."""

    d: int
    variant: str
    theorem_grade: bool  # satisfies nonzero + vanishing hypotheses everywhere
    finite = False  # finitely many nonzero magnitudes, so stream() may end
    # (pairs found, frontier heap) of _monotone_walk; data only, since a
    # generator or closure over the system stored here would make a cycle
    _walk: tuple[list, list] | None = None

    def magnitude(self, k) -> float:
        raise NotImplementedError

    def phase(self, k) -> complex:
        return 1.0 + 0.0j

    def value(self, k) -> complex:
        return self.phase(k) * self.magnitude(k)

    def stream(self) -> Iterator[tuple[float, tuple]]:
        """Lazy certified (magnitude, index) pairs in nonincreasing order."""
        raise NotImplementedError

    def power_sum_total(self, e: float) -> tuple[float, float]:
        """(sum over Z^d of magnitude^e, rigorous error bound)."""
        raise NotImplementedError

    def nu(self, n: int) -> float:
        """sup of magnitude over |k| >= n (one-dimensional systems)."""
        if self.d != 1:
            raise InputDomainError("nu(n) requires a one-dimensional system")
        return max(self.magnitude((n,)), self.magnitude((-n,)))

    def key(self, k) -> tuple:
        if isinstance(k, (int, np.integer)):
            return (int(k),)
        return tuple(int(x) for x in k)

    def describe(self) -> str:
        return self.variant


class ProductPsi(PsiSystem):
    def __init__(self, axes: Sequence):
        if not axes:
            raise InputDomainError("product system needs at least one axis")
        self.axes = tuple(axes)
        self.d = len(self.axes)
        self.variant = "product[" + ",".join(a.describe() for a in self.axes) + "]"
        self.theorem_grade = True
        self._all_pow = all(isinstance(a, AxisPow) for a in self.axes)
        self._all_geom_same = (
            all(isinstance(a, AxisGeom) for a in self.axes)
            and len({a.ratio for a in self.axes}) == 1
        )

    def magnitude(self, k) -> float:
        k = self.key(k)
        if len(k) != self.d:
            raise InputDomainError(f"index {k} has wrong dimension for d={self.d}")
        if self._all_pow:
            w = 1.0
            for a, kj in zip(self.axes, k):
                w *= a.weight(kj)
            return 1.0 / w
        if self._all_geom_same:
            return self.axes[0].ratio ** sum(abs(x) for x in k)
        v = 1.0
        for a, kj in zip(self.axes, k):
            v *= a.value(kj)
        return v

    def stream(self) -> Iterator[tuple[float, tuple]]:
        return _monotone_walk(self, self.magnitude)

    def power_sum_total(self, e: float) -> tuple[float, float]:
        total, rel_hi, rel_lo = 1.0, 1.0, 1.0
        for a in self.axes:
            v, b = a.power_sum(e)
            total *= v
            rel_hi *= 1.0 + b / v
            rel_lo *= max(0.0, 1.0 - b / v)
        return total, total * max(rel_hi - 1.0, 1.0 - rel_lo)


class RadialPsi(PsiSystem):
    """psi(k) = profile(|k|_r) with a positive nonincreasing profile;
    profile(0) is read as profile(1)."""

    def __init__(
        self,
        profile: Callable[[float], float] | tuple,
        d: int,
        r: float = math.inf,
        power_bound: tuple[float, float, float] | None = None,
        origin: str = "clamp",
    ):
        self.d = int(d)
        self.r = float(r) if r != math.inf else math.inf
        if self.d < 1:
            raise InputDomainError("dimension must be >= 1")
        if not self.r > 0:
            raise InputDomainError(f"norm order must be in (0, inf], got {r}")
        if origin not in ("clamp", "exact"):
            raise InputDomainError("origin must be 'clamp' or 'exact'")
        self.origin = origin
        self.form: tuple | None = None
        if isinstance(profile, tuple):
            self.form = profile
            kind = profile[0]
            if kind == "pow":
                beta = float(profile[1])
                if beta <= 0:
                    raise InputDomainError("radial power exponent must be positive")
                if origin == "exact":
                    raise InputDomainError(
                        "a radial power profile is infinite at t = 0; use origin='clamp'"
                    )
                self._func = lambda t: float(t) ** (-beta)
            elif kind == "geom":
                rho = float(profile[1])
                if not 0 < rho < 1:
                    raise InputDomainError("radial geometric ratio must be in (0,1)")
                self._func = lambda t: rho ** float(t)
            else:
                raise InputDomainError(f"unknown radial profile form {kind!r}")
        else:
            self._func = profile
        self.power_bound = power_bound
        self.variant = f"radial[{self._describe_form()}, r={self.r:g}, d={self.d}]"
        self.theorem_grade = True
        if self.form is None:
            # the tuple forms are valid by construction (and rho**512 may
            # underflow to 0.0 for a valid geometric ratio)
            self._spot_check()

    def _describe_form(self) -> str:
        if self.form:
            return f"{self.form[0]}({self.form[1]:g})"
        return "callable"

    def _spot_check(self):
        prev = None
        grid = [1.0, 1.5, 2.0, 4.0, 8.0, 32.0, 128.0, 512.0]
        if self.origin == "exact":
            grid = [0.0, 0.5] + grid
        for t in grid:
            v = self._func(t)
            if not (v > 0 and math.isfinite(v)):
                raise InputDomainError(f"radial profile must be positive/finite, got {v} at t={t}")
            if prev is not None and v > prev * (1 + 1e-12):
                raise InputDomainError("radial profile must be nonincreasing")
            prev = v

    def profile(self, t: float) -> float:
        """Profile value; under the 'clamp' convention the value below t=1
        is read at t=1 (so the origin carries the first positive value)."""
        if self.origin == "clamp":
            t = max(t, 1.0)
        return self._func(t)

    def magnitude(self, k) -> float:
        k = self.key(k)
        if len(k) != self.d:
            raise InputDomainError(f"index {k} has wrong dimension for d={self.d}")
        return self.profile(lattice_norm(k, self.r))

    def stream(self) -> Iterator[tuple[float, tuple]]:
        # the profile is nonincreasing and |k|_r grows with each |k_j|
        return _monotone_walk(self, lambda k: self.profile(lattice_norm(k, self.r)))

    def _shell_monomials(self) -> list[tuple[float, int]]:
        """(coefficient, power) pairs with sum c m^j = (2m+1)^d - (2m-1)^d,
        the number of lattice points on the sup-norm shell of radius m."""
        d = self.d
        out = []
        for j in range(1, d + 1, 2):
            out.append((2.0 * math.comb(d, j) * 2.0 ** (d - j), d - j))
        return out

    def _pow_tail_weighted(self, s: float, B: int) -> tuple[float, float]:
        """(estimate, bound) for sum over sup-norm shells m > B of
        shell_count(m) * m^{-s}."""
        est, bnd = 0.0, 0.0
        for coef, j in self._shell_monomials():
            if s - j <= 1:
                raise ConvergenceError(
                    f"radial power sum diverges: effective exponent {s - j} <= 1"
                )
            t, b = _power_tail(s - j, B)
            est += coef * t
            bnd += coef * b
        return est, bnd

    def _box_sum(self, e: float, B: int) -> float:
        """Sum of magnitude^e over the box [-B, B]^d, with one profile
        evaluation per orbit of the signed-permutation group (its members
        share |k|_r, as ``lattice_norm`` canonicalizes)."""
        reps, sizes = _orbit_representatives(self.d, B)
        t = _orbit_norms(reps, self.r)
        if self.origin == "clamp":
            t = np.maximum(t, 1.0)
        values = np.fromiter(map(self._func, memoryview(t)), np.float64, t.shape[0])
        return _orbit_fsum(_pow(values, e), sizes)

    def _tail_outside(self, e: float, B: int) -> tuple[float, float]:
        """(estimate, bound) for the sum of magnitude^e outside [-B, B]^d;
        raises ``ConvergenceError`` when it diverges or has no certified
        rule, before any box work."""
        form = self.form
        if form is None and self.power_bound is not None:
            C, beta, t0 = self.power_bound
            if B < t0:
                raise ConvergenceError("certification box does not reach power bound range")
            # conservative: treat as a power profile scaled by C (upper bound)
            est, bnd = self._pow_tail_weighted(beta * e, B)
            upper = est * C ** e
            return upper / 2.0, upper / 2.0 + bnd * C ** e
        if form is None:
            raise ConvergenceError(
                "no certified tail rule for a callable radial profile; "
                "supply power_bound=(C, beta, t0)"
            )
        kind, param = form[0], float(form[1])
        if kind == "pow":
            s = param * e
            # every point on the shell of sup-norm radius m has |k|_r in
            # [m, d^{1/r} m]; for r = inf or d = 1 the value is exact
            upper_est, upper_bnd = self._pow_tail_weighted(s, B)
            if self.r == math.inf or self.d == 1:
                return upper_est, upper_bnd
            c = float(self.d) ** (1.0 / self.r)
            lower_est = upper_est * c ** (-s)
            mid = 0.5 * (upper_est + lower_est)
            half = 0.5 * (upper_est - lower_est)
            return mid, half + upper_bnd
        # geometric profile: extend the shell sum until increments vanish
        x = param ** e

        def shell_tail(base: float) -> tuple[float, float]:
            acc = 0.0
            m = B + 1
            while True:
                shell = (2 * m + 1) ** self.d - (2 * m - 1) ** self.d
                term = shell * base ** m
                acc += term
                if term < 1e-18 * max(acc, 1e-300) or m > B + 100_000:
                    rest = term * 2.0 / max(1e-12, 1.0 - base * ((m + 2) / (m + 1)) ** (self.d - 1))
                    return acc, rest
                m += 1

        upper, ub = shell_tail(x)
        if self.r == math.inf or self.d == 1:
            return upper, ub
        lower, lb = shell_tail(x ** (float(self.d) ** (1.0 / self.r)))
        mid = 0.5 * (upper + lower)
        return mid, 0.5 * (upper - lower) + ub + lb

    def power_sum_total(self, e: float) -> tuple[float, float]:
        B = 20000 if self.d == 1 else (96 if self.d == 2 else 24)
        tail, bound = self._tail_outside(e, B)
        return self._box_sum(e, B) + tail, bound


class ExplicitTablePsi(PsiSystem):
    """Finite positive table on lattice indices, zero beyond (test-only: the
    zero tail violates the everywhere-nonzero hypothesis, so theorem-level
    operations flag this variant)."""

    finite = True

    def __init__(self, entries: dict, d: int | None = None):
        norm: dict[tuple, float] = {}
        for k, v in entries.items():
            key = (int(k),) if isinstance(k, (int, np.integer)) else tuple(int(x) for x in k)
            if d is None:
                d = len(key)
            if len(key) != d:
                raise InputDomainError("inconsistent index dimensions in table")
            v = float(v)
            if not v > 0:
                raise InputDomainError("table magnitudes must be positive")
            norm[key] = v
        if not norm:
            raise InputDomainError("table must be nonempty")
        self.entries = norm
        self.d = int(d)
        self.variant = f"explicit-table[{len(norm)} entries]"
        self.theorem_grade = False

    def magnitude(self, k) -> float:
        k = self.key(k)
        return self.entries.get(k, 0.0)

    def stream(self) -> Iterator[tuple[float, tuple]]:
        for k, v in sorted(self.entries.items(), key=lambda kv: (-kv[1], kv[0])):
            yield v, k

    def power_sum_total(self, e: float) -> tuple[float, float]:
        return math.fsum(v ** e for v in self.entries.values()), 0.0

    def nu(self, n: int) -> float:
        if self.d != 1:
            raise InputDomainError("nu(n) requires a one-dimensional system")
        return max(
            (v for k, v in self.entries.items() if abs(k[0]) >= n), default=0.0
        )

    def support(self) -> frozenset:
        return frozenset(self.entries)


class ExplicitSeqPsi(PsiSystem):
    """One-dimensional system given directly by its decreasing rearrangement:
    position j (canonical order 0, -1, 1, -2, 2, ... of the lattice) carries
    the j-th value of the sequence."""

    def __init__(self, head: Sequence[float], continuation: tuple):
        self.head = tuple(float(v) for v in head)
        self.continuation = continuation
        kind = continuation[0]
        if kind == "pow":
            s, scale = float(continuation[1]), float(continuation[2])
            if s <= 0 or scale <= 0:
                raise InputDomainError("power sequence needs s > 0, scale > 0")
            self._cont = lambda j: scale * float(j) ** (-s)
            self.theorem_grade = True
        elif kind == "geom":
            ratio = float(continuation[1])
            if not 0 < ratio < 1:
                raise InputDomainError("geometric ratio must be in (0,1)")
            first = float(continuation[2])
            k0 = len(self.head)
            last = self.head[-1] if self.head else first / ratio
            self._cont = lambda j: last * ratio ** (j - k0)
            self.theorem_grade = True
        elif kind == "zero":
            self._cont = lambda j: 0.0
            self.theorem_grade = False
            self.finite = True
            if not self.head:
                raise InputDomainError("zero-tail sequence needs a nonempty head")
        else:
            raise InputDomainError(f"unknown sequence continuation {kind!r}")
        # validate nonincreasing positive merged sequence on a prefix
        prev = math.inf
        for j in range(1, max(len(self.head) + 8, 32)):
            v = self.seq(j)
            if v < 0 or v > prev * (1 + 1e-12):
                raise InputDomainError("sequence form must be nonincreasing and nonnegative")
            prev = v
        self.d = 1
        self.variant = f"explicit-seq[{kind}]"

    @classmethod
    def power(cls, s: float, scale: float = 1.0) -> "ExplicitSeqPsi":
        return cls((), ("pow", s, scale))

    @classmethod
    def harmonic(cls) -> "ExplicitSeqPsi":
        return cls.power(1.0)

    @classmethod
    def geometric(cls, ratio: float, first: float = 1.0) -> "ExplicitSeqPsi":
        return cls((), ("geom", ratio, first))

    @classmethod
    def table(cls, values: Sequence[float], tail: tuple = ("zero",)) -> "ExplicitSeqPsi":
        return cls(tuple(values), tail)

    def seq(self, j: int) -> float:
        if j <= len(self.head):
            return self.head[j - 1]
        return self._cont(j)

    def magnitude(self, k) -> float:
        k = self.key(k)
        if len(k) != 1:
            raise InputDomainError("sequence systems are one-dimensional")
        return self.seq(_seq_position(k[0]))

    def stream(self) -> Iterator[tuple[float, tuple]]:
        return _monotone_walk(self, self.magnitude)

    def power_sum_total(self, e: float) -> tuple[float, float]:
        kind = self.continuation[0]
        K = len(self.head)
        head_sum = math.fsum(v ** e for v in self.head)
        if kind == "zero":
            return head_sum, 0.0
        if kind == "pow":
            s = float(self.continuation[1]) * e
            scale = float(self.continuation[2]) ** e
            if s <= 1:
                raise ConvergenceError(f"sequence power sum diverges: s*e = {s} <= 1")
            P = 4096
            cont = np.fromiter(map(self._cont, range(K + 1, K + P + 1)), np.float64, P)
            partial = math.fsum(memoryview(_pow(cont, e)))
            tail, bound = _power_tail(s, K + P)
            return head_sum + partial + scale * tail, scale * bound
        # geometric continuation
        x = float(self.continuation[1]) ** e
        first_tail = self.seq(K + 1) ** e
        return head_sum + first_tail / (1.0 - x), 0.0


class PhasedPsi(PsiSystem):
    """A psi-system with a unit complex phase attached to each index; all
    magnitude-driven quantities ignore the phase, only the integral /
    derivative transforms see it."""

    def __init__(self, base: PsiSystem, phase_fn: Callable):
        self.base = base
        self.phase_fn = phase_fn
        self.d = base.d
        self.variant = base.variant + "+phase"
        self.theorem_grade = base.theorem_grade
        self.finite = base.finite

    def magnitude(self, k) -> float:
        return self.base.magnitude(k)

    def phase(self, k) -> complex:
        ph = complex(self.phase_fn(self.key(k)))
        mod = abs(ph)
        if not math.isfinite(mod) or abs(mod - 1.0) > 1e-9:
            raise InputDomainError("phase values must lie on the unit circle")
        return ph

    def stream(self):
        return self.base.stream()

    def power_sum_total(self, e: float):
        return self.base.power_sum_total(e)

    def nu(self, n: int) -> float:
        return self.base.nu(n)


# ---------------------------------------------------------------------------
# characteristic sequences


@dataclass(frozen=True)
class CharSeq:
    """Distinct magnitudes in decreasing order with their level sets."""

    eps: tuple[float, ...]
    delta: tuple[int, ...]
    shells: tuple[tuple[tuple, ...], ...]  # shell n = g_n \ g_{n-1}

    def __post_init__(self):
        if any(a <= b for a, b in zip(self.eps, self.eps[1:])):
            raise InputDomainError("eps must be strictly decreasing")
        if any(a >= b for a, b in zip(self.delta, self.delta[1:])):
            raise InputDomainError("delta must be strictly increasing")

    @property
    def n_levels(self) -> int:
        return len(self.eps)

    def g(self, n: int) -> frozenset:
        """Level set g_n (empty for n = 0)."""
        if n < 0 or n > len(self.shells):
            raise InputDomainError(f"level {n} outside materialized range")
        out: set = set()
        for shell in self.shells[:n]:
            out.update(shell)
        return frozenset(out)

    def level_of_value(self, value: float) -> int:
        """1-based level index of an exact magnitude value."""
        try:
            return self._index()[value]
        except KeyError:
            raise InputDomainError(f"magnitude {value!r} is not a materialized level") from None

    def _index(self) -> dict:
        idx = getattr(self, "_idx_cache", None)
        if idx is None:
            idx = {v: i + 1 for i, v in enumerate(self.eps)}
            object.__setattr__(self, "_idx_cache", idx)
        return idx


def build_charseq(
    psi: PsiSystem,
    levels: int | None = None,
    down_to_value: float | None = None,
) -> CharSeq:
    """Materialize characteristic data from the certified enumeration.

    Stop once ``levels`` distinct magnitudes (or all values >=
    ``down_to_value``) have been produced *and* the following value is
    strictly smaller, which certifies the last level's multiplicity.
    """
    if levels is None and down_to_value is None:
        raise InputDomainError("specify levels or down_to_value")
    if levels is not None and levels < 1:
        raise InputDomainError("levels must be >= 1")
    eps: list[float] = []
    delta: list[int] = []
    shells: list[list[tuple]] = []

    def targets_met() -> bool:
        if levels is not None and len(eps) < levels:
            return False
        if down_to_value is not None and (not eps or eps[-1] > down_to_value):
            return False
        return True

    exhausted = False
    for v, k in psi.stream():
        if eps and v == eps[-1]:
            shells[-1].append(k)
            continue
        if targets_met():
            break
        eps.append(v)
        shells.append([k])
        delta.append(0)
    else:
        exhausted = True
    if not targets_met() and exhausted and levels is not None and len(eps) < levels:
        raise CertificationError(
            f"system has only {len(eps)} levels, {levels} requested"
        )
    run = 0
    for i, shell in enumerate(shells):
        run += len(shell)
        delta[i] = run
    return CharSeq(
        eps=tuple(eps),
        delta=tuple(delta),
        shells=tuple(tuple(s) for s in shells),
    )


def rearrangement(psi: PsiSystem, K: int) -> np.ndarray:
    """First K values of the decreasing rearrangement (with multiplicity);
    fewer when a finite system runs out."""
    if K < 1:
        raise InputDomainError("K must be >= 1")
    vals = np.fromiter(
        (v for v, _ in itertools.islice(psi.stream(), K)), dtype=np.float64, count=-1
    )
    if vals.shape[0] < K and not psi.finite:
        raise CertificationError("enumeration ended prematurely")
    return vals


def rearrangement_padded(psi: PsiSystem, K: int) -> np.ndarray:
    """Like :func:`rearrangement` but zero-padded for exhausted finite systems."""
    vals = rearrangement(psi, K)
    return np.pad(vals, (0, K - vals.shape[0]))


# ---------------------------------------------------------------------------
# psi-integral / psi-derivative


def psi_integral(f: Spectrum, psi: PsiSystem) -> Spectrum:
    """Multiply each coefficient by psi(k) (phase times magnitude)."""
    if f.kind != "lattice" or f.d != psi.d:
        raise InputDomainError("psi transforms need a lattice spectrum of matching dimension")
    return Spectrum.lattice({k: c * psi.value(k) for k, c in f.items()}, f.d)


def psi_derivative(f: Spectrum, psi: PsiSystem) -> Spectrum:
    """Divide each coefficient by psi(k); requires psi nonzero on the support."""
    if f.kind != "lattice" or f.d != psi.d:
        raise InputDomainError("psi transforms need a lattice spectrum of matching dimension")
    out = {}
    for k, c in f.items():
        v = psi.value(k)
        if v == 0:
            raise InputDomainError(f"psi vanishes at {k}; derivative undefined there")
        out[k] = c / v
    return Spectrum.lattice(out, f.d)


# ---------------------------------------------------------------------------
# tail sums of the rearrangement


def tail_sum(
    psi: PsiSystem,
    exponent: float,
    start: int = 1,
    tol: float = 1e-9,
) -> tuple[float, float]:
    """(value, bound) with value ~ sum_{j >= start} of rearrangement^exponent.

    The total over the lattice comes from the variant's certified closed-form
    machinery; the finite prefix is subtracted exactly.  Raises
    ``ConvergenceError`` when the series diverges or the rigorous bound cannot
    be brought below ``tol``.
    """
    if exponent <= 0:
        raise ConvergenceError("terms do not decay: exponent must be positive")
    if start < 1:
        raise InputDomainError("start index must be >= 1")
    certified = psi.power_sum_total(exponent)
    head = rearrangement_padded(psi, start - 1) if start > 1 else ()
    return _tail_after(certified, head, exponent, tol)


def _tail_after(certified: tuple[float, float], head: Sequence[float],
                exponent: float, tol: float) -> tuple[float, float]:
    """(value, bound) of a certified (total, bound) power sum less the head
    values raised to ``exponent``; the bound absorbs the rounding of the
    subtraction.  Raises ``ConvergenceError`` when it exceeds ``tol``."""
    total, bound = certified
    prefix = math.fsum(v ** exponent for v in head)
    bound = bound + 1e-15 * (abs(total) + prefix)
    if bound > tol:
        raise ConvergenceError(
            f"tail bound {bound:.3e} above requested tolerance {tol:.3e}"
        )
    return max(total - prefix, 0.0), bound
