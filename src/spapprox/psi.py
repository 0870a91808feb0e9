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

Enumeration of the decreasing rearrangement is lazy and *certified*.  Equal
systems share one sorted prefix of it as read-only arrays (magnitudes and an
(N, d) index array) and one table of certified power sums, held in
``_store`` under the system's value key (see ``PsiSystem``), so a system
built again from the same parameters reads what an earlier one certified.
A system holds its entry from its first read on.  The prefix grows in
blocks: a block holds every index whose magnitude exceeds a threshold t,
and every index outside it has magnitude at most t.  Product systems build
the block axis by axis from partial products, radial ones from
signed-permutation orbits in a box, sequence forms from positions directly.
The first block aims at 256 pairs or the read, if larger, and each later
one at twice the prefix or the read, so a prefix grows in a few blocks; the
doubling stops once at ``_PREFIX_CAP`` pairs, where a read by value on an
infinite system ends.  A radial box starts at the smallest
power of two radius whose box can hold the aim, and evaluates the profile
(and any power of it) once per distinct norm.  A block raises only when it
cannot certify the read; short of its aim it keeps what it certified, so a
read never depends on the reads before it.  A block is sorted by
(-magnitude, position vector), where an axis reads the positions 0, -1, 1,
-2, 2, ...; that order is total, so a grown prefix extends the old one and
every stream on a system replays one enumeration.  A magnitude that is not
a positive double ends the stream of a finite system; on an infinite system
it can only be an underflow (or an overflowing weight), and the stream
raises ``CertificationError`` there.  With the prefix the store keeps the
ends of its certified levels, found once per growth, so ``build_charseq``
is a slice of them.
Magnitudes are evaluated in a canonical order (integer accumulation where
possible) so that equal-by-construction values compare equal as doubles;
level grouping uses exact comparison.
"""

from __future__ import annotations

import functools
import itertools
import math
import types
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import (
    CertificationError,
    ConvergenceError,
    InputDomainError,
    require_count,
)
from .spectrum import Spectrum, _pow

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
    """Correctly rounded sum of each term counted ``sizes`` times.

    A size is split into its binary digits and a term times a power of two
    is exact, so the addends sum exactly to the box's sum and fsum rounds
    it once, at most log2(size) + 1 addends per term."""
    parts = [terms[((sizes >> j) & 1).astype(bool)] * 2.0 ** j
             for j in range(int(sizes.max()).bit_length())]
    return math.fsum(memoryview(np.concatenate(parts)))


def _orbit_members(reps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every distinct signed permutation of each row of ``reps`` (rows
    k_1 >= ... >= k_d >= 0) and the row it came from: a permutation that
    swaps equal entries is skipped, and only a nonzero entry is negated."""
    d = reps.shape[1]
    points, rows = [], []
    for perm in itertools.permutations(range(d)):
        swaps = [j for j in range(d - 1) if perm.index(j) > perm.index(j + 1)]
        distinct = np.all(reps[:, swaps] != reps[:, [j + 1 for j in swaps]], axis=1)
        for signs in itertools.product((1, -1), repeat=d):
            ok = distinct & np.all((reps != 0) | (np.array(signs) > 0), axis=1)
            points.append((reps[ok] * signs)[:, perm])
            rows.append(np.flatnonzero(ok))
    return np.concatenate(points), np.concatenate(rows)


_FIRST_BLOCK = 256  # pairs the first block of a new prefix aims at
# a read by value on an infinite system ends within this many pairs, and the
# prefix's doubling stops here; about twice the deepest budgeted read
# (classes.SIGMA_SCAN_BUDGET + _SIGMA_STEP_CAP).  Explicit counts pass it
_PREFIX_CAP = 2 ** 21
_ULP = 2.0 ** -52  # one unit in the last place, relative to the value
_HEAD = 64  # terms a power sum adds one by one before its Euler-Maclaurin tail


def _power_tail(s: float, K: int) -> tuple[float, float]:
    """(estimate, rigorous bound on |error|) for sum_{k>K} k^{-s}, s > 1,
    K >= 1, by Euler-Maclaurin at K: the integral K^{1-s}/(s-1), less half
    the term at K, plus B_2j/(2j)! (s)_{2j-1} K^{-s-2j+1} for j = 1, 2, 3.
    The even derivatives of x^{-s} are positive, so the remainder has the
    sign of the j = 4 term and at most its size, (s)_7 K^{-s-7} / 1209600.
    The bound adds 16 ulps of the terms' absolute sum for rounding: the C
    ``pow`` has one, a term at most 6 and the sum and product 3 more."""
    if s <= 1:
        raise ConvergenceError(f"power tail diverges for exponent {s} <= 1")
    k, x = float(K), float(K) ** -s
    c1 = s / k  # (s)_{2j-1} / K^{2j-1}
    c3 = c1 * (s + 1.0) * (s + 2.0) / (k * k)
    c5 = c3 * (s + 3.0) * (s + 4.0) / (k * k)
    c7 = c5 * (s + 5.0) * (s + 6.0) / (k * k)
    terms = (k / (s - 1.0), -0.5, c1 / 12.0, -c3 / 720.0, c5 / 30240.0)
    rounding = 16.0 * _ULP * sum(map(abs, terms))
    return x * sum(terms), x * (c7 / 1209600.0 + rounding)


def _sum_rounding(total: float, e: float) -> float:
    """Bound on the rounding in a total of positive terms u^e with u within
    two ulps: a term carries 2e ulps from u and one from the power, and
    each of at most two rounded sums adds half of one."""
    return (2.0 * e + 2.0) * _ULP * total


def _geom_shells(d: int, L: float, B: int) -> tuple[float, float]:
    """(sum over the sup-norm shells m > B of Z^d of count(m) y^m, y = e^L
    < 1, rounding bound) in closed form: count(B + 1 + j) = c(j) is a
    polynomial of degree d - 1 with nonnegative forward differences, and
    sum_j c(j) y^j = sum_k Delta^k c(0) y^k / (1 - y)^{k+1}.  1 - y is
    -expm1(L), so 1/(1 - y) does not amplify y's rounding; the positive
    terms carry at most 1.5 (B + d) |L| + 7 d + 8 ulps (3 (B + d) |L| when
    L is scaled)."""
    counts = [(2 * m + 1) ** d - (2 * m - 1) ** d for m in range(B + 1, B + 1 + d)]
    om = -math.expm1(L)
    ratio, total = math.exp(L) / om, 0.0
    for k in range(d):
        total += counts[0] * ratio ** k
        counts = [b - a for a, b in zip(counts, counts[1:])]
    total *= math.exp((B + 1) * L) / om
    return total, (4.0 * (B + 1 + d) * abs(L) + 8.0 * (d + 1)) * _ULP * total


# ---------------------------------------------------------------------------
# product axes


class AxisPow:
    """One-axis factor value(0) = 1, value(k) = |k|^{-beta}, beta > 0."""

    def __init__(self, beta: float):
        if not beta > 0:
            raise InputDomainError("axis power exponent must be positive")
        self.beta = float(beta)
        self._table = np.empty(0)

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

    def weights(self, m: int) -> np.ndarray:
        """``weight`` of |k| = 0, ..., m - 1; inf past the double range.  A
        read-only slice of one table per axis, grown by doubling, so the
        repeated reads of a product block cost one power per entry."""
        if (n := self._table.shape[0]) < m:
            fresh = _pow(np.maximum(np.arange(n, max(m, 2 * n)), 1), self.beta)
            self._table = np.concatenate((self._table, fresh))
            self._table.flags.writeable = False
        return self._table[:m]

    def values(self, m: int) -> np.ndarray:
        return 1.0 / self.weights(m)

    def power_sum(self, e: float) -> tuple[float, float]:
        s = self.beta * e
        tail, bound = _power_tail(s, _HEAD)
        partial = math.fsum(memoryview(_pow(np.arange(1, _HEAD + 1), -s)))
        total = 1.0 + 2.0 * (partial + tail)
        return total, 2.0 * bound + _sum_rounding(total, e)

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

    def values(self, m: int) -> np.ndarray:
        """``value`` of |k| = 0, ..., m - 1."""
        return np.fromiter(map(math.pow, itertools.repeat(self.ratio), range(m)),
                           np.float64, m)

    def power_sum(self, e: float) -> tuple[float, float]:
        tail, bound = _geom_shells(1, e * math.log(self.ratio), 0)
        total = 1.0 + tail
        return total, bound + _sum_rounding(total, e)

    def describe(self) -> str:
        return f"geom({self.ratio:g})"


def _axis_index(pos):
    """Lattice index at 0-based position pos of 0, -1, 1, -2, 2, ... (the
    value-descending order of symmetric axes); inverse of ``_seq_position``.
    Integers or integer arrays."""
    return (pos + 1) // 2 * (1 - 2 * (pos % 2))


def _seq_position(k):
    """Canonical 1-based position of lattice index k in 0, -1, 1, -2, 2, ...
    Integers or integer arrays."""
    return 2 * abs(k) + (k >= 0)


def _level_ends(vals: np.ndarray, ended: bool) -> np.ndarray:
    """1-based ends of the certified levels of sorted magnitudes: a level
    counts once a smaller value follows it, the last one only if the system
    has ended there."""
    return np.flatnonzero(np.append(vals[1:] != vals[:-1], ended)[: vals.shape[0]]) + 1


class _Same:
    """A key part that matches only the object it holds (a profile callable
    need not be hashable, and equal callables need not compute alike); held,
    the object's address is not freed for another to match."""

    __slots__ = ("obj",)

    def __init__(self, obj):
        self.obj = obj

    def __eq__(self, other):
        return isinstance(other, _Same) and other.obj is self.obj

    def __hash__(self):
        return id(self.obj)


@functools.lru_cache(maxsize=8)
def _store(key) -> types.SimpleNamespace:
    """What the systems with value key ``key`` share: ``prefix``, the
    certified (magnitudes, indices, level ends, complete) or None, and
    ``sums``, {e: power_sum_total(e)}.  A system holds its entry from its
    first read on, so the store only decides what a new system finds."""
    return types.SimpleNamespace(prefix=None, sums={})


def _power_sum(psi: "PsiSystem", e: float) -> tuple[float, float]:
    """``psi.power_sum_total(e)``, computed once per value key and exponent."""
    sums = psi._entry.sums
    if e not in sums:
        sums[e] = psi.power_sum_total(e)
    return sums[e]


# ---------------------------------------------------------------------------
# psi-system variants


class PsiSystem:
    """Common interface; see module docstring for the variants.

    A system is immutable after construction, and equal systems share one
    certified prefix, which keeps every magnitude read: streams and array
    readers of every system with the same value key ``_key`` read it.  The
    key is recorded at construction from what fixes every magnitude:

    * product: the class and ``beta`` or ``ratio`` of each axis (any other
      axis by identity);
    * radial: the form's kind and parameter, or the profile callable by
      identity, with ``d``, ``r``, ``origin`` and ``power_bound``;
    * sequence: ``head`` and the continuation's kind and parameters;
    * table: the system itself; a phased system reads its base's entry.

    A system holds its entry from its first read on, so it keeps its prefix
    while it lives.  Systems themselves compare by identity (no ``__eq__``)."""

    d: int
    variant: str
    theorem_grade: bool  # satisfies nonzero + vanishing hypotheses everywhere
    finite = False  # finitely many nonzero magnitudes, so stream() may end
    _key: object  # what ``_store`` is keyed by

    @functools.cached_property
    def _entry(self) -> types.SimpleNamespace:
        return _store(self._key)

    def magnitude(self, k) -> float:
        raise NotImplementedError

    def phase(self, k) -> complex:
        return 1.0 + 0.0j

    def value(self, k) -> complex:
        return self.phase(k) * self.magnitude(k)

    def stream(self) -> Iterator[tuple[float, tuple]]:
        """Lazy certified (magnitude, index) pairs in nonincreasing order:
        the pairs of the certified prefix as Python values, growing it as
        they are read.  A finite system's stream ends after its last
        positive magnitude, an infinite one's raises there.  Each variant
        binds this one method as its own ``stream``, the attribute that
        ``perfbench/tracing.py`` wraps per class."""
        n = 0
        while True:
            vals, idx, _, _ = self._rearranged(n + 1)
            if vals.shape[0] <= n:
                return
            m = min(vals.shape[0], 2 * n + 64)
            yield from zip(vals[n:m].tolist(), map(tuple, idx[n:m].tolist()))
            n = m

    def _rearranged(self, count: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, bool]:
        """The certified prefix, magnitudes and (N, d) indices sorted by
        (-magnitude, position vector), the ends of its certified levels and
        whether it is complete, grown to ``count`` pairs by one
        ``_block(count, aim)``: (magnitudes, indices, complete), in any
        order, of every index whose magnitude exceeds a threshold no other
        index exceeds, at least ``count`` of them, and ``aim`` unless the
        system cannot certify that many, or, if complete, every positive
        one.  A new prefix aims at ``max(count, _FIRST_BLOCK)``, a grown one
        at ``max(count, 2N)``, so a few blocks serve every later read, and
        each growth finds its level ends once; short of ``_PREFIX_CAP`` the
        doubling stops at the cap, where a read by value ends.  The prefix
        ends at the first magnitude that is not a positive double: a finite
        system's is short there, an infinite one raises.  Equal systems
        share it, read-only."""
        pre = (store := self._entry).prefix
        if pre is None or (pre[0].shape[0] < count and not pre[3]):
            reached = 0 if pre is None else pre[0].shape[0]
            grow = _FIRST_BLOCK if pre is None else 2 * reached
            vals, idx, complete = self._block(
                count, max(count, grow if reached >= _PREFIX_CAP else min(grow, _PREFIX_CAP)))
            order = np.lexsort((*_seq_position(idx).T[::-1], -vals))
            vals, idx = vals[order], idx[order]
            stop = np.append(np.flatnonzero(~(vals > 0)), vals.shape[0])[0]
            complete = complete or stop < vals.shape[0]
            vals = vals[:stop]
            pre = store.prefix = (vals, idx[:stop], _level_ends(vals, complete and self.finite), complete)
            for a in pre[:3]:
                a.flags.writeable = False
        if pre[0].shape[0] < count and not self.finite:
            raise CertificationError(
                f"magnitude after rearrangement position {pre[0].shape[0]} of an "
                "infinite system is not a positive double (underflow or overflow); "
                "the rearrangement cannot be continued"
            )
        return pre

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
        self._key = (type(self), *((type(a), a.beta) if type(a) is AxisPow else
                                   (type(a), a.ratio) if type(a) is AxisGeom else _Same(a)
                                   for a in self.axes))

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

    stream = PsiSystem.stream

    def _block(self, count: int, aim: int) -> tuple[np.ndarray, np.ndarray, bool]:
        if self._all_geom_same:
            # ratio ** sum|k_j| is the geometric profile of the l1 norm
            return RadialPsi(("geom", self.axes[0].ratio), self.d, r=1.0,
                             origin="exact")._block(count, aim)
        # lower the threshold t until the cross above it holds aim indices,
        # aiming at twice that (at most the cap, for an aim within it) by the
        # growth from the last cross (first from one index at t = 1) but at
        # most to t**2; t = 0 takes every positive one
        t, seen = 0.5, (1.0, 1)
        target = 2.0 * aim if aim > _PREFIX_CAP else min(2.0 * aim, _PREFIX_CAP)
        while True:
            mags, pos = self._cross(t)
            if mags.shape[0] >= aim or t == 0.0:
                return mags, _axis_index(pos), t == 0.0
            rate = max(math.log(mags.shape[0] / seen[1]) / math.log(seen[0] / t), 1e-3)
            seen, t = (t, mags.shape[0]), max(t * (mags.shape[0] / target) ** (1 / rate), t * t)

    def _cross(self, t: float) -> tuple[np.ndarray, np.ndarray]:
        """Magnitudes and position vectors of every index whose magnitude
        exceeds t >= 0, built axis by axis as ``magnitude`` multiplies.  The
        magnitude never grows along an axis's positions, nor when a partial
        index takes the next axis, so a partial keeps a run of the next
        axis's positions (found on the rounded product of magnitudes, with
        slack, then checked exactly) and no partial at or below t grows."""
        final = (lambda w: 1.0 / w) if self._all_pow else (lambda v: v)
        acc, pos = np.ones(1), np.zeros((1, 0), dtype=np.int64)
        with np.errstate(over="ignore", divide="ignore"):
            for a in self.axes:
                m = 64
                while final((q := a.weights(m) if self._all_pow else a.values(m))[-1]) > t:
                    m *= 2
                q = q[(np.arange(2 * m - 1) + 1) // 2]  # by position
                run = np.searchsorted(-final(q), -(1.0 - 1e-9) * t / final(acc))
                rows = np.repeat(np.arange(acc.shape[0]), run)
                step = np.arange(rows.shape[0]) - np.repeat(np.cumsum(run) - run, run)
                acc, pos = acc[rows] * q[step], np.column_stack([pos[rows], step])
                keep = final(acc) > t
                acc, pos = acc[keep], pos[keep]
        return final(acc), pos

    def power_sum_total(self, e: float) -> tuple[float, float]:
        # relative error prod(1 + b/v) - 1 (>= 1 - prod(1 - b/v)), grown without
        # forming 1 + b/v, which rounds an ulp-sized b/v away; plus d/2 ulps
        total, rel = 1.0, 0.5 * self.d * _ULP
        for a in self.axes:
            v, b = a.power_sum(e)
            total *= v
            rel += b / v + rel * b / v
        return total, total * rel


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
        self.d = require_count(d, "dimension", 1)
        self.r = float(r) if r != math.inf else math.inf
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
        # floats, so that equal keys compute with the same arithmetic
        self.power_bound = None if power_bound is None else tuple(map(float, power_bound))
        form = _Same(profile) if self.form is None else (kind, float(profile[1]))
        self._key = (type(self), form, self.d, self.r, origin, self.power_bound)
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

    stream = PsiSystem.stream

    def _profile_values(self, t: np.ndarray) -> np.ndarray:
        """``profile`` at each norm in t, by the same arithmetic, evaluated
        once per distinct norm (a box at r = inf has only B + 1), which is bit
        for bit the same."""
        t, inverse = np.unique(np.maximum(t, 1.0) if self.origin == "clamp" else t,
                               return_inverse=True)
        if self.form is not None and self.form[0] == "pow":
            return _pow(t, -float(self.form[1]))[inverse]
        return np.fromiter(map(self._func, memoryview(t)), np.float64, t.shape[0])[inverse]

    def _block(self, count: int, aim: int) -> tuple[np.ndarray, np.ndarray, bool]:
        """Every index outside the box [-B, B]^d reads at most profile(B + 1),
        so the box certifies its largest magnitudes down to the aim-th, with
        its ties, once that exceeds profile(B + 1), or every positive one
        once that is 0.  B starts at the smallest power of two whose box can
        hold ``aim`` points and doubles until the box certifies the aim or
        grows past its limit, the box [-top, top]^d.  That box certifies
        every magnitude above profile(top + 1), and once profile(B + 1) is
        that value every one of them lies in this box: the block keeps them,
        which must be at least ``count`` indices, and raises, before any
        larger box, when they are fewer."""
        B = 1
        while (2 * B + 1) ** self.d < aim:
            B *= 2
        top = B
        while math.comb(top + self.d, self.d) <= 64 * aim + 2 ** 20:
            top *= 2
        floor = self.profile(float(top + 1))
        while True:
            reps, sizes = _orbit_representatives(self.d, B)
            values = self._profile_values(_orbit_norms(reps, self.r))
            edge = self.profile(float(B + 1))
            if not edge > 0:
                keep = slice(None)
                break
            order = np.argsort(-values)
            i = int(np.searchsorted(np.cumsum(sizes[order]), aim))
            if i < order.shape[0] and values[order[i]] > edge:
                keep = values >= values[order[i]]
                break
            if edge == floor or B == top:
                keep = values > edge
                if (kept := int(sizes[keep].sum())) >= count:
                    break
                raise CertificationError(
                    f"no box up to [-{top}, {top}]^{self.d} certifies {count} indices, only the "
                    f"{kept} above profile({top + 1}) = {edge!r}: the profile must decrease to 0")
            B *= 2
        points, rows = _orbit_members(reps[keep])
        return values[keep][rows], points, not edge > 0

    def _pow_tail_weighted(self, s: float, B: int) -> tuple[float, float]:
        """(estimate, bound) for sum over sup-norm shells m > B of
        shell_count(m) * m^{-s}: the shell holds (2m+1)^d - (2m-1)^d points,
        the sum over odd j of 2 C(d, j) 2^{d-j} m^{d-j}."""
        est, bnd = 0.0, 0.0
        for j in range(1, self.d + 1, 2):
            coef = 2.0 * math.comb(self.d, j) * 2.0 ** (self.d - j)
            t, b = _power_tail(s - (self.d - j), B)
            est += coef * t
            bnd += coef * b
        return est, bnd

    def _box_sum(self, e: float, B: int) -> float:
        """Sum of magnitude^e over the box [-B, B]^d, with one profile
        evaluation and one power per distinct norm: the members of an orbit
        of the signed-permutation group share |k|_r, as ``lattice_norm``
        canonicalizes, and a norm's term is counted the total size of its
        orbits, which leaves the exact sum that fsum rounds unchanged."""
        reps, sizes = _orbit_representatives(self.d, B)
        norms, inverse = np.unique(_orbit_norms(reps, self.r), return_inverse=True)
        counts = np.bincount(inverse, sizes).astype(np.int64)
        return _orbit_fsum(_pow(self._profile_values(norms), e), counts)

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
        # geometric profile: between the shells' values at |k|_inf and d^{1/r} |k|_inf
        L = e * math.log(param)
        upper, ub = _geom_shells(self.d, L, B)
        if self.r == math.inf or self.d == 1:
            return upper, ub
        lower, lb = _geom_shells(self.d, L * float(self.d) ** (1.0 / self.r), B)
        return 0.5 * (upper + lower), 0.5 * (upper - lower) + ub + lb

    def power_sum_total(self, e: float) -> tuple[float, float]:
        # a geometric profile's shells have a closed form past the origin; a
        # d = 1 callable tail is only known to lie in [0, upper], so it
        # follows a long box
        kind = self.form[0] if self.form is not None else None
        B = {"pow": _HEAD, "geom": 0}.get(kind, 20000) if self.d == 1 else (96 if self.d == 2 else 24)
        tail, bound = self._tail_outside(e, B)
        total = self._box_sum(e, B) + tail
        return total, bound + _sum_rounding(total, e)


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

    _key = property(lambda self: self)  # a table matches only itself

    def magnitude(self, k) -> float:
        k = self.key(k)
        return self.entries.get(k, 0.0)

    stream = PsiSystem.stream

    def _block(self, count: int, aim: int) -> tuple[np.ndarray, np.ndarray, bool]:
        keys = np.array(list(self.entries), dtype=np.int64).reshape(-1, self.d)
        return np.array(list(self.entries.values())), keys, True

    def power_sum_total(self, e: float) -> tuple[float, float]:
        return math.fsum(v ** e for v in self.entries.values()), 0.0

    def nu(self, n: int) -> float:
        if self.d != 1:
            raise InputDomainError("nu(n) requires a one-dimensional system")
        return max(
            (v for k, v in self.entries.items() if abs(k[0]) >= n), default=0.0
        )


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
            self.theorem_grade = True
        elif kind == "geom":
            if not 0 < float(continuation[1]) < 1:
                raise InputDomainError("geometric ratio must be in (0,1)")
            self.theorem_grade = True
        elif kind == "zero":
            self.theorem_grade = False
            self.finite = True
            if not self.head:
                raise InputDomainError("zero-tail sequence needs a nonempty head")
        else:
            raise InputDomainError(f"unknown sequence continuation {kind!r}")
        # validate nonincreasing positive merged sequence on a prefix
        v = self._values(np.arange(1, max(len(self.head) + 8, 32)))
        if np.any(v < 0) or np.any(v[1:] > v[:-1] * (1 + 1e-12)):
            raise InputDomainError("sequence form must be nonincreasing and nonnegative")
        self.d = 1
        self.variant = f"explicit-seq[{kind}]"
        params = () if kind == "zero" else tuple(map(float, continuation[1:3]))
        self._key = (type(self), self.head, kind, *params)

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
        return float(self._values(np.array([j]))[0])

    def _values(self, j: np.ndarray) -> np.ndarray:
        """``seq`` at the increasing positions j >= 1."""
        (kind, *par), K = self.continuation, len(self.head)
        tail = j[j > K]
        if kind == "pow":
            cont = float(par[1]) * _pow(tail, -float(par[0]))
        elif kind == "geom":
            last = self.head[-1] if self.head else float(par[1]) / float(par[0])
            cont = last * np.fromiter(map(math.pow, itertools.repeat(float(par[0])),
                                          (tail - K).tolist()), np.float64, tail.shape[0])
        else:
            cont = np.zeros(tail.shape[0])
        return np.concatenate((np.array(self.head, dtype=np.float64)[j[j <= K] - 1], cont))

    def magnitude(self, k) -> float:
        k = self.key(k)
        if len(k) != 1:
            raise InputDomainError("sequence systems are one-dimensional")
        return self.seq(_seq_position(k[0]))

    stream = PsiSystem.stream

    def _block(self, count: int, aim: int) -> tuple[np.ndarray, np.ndarray, bool]:
        j = np.arange(1, aim + 1)
        return self._values(j), _axis_index(j - 1)[:, None], False

    def power_sum_total(self, e: float) -> tuple[float, float]:
        kind = self.continuation[0]
        K = len(self.head)
        head_sum = math.fsum(v ** e for v in self.head)
        if kind == "zero":
            return head_sum, 0.0
        if kind == "pow":
            s = float(self.continuation[1]) * e
            scale = float(self.continuation[2]) ** e
            M = max(K, _HEAD)
            tail, bound = _power_tail(s, M)
            partial = math.fsum(memoryview(_pow(self._values(np.arange(K + 1, M + 1)), e)))
            total = head_sum + partial + scale * tail
            return total, scale * bound + _sum_rounding(total, e)
        # geometric continuation: first (1 + sum_{m >= 1} x^m)
        first = self.seq(K + 1) ** e
        rest, bound = _geom_shells(1, e * math.log(float(self.continuation[1])), 0)
        total = head_sum + first + 0.5 * first * rest
        return total, 0.5 * first * bound + _sum_rounding(total, e)


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

    _entry = property(lambda self: self.base._entry)

    def magnitude(self, k) -> float:
        return self.base.magnitude(k)

    def phase(self, k) -> complex:
        ph = complex(self.phase_fn(self.key(k)))
        mod = abs(ph)
        if not math.isfinite(mod) or abs(mod - 1.0) > 1e-9:
            raise InputDomainError("phase values must lie on the unit circle")
        return ph

    stream = PsiSystem.stream

    def _rearranged(self, count: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, bool]:
        return self.base._rearranged(count)

    def power_sum_total(self, e: float):
        return self.base.power_sum_total(e)

    def nu(self, n: int) -> float:
        return self.base.nu(n)


# ---------------------------------------------------------------------------
# characteristic sequences


class CharSeq:
    """Distinct magnitudes in decreasing order (``eps``) with the cumulative
    counts of their level sets (``delta``), both tuples.  ``shells`` (shell
    n = g_n \\ g_{n-1}) is given, or built on first read from ``keys``, index
    rows of the rearrangement (at least delta[-1] of them)."""

    def __init__(self, eps: tuple[float, ...], delta: tuple[int, ...],
                 shells: tuple[tuple[tuple, ...], ...] | None = None,
                 keys: np.ndarray | None = None):
        if any(a <= b for a, b in zip(eps, eps[1:])):
            raise InputDomainError("eps must be strictly decreasing")
        if any(a >= b for a, b in zip(delta, delta[1:])):
            raise InputDomainError("delta must be strictly increasing")
        self.eps, self.delta, self._shells, self._keys = eps, delta, shells, keys

    @property
    def shells(self) -> tuple[tuple[tuple, ...], ...]:
        if self._shells is None:
            self._shells = tuple(tuple(map(tuple, self._keys[a:b].tolist()))
                                 for a, b in zip((0, *self.delta), self.delta))
        return self._shells

    @property
    def n_levels(self) -> int:
        return len(self.eps)

    def g(self, n: int) -> frozenset:
        """Level set g_n (empty for n = 0)."""
        if n < 0 or n > len(self.eps):
            raise InputDomainError(f"level {n} outside materialized range")
        return frozenset(itertools.chain.from_iterable(self.shells[:n]))

    def level_of_value(self, value: float) -> int:
        """1-based level index of an exact magnitude value."""
        try:
            return self._index[value]
        except KeyError:
            raise InputDomainError(f"magnitude {value!r} is not a materialized level") from None

    @functools.cached_property
    def _index(self) -> dict:
        return {v: i + 1 for i, v in enumerate(self.eps)}


def build_charseq(
    psi: PsiSystem,
    levels: int | None = None,
    down_to_value: float | None = None,
) -> CharSeq:
    """Characteristic data as a slice of the certified prefix's level ends.

    Stop once ``levels`` distinct magnitudes (or all values >=
    ``down_to_value``) have been produced *and* the following value is
    strictly smaller, which certifies the last level's multiplicity; the
    prefix grows only when its certified levels fall short.  On an infinite
    system the level at or below ``down_to_value`` must be certified within
    the first ``_PREFIX_CAP`` pairs, whatever the prefix holds; past them the
    read raises and the prefix it grew is dropped.
    """
    if levels is None and down_to_value is None:
        raise InputDomainError("specify levels or down_to_value")
    if levels is not None and levels < 1:
        raise InputDomainError("levels must be >= 1")
    if down_to_value is not None and not down_to_value > 0 and not psi.finite:
        raise CertificationError(
            f"no level of an infinite system is at or below down_to_value={down_to_value!r}; "
            "the read cannot end")
    count = 1
    while True:
        vals, idx, ends, _ = psi._rearranged(count)
        # the first level at or below down_to_value, and at least ``levels``
        by_value = 1 if down_to_value is None else 1 + int(np.searchsorted(-vals[ends - 1], -down_to_value))
        if (down_to_value is not None and not psi.finite and vals.shape[0] >= _PREFIX_CAP
                and by_value > np.searchsorted(ends, _PREFIX_CAP)):
            psi._entry.prefix = None
            raise CertificationError(
                f"no level at or below down_to_value={down_to_value!r} is certified within the "
                f"first {_PREFIX_CAP} pairs, the cap of a read by value; the certified prefix "
                f"reached {vals.shape[0]}")
        m = max(levels or 1, by_value)
        if m <= ends.shape[0] or vals.shape[0] < count:  # only a finite system ends short
            break
        count = vals.shape[0] + 1
    ends = ends[:m]
    if levels is not None and ends.shape[0] < levels:
        raise CertificationError(f"system has only {ends.shape[0]} levels, {levels} requested")
    return CharSeq(eps=tuple(vals[ends - 1].tolist()), delta=tuple(ends.tolist()), keys=idx)


def rearrangement(psi: PsiSystem, K: int) -> np.ndarray:
    """First K values of the decreasing rearrangement (with multiplicity);
    fewer when a finite system runs out."""
    if K < 1:
        raise InputDomainError("K must be >= 1")
    return psi._rearranged(K)[0][:K].copy()


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
    machinery, once per value key and exponent; the finite prefix is
    subtracted exactly.  Raises ``ConvergenceError`` when the series diverges
    or the rigorous bound cannot be brought below ``tol``.
    """
    if exponent <= 0:
        raise ConvergenceError("terms do not decay: exponent must be positive")
    if start < 1:
        raise InputDomainError("start index must be >= 1")
    certified = _power_sum(psi, exponent)
    head = rearrangement_padded(psi, start - 1) if start > 1 else ()
    return _tail_after(certified, head, exponent, tol)


def _tail_after(certified: tuple[float, float], head: Sequence[float],
                exponent: float, tol: float) -> tuple[float, float]:
    """(value, bound) of a certified (total, bound) power sum less the head
    values raised to ``exponent``; the bound absorbs the rounding of the
    subtraction.  Raises ``ConvergenceError`` when it exceeds ``tol``."""
    total, bound = certified
    prefix = math.fsum(memoryview(_pow(head, exponent)))
    bound = bound + 1e-15 * (abs(total) + prefix)
    if bound > tol:
        raise ConvergenceError(
            f"tail bound {bound:.3e} above requested tolerance {tol:.3e}"
        )
    return max(total - prefix, 0.0), bound
