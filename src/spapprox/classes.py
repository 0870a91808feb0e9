"""Exact class-level approximation quantities over psi-integral balls.

The function class is the set of psi-integrals of the unit ball of the
exponent-q coefficient space: coefficient sequences lying in the ellipsoid
``sum |a_k / psi(k)|^q <= 1``.  Approximation takes place in the exponent-p
metric.  Everything reduces to the decreasing rearrangement of |psi|:

* best approximation by spectra outside a fixed index set, or by the
  characteristic level sets (level n means frequencies of the first n-1
  levels are available to the approximant);
* trigonometric / projection widths of order n (arbitrary n-point sets);
* Kolmogorov width ladders: for p = q the width is constant between
  consecutive cumulative level counts;
* best n-term approximation: a scanned supremum over the head length s with
  a certified early stop;
* empirical order-estimate checks for radial profile classes.

Two regimes apply: q <= p uses only positivity + vanishing of psi; q > p
additionally needs the summability of |psi|^{pq/(q-p)}, certified through
the tail-sum machinery before any formula runs.

The direct/inverse series identities relating tails of a function and of its
psi-derivative are implemented with a configurable indexing convention; the
shipped default (tail over levels >= n, factor indices as displayed) is the
one under which symbolic Abel summation makes both identities exact, and the
convention-pinning gate in the test suite enforces it.  The tails do not
depend on the convention: one level pass over the common support gives those
of f and f', and both identities, under every convention, read that pass.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import (
    BudgetError,
    CertificationError,
    ConvergenceError,
    InputDomainError,
    PreconditionError,
)
from .psi import (
    CharSeq,
    PsiSystem,
    RadialPsi,
    _pow,
    _power_sum,
    _tail_after,
    build_charseq,
    psi_derivative,
    rearrangement_padded,
)
from .reports import ExtremalReport
from .spectrum import Spectrum

SIGMA_SCAN_BUDGET = 1_000_000
# the n-term scan reads the rearrangement in doubling steps of at most this
_SIGMA_STEP_CAP = 4096


@dataclass
class ClassSpec:
    """Class data: the multiplier system and the exponent pair (p, q)."""

    psi: PsiSystem
    p: float
    q: float
    tail_tol: float = 1e-9

    def __post_init__(self):
        if not (self.p > 0 and self.q > 0):
            raise InputDomainError("exponents p, q must be positive")

    @property
    def regime(self) -> str:
        return "q<=p" if self.q <= self.p else "q>p"

    @property
    def tail_exponent(self) -> float:
        if self.q <= self.p:
            raise InputDomainError("tail exponent defined only for q > p")
        return self.p * self.q / (self.q - self.p)

    def tail(self, head: Sequence[float] = ()) -> tuple[float, float]:
        """For q > p: (value, bound) of sum |psi|^{pq/(q-p)} outside the head
        magnitudes.  The lattice total is read from the store that equal psi
        systems share (``psi._store``), so a spec, or one rebuilt from equal
        parameters, certifies it once while the store holds it."""
        if self.q <= self.p:
            raise InputDomainError("no summability condition needed for q <= p")
        e = self.tail_exponent
        try:
            return _tail_after(_power_sum(self.psi, e), head, e, self.tail_tol)
        except ConvergenceError as err:
            raise PreconditionError(
                f"summability of |psi|^(pq/(q-p)) not certified: {err}"
            ) from err

    def grade_warnings(self) -> tuple:
        if not self.psi.theorem_grade:
            return (
                "psi violates the everywhere-nonzero/vanishing hypotheses "
                "(test-only explicit system); theorem-level values are formal",
            )
        return ()


# ---------------------------------------------------------------------------
# best approximations and widths


def _tail_report(spec: ClassSpec, quantity: str, n: int, warnings: tuple,
                 head: Sequence[float] = (), **cert) -> ExtremalReport:
    """q > p: the class tail norm outside ``head``, or past the first
    ``tail_from`` - 1 rearrangement values when that key is given."""
    e = spec.tail_exponent
    spec.tail()  # certify summability before streaming the head
    if cert.get("tail_from", 1) > 1:
        head = rearrangement_padded(spec.psi, cert["tail_from"] - 1)
    val, bound = spec.tail(head)
    return ExtremalReport(
        quantity, val ** (1.0 / e), n=n, regime=spec.regime,
        certificate={**cert, "tail_exponent": e, "tail_bound": bound},
        warnings=warnings,
    )


def class_best_approx(
    spec: ClassSpec,
    gamma: Iterable | None = None,
    level: int | None = None,
) -> ExtremalReport:
    """Best (and projective) approximation of the class.

    With ``gamma``: approximants are supported on the given index set; the
    value is the largest remaining |psi| (q <= p) or the tail norm of the
    rearrangement outside gamma with exponent pq/(q-p) (q > p).

    With ``level`` n >= 1: approximants use the union of the first n-1
    characteristic level sets; the value is eps_n (q <= p) or the
    rearrangement tail from position delta_{n-1}+1 (q > p).
    """
    if (gamma is None) == (level is None):
        raise InputDomainError("pass exactly one of gamma / level")
    warnings = spec.grade_warnings()
    if gamma is not None:
        gset = frozenset(spec.psi.key(k) for k in gamma)
        if spec.q <= spec.p:
            for v, k in spec.psi.stream():
                if k not in gset:
                    return ExtremalReport(
                        "best_approx", v, n=len(gset), regime=spec.regime,
                        certificate={"form": "set", "attained_at": list(k)},
                        warnings=warnings,
                    )
            return ExtremalReport(
                "best_approx", 0.0, n=len(gset), regime=spec.regime,
                certificate={"form": "set", "note": "psi exhausted inside gamma"},
                warnings=warnings,
            )
        head = [spec.psi.magnitude(k) for k in gset]
        return _tail_report(spec, "best_approx", len(gset), warnings, head, form="set")
    if level < 1:
        raise InputDomainError("level must be >= 1")
    cs = build_charseq(spec.psi, levels=level)
    if spec.q <= spec.p:
        return ExtremalReport(
            "best_approx", cs.eps[level - 1], n=level, regime=spec.regime,
            certificate={"form": "level"}, warnings=warnings,
        )
    start = 1 if level == 1 else cs.delta[level - 2] + 1
    return _tail_report(spec, "best_approx", level, warnings, form="level", tail_from=start)


def class_widths(spec: ClassSpec, n: int) -> ExtremalReport:
    """Trigonometric (basis) and projection width of order n: optimize the
    approximating n-point frequency set.  Equals the (n+1)-st rearrangement
    value (q <= p) or the rearrangement tail beyond position n (q > p)."""
    if n < 0:
        raise InputDomainError("width order n must be >= 0")
    warnings = spec.grade_warnings()
    if spec.q <= spec.p:
        val = float(rearrangement_padded(spec.psi, n + 1)[n])
        return ExtremalReport(
            "width", val, n=n, regime=spec.regime,
            certificate={"rearrangement_index": n + 1}, warnings=warnings,
        )
    return _tail_report(spec, "width", n, warnings, tail_from=n + 1)


def kolmogorov_ladder(spec: ClassSpec, n: int) -> ExtremalReport:
    """Kolmogorov widths for p = q: the width is eps_n for every dimension
    N in [delta_{n-1}, delta_n - 1]."""
    if spec.p != spec.q:
        raise PreconditionError("the Kolmogorov ladder requires p = q")
    if not 1 <= spec.p < math.inf:
        raise PreconditionError("the Kolmogorov ladder requires p in [1, inf)")
    if n < 1:
        raise InputDomainError("level must be >= 1")
    cs = build_charseq(spec.psi, levels=n)
    lo = 0 if n == 1 else cs.delta[n - 2]
    hi = cs.delta[n - 1] - 1
    return ExtremalReport(
        "kolmogorov_width", cs.eps[n - 1], n=n, regime="p=q",
        certificate={"dimension_range": [lo, hi]}, warnings=spec.grade_warnings(),
    )


# ---------------------------------------------------------------------------
# best n-term approximation of the class


def class_sigma(
    spec: ClassSpec,
    n: int,
    budget: int = SIGMA_SCAN_BUDGET,
) -> ExtremalReport:
    """Best n-term approximation of the class.

    q <= p: sigma^p = sup_{s>n} (s-n) (sum_{k<=s} rr_k^{-q})^{-p/q}; the scan
    stops once the envelope 2^{p/q} s^{1-p/q} rr_{ceil(s/2)}^p (nonincreasing
    for q <= p, dominating the objective) falls below the incumbent.

    q > p: sigma^{p...}: the bracket (s-n)^{q/(q-p)} (sum_{k<=s}
    rr_k^{-q})^{-p/(q-p)} + tail_{s+1}(pq/(q-p)) is maximized over s and the
    result is raised to (q-p)/(pq); the stop certificate combines two
    certified tail sums.  The head-length rule (maximize the bracket) is
    cross-checked by the ellipsoid search oracle in the test suite.
    """
    if n < 1:
        raise InputDomainError("n must be >= 1")
    warnings = spec.grade_warnings()
    p, q = spec.p, spec.q
    if q > p:
        e = spec.tail_exponent
        total, tbound = spec.tail()  # certified before any head read
        expo_head, expo_sum = q / (q - p), p / (q - p)
    best, best_s = -math.inf, None
    s_hi, step = n, 64
    # rr^{-q} (inf at rr = 0) is summed from a running carry, and for q > p
    # every prefix sum of rr^{e} is kept (the stop reads one a quarter in)
    done, inv_carry, e_cums = 0, 0.0, np.empty(0)
    while s_hi - n < budget:
        s_lo, s_hi = s_hi + 1, min(s_hi + step, n + budget)
        step = min(2 * step, _SIGMA_STEP_CAP)
        # a view of the rearrangement so far, read as zero past a finite end
        rr = spec.psi._rearranged(s_hi)[0]
        fresh = rr[done:s_hi]
        if fresh.shape[0] < s_hi - done:
            fresh = np.pad(fresh, (0, s_hi - done - fresh.shape[0]))
        base = np.where(fresh > 0.0, fresh, 1.0)
        # cumsum adds in sequence from the carry, as a running float total would
        inv_cums = np.cumsum(np.append(inv_carry, np.where(fresh > 0.0, _pow(base, -q), np.inf)))[1:]
        inv_carry, cums = inv_cums[-1], inv_cums[s_lo - 1 - done:]
        if q > p:
            if e_cums.shape[0] < s_hi:
                e_cums = np.concatenate((e_cums[:done], np.empty(2 * s_hi - done)))
            e_cums[done:s_hi] = np.cumsum(np.append(
                e_cums[done - 1] if done else 0.0, np.where(fresh > 0.0, _pow(base, e), 0.0)))[1:]
        done = s_hi
        ss = np.arange(s_lo, s_hi + 1, dtype=np.float64)
        with np.errstate(over="ignore"):
            if q <= p:
                obj = (ss - n) * cums ** (-p / q)
            else:
                tails = np.maximum(total - e_cums[s_lo - 1: s_hi], 0.0)
                obj = (ss - n) ** expo_head * cums ** (-expo_sum) + tails
        obj = np.where(np.isfinite(obj), obj, 0.0)
        i = int(np.argmax(obj))
        if float(obj[i]) > best:
            best, best_s = float(obj[i]), int(ss[i])
        # certified early stop
        if q <= p:
            half = max(1, (s_hi + 1) // 2) - 1
            mid = float(rr[half]) if half < rr.shape[0] else 0.0
            env = 2.0 ** (p / q) * float(s_hi) ** (1.0 - p / q) * mid ** p
            if env < best:
                stop = {"stop": "envelope", "envelope": env, "at_s": s_hi}
                break
            if mid == 0.0 and best >= 0.0:
                stop = {"stop": "support-exhausted", "at_s": s_hi}
                break
        else:
            t_quarter = max(total - float(e_cums[max(0, (s_hi + 3) // 4 - 1)]), 0.0)
            t_next = max(total - float(e_cums[s_hi - 1]), 0.0)
            env = 2.0 ** (expo_sum + 2.0) * t_quarter + t_next
            if env < best:
                stop = {"stop": "tail-envelope", "envelope": env, "at_s": s_hi,
                        "summability_bound": tbound}
                break
    else:
        raise BudgetError(
            f"n-term scan not certified within {budget} candidates (best so far "
            f"{best:.6g} at s={best_s})"
        )

    if best <= 0.0:
        best, best_s = 0.0, None
    value = best ** (1.0 / p if q <= p else (q - p) / (p * q)) if best > 0 else 0.0
    return ExtremalReport(
        "sigma", value, n=n, s_star=best_s, regime=spec.regime,
        certificate={"scan_budget": budget, **stop}, warnings=warnings,
    )


# ---------------------------------------------------------------------------
# empirical order-estimate checks for radial profile classes


@dataclass
class OrderCheckReport:
    ratios: dict
    band: tuple[float, float]
    band_quotient: float
    bounded: bool
    delta2_ok: bool
    delta2_max_ratio: float
    warnings: tuple = ()


def dyadic_doubling_check(fn: Callable[[float], float], levels: int = 21) -> tuple[bool, float]:
    """Check fn(t) <= K fn(2t) on the dyadic grid t = 2^j, j = 0..levels-1.

    Returns (ok, max ratio).  The condition fails empirically when the
    ratios keep growing across the top of the grid (no uniform K exists)."""
    ratios = []
    for j in range(levels):
        t = 2.0 ** j
        a, b = fn(t), fn(2.0 * t)
        if b <= 0 or not math.isfinite(a / b):
            return False, math.inf
        ratios.append(a / b)
    tail = ratios[-8:]
    growing = all(y > x * (1 + 1e-9) for x, y in zip(tail, tail[1:]))
    exploding = ratios[-1] > 10.0 * max(ratios[0], ratios[len(ratios) // 2])
    return not (growing and exploding), max(ratios)


def order_estimate_check(
    psi_func: Callable[[float], float],
    d: int,
    r: float,
    p: float,
    q: float,
    n_range: Sequence[int],
    band_factor: float = 10.0,
    power_bound: tuple[float, float, float] | None = None,
) -> OrderCheckReport:
    """Empirical two-sided order check: the exact n-term values of the radial
    profile class should stay within a fixed band of psi(n^{1/d}) n^{1/p-1/q}
    over the requested range.  The doubling condition on psi^p is verified on
    a dyadic grid first (a failure is reported, not fatal)."""
    warnings: list[str] = []
    delta2_ok, delta2_max = dyadic_doubling_check(lambda t: psi_func(t) ** p)
    if not delta2_ok:
        warnings.append("profile fails the dyadic doubling condition; order "
                        "estimates are not guaranteed")
    psi = RadialPsi(psi_func, d=d, r=r, power_bound=power_bound)
    spec = ClassSpec(psi, p, q)
    ratios: dict[int, float] = {}
    for n in n_range:
        sig = class_sigma(spec, n)
        target = psi_func(float(n) ** (1.0 / d)) * float(n) ** (1.0 / p - 1.0 / q)
        ratios[n] = sig.value / target
    lo, hi = min(ratios.values()), max(ratios.values())
    quot = hi / lo if lo > 0 else math.inf
    return OrderCheckReport(
        ratios=ratios,
        band=(lo, hi),
        band_quotient=quot,
        bounded=quot < band_factor,
        delta2_ok=delta2_ok,
        delta2_max_ratio=delta2_max,
        warnings=tuple(warnings),
    )


# ---------------------------------------------------------------------------
# direct / inverse series identities


@dataclass(frozen=True)
class IdentityConvention:
    """Indexing convention for the series identities.

    ``tail_offset`` shifts which levels count as the tail: the level-m best
    approximation uses levels >= m + tail_offset.  ``eps_offset`` shifts the
    level-value indices appearing as factors.  The shipped default (0, 0),
    i.e. tail over levels >= m with factors as displayed, is exact."""

    eps_offset: int = 0
    tail_offset: int = 0


DEFAULT_CONVENTION = IdentityConvention()


@dataclass
class IdentityResult:
    lhs: float
    rhs: float
    residual: float
    convention: IdentityConvention
    convergence_ok: bool = True


def _level_tails(
    spectra: Sequence[Spectrum], psi: PsiSystem, p: float, min_levels: int
) -> tuple[list[list], CharSeq]:
    """The tails by psi level of spectra on one support (the same
    frequencies in the same order), with the characteristic data read once
    for all of them: entry m of a spectrum's tails is the sum of |c|^p over
    its coefficients at levels >= m, one correctly rounded fsum over those
    terms, for m = 0 .. deepest level + 1 (the last is 0)."""
    mags = [psi.magnitude(k) for k in spectra[0].frequencies]
    positive = [m for m in mags if m > 0]
    if len(positive) < len(mags):
        raise PreconditionError("psi vanishes on part of the support")
    try:
        if positive:
            cs = build_charseq(psi, levels=min_levels, down_to_value=min(positive))
        else:
            cs = build_charseq(psi, levels=min_levels)
    except CertificationError:
        if not psi.finite:
            raise
        # finite system with fewer levels than requested: take all of them
        cs = build_charseq(psi, down_to_value=0.0)
    levels = np.array([cs.level_of_value(m) for m in mags], dtype=np.int64)
    order = np.argsort(-levels)
    # with the terms deepest level first, each tail is a head of them
    heads = np.searchsorted(-levels[order], -np.arange(levels.max(initial=0) + 1), side="right")
    terms = [np.array([abs(c) ** p for c in g.coefficients])[order] for g in spectra]
    return [[math.fsum(memoryview(t[:h])) for h in heads.tolist()] + [0.0] for t in terms], cs


@functools.lru_cache(maxsize=4)
def _identity_tails(f: Spectrum, psi: PsiSystem, p: float, n: int) -> tuple[tuple, tuple, CharSeq]:
    """(tails of f, tails of its psi-derivative, characteristic data to
    level n + 2 at least) from one ``_level_tails`` pass over the support.

    Both identities of one (f, psi, p, n) read it, under every convention,
    since the tails do not depend on the convention.  psi is keyed by
    identity (``PsiSystem`` has no ``__eq__``), and a few entries keep no
    growing set of prefixes alive."""
    (tails_f, tails_d), cs = _level_tails((f, psi_derivative(f, psi)), psi, p, min_levels=n + 2)
    return tuple(tails_f), tuple(tails_d), cs


def _identity_check(
    f: Spectrum, psi: PsiSystem, n: int, convention: IdentityConvention, p: float, inverse: bool
) -> IdentityResult:
    """Both series identities: the lhs is the level-n tail of f (direct) or
    of its psi-derivative f' (inverse), and the rhs weights the tails of the
    other spectrum by differences of level values raised to p (direct) or
    -p (inverse)."""
    if n < 1:
        raise InputDomainError("n must be >= 1")
    if not 0 < p < math.inf:
        raise InputDomainError(f"identity exponent p must be in (0, inf), got {p}")
    tails_f, tails_d, cs = _identity_tails(f, psi, p, n)
    K = len(tails_f) - 2

    def eps_pow(i: int, power: float) -> float:
        j = i + convention.eps_offset
        if j < 1:
            return math.nan
        if j > cs.n_levels:
            raise PreconditionError("characteristic data does not reach the required depth")
        return cs.eps[j - 1] ** power

    def tail(tails: tuple, m: int) -> float:
        m = max(1, m + convention.tail_offset)
        return tails[m] if m < len(tails) else 0.0

    lhs_tails, series_tails, power = (tails_d, tails_f, -p) if inverse else (tails_f, tails_d, p)
    lhs = tail(lhs_tails, n)
    if lhs == 0.0 and tail(series_tails, n) == 0.0:
        return IdentityResult(0.0, 0.0, 0.0, convention)
    terms = [eps_pow(n, power) * tail(series_tails, n)]
    for k in range(n + 1, K + abs(convention.tail_offset) + 2):
        t = tail(series_tails, k)
        if t == 0.0:
            break
        terms.append((eps_pow(k, power) - eps_pow(k - 1, power)) * t)
    rhs = math.fsum(terms)
    # finite spectra: tails vanish beyond the deepest occupied level
    convergence_ok = not inverse or tail(tails_f, K + 1 - convention.tail_offset) == 0.0
    return IdentityResult(lhs, rhs, abs(lhs - rhs), convention, convergence_ok)


def direct_identity_check(
    f: Spectrum,
    psi: PsiSystem,
    n: int,
    convention: IdentityConvention = DEFAULT_CONVENTION,
    p: float = 1.0,
) -> IdentityResult:
    """Level-n tail of f versus the level-value-weighted series of the tails
    of its psi-derivative: lhs = E_n^p(f) and

        rhs = eps_n^p E_n^p(f') + sum_{k>n} (eps_k^p - eps_{k-1}^p) E_k^p(f')

    where f' is the psi-derivative and E_m^p sums coefficient powers over
    levels >= m (+ configured offsets).  Exact for the shipped convention."""
    return _identity_check(f, psi, n, convention, p, inverse=False)


def inverse_identity_check(
    f: Spectrum,
    psi: PsiSystem,
    n: int,
    convention: IdentityConvention = DEFAULT_CONVENTION,
    p: float = 1.0,
) -> IdentityResult:
    """Mirror identity with reciprocal level-value powers:

        lhs = E_n^p(f'),  rhs = eps_n^{-p} E_n^p(f)
                                + sum_{k>n} (eps_k^{-p} - eps_{k-1}^{-p}) E_k^p(f)

    The smallness hypothesis (level-value-normalized tails of f vanish) holds
    automatically for finite spectra and is reported as ``convergence_ok``."""
    return _identity_check(f, psi, n, convention, p, inverse=True)


def pin_convention(
    cases: Sequence[tuple[Spectrum, PsiSystem, int]],
    p: float = 1.0,
) -> list[tuple[IdentityConvention, float]]:
    """Rank candidate index conventions by worst-case residual over the given
    cases (both identities).  Offsets range over {0, +-1}^2; combinations that
    need undefined level values are reported with infinite residual."""
    convs = [IdentityConvention(eps_offset=eo, tail_offset=to)
             for eo, to in itertools.product((-1, 0, 1), repeat=2)]
    worst = dict.fromkeys(convs, 0.0)
    # case by case, so that the nine conventions read one entry of tails
    for f, psi, n in cases:
        for conv in convs:
            if worst[conv] == math.inf:
                continue
            try:
                r1 = direct_identity_check(f, psi, n, conv, p)
                r2 = inverse_identity_check(f, psi, n, conv, p)
            except (PreconditionError, InputDomainError):
                worst[conv] = math.inf
                continue
            scale = max(1.0, abs(r1.lhs), abs(r2.lhs))
            resid = max(r1.residual, r2.residual) / scale
            if math.isnan(resid):
                resid = math.inf
            worst[conv] = max(worst[conv], resid)
    return sorted(worst.items(), key=lambda cw: cw[1])
