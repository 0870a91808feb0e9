"""Independent brute-force verifiers.

Every function here is deliberately naive -- fixed dense grids, full sorts,
exhaustive subset enumeration, plain adaptive Simpson -- and shares no
numeric kernel with the module it checks (scalar arithmetic and the problem
definitions themselves excepted).  They are the trust anchors of the test
suite and are also exposed through the ``verify`` CLI subcommands.  Results
are deterministic given the recorded seed and budget.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetError, InputDomainError
from .moduli import PhiFunction
from .psi import CharSeq, PsiSystem
from .spectrum import Spectrum


@dataclass(frozen=True)
class SearchBudget:
    max_evals: int = 200_000
    seed: int = 0
    restarts: int = 64

    def __post_init__(self):
        if self.max_evals <= 0 or self.restarts <= 0:
            raise InputDomainError("budget fields must be positive")


def oracle_modulus(f: Spectrum, phi: PhiFunction, delta: float, p: float = 1.0) -> float:
    """sup of the phi-weighted coefficient norm over a fixed dense grid of
    100001 shifts in [0, delta] (symmetric when phi is not even);
    no refinement."""
    if delta < 0:
        raise InputDomainError("delta must be >= 0")
    if len(f) == 0 or delta == 0.0:
        return 0.0
    lams = f.scalar_frequencies()
    amps_p = np.abs(np.array(f.coefficients, dtype=np.complex128)) ** p
    if phi.is_even:
        hs = np.linspace(0.0, delta, 100_001)
    else:
        hs = np.linspace(-delta, delta, 200_001)
    best = -math.inf
    chunk = 4096
    for start in range(0, hs.shape[0], chunk):
        blk = hs[start:start + chunk]
        w = np.asarray(phi(np.multiply.outer(blk, lams)), dtype=np.float64) ** p
        best = max(best, float(np.max(w @ amps_p)))
    return best ** (1.0 / p)


def oracle_nterm_exhaustive(f: Spectrum, n: int, p: float) -> tuple[frozenset, float]:
    """Minimum tail norm over all C(|support|, n) kept subsets."""
    keys = list(f.frequencies)
    if len(keys) > 16:
        raise BudgetError("exhaustive n-term search limited to supports of size <= 16")
    if n >= len(keys):
        return frozenset(keys), 0.0
    amps = {k: abs(c) for k, c in f.items()}
    best_val = math.inf
    best_set: tuple = ()
    for keep in itertools.combinations(keys, n):
        kept = set(keep)
        if p == math.inf:
            val = max((amps[k] for k in keys if k not in kept), default=0.0)
        else:
            val = math.fsum(amps[k] ** p for k in keys if k not in kept) ** (1.0 / p)
        if val < best_val - 0.0:
            best_val = val
            best_set = keep
    return frozenset(best_set), best_val


def oracle_quadrature(g, a: float, b: float, tol: float = 1e-10, budget: int = 1 << 20) -> tuple[float, float]:
    """Adaptive Simpson integration with a Richardson error estimate."""
    if b < a:
        raise InputDomainError("interval must satisfy a <= b")
    if a == b:
        return 0.0, 0.0

    evals = [0]

    def ev(x: float) -> float:
        evals[0] += 1
        if evals[0] > budget:
            raise BudgetError("oracle quadrature evaluation budget exhausted")
        return float(g(x))

    def simpson(lo: float, hi: float, flo: float, fmid: float, fhi: float) -> float:
        return (hi - lo) / 6.0 * (flo + 4.0 * fmid + fhi)

    def recurse(lo, hi, flo, fmid, fhi, whole, tol_here, depth):
        mid = 0.5 * (lo + hi)
        f1 = ev(0.5 * (lo + mid))
        f2 = ev(0.5 * (mid + hi))
        left = simpson(lo, mid, flo, f1, fmid)
        right = simpson(mid, hi, fmid, f2, fhi)
        err = (left + right - whole) / 15.0
        if depth > 48 or abs(err) <= tol_here:
            return left + right + err, abs(err)
        lv, le = recurse(lo, mid, flo, f1, fmid, left, tol_here / 2.0, depth + 1)
        rv, re_ = recurse(mid, hi, fmid, f2, fhi, right, tol_here / 2.0, depth + 1)
        return lv + rv, le + re_

    # seed with a few panels so periodic integrands are not aliased
    panels = 8
    edges = np.linspace(a, b, panels + 1)
    total, err = 0.0, 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        flo, fmid, fhi = ev(lo), ev(0.5 * (lo + hi)), ev(hi)
        whole = simpson(lo, hi, flo, fmid, fhi)
        v, e = recurse(lo, hi, flo, fmid, fhi, whole, tol / panels, 0)
        total += v
        err += e
    return total, err


def oracle_charseq(psi: PsiSystem, box: int) -> CharSeq:
    """Characteristic data by full sort of |psi| over the sup-norm box."""
    pts = itertools.product(range(-box, box + 1), repeat=psi.d)
    pairs = sorted(
        ((psi.magnitude(k), k) for k in pts), key=lambda vk: (-vk[0], vk[1])
    )
    eps: list[float] = []
    shells: list[list[tuple]] = []
    for v, k in pairs:
        if v == 0.0:
            continue
        if eps and v == eps[-1]:
            shells[-1].append(k)
        else:
            eps.append(v)
            shells.append([k])
    delta = list(itertools.accumulate(len(s) for s in shells))
    return CharSeq(
        eps=tuple(eps),
        delta=tuple(delta),
        shells=tuple(tuple(s) for s in shells),
    )


@dataclass
class SigmaSearchResult:
    lower_bound: float
    weights: np.ndarray
    seed: int
    evals: int
    exhausted: bool = False


def _sigma_objective(amps: np.ndarray, n: int, p: float) -> float:
    """Sum of all-but-n-largest |a|^p (the n-term tail in the p-th power)."""
    if n == 0:
        return float(np.sum(amps ** p))
    idx = np.argsort(amps)[::-1]
    return float(np.sum(amps[idx[n:]] ** p))


def oracle_sigma_class(
    psis: np.ndarray,
    p: float,
    q: float,
    n: int,
    m: int,
    budget: SearchBudget = SearchBudget(),
) -> SigmaSearchResult:
    """Lower bound for the class-level best n-term approximation by direct
    search over the truncated coefficient ellipsoid sum |a_k/psi_k|^q <= 1
    of dimension m.

    Seeds: equal-magnitude configurations a_k = c on the s largest semiaxes
    (each exactly feasible), then random restarts with pairwise
    budget-exchange ascent along the constraint surface.  The reported value
    is a certified lower bound (every iterate is feasible); global optimality
    is not claimed.
    """
    psis = np.asarray(psis, dtype=np.float64)[:m]
    if psis.shape[0] < m:
        raise InputDomainError("need at least m rearrangement values")
    if n >= m:
        return SigmaSearchResult(0.0, np.zeros(m), budget.seed, 0)
    rng = np.random.default_rng(budget.seed)
    evals = 0
    best_val = -math.inf
    best_w = None

    inv_q = psis ** (-q)

    def amps_from_w(w: np.ndarray) -> np.ndarray:
        # budget shares w_k >= 0, sum <= 1 on the ellipsoid: a_k = psi_k w_k^{1/q}
        return psis * np.clip(w, 0.0, None) ** (1.0 / q)

    def consider(w: np.ndarray):
        nonlocal best_val, best_w, evals
        evals += 1
        val = _sigma_objective(amps_from_w(w), n, p)
        if val > best_val:
            best_val = val
            best_w = w.copy()

    # equal-magnitude seeds: a_k = c for k <= s, c saturating the constraint;
    # optionally a tail with budget shares proportional to psi^{pq/(q-p)}
    # (the stationarity profile of the tail objective) on the rest
    tail_exp = p * q / (q - p) if q > p else None
    for s in range(n + 1, m + 1):
        c = math.fsum(inv_q[:s]) ** (-1.0 / q)
        w = np.zeros(m)
        w[:s] = (c / psis[:s]) ** q
        consider(w)
        if tail_exp is not None and s < m:
            tail_profile = psis[s:] ** tail_exp
            tail_profile = tail_profile / np.sum(tail_profile)
            for head_frac in (0.5, 0.7, 0.85, 0.95, 0.99):
                w2 = np.zeros(m)
                w2[:s] = head_frac * (c / psis[:s]) ** q
                w2[s:] = (1.0 - head_frac) * tail_profile
                consider(w2)

    exhausted = False
    for _ in range(budget.restarts):
        if evals >= budget.max_evals:
            exhausted = True
            break
        w = rng.dirichlet(np.ones(m))
        consider(w)
        # pairwise exchange ascent: move budget between two coordinates
        for _ in range(8 * m):
            if evals >= budget.max_evals:
                exhausted = True
                break
            i, j = rng.integers(0, m, size=2)
            if i == j:
                continue
            pool = w[i] + w[j]
            if pool <= 0:
                continue
            improved = False
            for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
                trial = w.copy()
                trial[i] = pool * frac
                trial[j] = pool * (1.0 - frac)
                evals += 1
                val = _sigma_objective(amps_from_w(trial), n, p)
                if val > best_val + 1e-15:
                    best_val = val
                    best_w = trial.copy()
                    improved = True
            if improved:
                w = best_w.copy()
    return SigmaSearchResult(best_val, best_w, budget.seed, evals, exhausted)
