"""Inverse-theorem machinery: moduli of smoothness bounded by weighted sums
of best approximations, the finite Abel-summation identity behind them, the
Bari-type regularity condition on majorants, and empirical constructive
class-membership verdicts.

All O-statements are checked empirically over a declared index range with
fitted constants reported; they are never claimed as proofs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import InputDomainError, PreconditionError, require_count
from .ladder import FrequencyLadder
from .moduli import PhiFunction, omega_phi, phi_alpha
from .spectrum import Spectrum, _lp, ladder_tail_norm


@dataclass
class InverseResult:
    lhs: float
    rhs: float
    holds: bool
    details: dict


_HOLD_ABS = 1e-10
_HOLD_REL = 1e-12


def _holds(lhs: float, rhs: float) -> bool:
    return bool(lhs <= rhs + _HOLD_ABS + _HOLD_REL * abs(rhs))


def _tail_powers(f: Spectrum, lam: np.ndarray, p: float) -> np.ndarray:
    """E_v^p for v = 1..n, the tails over |frequency| >= lam_v (lam = lam_0..lam_n),
    each ``ladder_tail_norm``'s one ``_lp`` over the same terms."""
    terms = list(zip(np.abs(f.scalar_frequencies()).tolist(), f.coefficients))
    return np.array([_lp([c for x, c in terms if x >= lam_v], p) ** p for lam_v in lam[1:].tolist()])


def inverse_bound_general(
    f: Spectrum,
    phi: PhiFunction,
    ladder: FrequencyLadder,
    n: int,
    tau: float,
    p: float,
) -> InverseResult:
    """General inverse bound: with phi nondecreasing on [0, tau] and
    phi(tau) the global sup,

        omega_phi^p(f, tau/lam_n) <= sum_{v=1}^n
            (phi^p(tau lam_v / lam_n) - phi^p(tau lam_{v-1} / lam_n)) E_v^p

    where E_v is the tail norm over |frequency| >= lam_v."""
    n = require_count(n, "n", 1)
    phi.require_monotone(tau)
    if phi.sup is not None and phi(tau) < phi.sup * (1 - 1e-9):
        raise PreconditionError("phi(tau) must attain the global sup")
    lam = ladder.values(n)
    lhs = omega_phi(f, phi, tau / lam[n], p) ** p
    weights = phi.pow_p(tau * lam / lam[n], p)
    tails = _tail_powers(f, lam, p)
    rhs = float(np.sum((weights[1:] - weights[:-1]) * tails))
    return InverseResult(lhs, rhs, _holds(lhs, rhs), {"n": n, "tau": tau})


def inverse_bound_alpha(
    f: Spectrum,
    alpha: float,
    p: float,
    ladder: FrequencyLadder,
    n: int,
    variant: str = "improved",
) -> InverseResult:
    """Power-scale inverse bounds for the order-alpha modulus at step
    pi/lam_n.  Variants:

    * ``classic``:  alpha p (2 pi / lam_n)^{alpha p}
                    sum lam_v^{alpha p - 1}(lam_v - lam_{v-1}) E_v^p
    * ``improved``: (pi / lam_n)^{alpha p} sum (lam_v^{alpha p} -
                    lam_{v-1}^{alpha p}) E_v^p   (never larger for alpha p >= 1)
    * ``gap``:      K alpha p (pi / lam_n)^{alpha p} sum lam_v^{alpha p - 1}
                    E_v^p, needing the ladder's uniform gap bound K.
    """
    n = require_count(n, "n", 1)
    if variant not in ("classic", "improved", "gap"):
        raise InputDomainError(f"unknown variant {variant!r}")
    ap = alpha * p
    lam = ladder.values(n)
    lhs = omega_phi(f, phi_alpha(alpha), math.pi / lam[n], p) ** p
    tails = _tail_powers(f, lam, p)
    lam_pos = lam[1:]
    details = {"variant": variant, "n": n, "alpha": alpha}
    with np.errstate(over="ignore", invalid="ignore"):  # reported just below
        # the classic rhs also serves as the improved variant's reference
        classic = ap * (2 * math.pi / lam[n]) ** ap * float(
            np.sum(lam_pos ** (ap - 1) * np.diff(lam) * tails)
        )
        if variant == "classic":
            rhs = classic
        elif variant == "improved":
            coeff = (math.pi / lam[n]) ** ap
            rhs = coeff * float(np.sum(np.diff(lam ** ap) * tails))
            ratio = rhs / classic if classic > 0 else math.nan
            details["ratio_vs_classic"] = ratio if math.isfinite(classic) else None  # overflow
        else:
            K = ladder.check_gap(n + 1)
            coeff = K * ap * (math.pi / lam[n]) ** ap
            rhs = coeff * float(np.sum(lam_pos ** (ap - 1) * tails))
    if not math.isfinite(rhs):
        raise InputDomainError(f"the {variant} bound is not a finite double (alpha p={ap:g})")
    return InverseResult(lhs, rhs, _holds(lhs, rhs), details)


def sharpness_single_frequency(
    alpha: float,
    p: float,
    ladder: FrequencyLadder,
    k0: int,
    n: int,
) -> float:
    """Sharpness ratio of the improved bound for the single-frequency
    witness e^{i lam_{k0} x}: modulus at pi/lam_n over the n-th weighted tail
    sum (to the 1/p) times lam_n^{-alpha}.  Approaches pi^alpha from below as
    n grows."""
    if n < k0:
        raise InputDomainError("need n >= k0 for the witness ratio")
    f = Spectrum.real({ladder.value(k0): 1.0})
    lam_n = ladder.value(n)
    num = omega_phi(f, phi_alpha(alpha), math.pi / lam_n, p)
    lam = ladder.values(n)
    tails = _tail_powers(f, lam, p)
    series = float(np.sum(np.diff(lam ** (alpha * p)) * tails))
    return num / (series ** (1.0 / p) * lam_n ** (-alpha))


def abel_sum_identity(
    a: Sequence[float],
    c: Sequence[float],
    N1: int,
    N2: int,
) -> tuple[float, float]:
    """Finite Abel (summation-by-parts) identity: both sides of

        sum_{v=N1}^{N2} a_v c_v = a_{N1} sum_{v>=N1} c_v
            + sum_{v=N1+1}^{N2} (a_v - a_{v-1}) sum_{i>=v} c_i
            - a_{N2} sum_{v>N2} c_v

    for a finitely supported (or absolutely summable, truncated) sequence c.
    Indices are 1-based; exact for finitely supported c."""
    if not 1 <= N1 <= N2:
        raise InputDomainError("need 1 <= N1 <= N2")
    a = list(map(float, a))
    c = list(map(float, c))
    if len(a) < N2:
        raise InputDomainError("sequence a too short")
    c = c + [0.0] * (N2 + 1 - len(c))

    def tail(v: int) -> float:
        return math.fsum(c[v - 1:])

    lhs = math.fsum(a[v - 1] * c[v - 1] for v in range(N1, N2 + 1))
    rhs = (
        a[N1 - 1] * tail(N1)
        + math.fsum((a[v - 1] - a[v - 2]) * tail(v) for v in range(N1 + 1, N2 + 1))
        - a[N2 - 1] * tail(N2 + 1)
    )
    return lhs, rhs


# ---------------------------------------------------------------------------
# majorants and constructive class membership


class Majorant:
    """Majorant on [0, 1]: continuous, nondecreasing, positive on (0, 1],
    vanishing at 0+.  The flags are verified on a grid at construction."""

    def __init__(self, fn: Callable[[float], float], label: str = "majorant"):
        self._fn = fn
        self.label = label
        grid = np.concatenate(([1e-9, 1e-7, 1e-5], np.linspace(1e-3, 1.0, 257)))
        vals = np.array([float(fn(t)) for t in grid])
        if np.any(~np.isfinite(vals)) or np.any(vals < 0):
            raise InputDomainError("majorant must be finite and nonnegative")
        if np.any(np.diff(vals) < -1e-12 * max(1.0, float(np.max(vals)))):
            raise InputDomainError("majorant must be nondecreasing")
        if np.any(vals[3:] <= 0):
            raise InputDomainError("majorant must be positive on (0, 1]")
        if vals[0] > 1e-3 * vals[-1]:
            raise InputDomainError("majorant must vanish at 0+ (checked at 1e-9)")

    def __call__(self, t: float) -> float:
        return float(self._fn(t))


def _empirical_bounded(values: Sequence[float]) -> bool:
    """Heuristic bounded-vs-growing verdict on a positive sequence sampled
    along a (roughly geometric) index range: growing increments across the
    top of the range mean no bound is in sight."""
    v = list(values)
    if len(v) < 4:
        return True
    diffs = [b - a for a, b in zip(v, v[1:])]
    tail = diffs[len(diffs) // 2:]
    growing = all(d > -1e-12 for d in tail) and tail[-1] > 0.25 * max(abs(d) for d in diffs[:max(1, len(diffs) // 2)] + [1e-30])
    still_growing = len(tail) >= 2 and tail[-1] >= 0.9 * tail[0] and tail[-1] > 1e-9 * max(v)
    return not (growing and still_growing)


@dataclass
class BariResult:
    sup_ratio: float
    bounded: bool
    ratios: dict


def bari_check(
    omega: Majorant | Callable[[float], float],
    ladder: FrequencyLadder,
    s: float,
    n_range: Sequence[int],
) -> BariResult:
    """Regularity condition on the majorant: partial sums
    sum_{v<=n} lam_v^{s-1} omega(1/lam_v) should stay O(lam_n^s
    omega(1/lam_n)); the verdict is the empirical boundedness of the ratio
    over the given range."""
    if not s > 0:
        raise InputDomainError("s must be positive")
    om = omega if callable(omega) else omega.__call__
    n_max = max(n_range)
    lam = ladder.values(n_max)
    terms = [lam[v] ** (s - 1.0) * om(1.0 / lam[v]) for v in range(1, n_max + 1)]
    csum = list(np.cumsum(terms))
    ratios = {
        n: csum[n - 1] / (lam[n] ** s * om(1.0 / lam[n])) for n in n_range
    }
    vals = [ratios[n] for n in sorted(ratios)]
    return BariResult(max(vals), _empirical_bounded(vals), ratios)


@dataclass
class MembershipReport:
    direct_bounded: bool
    direct_constant: float
    modulus_bounded: bool
    modulus_constant: float
    bari_ok: bool
    consistent: bool
    details: dict


def class_membership_homega(
    f: Spectrum,
    omega: Majorant | Callable[[float], float],
    alpha: float,
    p: float,
    ladder: FrequencyLadder,
    n_range: Sequence[int],
) -> MembershipReport:
    """Empirical two-sided constructive characterization: (i) are the tail
    norms E_{lam_n}(f) dominated by omega(1/lam_n)?  (ii) is the order-alpha
    modulus at 1/lam_n dominated by omega(1/lam_n)?  The converse direction
    (i) => (ii) is certified only when the ladder carries a gap bound and
    omega^p passes the regularity check with exponent alpha p."""
    om = omega if callable(omega) else omega.__call__
    phi = phi_alpha(alpha)
    e_ratios, m_ratios = [], []
    for n in n_range:
        lam_n = ladder.value(n)
        target = om(1.0 / lam_n)
        if target <= 0:
            raise InputDomainError("majorant vanishes inside the range")
        e_ratios.append(ladder_tail_norm(f, lam_n, p) / target)
        m_ratios.append(omega_phi(f, phi, 1.0 / lam_n, p) / target)
    try:
        ladder.check_gap(max(n_range) + 1)
        gap_ok = True
    except PreconditionError:
        gap_ok = False
    bari = bari_check(lambda t: om(t) ** p, ladder, alpha * p, list(n_range))
    direct_bounded = _empirical_bounded(e_ratios)
    modulus_bounded = _empirical_bounded(m_ratios)
    # the characterization: modulus-bounded => tails-bounded always; the
    # converse needs the gap + regularity certificates
    consistent = (not modulus_bounded or direct_bounded) and (
        not (direct_bounded and gap_ok and bari.bounded) or modulus_bounded
    )
    return MembershipReport(
        direct_bounded=direct_bounded,
        direct_constant=max(e_ratios),
        modulus_bounded=modulus_bounded,
        modulus_constant=max(m_ratios),
        bari_ok=bari.bounded,
        consistent=consistent,
        details={
            "gap_certified": gap_ok,
            "tail_ratios": e_ratios,
            "modulus_ratios": m_ratios,
            "converse_certified": gap_ok and bari.bounded,
        },
    )
