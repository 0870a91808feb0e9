"""Direct-theorem machinery: sharp constants in coefficient-space Jackson
inequalities.

The central object is the scanned infimum

    I = inf_{k >= n}  integral_0^tau phi(lam_k t / lam_n)^p dv(t),

whose reciprocal mass ratio ((v(tau)-v(0)) / I)^{1/p} is the sharp constant
relating the band-limited approximation error to the weight-averaged modulus
of smoothness.  For phi(t) = 2^a |sin(t/2)|^a with the sine-density weight
the infimum has the closed form 2^{s+1}/(s+1) at s = a p / 2 in natural
numbers; a correction series handles non-integer s.  Sharpness witnesses are
two-frequency spectra whose modulus is explicit, so the attained ratio can
be compared against the closed forms to full precision.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BudgetError, ConvergenceError, InputDomainError, require_count
from .ladder import FrequencyLadder
from .moduli import (
    PhiFunction,
    WeightMeasure,
    averaged_omega,
    weight_integrals,
    weight_linear,
)
from .psi import PsiSystem, psi_derivative
from .spectrum import Spectrum, ladder_tail_norm

_SCAN_FACTOR = 64
# relative gap below which two scanned integrals tie (the smaller k wins),
# and the period mean ties the minimum (not tail-dominated)
_TIE_TOL = 1e-9
# relative gap within which the scan infimum counts as attained at k = n
_EQUIV_TOL = 1e-8


@dataclass
class JacksonSetup:
    n: int
    phi: PhiFunction
    p: float
    tau: float
    v: WeightMeasure
    ladder: FrequencyLadder = field(default_factory=FrequencyLadder.integer)
    psi: PsiSystem | None = None

    def __post_init__(self):
        self.n = require_count(self.n, "n", 1)
        if not self.p >= 1:
            raise InputDomainError("p must be >= 1")
        if not self.tau > 0:
            raise InputDomainError("tau must be positive")
        if abs(self.v.tau - self.tau) > 1e-12 * max(1.0, self.tau):
            raise InputDomainError("weight must be defined on [0, tau]")
        # sup^p bounds every integrand of the scan
        try:
            finite = self.phi.sup is None or math.isfinite(self.phi.sup ** self.p)
        except OverflowError:
            finite = False
        if not finite:
            raise InputDomainError(f"phi^p is not a finite double (p={self.p:g})")


@dataclass
class JacksonI:
    value: float
    k_star: int
    certificate: dict


# nodes of every Gauss-Jacobi rule
_JACOBI_NODES = 24


@functools.lru_cache(maxsize=256)
def _jacobi_rule(a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
    """Golub-Welsch nodes/weights for the weight (1-x)^a (1+x)^b on [-1, 1],
    a + b > 0 (every caller has b = gamma > 0)."""
    k = np.arange(_JACOBI_NODES, dtype=np.float64)
    s = 2.0 * k + a + b
    diag = (b * b - a * a) / (s * (s + 2.0))
    diag[0] = (b - a) / (a + b + 2.0)
    kk = k[1:]
    ss = s[1:]
    off2 = (
        4.0 * kk * (kk + a) * (kk + b) * (kk + a + b)
        / (ss * ss * (ss + 1.0) * (ss - 1.0))
    )
    J = np.diag(diag) + np.diag(np.sqrt(off2), 1) + np.diag(np.sqrt(off2), -1)
    nodes, vecs = np.linalg.eigh(J)
    try:
        mu0 = 2.0 ** (a + b + 1.0) * math.gamma(a + 1.0) * math.gamma(b + 1.0) / math.gamma(a + b + 2.0)
    except OverflowError:
        # past a + b = 169, from log-gamma (about 1e-13 relative at a + b = 400)
        mu0 = math.exp((a + b + 1.0) * math.log(2.0) + math.lgamma(a + 1.0)
                       + math.lgamma(b + 1.0) - math.lgamma(a + b + 2.0))
    weights = mu0 * vecs[0, :] ** 2
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


@functools.lru_cache(maxsize=256)
def _period_kernel(gamma: float) -> np.ndarray:
    """Weights of a full sine period [lo, lo + 2 pi / r]: its integral of
    |sin(r t/2)|^gamma v'(t) is (pi / r) sum_j kernel_j v'(t_j).  With
    u = r (t - lo)/2 = (pi/2)(1 + x) and sin u = u (pi - u) g(u), g smooth,
    u^gamma (pi - u)^gamma is (pi/2)^{2 gamma} times the (gamma, gamma)
    Jacobi weight, and g(u_j)^gamma is the same at every ratio and period."""
    nodes, weights = _jacobi_rule(gamma, gamma)
    u = 0.5 * math.pi * (1.0 + nodes)
    # (pi/2)^gamma, and (pi/2) g(u) <= 2/pi: finite for every gamma < 1024
    half_g = 0.5 * math.pi * np.sin(u) / (u * (math.pi - u))
    kernel = weights * (0.5 * math.pi) ** gamma * half_g ** gamma
    kernel.setflags(write=False)
    return kernel


# a partial piece keeps one (0, gamma) rule up to 0.8 of a sine period,
# past which the cusp of the next zero is near; past gamma = 32 the peak of
# the power at mid-period narrows like 1/sqrt(gamma), and the rule's reach
# narrows with it
_JACOBI_REACH = 0.8
_PEAK_GAMMA = 32.0
# nodes and weights of the Gauss-Legendre sub-pieces that finish such a piece
_LEGENDRE_NODES, _LEGENDRE_WEIGHTS = np.polynomial.legendre.leggauss(_JACOBI_NODES)


def _partial_pieces(gamma: float, vprime, ratio, lo, hi) -> np.ndarray:
    """integral over [lo_j, hi_j] of |sin(ratio_j t/2)|^gamma v'(t) for a batch
    of partial sign-intervals of the sine, each starting at a zero, with
    u = ratio (t - lo)/2 over [0, u1] (u1 < pi).

    Up to the reach (0.8 pi for gamma <= 32), u = u_half (1 + x), u^gamma is
    the (0, gamma) Jacobi weight and (sin u / u)^gamma the smooth factor.
    Past it the cusp of the next zero u = pi is near: the rest of the piece,
    at distances d = pi - u from d0 = pi - reach down to the gap pi - u1,
    goes to Gauss-Legendre sub-pieces whose distance shrinks geometrically,
    at most 5-fold, so each is at most four times as wide as its distance to
    the cusp (and at most half the reach wide).  v' is read only inside the
    pieces."""
    reach = _JACOBI_REACH * math.pi * min(1.0, math.sqrt(_PEAK_GAMMA / gamma))
    far = 0.5 * ratio * (hi - lo) > reach
    hi_j = np.where(far, lo + 2.0 * reach / ratio, hi)
    nodes, weights = _jacobi_rule(0.0, gamma)
    half = 0.5 * (hi_j - lo)
    t = (0.5 * (hi_j + lo))[:, None] + half[:, None] * nodes
    u_half = ratio * half / 2.0
    u = u_half[:, None] * (1.0 + nodes)
    dens = np.asarray(vprime(t.ravel()), dtype=np.float64).reshape(t.shape)
    out = (weights * (np.sin(u) / u) ** gamma * dens).sum(axis=1) * half * u_half ** gamma
    if far.any():
        # sub-piece k < K of a piece spans d in [d0 q^(k+1), d0 q^k], q^K = gap / d0
        d0 = math.pi - reach
        ratio, lo = ratio[far], lo[far]
        shrink = np.log(np.maximum(math.pi - 0.5 * ratio * (hi[far] - lo), 1e-300) / d0)
        count = np.ceil(shrink / math.log(max(0.2, 1.0 - 0.5 * reach / d0))).astype(np.int64)
        owner = np.repeat(np.arange(count.shape[0]), count)
        k = (np.arange(owner.shape[0]) - (np.cumsum(count) - count)[owner]).astype(np.float64)
        step = (shrink / count)[owner]
        d_hi, d_lo = d0 * np.exp(step * k), d0 * np.exp(step * (k + 1.0))
        d_half = 0.5 * (d_hi - d_lo)
        d = (0.5 * (d_hi + d_lo))[:, None] + d_half[:, None] * _LEGENDRE_NODES
        t = lo[owner][:, None] + 2.0 * (math.pi - d) / ratio[owner][:, None]
        dens = np.asarray(vprime(t.ravel()), dtype=np.float64).reshape(t.shape)
        sub = (np.sin(d) ** gamma * dens) @ _LEGENDRE_WEIGHTS * d_half
        out[far] += 2.0 / ratio * np.bincount(owner, sub, minlength=count.shape[0])
    return out


def _alpha_scan_integrals_jacobi(alpha: float, p: float, v: WeightMeasure, tau, ratios) -> np.ndarray:
    """integral_0^tau (2|sin(r t/2)|)^{alpha p} dv(t) for each ratio r > 0
    (tau a scalar or one per ratio) against a density or piecewise-linear
    weight: each sign-interval of the sine is integrated with 24-node rules
    absorbing the algebraic endpoint zeros exactly.

    The full periods of all ratios share one (gamma, gamma) kernel: the
    density at their nodes t = h (2m + 1 + x_j), h = pi/r, times
    ``_period_kernel(gamma)``, times h per period.  A builtin density sums
    its M full periods in closed form (``v.period_sums``), one (ratios x 24)
    array; any other density is evaluated at all (periods x 24) nodes.  Only
    the partial last pieces are evaluated point by point
    (``_partial_pieces``); np.bincount adds each ratio's pieces in order.  A
    piecewise-linear weight is the piecewise-constant density of its slopes
    s_i, so its integral is sum_i s_i times the integral over the segment
    between its knots, clipped to [0, tau] (``_segment_integrals``): every
    term is nonnegative, so crowded knots cancel nothing."""
    ratios = np.asarray(ratios, dtype=np.float64)
    gamma = alpha * p
    if v.kind == "pwl":
        ends = np.clip(v.knots_t, 0.0, tau)
        segments = _segment_integrals(
            gamma, np.repeat(ratios, ends.shape[0] - 1),
            np.tile(ends[:-1], ratios.shape[0]), np.tile(ends[1:], ratios.shape[0]),
        )
        return 2.0 ** gamma * (segments.reshape(ratios.shape[0], -1) @ v.slopes)
    ends = np.broadcast_to(tau, ratios.shape)
    rows = np.arange(ratios.shape[0])
    period = 2.0 * math.pi / ratios
    full = np.floor(ends / period * (1.0 + 1e-15)).astype(np.int64)
    nodes = _jacobi_rule(gamma, gamma)[0]
    if v.period_sums is not None:
        owner = rows
        half = 0.5 * period
        dens = v.period_sums(half[:, None], full[:, None], nodes)
    else:
        owner = np.repeat(rows, full)
        m = (np.arange(owner.shape[0]) - (np.cumsum(full) - full)[owner]).astype(np.float64)
        half = 0.5 * period[owner]
        t = half[:, None] * ((2.0 * m + 1.0)[:, None] + nodes)
        dens = np.asarray(v.vprime(t.ravel()), dtype=np.float64).reshape(t.shape)
    vals = (dens @ _period_kernel(gamma)) * half
    start = full * period
    tail = start < ends * (1.0 - 1e-15)
    tail_vals = _partial_pieces(gamma, v.vprime, ratios[tail], start[tail], ends[tail])
    # each ratio's full pieces come first, its partial piece last
    total = np.bincount(
        np.concatenate((owner, rows[tail])), np.concatenate((vals, tail_vals)),
        minlength=ratios.shape[0],
    )
    return 2.0 ** gamma * total


def _segment_integrals(gamma: float, ratio, lo, hi) -> np.ndarray:
    """integral over [lo_j, hi_j] of |sin(ratio_j t/2)|^gamma dt elementwise
    (0 <= lo_j <= hi_j), between the segment's own ends.

    With P(x) the integral over a partial sign-interval of length x that
    starts at a zero (``_partial_pieces``, one batched call, on x up to half
    a sign-interval; past it P(x) is the whole one, from
    ``_period_kernel``, less P of the rest), a segment holding zeros is
    P(first zero - lo) (mirrored about that zero) plus its full
    sign-intervals plus P(hi - last zero).  One inside a sign-interval is
    P(hi - z) - P(lo - z) from the zero z on its nearer side when its
    distance to z is at most its width, so that the two pieces are at most
    a few times the difference; farther from both zeros, where the power
    is smooth over the segment, it takes the 24-node Gauss-Legendre rule."""
    period = 2.0 * math.pi / ratio
    first = np.ceil(lo / period * (1.0 - 1e-15))  # the zeros first * period ...
    last = np.floor(hi / period * (1.0 + 1e-15))  # ... to last * period lie in the segment
    up, down = first * period, last * period
    width = hi - lo
    holds = first <= last
    left = ~holds & (lo - (up - period) <= np.minimum(width, up - hi))
    right = ~holds & ~left & (up - hi <= width)
    outer = np.select([holds, left, right], [up - lo, hi - (up - period), up - lo], 0.0)
    inner = np.select([left, right], [lo - (up - period), up - hi], 0.0)
    tail = np.where(holds, hi - down, 0.0)
    whole = float(np.sum(_period_kernel(gamma))) * (0.5 * period)  # one sign-interval
    lengths, spans = np.concatenate((outer, inner, tail)), np.tile(period, 3)
    flip = lengths > 0.5 * spans
    lengths = np.where(flip, spans - lengths, lengths)
    some = lengths > 0.0
    pieces = np.zeros_like(lengths)
    pieces[some] = _partial_pieces(
        gamma, np.ones_like, np.tile(ratio, 3)[some], np.zeros(int(some.sum())), lengths[some],
    )
    outer, inner, tail = np.where(flip, np.tile(whole, 3) - pieces, pieces).reshape(3, -1)
    out = outer - inner + np.where(holds, last - first, 0.0) * whole + tail
    smooth = ~(holds | left | right)
    if smooth.any():
        half = 0.5 * width[smooth]
        t = (0.5 * (lo + hi)[smooth])[:, None] + half[:, None] * _LEGENDRE_NODES
        power = np.abs(np.sin(0.5 * ratio[smooth][:, None] * t)) ** gamma
        out[smooth] = (power @ _LEGENDRE_WEIGHTS) * half
    return out


def _even_power(phi: PhiFunction, p: float) -> int | None:
    """s when phi^p is (2 - 2 cos t)^s, a sine power with alpha p = 2 s an
    even integer; else None."""
    gamma = phi.param * p
    if phi.kind == "alpha" and abs(gamma - round(gamma)) < 1e-12 and round(gamma) % 2 == 0:
        return round(gamma) // 2
    return None


# rows per Jacobi pass, one per ratio (per ratio and knot against a
# piecewise-linear weight): (rows x 24) arrays, plus every full period's
# nodes for a custom density (about 8,000 periods x 24 for an n = 8 scan at
# tau = pi); ratios per Gauss-Legendre batch, whose open panels (x 24
# nodes) make its arrays
_JACOBI_CHUNK = 512
_SMOOTH_CHUNK = 8
# ratios one request's store may hold before a scan empties it
_STORE_RATIOS = 2 ** 12


@functools.lru_cache(maxsize=8)
def _integral_store(phi: PhiFunction, p: float, v: WeightMeasure, tau: float, quad_tol: float | None) -> dict:
    """{ratio: integral_0^tau phi(ratio t)^p dv(t)} of one request, which
    the n-sweeps of one generator share; ``_scaled_phi_integrals`` fills it."""
    return {}


def _scaled_phi_integrals(
    phi: PhiFunction, p: float, v: WeightMeasure, tau: float, ratios,
    quad_tol: float = 1e-11,
) -> list[float]:
    """integral_0^tau phi(r t)^p dv(t) for every finite ratio r >= 0.

    The ratios missing from the request's ``_integral_store`` are computed
    in chunks, one batched pass per chunk, on one of two routes: sine powers
    against densities and piecewise-linear weights by Gauss-Jacobi rules
    (``_alpha_scan_integrals_jacobi``), everything else by
    ``weight_integrals`` (exact atom sums for atomic weights).  Only the
    adaptive rule reads ``quad_tol``, so only its store is keyed on it."""
    ratios = np.asarray(ratios, dtype=np.float64)
    if not (np.isfinite(ratios) & (ratios >= 0)).all():
        raise InputDomainError("scan ratios must be finite and >= 0")
    ratios = ratios.tolist()
    jacobi = phi.kind == "alpha" and v.kind != "atomic"
    known = _integral_store(phi, p, v, tau, None if jacobi else quad_tol)
    if len(known) > _STORE_RATIOS:
        known.clear()
    todo = list(dict.fromkeys(r for r in ratios if r not in known))
    if jacobi and 0.0 in todo:
        # a sine power vanishes at 0, and ratio 0 has no sine period
        todo.remove(0.0)
        known[0.0] = 0.0
    if jacobi:
        chunk = max(1, _JACOBI_CHUNK // (v.knots_t.shape[0] if v.kind == "pwl" else 1))
    else:
        chunk = _SMOOTH_CHUNK
    for start in range(0, len(todo), chunk):
        batch = todo[start:start + chunk]
        rs = np.asarray(batch, dtype=np.float64)
        if jacobi:
            vals = _alpha_scan_integrals_jacobi(phi.param, p, v, tau, rs)
        else:
            vals = weight_integrals(
                lambda t, rows: phi.pow_p(rs[rows] * t, p), v, 0.0, tau, quad_tol,
                np.maximum(1.0, rs * tau / math.pi),
            )[0]
        known.update(zip(batch, vals.tolist()))
    return [known[r] for r in ratios]


def scaled_phi_integral(
    phi: PhiFunction, p: float, v: WeightMeasure, tau: float, ratio: float,
    quad_tol: float = 1e-11,
) -> float:
    """integral_0^tau phi(ratio * t)^p dv(t); a batch of one of
    ``_scaled_phi_integrals``, and cached as it is."""
    return _scaled_phi_integrals(phi, p, v, tau, [ratio], quad_tol)[0]


def _phi_period_mean(phi: PhiFunction, p: float) -> float | None:
    """Mean of phi^p over its period (2*pi for the builtin oscillatory
    generators).  For phi^p = (2 - 2 cos t)^s it is C(2s, s) exactly, for
    other sine powers (2 |sin(t/2)|)^g it is Gamma(g + 1) / Gamma(g/2 + 1)^2;
    for even theta generators evenness folds the period integral onto
    [0, pi], a ratio-1 request of ``scaled_phi_integral`` against the unit
    density there, cached with the scan's integrals.  None when no period
    is known or the quadrature runs out of budget."""
    s = _even_power(phi, p)
    if s is not None:
        return float(math.comb(2 * s, s))
    if phi.kind == "alpha":
        gamma = phi.param * p
        return math.exp(math.lgamma(gamma + 1.0) - 2.0 * math.lgamma(0.5 * gamma + 1.0))
    if not (phi.kind == "theta" and phi.is_even):
        return None
    try:
        return scaled_phi_integral(phi, p, weight_linear(math.pi), math.pi, 1.0, 1e-10) / math.pi
    except BudgetError:
        return None


def jackson_I(
    setup: JacksonSetup,
    k_factor: int = _SCAN_FACTOR,
    quad_tol: float = 1e-11,
) -> JacksonI:
    """Scan k in [n, k_factor*n] (k_factor >= 1) for the minimal scaled integral.

    The integrals of the whole scan come from one ``_scaled_phi_integrals``
    call (one batched pass per chunk of ratios); the scan then walks them in
    order of k.  Ties are resolved to the smallest k (within ``_TIE_TOL``
    relative).  For density weights and periodic generators, the
    equidistribution mean of phi^p times the total mass is reported; when it
    exceeds the found minimum by more than ``_TIE_TOL`` relative, the
    certificate notes that values beyond the scan range are heuristically
    dominated ("tail-dominated").  The policy is always recorded, never silent.
    """
    k_factor = require_count(k_factor, "k_factor", 1)
    n = setup.n
    lam_n = setup.ladder.value(n)
    k_max = k_factor * n
    ks = range(n, k_max + 1)
    vals = _scaled_phi_integrals(
        setup.phi, setup.p, setup.v, setup.tau,
        setup.ladder.values(k_max)[n:] / lam_n, quad_tol,
    )
    best_val = math.inf
    best_k = n
    second = math.inf
    for k, val in zip(ks, vals):
        if val < best_val * (1.0 - _TIE_TOL):
            second = best_val
            best_val, best_k = val, k
        elif val < second:
            second = val
    cert: dict = {
        "k_range": [n, k_max],
        # a value that ties the minimum is a gap of 0, never a negative one
        "min_gap": max(second - best_val, 0.0) if math.isfinite(second) else None,
        "quad_tol": quad_tol,
    }
    mean = _phi_period_mean(setup.phi, setup.p)
    if mean is not None and setup.v.kind == "density":
        tail_value = mean * setup.v.total_mass()
        cert["tail_mean"] = tail_value
        cert["tail_dominated"] = bool(tail_value > best_val * (1.0 + _TIE_TOL))
    else:
        cert["tail_mean"] = None
        cert["tail_dominated"] = False
    return JacksonI(best_val, best_k, cert)


def jackson_constant(setup: JacksonSetup, I: JacksonI | None = None) -> float:
    """((v(tau) - v(0)) / I)^{1/p}: the sharp-constant factor."""
    I = I or jackson_I(setup)
    return (setup.v.total_mass() / I.value) ** (1.0 / setup.p)


@dataclass
class JacksonBound:
    rhs: float
    lhs: float | None
    slack: float | None
    factors: dict


def jackson_bound(
    setup: JacksonSetup, f: Spectrum | None = None, quad_tol: float = 1e-11
) -> JacksonBound:
    """Right-hand side of the direct inequality, itemized.

    Both forms are rhs = ((v(tau)-v(0))/I)^{1/p} nu OmegaAvg(g, u) with the
    weight-averaged modulus of ``averaged_omega``.  Without a psi system the
    plain form (requires f) takes g = f, nu = 1 and u = tau/lam_n, that is

        E^p <= (1/I) integral_0^tau omega_phi^p(f, t/lam_n) dv(t).

    With a psi system the class form takes the psi-derivative g = f', the
    tail supremum nu = nu(n) and u = tau/n:

        E <= ((v(tau)-v(0))/I)^{1/p} nu(n) OmegaAvg(f', tau/n);

    with f omitted the sharp class constant ((v(tau)-v(0))/I)^{1/p} nu(n)
    is returned.  ``quad_tol`` steers only the scanned-integral quadrature;
    the modulus integral keeps the default tolerance of ``averaged_omega``.
    """
    I = jackson_I(setup, quad_tol=quad_tol)
    lam_n = setup.ladder.value(setup.n)
    const = jackson_constant(setup, I)
    factors: dict = {"I": I.value, "k_star": I.k_star, "lam_n": lam_n, "constant": const}
    if setup.psi is None:
        if f is None:
            raise InputDomainError("the plain form needs a spectrum f")
        nu, g, u = 1.0, f, setup.tau / lam_n
    else:
        nu = setup.psi.nu(setup.n)
        factors["nu"] = nu
        if f is None:
            return JacksonBound(const * nu, None, None, factors)
        g, u = psi_derivative(f, setup.psi), setup.tau / setup.n
    modulus = averaged_omega(g, setup.phi, setup.tau, setup.v, u, setup.p)
    factors["averaged_modulus"] = modulus
    rhs = const * nu * modulus
    lhs = ladder_tail_norm(f, lam_n, setup.p)
    return JacksonBound(rhs, lhs, rhs - lhs, factors)


# ---------------------------------------------------------------------------
# sharpness witnesses


@dataclass
class SharpnessResult:
    ratio_integral: float
    closed_integral: float
    ratio_averaged: float
    closed_averaged: float
    equivalence_ok: bool
    details: dict


def extremal_two_frequency(lam: float, gamma: complex = 0.3 + 0.2j, amplitude: float = 1.0) -> Spectrum:
    """gamma + amplitude * (e^{-i lam x} + e^{i lam x}) as a real-frequency spectrum."""
    return Spectrum.real({0.0: gamma, lam: amplitude, -lam: amplitude})


def jackson_sharpness_witness(
    setup: JacksonSetup,
    gamma: complex = 0.3 + 0.2j,
    amplitude: float = 1.0,
) -> SharpnessResult:
    """Attained ratios of the two-frequency witness versus the closed forms.

    Checks numerically that the scanned infimum is attained by the unscaled
    integral (the equivalence condition); if it fails, the ratios are still
    computed and reported.  Two normalizations are returned: the raw
    integral form with target (integral phi^p dv)^{-1/p}, and the
    mass-normalized averaged form with target ((v(tau)-v(0)) / integral
    phi^p dv)^{1/p} nu(n) (nu = 1 without a psi system).
    """
    setup.phi.require_monotone(setup.tau)
    I = jackson_I(setup)
    base = scaled_phi_integral(setup.phi, setup.p, setup.v, setup.tau, 1.0)
    equivalence_ok = abs(I.value - base) <= _EQUIV_TOL * max(1.0, abs(base))
    n, p, tau = setup.n, setup.p, setup.tau
    lam_n = setup.ladder.value(n)
    fn = extremal_two_frequency(lam_n, gamma, amplitude)
    lhs = ladder_tail_norm(fn, lam_n, p)
    mass = setup.v.total_mass()
    # the raw integral's p-th root is the mass-normalized average times mass^{1/p}
    omega_avg = averaged_omega(fn, setup.phi, tau, setup.v, tau / lam_n, p, tol=1e-12)
    ratio_integral = lhs / (omega_avg * mass ** (1.0 / p))
    closed_integral = base ** (-1.0 / p)
    if setup.psi is None:
        nu = 1.0
    else:
        nu = setup.psi.nu(n)
        witness = Spectrum.lattice({0: gamma, n: amplitude, -n: amplitude})
        flat = psi_derivative(witness, setup.psi)
        omega_avg = averaged_omega(flat, setup.phi, tau, setup.v, tau / n, p)
        lhs = ladder_tail_norm(witness, lam_n, p)
    ratio_averaged = lhs / omega_avg
    closed_averaged = (mass / base) ** (1.0 / p) * nu
    return SharpnessResult(
        ratio_integral=ratio_integral,
        closed_integral=closed_integral,
        ratio_averaged=ratio_averaged,
        closed_averaged=closed_averaged,
        equivalence_ok=equivalence_ok,
        details={
            "I": I.value, "k_star": I.k_star, "base_integral": base,
            "witness_error": lhs, "mass": mass, "nu": nu,
        },
    )


# ---------------------------------------------------------------------------
# correction series, moment constants, closed-form tables


# upper bound for sum_{i>=1} 1/(2 i^2 - 1) = 1 + 1/7 + 1/17 + ... (~1.2026)
_SUM_INV_ODD = 1.21
# the inner walk stops once its scaled binomial falls below this share of
# the central one; that happens near i = 6.5 sqrt(a)
_WALK_CUT = 1e-18
# elements per block of inner walks (terms x walk length)
_WALK_BLOCK = 2 ** 14


@dataclass
class SigmaSeries:
    value: float
    tail_bound: float
    terms: int


def _inner_walks(a0: int, wcs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Inner sums of the terms a = a0, a0 + 1, ... (one per entry of wcs,
    the scaled central binomials C(2a, a) 4^{-a}), and the bound on what
    each walk neglects.

    Term a walks j = a, a-1, ... down from the central column: w_i =
    C(2a, a-i) 4^{-a} by the multiplicative recurrence, summing
    w_i * 4 / (2 i^2 - 1) up to and including the first w_i below
    _WALK_CUT * wc, whose 4 * _SUM_INV_ODD multiple bounds the rest.  Walks
    that reach j = 0 end there (w = 0 contributes nothing).  The products
    and sums run in the same order as a scalar loop."""
    a = a0 + np.arange(wcs.shape[0], dtype=np.float64)[:, None]
    length = min(int(a[-1, 0]) + 1, int(7.0 * math.sqrt(a[-1, 0])) + 8)
    while True:
        i = np.arange(1.0, length + 1.0)
        j = np.maximum(a - i + 1.0, 0.0)
        steps = np.concatenate((wcs[:, None], j / (2.0 * a - j + 1.0)), axis=1)
        w = np.cumprod(steps, axis=1)[:, 1:]
        cut = w < _WALK_CUT * wcs[:, None]
        if cut.any(axis=1).all():
            break
        length = min(int(a[-1, 0]) + 1, 2 * length)
    stop = np.argmax(cut, axis=1)
    rows = np.arange(wcs.shape[0])
    sums = np.cumsum(w * 4.0 / (2.0 * i * i - 1.0), axis=1)
    return sums[rows, stop], w[rows, stop] * 4.0 * _SUM_INV_ODD


def _sigma_bound_floor(s: float, b: int, factor: float) -> float:
    """Tail bound of the correction series once the terms before b are
    summed, without the (nonnegative) neglected part: factor * C(2b, b)
    4^{-b} * |C(s, 2b)| * (2b + 1) / (2 s), from log-gamma.  It decreases
    in b, so a value above the tolerance at the budget means the sum cannot
    converge within it."""
    log_wc = math.lgamma(2 * b + 1) - 2.0 * math.lgamma(b + 1) - b * math.log(4.0)
    log_c = math.lgamma(s + 1.0) - math.lgamma(2 * b + 1) - math.lgamma(s - 2 * b + 1.0)
    return factor * math.exp(log_wc + log_c) * (2 * b + 1) / (2.0 * s)


def _sigma_partial_sum(
    s: float, a0: int, odd: float, factor: float, tol: float, budget: int
) -> tuple[float, float, int]:
    """(value, tail bound, terms) of the correction series summed from term
    a0 on, until the bound falls below ``tol`` or ``budget`` terms are in."""
    # binomial C(s, m) up to m = 2*a0 by the multiplicative recurrence
    c = 1.0
    for m in range(2 * a0):
        c *= (s - m) / (m + 1.0)
    # scaled central binomial w_c(a) = C(2a, a) 4^{-a}
    wc = 1.0
    for a in range(1, a0 + 1):
        wc *= (2.0 * a - 1.0) / (2.0 * a)
    total = 0.0
    neglected = 0.0
    a = a0
    terms = 0
    bound = math.inf
    count = 16
    while terms < budget:
        # the central binomials and inner walks of a block of terms at once
        # (blocks double while they stay within _WALK_BLOCK elements)
        count = min(budget - terms, 2 * count)
        while count > 1 and count * (7 * math.isqrt(a + count) + 8) > _WALK_BLOCK:
            count //= 2
        wcs = [wc]
        for k in range(count):
            wcs.append(wcs[-1] * (2.0 * (a + k) + 1.0) / (2.0 * (a + k) + 2.0))
        contribs, cut = _inner_walks(a, np.array(wcs[:-1]))
        for wc, wc_next, contrib, rest in zip(wcs, wcs[1:], contribs.tolist(), cut.tolist()):
            neglected += rest
            total += -c * (odd * 2.0 * wc - contrib)
            terms += 1
            # rigorous bound on everything past this term
            c_next = c * ((2.0 * a - s) / (2.0 * a + 1.0)) * ((2.0 * a + 1.0 - s) / (2.0 * a + 2.0))
            bound = factor * wc_next * abs(c_next) * (2.0 * a + 3.0) / (2.0 * s) + neglected
            c = c_next
            a += 1
            if bound < tol:
                return total, bound, terms
        wc = wcs[-1]
    return total, bound, terms


def sigma_series(s: float, tol: float = 1e-8, budget: int = 1_000_000) -> SigmaSeries:
    """Correction series for non-integer exponents; identically zero at
    natural s (every generalized binomial coefficient past column s
    vanishes), returned without summation.

    The tail bound decays like a^{-(s + 1/2)} in the term index a (about
    1/a at s = 1/2).  When its closed form after ``budget`` terms is still
    above ``tol``, no partial sum within the budget can meet it, and
    ``ConvergenceError`` is raised before summing."""
    if not 0 < s < math.inf:
        raise InputDomainError(f"s must be positive and finite, got {s}")
    if not 0 < tol < math.inf:
        raise InputDomainError(f"tol must be positive and finite, got {tol}")
    budget = require_count(budget, "budget", 0)
    if abs(s - round(s)) < 1e-12:
        return SigmaSeries(0.0, 0.0, 0)
    s, tol = float(s), float(tol)
    a0 = int(s / 2.0) + 1
    odd = 1.0 if int(s) % 2 == 1 else 0.0
    factor = 2.0 * odd + 4.0 * _SUM_INV_ODD
    # the margin covers the log-gamma rounding of the closed form
    floor = _sigma_bound_floor(s, a0 + budget, factor)
    if floor > tol * (1.0 + 1e-6):
        needed = budget * (floor / tol) ** (1.0 / (s + 0.5))
        raise ConvergenceError(
            f"correction series tail bound is still {floor:.3e} after {budget} "
            f"terms, above {tol:.3e}; about {needed:.2e} terms would be needed"
        )
    value, bound, terms = _sigma_partial_sum(s, a0, odd, factor, tol, budget)
    if not bound < tol:
        raise ConvergenceError(
            f"correction series tail bound {bound:.3e} not below {tol:.3e} "
            f"within {budget} terms"
        )
    return SigmaSeries(value, bound, terms)


def sine_moment(N: int) -> float:
    """integral_0^pi u^{2N} sin u du by the exact two-step recurrence
    M_m = pi^m - m (m-1) M_{m-2}, M_0 = 2."""
    N = require_count(N, "N", 0)
    val = 2.0
    for m in range(2, 2 * N + 1, 2):
        val = math.pi ** m - m * (m - 1) * val
    return val


def kappa(N: int) -> float:
    """Moment constant: the even sine moment normalized by 2 * N!."""
    if require_count(N, "N", 1) > 20:
        raise InputDomainError("N must be in 1..20")
    return sine_moment(N) / (2.0 * math.factorial(int(N)))


def chernykh_constants(alpha: float | None = None, p: float | None = None, m: int | None = None) -> dict:
    """Closed-form constant table for the sine-density weight at tau = pi.

    * sharp_ratio_pow_p(alpha, p): (alpha p/2 + 1) / 2^{alpha p} -- the p-th
      power of the sharp averaged constant, valid for alpha p / 2 natural;
    * uniform_ratio(alpha, p): (4/3)^{1/p} / 2^{alpha/2} -- endpoint bound
      uniform in n and p;
    * uniform_ratio_integer(m): (4 - 2 sqrt 2) / 2^{m/2} for natural order m;
    * hilbert_averaged(m): (m+1) / 2^{2m+1} -- averaged form at p = 2;
    * hilbert_endpoint(m): sqrt(m+1) / 2^m -- endpoint form at p = 2.
    """
    out: dict[str, float] = {}
    if alpha is not None and p is not None:
        out["sharp_ratio_pow_p"] = (alpha * p / 2.0 + 1.0) / 2.0 ** (alpha * p)
        out["uniform_ratio"] = (4.0 / 3.0) ** (1.0 / p) / 2.0 ** (alpha / 2.0)
    if m is not None:
        out["uniform_ratio_integer"] = (4.0 - 2.0 * math.sqrt(2.0)) / 2.0 ** (m / 2.0)
        out["hilbert_averaged"] = (m + 1.0) / 2.0 ** (2 * m + 1)
        out["hilbert_endpoint"] = math.sqrt(m + 1.0) / 2.0 ** m
    if not out:
        raise InputDomainError("provide (alpha, p) and/or m")
    return out
