"""Generalized and averaged moduli of smoothness in coefficient-space metrics.

The generalized modulus of a finite spectrum f is

    omega_phi(f, delta)_p = sup_{|h| <= delta} ( sum_k phi(lam_k h)^p |A_k|^p )^{1/p}

for a bounded generator phi with phi(0) = 0.  Builtin generators:

* ``phi_alpha(a)``   -- 2^a |sin(t/2)|^a, the order-a modulus generator;
* ``phi_theta(...)`` -- |sum_j theta_j e^{-ijt}|, matching a generalized
  difference operator with weights theta, factored as (2 |sin(t/2)|)^m0
  |Q(e^{-it})| with sum_j theta_j w^j = (w - 1)^m0 Q(w); alpha is the case
  Q = 1, and both share one constructor and its kernels (``_sine_power``),
  so the classical scheme of order m is ``phi_alpha(m)`` to the bit;
* ``phi_steklov(m)`` -- (1 - sinc t)^m, matching the m-fold defect of the
  centered sliding mean (1 - sinc t summed as a series at small phases).

``omega_phi`` and ``OmegaEvaluator`` read one scan of the shift objective
(``_sampled_objective``) on a uniform grid with 16 cells per oscillation of
the fastest frequency.  For a builtin generator the scan is certified:
every cell gets a closed-form upper bound of the objective
(``PhiFunction.cell_sup``, term by term: the larger end value or a crest
value for alpha, Steklov and a constant-Q theta, and for other theta
schemes a second-order bound on |symbol|^2 whose value and slope at the
cell midpoint come from the factors),
and only the cells whose bound beats the best sample (``omega_phi``) or the
running maximum of the samples (``OmegaEvaluator``) are refined (branch
and bound; Piyavskii 1972, Shubert 1972), by safeguarded Newton on the
closed-form derivative of the objective (``PhiFunction.derivs``).  Every
zero of a builtin phi is a known phase (``PhiFunction.zeros``), so a cell
is first split where a term meets a cusp of phi^p, and its derivative is
sampled more densely toward that cut.  Custom generators take the dense
scan of at least ``_N_GRID`` cells, each sampled peak refined by
resampling.  ``OmegaEvaluator`` keeps the running maximum of the objective
by pieces: its records, the plateaus after them and the rising stretches
where it is the objective itself, cut at the term zeros (for a custom
generator, at the local minima of its terms, refined by resampling); each
plateau ends where Newton finds S climbing back through its record.  The
averaged modulus integrates omega_phi^p against a nondecreasing weight
(Riemann-Stieltjes) over those pieces, normalized by the weight's total
mass; it never exceeds omega_phi at the right endpoint.  Every bracket is
refined by one of two loops, ``_newton_root`` or ``_refine_maxima``, to
one stopping width (``_stop_width``).

``omega_phi`` keeps its 2^10 most recently used requests (f, phi, delta,
p) in ``_omega``, each value with the upper bound of a certified scan
(None after a dense scan), so a repeated request returns bit for bit the
value first computed; invalid arguments raise before the lookup, and a
non-finite objective raises InputDomainError (never stored).
"""

from __future__ import annotations

import functools
import math
from typing import Callable, Sequence

import numpy as np

from .errors import BudgetError, DegenerateWeightError, InputDomainError, require_count
from .spectrum import DifferenceScheme, Spectrum

_SINC_MIN_ARG = 4.493409457909064  # first positive root of tan t = t
_SINC_MIN = math.cos(_SINC_MIN_ARG)
_EPS = float(np.finfo(np.float64).eps)


# ---------------------------------------------------------------------------
# phi generators


class PhiFunction:
    """Nonnegative bounded generator with phi(0) = 0; ``is_even`` records
    whether phi(-t) = phi(t).

    ``evaluator(t, e)`` returns phi(t)**e elementwise; it is the only place
    phi is evaluated (``__call__`` is e = 1, ``pow_p`` is e = p).
    ``monotone_to`` is the right end of a declared interval [0, a] on which
    phi is nondecreasing with phi(a) = sup; it is required by the sharpness
    and inverse-theorem operations.  ``sup`` bounds phi: its least upper
    bound for alpha, Steklov and a constant-Q theta, and sum_j |theta_j|
    (the weights of (w - 1)^m0 Q) for other theta schemes.

    Builtin generators carry two closed-form kernels of g = phi**e, each
    None for custom ones, elementwise over phases:

    * ``cell_sup(t0, t1, w0, w1, e)`` bounds g on phase cells: over the cell
      ends t0, t1 and their values w0, w1 of g, it returns (bounds, slack),
      with every exact or computed value of g between t0 and t1 at most the
      bound plus 2 slack, and every computed value off by at most slack;
    * ``derivs(t, e)`` returns (g', g'') where g is twice differentiable.

    ``zeros`` are the phases z in [0, pi] such that phi vanishes at every
    2 pi j + z or every 2 pi j - z: 0 for alpha and theta (of order alpha,
    or m0 for theta), and for theta also |arg| of the roots of its factor
    Q on or near the unit circle (of order 1; off it, phi comes near 0).
    ``order`` is the smallest of these orders.  Steklov (whose one zero is
    t = 0) and custom generators have none.  At a zero, g behaves as |t -
    t_0|^(order e), a cusp with g'' unbounded when order e < 2.

    Only the theta and custom generators are probed (``_validate``) for
    phi(0) = 0, finite nonnegative values and evenness; alpha and Steklov
    have these properties by construction.
    """

    def __init__(
        self,
        kind: str,
        evaluator: Callable[[np.ndarray, float], np.ndarray],
        *,
        param: float = 0.0,
        theta: tuple = (),
        sup: float | None = None,
        monotone_to: float | None = None,
        label: str = "",
        cell_sup: Callable | None = None,
        derivs: Callable | None = None,
        zeros: tuple = (),
        order: float = 1.0,
    ):
        self.kind = kind
        self._eval = evaluator
        self.cell_sup, self.derivs = cell_sup, derivs
        self.zeros, self.order = zeros, order
        self.param = float(param)
        self.theta = tuple(complex(t) for t in theta)
        self.sup = sup
        self.monotone_to = monotone_to
        self.label = label or kind
        # builtin generators are equal when their parameters are, a custom
        # one only to itself (a label says nothing about the function, and a
        # cache entry keeps the object alive, so its id is not reused meanwhile)
        self._key = id(self) if kind == "custom" else (kind, self.param, self.theta)
        self.is_even = True

    def _validate(self) -> PhiFunction:
        z = float(self(0.0))
        if abs(z) > 1e-12:
            raise InputDomainError(f"phi(0) must be 0, got {z}")
        grid = np.linspace(1e-3, 7.0, 97)
        vals = self(grid)
        if np.any(~np.isfinite(vals)) or np.any(vals < -1e-12):
            raise InputDomainError("phi must be finite and nonnegative")
        even_gap = float(np.max(np.abs(self(-grid) - vals)))
        self.is_even = even_gap <= 1e-10 * max(1.0, float(np.max(np.abs(vals))))
        return self

    def __call__(self, t):
        out = self._eval(np.asarray(t, dtype=np.float64), 1.0)
        return float(out) if np.isscalar(t) else out

    def pow_p(self, t, p: float):
        return self._eval(np.asarray(t, dtype=np.float64), p)

    def require_monotone(self, tau: float):
        if self.monotone_to is None or tau > self.monotone_to * (1 + 1e-12):
            raise InputDomainError(
                f"phi={self.label} is not declared nondecreasing up to tau={tau:g}"
            )

    def __eq__(self, other):
        return isinstance(other, PhiFunction) and self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        return f"PhiFunction({self.label})"


def phi_alpha(alpha: float) -> PhiFunction:
    """2^alpha |sin(t/2)|^alpha; nondecreasing on [0, pi] with sup 2^alpha.
    One shared generator per value of alpha."""
    if not 0 < alpha < 1024:
        raise InputDomainError("alpha must be positive, with 2^alpha a finite double")
    return _phi_alpha(float(alpha))


@functools.lru_cache(maxsize=256)
def _phi_alpha(alpha: float) -> PhiFunction:
    return _sine_power("alpha", alpha, (1.0,), param=alpha, label=f"alpha:{alpha:g}")


def phi_theta(theta: Sequence[complex] | DifferenceScheme) -> PhiFunction:
    """|sum_j theta_j e^{-ijt}| for a difference scheme (weights sum to 0).

    With R(w) = sum_j theta_j w^j, zero weights at either end dropped (a
    power of w has modulus 1 on the unit circle), phi is
    (2 |sin(t/2)|)^m0 |Q(e^{-it})| for R(w) = (w - 1)^m0 Q(w), Q found by
    m0 rounds of synthetic division (the quotient of q by w - 1 is
    -(q_0 + ... + q_j) at w^j).  The first round always runs; its remainder
    sum theta is 0 up to the scheme's check and is dropped, so phi(0) = 0
    exactly.  Each later round runs while Q has a root and Q(1), the next
    remainder, is within 4 n eps sum_j |q_j| of 0 (n coefficients): exact
    for integer weights, whose sums are exact and whose nonzero remainders
    are at least 1, and typically no later round for float weights."""
    th = (theta if isinstance(theta, DifferenceScheme) else DifferenceScheme(tuple(theta))).theta
    q, m0 = np.trim_zeros(np.array(th, dtype=np.complex128)), 0
    while q.shape[0] > 1 and (not m0 or abs(np.sum(q)) <= 4.0 * q.shape[0] * _EPS * float(np.sum(np.abs(q)))):
        q, m0 = -np.cumsum(q)[:-1], m0 + 1
    return _sine_power("theta", float(m0), q, theta=th, label=f"theta:{[complex(x) for x in th]}")._validate()


def _sine_power(kind: str, beta: float, q: Sequence[complex], **meta) -> PhiFunction:
    """phi(t) = (2 |sin(t/2)|)^beta |Q(e^{-it})| with Q(w) = sum_j q_j w^j
    and beta > 0, the alpha and theta generators: a constant Q (alpha has
    Q = 1) is a scale c, so phi is c times a sine power, with neither a
    Horner sum nor a root, and Q = 1 is alpha bit for bit.  Otherwise (theta,
    beta = m0 an integer) phi^e = A B, with the sine power A = 2^b
    |sin(t/2)|^b (b = beta e) in closed form and B = (c |U|)^e, U = Q / c
    (c = sum_j |q_j|, so |U| <= 1), by Horner's rule; D_k = sum_j j^k u_j
    e^{-ijt} (u = q / c) give P_Q = |U|^2 its P_Q' = 2 Im(conj(U) D_1) and
    P_Q'' = 2 (|D_1|^2 - Re(conj(U) D_2)).

    * ``cell_sup``: for a constant Q the larger end value, or the crest
      c^e 2^b when the cell holds an odd multiple of pi; otherwise a
      second-order bound on P = |R / s|^2, R(w) = (w - 1)^beta Q(w) with s
      the sum of the magnitudes of its weights (so P <= 1): within r of a
      cell midpoint m, |P - P(m)| <= |P'(m)| r + M2 r^2 / 2 with M2 =
      sum_{j,l} (j - l)^2 |a_j| |a_l| bounding |P''| (a the weights of R /
      s), where P = 4^beta (c / s)^2 sin(t/2)^(2 beta) P_Q and its P' are
      taken from the factors, which keep their relative digits at small
      phases (a bound on each factor's sup apart loses the first-order
      cancellation at a peak of their product);
    * ``derivs``: the product rule, g'/g = e (beta/2 cot(t/2) + P_Q' / (2 P_Q));
    * ``zeros``: 0 (order beta), and the phases -arg w_0 of the roots w_0
      of Q within 0.2 of the unit circle (order 1): there phi vanishes or
      comes near 0.  A root at distance d from the circle leaves a dip
      about d rad wide, which the samples of S' (at most pi/32 rad of the
      fastest term's phase apart) resolve from d = 0.2 on.  ``order`` is
      the smallest order among them."""
    c = np.float64(math.fsum(map(abs, q)))

    def slack(e):
        # sin to a few ulps relative, beta e-fold through the power
        return c ** e * (np.float64(2.0) ** (beta * e) * (4.0 * beta * e + 8.0) * _EPS)

    if len(q) == 1:
        def ev(t, e):
            # a numpy power: 2^(beta e) past the double range is inf, not OverflowError
            return (c ** e * np.float64(2.0) ** (beta * e)) * np.abs(np.sin(0.5 * t)) ** (beta * e)

        def derivs(t, e):
            # g' = (b/2) cot(t/2) g and g'' = (b/4) (b cos^2(t/2) - 1) g /
            # sin^2(t/2), through a = c^e 2^b |sin(t/2)|^(b-2)
            b = beta * e
            sn, co = np.sin(0.5 * t), np.cos(0.5 * t)
            a = (c ** e * np.float64(2.0) ** b) * np.abs(sn) ** (b - 2.0)
            return 0.5 * b * a * sn * co, 0.25 * b * a * (b * co * co - 1.0)

        return PhiFunction(
            kind, ev, sup=float(c) * 2.0 ** beta, monotone_to=math.pi,
            # the crests of the sine power lie at the odd multiples of pi
            cell_sup=_crest_sup(ev, lambda top: math.pi * np.arange(1.0, top / math.pi + 2.0, 2.0), slack),
            derivs=derivs, zeros=(0.0,), order=beta, **meta,
        )

    # Horner (n - 1 steps) and the sine power (beta-fold) to a few ulps each
    u, j, err = np.asarray(q) / c, np.arange(len(q), dtype=np.float64), (4.0 * (len(q) + beta) + 8.0) * _EPS
    moments = [(j ** k * u).tolist() for k in range(3)]  # U, D_1, D_2
    # |weights| of R, their sum s, M2 and P / (sin(t/2)^(2 beta) P_Q)
    full = np.abs(np.convolve(q, np.polynomial.polynomial.polypow((-1.0, 1.0), int(beta))))
    s, gap = np.float64(math.fsum(full)), np.subtract.outer(*[np.arange(full.shape[0], dtype=np.float64)] * 2)
    m2, kappa = float(full @ gap ** 2 @ full / (s * s)), 4.0 ** beta * float(c / s) ** 2
    # the rounding of P' in ``cell_sup``: 4 |ds| + 6 (n - 1) sv in units of
    # kappa err, with |ds| <= beta / 2 and sv <= 1 (n coefficients)
    slope_err = kappa * (2.0 * beta + 6.0 * j[-1]) * err

    def horner(sn2, sc, k):
        # U, D_1, ... to D_(k-1) at z = e^{-it}, from sn2 = sin(t/2)^2 and
        # sc = sin(t/2) cos(t/2): two real sines cost less than one complex
        # exponential
        z = np.asarray(sc * -2j)
        z.real = 1.0 - 2.0 * sn2
        acc = [np.asarray(w[-1] * z) for w in moments[:k]]  # in place, at a scalar phase too
        for i in range(u.shape[0] - 2, -1, -1):
            for a, w in zip(acc, moments):
                a += w[i]
                if i:
                    a *= z
        return acc

    def ev(t, e):
        sn = np.sin(0.5 * t)
        sig = horner(sn * sn, sn * np.cos(0.5 * t), 1)[0]
        return (c * np.float64(2.0) ** beta) ** e * (np.abs(sn) ** beta * np.abs(sig)) ** e

    def cell_sup(t0, t1, w0, w1, e):
        # P and P' at the cell midpoints (P to within 4 kappa sin^(2 beta)
        # err, P' to within slope_err) and the half-widths
        mid = 0.5 * (t0 + t1)
        r = np.maximum(np.abs(t1 - mid), np.abs(mid - t0)) * (1.0 + 4.0 * _EPS)
        sn = np.sin(0.5 * mid)
        sn2, sc = sn * sn, sn * np.cos(0.5 * mid)
        sv, ds = sn2 ** beta, beta * sn2 ** (beta - 1.0) * sc
        sig, dz = horner(sn2, sc, 2)
        pq = np.abs(sig) ** 2
        slope = kappa * np.abs(ds * pq + 2.0 * sv * np.imag(np.conj(sig) * dz)) + slope_err
        bound = kappa * sv * (pq + 4.0 * err) + slope * r + 0.5 * m2 * r * r
        # |U| within err, e-fold through its power
        q_slack = np.float64(2.0) ** (beta * e) * _power_slack(c, err * c, e)
        return s ** e * np.minimum(bound, 1.0) ** (0.5 * e), slack(e) + q_slack

    def derivs(t, e):
        # G = (phi / c)^2 = S P_Q with S = 4^beta sin(t/2)^(2 beta) = L
        # sin^2(t/2), L = 4^beta sin(t/2)^(2 beta - 2): by the product rule
        # G = L a0, G' = L a1 and G'' = L a2, so g = c^e G^h (h = e/2) has
        # g' = k a1 and g'' = k (a2 + (h - 1) a1^2 / a0), k = c^e h L^h a0^(h - 1)
        h = 0.5 * e
        sn, co = np.sin(0.5 * t), np.cos(0.5 * t)
        sn2, sc = sn * sn, sn * co
        sig, d1, d2 = horner(sn2, sc, 3)
        cs = np.conj(sig)
        p0, p1 = (cs * sig).real, 2.0 * (cs * d1).imag
        p2 = 2.0 * ((np.conj(d1) * d1).real - (cs * d2).real)
        a0, a1 = sn2 * p0, beta * sc * p0 + sn2 * p1
        # cos^2(t/2) = 1 - sin^2(t/2) in S''
        a2 = (0.5 * beta) * ((2.0 * beta - 1.0) - 2.0 * beta * sn2) * p0 + 2.0 * beta * sc * p1 + sn2 * p2
        k = (c ** e * h * 4.0 ** (beta * h)) * sn2 ** ((beta - 1.0) * h) * a0 ** (h - 1.0)
        ratio = np.divide(a1 * a1, a0, out=np.zeros_like(a0), where=a0 > 0.0)
        return k * a1, k * (a2 + (h - 1.0) * ratio)

    roots = [w for w in np.roots(u[::-1]) if abs(abs(w) - 1.0) < 0.2]
    return PhiFunction(
        kind, ev, sup=float(s), cell_sup=cell_sup, derivs=derivs,
        zeros=tuple(sorted({0.0, *(abs(math.atan2(w.imag, w.real)) for w in roots)})),
        order=min(beta, 1.0) if roots else beta, **meta,
    )


def phi_steklov(m: int) -> PhiFunction:
    """(1 - sinc t)^m; nondecreasing up to the sinc minimum at t ~ 4.4934."""
    m = require_count(m, "Steklov order m", 1)

    def ev(t, e):
        return _sinc_defect(t)[0] ** (m * e)

    def derivs(t, e):
        # g = u^c, u = 1 - sinc t, c = m e: g' = c u^(c-1) u' and
        # g'' = c u^(c-1) (u'' + (c - 1) u'^2 / u)
        u, d1, d2 = _sinc_defect(t, 2)
        c = m * e
        q = c * u ** (c - 1.0)
        ratio = np.divide(d1 * d1, u, out=np.zeros_like(u), where=u > 0.0)
        return q * d1, q * (d2 + (c - 1.0) * ratio)

    return PhiFunction(
        "steklov", ev, param=float(m), sup=(1.0 - _SINC_MIN) ** m,
        monotone_to=_SINC_MIN_ARG, label=f"steklov:{m}",
        # 1 - sinc to a few ulps absolute
        cell_sup=_crest_sup(ev, _sinc_crests, lambda e: _power_slack(1.0 - _SINC_MIN, 4.0 * _EPS, m * e)),
        derivs=derivs, order=2.0 * m,
    )


# Below |t| = _SINC_SERIES, where 1 - sin(t)/t cancels, it and its
# derivatives are summed as series in t^2: 1 - sinc t = sum_{k >= 0} (-1)^k
# t^(2k+2) / (2k+3)!, differentiated termwise.  There each series alternates
# with decreasing terms, so its remainder after _SINC_TERMS terms is at most
# the first omitted term: below 2^-54 of the sum (the second derivative at
# |t| = 1; 2^-59 for the first, 2^-62 for the function).  Above it the
# subtraction loses at most about 6 / t^2 ulps.
_SINC_SERIES = 1.0
_SINC_TERMS = 9
_SINC_K = np.arange(_SINC_TERMS, dtype=np.float64)
# one column of coefficients per series in t^2: of u / t^2, u' / t and u''
_SINC_COEF = np.stack([
    (-1.0) ** _SINC_K * w / np.array([math.factorial(2 * k + 3) for k in range(_SINC_TERMS)], dtype=np.float64)
    for w in (1.0, 2.0 * _SINC_K + 2.0, (2.0 * _SINC_K + 2.0) * (2.0 * _SINC_K + 1.0))
], axis=1)


def _sinc_defect(t, order: int = 0) -> list:
    """[u] with u = 1 - sin(t)/t elementwise, or [u, u', u''] for order 2."""
    small = np.abs(t) < _SINC_SERIES
    with np.errstate(invalid="ignore", divide="ignore"):  # t = 0 is summed below
        sn = np.sin(t)
        out = [np.asarray(1.0 - sn / t)]
        if order:
            d1 = np.asarray((sn - t * np.cos(t)) / (t * t))
            out += [d1, np.asarray((sn - 2.0 * d1) / t)]  # u'' = (sin t - 2 u') / t
    if small.any():
        x = t[small]
        x2 = x * x
        # the powers of t^2 and one product sum every series at once
        for arr, col, scale in zip(out, (x2[:, None] ** _SINC_K @ _SINC_COEF).T, (x2, x, 1.0)):
            arr[small] = scale * col
    return out


def _sinc_crests(top: float) -> np.ndarray:
    """The local maxima of 1 - sinc on (0, top], and one past it: the roots
    of tan t = t in (j pi, (j + 1/2) pi) for odd j, by Newton's method on
    sin t - t cos t from (j + 1/2) pi - 1 / ((j + 1/2) pi)."""
    q = (np.arange(1.0, top / math.pi + 2.0, 2.0) + 0.5) * math.pi
    t = q - 1.0 / q
    for _ in range(4):
        t = t - (np.sin(t) - t * np.cos(t)) / (t * np.sin(t))
    return t


def _crest_sup(ev: Callable, crests: Callable, slack: Callable) -> Callable:
    """``cell_sup`` of an even generator whose local maxima on [0, inf) lie
    at the phases crests(top) (ascending, every one up to top): on a cell
    the sup of phi**e is the larger end value, or the crest value when the
    cell holds a crest, term by term."""

    def cell_sup(t0, t1, w0, w1, e):
        a, b = np.abs(t0), np.abs(t1)
        a, b = np.minimum(a, b), np.maximum(a, b)
        at = crests(float(np.max(b, initial=0.0)))
        q = np.searchsorted(at, a)
        inside = np.append(at, np.inf)[q] <= b
        top = np.append(ev(at, e), 0.0)[q]
        return np.maximum(np.maximum(w0, w1), np.where(inside, top, 0.0)), slack(e)

    return cell_sup


def _power_slack(b: float, d: float, g: float) -> float:
    """Error of a computed x^g for x in [0, b] known to within d: the spread
    |x^g - y^g| <= g (b + d)^(g - 1) d (g >= 1) or d^g (g < 1), plus the
    power's own few ulps."""
    top = np.float64(b + d)
    spread = g * top ** (g - 1.0) * d if g >= 1.0 else np.float64(d) ** g
    return spread + 4.0 * _EPS * top ** g


def phi_custom(
    fn: Callable,
    sup: float | None = None,
    monotone_to: float | None = None,
    label: str = "custom",
) -> PhiFunction:
    def ev(t, e):
        return np.asarray(fn(t), dtype=np.float64) ** e

    return PhiFunction("custom", ev, sup=sup, monotone_to=monotone_to, label=label)._validate()


# ---------------------------------------------------------------------------
# weights


class WeightMeasure:
    """Bounded nondecreasing non-constant weight on [0, tau].  Weights with
    one tau are equal when an integral reads the same from them: one density
    function, the same knots, or the same atoms and jumps.

    A piecewise-linear weight is the piecewise-constant density
    ``vprime`` of its ``slopes``, one per segment between its knots.

    ``period_sums(h, m, x)``: sum_{j < m} v'(h (2j + 1 + x)) elementwise over
    the broadcast arrays h > 0, m >= 0 (integers) and x, in closed form (the
    builtin densities), or None (custom densities, piecewise-linear and
    atomic weights)."""

    def __init__(self, tau: float, kind: str, label: str = "", **data):
        if not tau > 0:
            raise InputDomainError("tau must be positive")
        self.tau = float(tau)
        self.kind = kind
        self.label = label or kind
        if kind == "density":
            self.vprime = data["vprime"]  # vectorized, nonnegative
            self.v = data.get("v")
            self.period_sums = _PERIOD_SUMS.get(self.vprime)
            dens = np.asarray(self.vprime(np.linspace(0, tau, 257)), dtype=np.float64)
            if np.any(dens < -1e-12):
                raise InputDomainError("weight density must be nonnegative")
            self._key = (kind, self.tau, self.vprime)
        elif kind == "pwl":
            ts = np.asarray(data["knots_t"], dtype=np.float64)
            vs = np.asarray(data["knots_v"], dtype=np.float64)
            if ts.ndim != 1 or ts.shape != vs.shape or ts.shape[0] < 2:
                raise InputDomainError("piecewise-linear weight needs matching knot arrays")
            if not (np.isfinite(ts).all() and np.isfinite(vs).all()):
                raise InputDomainError("weight knots must be finite")
            if ts[0] > 0 or ts[-1] < tau:
                raise InputDomainError("knots must cover [0, tau]")
            if np.any(np.diff(ts) <= 0) or np.any(np.diff(vs) < 0):
                raise InputDomainError("weight knots must be increasing in t, nondecreasing in v")
            self.knots_t, self.knots_v = ts, vs
            self._key = (kind, self.tau, tuple(ts.tolist()), tuple(vs.tolist()))
            self.slopes = slopes = np.diff(vs) / np.diff(ts)
            self.vprime = lambda t: slopes[
                np.clip(np.searchsorted(ts, t, side="right") - 1, 0, slopes.shape[0] - 1)
            ]
            self.period_sums = None
        elif kind == "atomic":
            pts = np.asarray(data["points"], dtype=np.float64)
            jmp = np.asarray(data["jumps"], dtype=np.float64)
            if pts.shape != jmp.shape or np.any(jmp < 0):
                raise InputDomainError("atomic weight needs matching nonnegative jumps")
            if not (np.isfinite(pts).all() and np.isfinite(jmp).all()):
                raise InputDomainError("atoms and jumps must be finite")
            if np.any(pts < 0) or np.any(pts > tau):
                raise InputDomainError("atoms must lie in [0, tau]")
            order = np.argsort(pts)
            self.points, self.jumps = pts[order], jmp[order]
            self._key = (kind, self.tau, tuple(self.points.tolist()), tuple(self.jumps.tolist()))
            self.period_sums = None
        else:
            raise InputDomainError(f"unknown weight kind {kind!r}")
        if self.total_mass() <= 0:
            raise DegenerateWeightError("weight must be non-constant on [0, tau]")

    def total_mass(self) -> float:
        """v(tau) - v(0) (atoms at 0 excluded: the measure lives on (0, tau])."""
        return float(self.mass(0.0, self.tau))

    def mass(self, a, b) -> np.ndarray:
        """v(b) - v(a), elementwise over the broadcast arrays a <= b: the
        closed form v where one is given, the knot values of a piecewise-linear
        weight, the jumps of the atoms in (a, b], or the adaptive rule."""
        a, b = np.broadcast_arrays(np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64))
        if self.kind == "density":
            if self.v is not None:
                return np.asarray(self.v(b), dtype=np.float64) - np.asarray(self.v(a), dtype=np.float64)
            val, _ = weight_integrals(
                lambda t, rows: np.ones_like(t), self, a.ravel(), b.ravel(), 1e-13, np.ones(a.size),
            )
            return val.reshape(a.shape)
        if self.kind == "pwl":
            return np.interp(b, self.knots_t, self.knots_v) - np.interp(a, self.knots_t, self.knots_v)
        inside = (self.points > a[..., None]) & (self.points <= b[..., None])
        return np.where(inside, self.jumps, 0.0).sum(axis=-1)

    def __eq__(self, other):
        return isinstance(other, WeightMeasure) and self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        return f"WeightMeasure({self.label}, tau={self.tau:g})"


# The builtin densities are module-level functions, so every weight built
# from them shares one density object (and equal weights share a cache entry).
def _sine_density(t):
    return np.sin(np.asarray(t, dtype=np.float64))


def _unit_density(t):
    return np.ones_like(np.asarray(t, dtype=np.float64))


def _sine_period_sums(h, m, x):
    """sum_{j < m} sin(h (2j + 1 + x)) = sin(h (m + x)) sin(h m) / sin h,
    Lagrange's identity for sin(a + 2jh) at a = h (1 + x).  A nonnegative
    sine density has tau <= pi, so m >= 1 full periods of length 2h in
    [0, tau] have 0 < h <= pi/2, and sin h stays away from zero; m = 0
    gives an exact 0."""
    return np.sin(h * (m + x)) * (np.sin(h * m) / np.sin(h))


def _unit_period_sums(h, m, x):
    """sum_{j < m} 1 = m, at every node."""
    return m * np.ones_like(h * x)


_PERIOD_SUMS = {_sine_density: _sine_period_sums, _unit_density: _unit_period_sums}


def weight_cos(tau: float = math.pi) -> WeightMeasure:
    """v(t) = 1 - cos t (density sin t)."""
    return WeightMeasure(
        tau, "density", vprime=_sine_density,
        v=lambda t: 1.0 - np.cos(np.asarray(t, dtype=np.float64)), label="cos",
    )


def weight_linear(tau: float) -> WeightMeasure:
    """v(t) = t (unit density)."""
    return WeightMeasure(
        tau, "density", vprime=_unit_density,
        v=lambda t: np.asarray(t, dtype=np.float64), label="t",
    )


def weight_pwl(knots_t, knots_v) -> WeightMeasure:
    return WeightMeasure(float(np.max(knots_t, initial=0.0)), "pwl", knots_t=knots_t, knots_v=knots_v, label="pwl")


def weight_atomic(points, jumps, tau: float | None = None) -> WeightMeasure:
    tau = float(np.max(points, initial=0.0)) if tau is None else float(tau)
    return WeightMeasure(tau, "atomic", points=points, jumps=jumps, label="atomic")


# ---------------------------------------------------------------------------
# quadrature: one locally adaptive Gauss-Legendre routine for every integral
# against a density, in the style of QUADPACK's QAG (Piessens,
# de Doncker-Kapenga, Ueberhuber and Kahaner, 1983), batched over integrals

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(12)

# panels one integral may hold
_BUDGET = 2 ** 16
# rounding level of a panel's value, per unit of |left half| + |right half|:
# integrands such as |sin(r t / 2)|^10 at r t ~ 200 carry evaluation noise
# of several hundred eps, which no bisection can remove
_ROUNDING = 1024.0 * np.finfo(np.float64).eps


def _gl_sums(g: Callable, lo: np.ndarray, hi: np.ndarray, owner: np.ndarray) -> np.ndarray:
    """12-point Gauss-Legendre sums over the panels [lo_j, hi_j].

    g(t, rows) is called once, on the nodes of every panel together;
    rows[k] is the integral (owner) that node t[k] belongs to.  Each panel's
    sum reads only its own nodes, in the same order wherever the panel sits
    in the batch (einsum, unlike a BLAS matrix-vector product)."""
    half = 0.5 * (hi - lo)
    t = (0.5 * (lo + hi))[:, None] + half[:, None] * _GL_NODES
    rows = np.repeat(owner, _GL_NODES.shape[0])
    vals = np.asarray(g(t.ravel(), rows), dtype=np.float64).reshape(t.shape)
    return np.einsum("ij,j->i", vals, _GL_WEIGHTS) * half


def _adaptive_block(
    g: Callable, a, b, tol, panels0, budget: int, cuts=()
) -> tuple[np.ndarray, np.ndarray]:
    """integral_{a_i}^{b_i} g(t, i) dt for a batch of integrals i by locally
    adaptive bisection (g as in ``_gl_sums``).

    Integral i starts from max(2, panels0_i) equal panels, and each of the
    ``cuts`` inside (a_i, b_i) is one more panel edge.  A panel's value is
    the sum of the 12-point rules on its two halves; its error is the gap
    between that sum and the rule on the whole panel.  A panel is accepted
    once its error is at most its width's share of tol_i or at most the
    rounding level of its value; otherwise its halves are the next round's
    panels, with their rules as whole-panel values.  Every round evaluates
    the open panels of all integrals as one array.  The decisions for
    integral i read only its own panels, and its accepted panels are added
    in position order, so a batch returns exactly the values of its batches
    of one.  Bisection ends at the latest where a panel's midpoint rounds to
    one of its ends: a half is then the panel itself, whose error is 0.
    Raises ``InputDomainError`` at the first panel value that is not a
    finite double and ``BudgetError`` when an integral would hold more than
    ``budget`` panels.  Returns (values, error estimates)."""
    panels = np.maximum(2, np.atleast_1d(np.asarray(panels0, dtype=np.int64)))
    count = panels.shape[0]
    a, b, tol = (np.broadcast_to(np.asarray(x, dtype=np.float64), (count,)) for x in (a, b, tol))
    # the edges of np.linspace(a_i, b_i, panels_i + 1), for all i at once
    owner = np.repeat(np.arange(count), panels)
    j = (np.arange(owner.shape[0]) - np.repeat(np.cumsum(panels) - panels, panels)).astype(np.float64)
    step, start = ((b - a) / panels)[owner], a[owner]
    lo, hi = j * step + start, (j + 1.0) * step + start
    last = np.cumsum(panels) - 1
    hi[last] = b
    cuts = np.asarray(cuts, dtype=np.float64)
    if cuts.size:
        cut_owner = np.repeat(np.arange(count), cuts.size)
        cut_at = np.tile(cuts, count)
        inside = (cut_at > a[cut_owner]) & (cut_at < b[cut_owner])
        owner = np.concatenate((owner, cut_owner[inside]))
        lo = np.concatenate((lo, cut_at[inside]))
        order = np.lexsort((lo, owner))
        owner, lo = owner[order], lo[order]
        last = np.append(owner[1:] != owner[:-1], True)
        hi = np.append(lo[1:], 0.0)
        hi[last] = b[owner[last]]
    rate = tol / np.where(b > a, b - a, 1.0)
    held = np.bincount(owner, minlength=count)
    accepted = []
    whole = None
    while True:
        mid = 0.5 * (lo + hi)
        with np.errstate(over="ignore", invalid="ignore"):  # reported just below
            if whole is None:
                whole, left, right = _gl_sums(
                    g, np.concatenate((lo, lo, mid)), np.concatenate((hi, mid, hi)), np.tile(owner, 3),
                ).reshape(3, -1)
            else:
                left, right = _gl_sums(
                    g, np.concatenate((lo, mid)), np.concatenate((mid, hi)), np.tile(owner, 2),
                ).reshape(2, -1)
            val = left + right
        if not np.isfinite(val).all():
            raise InputDomainError("the integrand is not a finite double on a quadrature panel")
        err = np.abs(val - whole)
        ok = (err <= rate[owner] * (hi - lo)) | (err <= _ROUNDING * (np.abs(left) + np.abs(right)))
        accepted.append((owner[ok], lo[ok], val[ok], err[ok]))
        if ok.all():
            break
        split = ~ok
        lo, mid, hi, owner = lo[split], mid[split], hi[split], owner[split]
        held += np.bincount(owner, minlength=count)
        over = np.flatnonzero(held > budget)
        if over.size:
            raise BudgetError(
                f"quadrature budget exceeded ({held[over[0]]} panels "
                f"for tolerance {tol[over[0]]:g})"
            )
        whole = np.concatenate((left[split], right[split]))
        lo, hi = np.concatenate((lo, mid)), np.concatenate((mid, hi))
        owner = np.tile(owner, 2)
    # the first round's panels are in position order already
    owner, at, val, err = (np.concatenate(x) for x in zip(*accepted))
    if len(accepted) > 1:
        order = np.lexsort((at, owner))
        owner, val, err = owner[order], val[order], err[order]
    return np.bincount(owner, val, minlength=count), np.bincount(owner, err, minlength=count)


def weight_integrals(
    g: Callable, v: WeightMeasure, a, b, tol, osc
) -> tuple[np.ndarray, np.ndarray]:
    """integral_{a_i}^{b_i} g(t, i) dv(t) for a batch of integrands i = 0,
    1, ..., one per entry of ``osc`` (g as in ``_gl_sums``; a, b and tol
    scalars or one per integrand).

    Against a density or piecewise-linear weight, one ``_adaptive_block``
    call integrates g v' for the whole batch, from two starting panels per
    oscillation of ``osc[i]`` (at least four); a piecewise-linear weight is
    the piecewise-constant density of its slopes, and its knots are panel
    edges.  Against an atomic weight (scalar a, b) each value is the exact
    sum over the atoms in (a, b], from one call of g on every (atom,
    integrand) pair, and g is not called when no atom lies there.  Returns
    (values, error estimates)."""
    osc = np.atleast_1d(np.asarray(osc, dtype=np.float64))
    if v.kind == "atomic":
        count = osc.shape[0]
        sel = (v.points > a) & (v.points <= b)
        if not sel.any():
            return np.zeros(count), np.zeros(count)
        pts = v.points[sel]
        vals = np.asarray(
            g(np.tile(pts, count), np.repeat(np.arange(count), pts.shape[0])), dtype=np.float64
        ).reshape(count, pts.shape[0])
        return (vals * v.jumps[sel]).sum(axis=1), np.zeros(count)
    panels = np.maximum(4, np.ceil(2.0 * osc).astype(np.int64))
    return _adaptive_block(
        lambda t, rows: np.asarray(g(t, rows), dtype=np.float64)
        * np.asarray(v.vprime(t), dtype=np.float64),
        a, b, tol, panels, _BUDGET, v.knots_t if v.kind == "pwl" else (),
    )


def stieltjes(
    g: Callable,
    v: WeightMeasure,
    interval: tuple[float, float] | None = None,
    tol: float = 1e-10,
    osc: float = 1.0,
) -> tuple[float, float]:
    """Riemann-Stieltjes integral of g against dv over ``interval``.

    Returns (value, absolute error estimate): ``weight_integrals`` as a
    batch of one, with ``osc`` an oscillation-count hint that seeds the
    panel count of the adaptive rule (atomic weights, summed exactly over
    their atoms, ignore it and ``tol``).
    """
    a, b = interval if interval is not None else (0.0, v.tau)
    if b < a:
        raise InputDomainError("empty integration interval")
    val, err = weight_integrals(lambda t, rows: g(t), v, a, b, tol, osc)
    return float(val[0]), float(err[0])


# ---------------------------------------------------------------------------
# moduli


def _objective_grid(
    lams: np.ndarray, amps_p: np.ndarray, phi: PhiFunction, p: float, hs: np.ndarray, block: int = 2 ** 16,
) -> np.ndarray:
    """sum_k phi(lam_k h)^p amps_p[k] over the shifts hs (amps_p = |A_k|^p),
    in chunks of shifts that keep the (shifts x frequencies) block within
    ``block`` values."""
    out = np.empty(hs.shape[0], dtype=np.float64)
    chunk = max(8, block // max(1, lams.shape[0]))
    for start in range(0, hs.shape[0], chunk):
        blk = hs[start:start + chunk]
        w = phi.pow_p(np.multiply.outer(blk, lams), p)
        out[start:start + blk.shape[0]] = w @ amps_p
    return out


# Every bracket of the modulus scan is refined by one of two loops:
# resampling (_refine_maxima) where no derivative is known, safeguarded
# Newton (_newton_root) where one is.  Both stop at _stop_width:
# _REFINE_PHASE rad of the bracket's phase rate (6e-10 in h at rate 16), or
# 1e-13 |h| where rounding h alone moves the phase by more; at a smooth
# maximum the value is then exact to double precision.  A resampling round
# keeps the two of _REFINE_CELLS cells around the best sample (32-fold);
# _REFINE_ROUNDS caps it (32^16 exceeds any ratio of grid cell to stopping
# width), _NEWTON_STEPS caps Newton (bisection alone closes any cell sooner).
_REFINE_PHASE = 1e-8
_REFINE_REL = 1e-13
_REFINE_CELLS = 64
_REFINE_ROUNDS = 16
_REFINE_AT = np.linspace(0.0, 1.0, _REFINE_CELLS + 1)
_NEWTON_STEPS = 64


def _stop_width(x, rate):
    """The stopping width of a bracket at shift x with phase rate ``rate``."""
    return np.maximum(_REFINE_PHASE / rate, _REFINE_REL * np.abs(x))


def _refine_maxima(
    g: Callable[[np.ndarray, np.ndarray], np.ndarray], lo, hi, rate,
) -> tuple[np.ndarray, np.ndarray]:
    """Best point and value of g found inside each bracket [lo_i, hi_i]
    (g as in ``_gl_sums``: g(t, rows) with rows[k] the bracket of t[k]),
    each refined to the stopping width of its own phase rate ``rate_i``.

    All brackets are refined together, until the last one is narrow
    enough: each round makes one vectorized call of g over (brackets x
    (_REFINE_CELLS + 1)) points."""
    lo, hi = (np.asarray(x, dtype=np.float64) for x in (lo, hi))
    rows = np.arange(lo.shape[0])
    owner = np.repeat(rows, _REFINE_CELLS + 1)
    best_h = np.empty_like(lo)
    best_v = np.full_like(lo, -np.inf)
    for _ in range(_REFINE_ROUNDS if lo.size else 0):
        pts = lo[:, None] + (hi - lo)[:, None] * _REFINE_AT
        vals = np.asarray(g(pts.ravel(), owner), dtype=np.float64).reshape(pts.shape)
        j = np.argmax(vals, axis=1)
        top = vals[rows, j]
        better = top > best_v
        best_v[better], best_h[better] = top[better], pts[rows, j][better]
        lo, hi = pts[rows, np.maximum(j - 1, 0)], pts[rows, np.minimum(j + 1, _REFINE_CELLS)]
        if np.all(hi - lo <= _stop_width(best_h, rate)):
            break
    return best_h, best_v


def _newton_root(fn: Callable, xl, xh, fl, fh, rate) -> np.ndarray:
    """The root of an increasing g inside each bracket [xl_i, xh_i] (arrays),
    given fl_i = g(xl_i) <= 0 < fh_i = g(xh_i), to the stopping width of
    the phase rate ``rate``: safeguarded Newton's method (rtsafe; Press et
    al., Numerical Recipes, 9.4) from the regula falsi point.  fn(x, rows)
    returns g and g' at the points x of the open brackets rows; a g' of None
    takes the bracket's secant (regula falsi).  A step is taken when g' > 0,
    it lands inside the closed bracket and it is at most half the step
    before, else the bracket is bisected.  A step shorter than half the
    stopping width ends the search at the point it reaches, whose error is
    of the order of the step squared (next to a cusp, where g' changes fast,
    the stopping width alone is too coarse).  Returns the last points."""
    if not xl.size:
        return xl
    with np.errstate(all="ignore"):  # a non-finite step is replaced by bisection
        x = xl - (xh - xl) * (fl / (fh - fl))
        x = np.where((xl <= x) & (x <= xh), x, 0.5 * (xl + xh))
        out, last, r = x.copy(), xh - xl, np.arange(x.shape[0])
        run = last > _stop_width(x, rate)
        for _ in range(_NEWTON_STEPS):
            if not run.all():  # the open brackets only
                r, x, xl, xh, fl, fh, last = (a[run] for a in (r, x, xl, xh, fl, fh, last))
                if not r.size:
                    break
            g, dg = fn(x, r)
            low = g <= 0.0
            xl, fl = np.where(low, x, xl), np.where(low, g, fl)
            xh, fh = np.where(low, xh, x), np.where(low, fh, g)
            dg = (fh - fl) / (xh - xl) if dg is None else dg
            step = -g / dg
            nxt = x + step
            newton = (dg > 0.0) & (xl <= nxt) & (nxt <= xh) & (np.abs(step) <= 0.5 * last)
            nxt = np.where(newton, nxt, 0.5 * (xl + xh))
            last, x = np.abs(nxt - x), nxt
            out[r] = x
            tol = _stop_width(x, rate)
            run = ~(newton & (np.abs(step) < 0.5 * tol)) & (xh - xl > tol)
    return out


# Peaks of a certified scan: S' is sampled at 5 equispaced points of each
# refined cell and, toward an end at a cusp of phi^p, at 2^-3, 2^-4, ...,
# 2^-30 of the width from that end (the features of a cusp |t - t_0|^c
# scale with the distance from it; a peak closer than 2^-30 is within the
# stopping width of it); _SLOPE_AT holds these fractions, ascending,
# and _SLOPE_SIDE says which are sampled always (0) or toward a cusp at
# the left (-1) or right (+1) end.
_CUSP_ENDS = 2.0 ** -np.arange(30.0, 2.0, -1.0)
_SLOPE_AT = np.concatenate(([0.0], _CUSP_ENDS, [0.25, 0.5, 0.75], 1.0 - _CUSP_ENDS[::-1], [1.0]))
_SLOPE_SIDE = np.concatenate(([0], -np.ones_like(_CUSP_ENDS), [0, 0, 0], np.ones_like(_CUSP_ENDS), [0]))


def _slopes(phi: PhiFunction, lams: np.ndarray, amps_p: np.ndarray, p: float, hs: np.ndarray):
    """S'(h) and S''(h) of S(h) = sum_k phi(lam_k h)^p amps_p[k] over the
    shifts hs, in chunks of shifts that keep the (shifts x frequencies)
    block within 2^12 values (theta's derivatives hold a dozen complex
    arrays of that size)."""
    out = np.empty((2, hs.shape[0]))
    chunk = max(8, 2 ** 12 // max(1, lams.shape[0]))
    for start in range(0, hs.shape[0], chunk):
        d1, d2 = phi.derivs(np.multiply.outer(hs[start:start + chunk], lams), p)
        out[:, start:start + d1.shape[0]] = d1 @ (lams * amps_p), d2 @ (lams * lams * amps_p)
    return out


def _cell_peaks(
    objective: Callable[[np.ndarray], np.ndarray], phi: PhiFunction,
    lams: np.ndarray, amps_p: np.ndarray, p: float,
    lo: np.ndarray, hi: np.ndarray, lam_max: float, even: bool, cuts: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Shifts and objective values of the local maxima inside the cells
    [lo_i, hi_i] of a certified scan, besides the cell ends: the shifts
    where S' falls through zero, for S and, unless S is ``even``, for
    S(-h) too (S on [-hi_i, -lo_i]).  ``cuts`` are the shifts where a term
    meets a cusp of phi^p (S'' unbounded there); they lie only at cell
    ends.

    S' is sampled at 5 equispaced points of each cell and, toward an end
    at a cut (within rounding), at 2^-3 ... 2^-30 of the width from that
    end (``_SLOPE_AT``), which bracket a peak next to the cusp.  A sample
    where S' is NaN (0 times inf at an exact zero of a term) is left out.
    Each root is bracketed between samples of S' with S' > 0 at the left
    and <= 0 at the right, and found by ``_newton_root`` on -S'."""
    nz = lams != 0.0  # the zero frequency adds phi(0) = 0
    lams, amps_p = lams[nz], amps_p[nz]
    # which of the ends lo, hi lie within rounding of a cut (the cuts and
    # the grid round apart), where S' may take the sign of the far side of
    # the cusp
    x = np.concatenate((lo, hi))
    j = np.searchsorted(cuts, x)
    pad = np.concatenate(([-np.inf], cuts, [np.inf]))
    ends = np.minimum(x - pad[j], pad[j + 1] - x) <= 8.0 * _EPS * x
    n = lo.shape[0]
    if even:
        a, b, at_a, at_b = lo, hi, ends[:n], ends[n:]
    else:
        # the cells [-hi, -lo] of S(-h) end at -lo
        a, b = np.concatenate((lo, -hi)), np.concatenate((hi, -lo))
        at_a, at_b = ends, np.roll(ends, n)
    # the samples of every cell, row by row, ascending within a row
    side = _SLOPE_SIDE
    row, col = np.nonzero((side == 0) | ((side < 0) & at_a[:, None]) | ((side > 0) & at_b[:, None]))
    hs = a[row] + (b - a)[row] * _SLOPE_AT[col]
    with np.errstate(all="ignore"):  # a sample without a sign is dropped just below
        d1 = _slopes(phi, lams, amps_p, p, hs)[0]
    signed = ~np.isnan(d1)
    row, hs, d1 = row[signed], hs[signed], d1[signed]
    fall = np.flatnonzero((d1[:-1] > 0.0) & (d1[1:] <= 0.0) & (row[:-1] == row[1:]))
    peak_h = np.abs(_newton_root(
        lambda x, rows: -_slopes(phi, lams, amps_p, p, x),
        hs[fall], hs[fall + 1], -d1[fall], -d1[fall + 1], lam_max,
    ))
    return peak_h, (objective(peak_h) if peak_h.size else peak_h)


_N_GRID = 2048  # least cells of a dense scan
_CELLS_PER_TURN = 16  # cells per oscillation of the fastest frequency


def _cell_bounds(
    lams: np.ndarray, amps_p: np.ndarray, phi: PhiFunction, p: float, hs: np.ndarray, even: bool,
) -> tuple[np.ndarray, np.ndarray, float]:
    """The objective at the shifts hs and an upper bound of it on each cell
    [hs_i, hs_{i+1}]: sum_k amps_p[k] times phi.cell_sup of the term's phase
    cell (both signs of h, folded, unless S is ``even``), in chunks of
    cells as ``_objective_grid``.  Returns (samples, bounds, slack)."""
    n = hs.shape[0] - 1
    samples = np.full(n + 1, -np.inf)
    bounds = np.full(n, -np.inf)
    slack = 0.0
    chunk = max(8, 65536 // max(1, lams.shape[0]))
    for start in range(0, n, chunk):
        blk = hs[start:start + chunk + 1]
        for sign in (1.0,) if even else (1.0, -1.0):
            t = np.multiply.outer(sign * blk, lams)
            w = phi.pow_p(t, p)
            top, slack = phi.cell_sup(t[:-1], t[1:], w[:-1], w[1:], p)
            at, cells = slice(start, start + blk.shape[0]), slice(start, start + blk.shape[0] - 1)
            samples[at] = np.maximum(samples[at], w @ amps_p)
            bounds[cells] = np.maximum(bounds[cells], top @ amps_p)
    return samples, bounds, slack


def _mirrored(lams: np.ndarray, amps_p: np.ndarray) -> bool:
    """Whether amps_p of every frequency equals, bit for bit, that of its
    negative, so that S(-h) = S(h) whatever the generator."""
    terms = dict(zip(lams.tolist(), amps_p.tolist()))
    return len(terms) == lams.shape[0] and all(terms.get(-k) == a for k, a in terms.items())


def _split(lo: np.ndarray, hi: np.ndarray, cuts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The disjoint ascending intervals [lo_i, hi_i] split at the points of
    ``cuts`` inside them."""
    if not (lo.size and cuts.size):
        return lo, hi
    at = np.maximum(np.searchsorted(lo, cuts, side="right") - 1, 0)
    inner = cuts[(cuts > lo[at]) & (cuts < hi[at])]
    return np.sort(np.concatenate((lo, inner))), np.sort(np.concatenate((inner, hi)))


def _shift_cuts(phi: PhiFunction, lams: np.ndarray, p: float, delta: float) -> np.ndarray:
    """The shifts in (0, delta] where some term's phase |lam_k| h reaches a
    zero 2 pi j +- z of phi (z in ``phi.zeros``), ascending and distinct;
    none where phi^p ~ |t - t_0|^(phi.order p) is smooth there, an even
    integer power."""
    rates = np.abs(lams[lams != 0.0])
    zeros = np.asarray(phi.zeros, dtype=np.float64)
    if not (zeros.size and rates.size) or (phi.order * p) % 2.0 == 0.0:
        return np.empty(0)
    turns = 2.0 * math.pi * np.arange(math.floor(float(np.max(rates)) * delta / (2.0 * math.pi)) + 2.0)
    phases = np.add.outer(turns, np.concatenate((-zeros, zeros))).ravel()
    cuts = np.divide.outer(phases[phases > 0.0], rates).ravel()
    cuts = np.sort(cuts[cuts <= delta])
    return cuts[np.append(cuts[:1] == cuts[:1], cuts[1:] > cuts[:-1])]


def _term_minima(phi: PhiFunction, lams: np.ndarray, hs: np.ndarray) -> np.ndarray:
    """The shifts inside (hs[0], hs[-1]) where a term phi(lam h) of S, or
    phi(-lam h) unless phi is even, has a local minimum, for a generator
    whose zeros are not known: every interior sampled minimum of a term on
    the grid hs, refined within its two neighbouring cells as a maximum of
    -phi(lam h) by ``_refine_maxima``; ascending and distinct.  A zero of
    phi is such a minimum, and so is a cusp of phi^p there."""
    rates = np.abs(lams) if phi.is_even else np.concatenate((lams, -lams))
    rates = np.unique(rates[rates != 0.0])
    lo, hi, rate = [], [], []
    for r in rates.tolist():
        g = phi(r * hs)
        i = np.flatnonzero((g[1:-1] <= g[:-2]) & (g[1:-1] <= g[2:])) + 1
        lo.append(hs[i - 1])
        hi.append(hs[i + 1])
        rate.append(np.full(i.shape, r))
    rate = np.concatenate(rate)
    at, _ = _refine_maxima(
        lambda t, rows: -phi(rate[rows] * t), np.concatenate(lo), np.concatenate(hi), np.abs(rate),
    )
    return np.unique(at[(at > hs[0]) & (at < hs[-1])])


def _sampled_objective(f: Spectrum, phi: PhiFunction, p: float, delta: float, running: bool = False):
    """The one scan of the shift objective S(h) = sum_k phi(lam_k h)^p |A_k|^p
    over [0, delta], folded to max(S(h), S(-h)) unless S is even (an even
    phi, or |A_k|^p the same at k and -k for every frequency).  The grid is
    uniform, endpoints included, with 16 cells per oscillation of the
    fastest frequency (at least one).

    Certified scan (a builtin generator): each cell gets the upper bound U
    = sum_k |A_k|^p phi.cell_sup of the term's phase cell.  The cells whose
    U is not a finite double or exceeds, by more than the sum's rounding
    ((2K + 8) eps relative for K terms), the best sample, or, for a
    ``running`` scan, the running maximum of the samples at the cell's left
    end, are split where a term meets a cusp of phi^p (``_shift_cuts``,
    when ``phi.order`` p < 2), so that a cusp lies only at a sub-cell end,
    and every local maximum of S inside them is refined by Newton's method
    on S' (``_cell_peaks``), without the finiteness check of the samples
    where every U is finite.  upper, the largest U plus that rounding and
    twice the generator's slack per unit of sum_k |A_k|^p, bounds every
    exact and computed value of S; it is inf when that is not a finite
    double.

    Dense scan (custom generators): the grid has at least ``_N_GRID``
    cells, and every sampled peak, each interior local maximum and both
    grid ends, is refined within its clipped neighbours by one
    ``_refine_maxima`` call.

    Returns (objective, slope, grid, samples, peak shifts, peak values,
    upper): slope(h) gives S and S' (S' None for a custom generator, upper
    None for a dense scan), or None when the modulus vanishes identically
    (no terms, delta <= 0, or only the zero frequency)."""
    if len(f) == 0 or delta <= 0:
        return None
    lams = f.scalar_frequencies()
    lam_max = float(np.max(np.abs(lams)))
    if lam_max == 0.0:
        return None
    amps_p = f.abs_coefficients() ** p
    even = phi.is_even or _mirrored(lams, amps_p)
    nz = lams != 0.0  # the zero frequency adds phi(0) = 0
    # a running-maximum scan evaluates S in smaller blocks, which keeps its
    # peak memory that of the dense scan
    block = 2 ** 14 if running else 2 ** 16

    def folded(hs, slope=False):
        # S, and S' where ``slope``, of the larger of S(h) and S(-h), with
        # d/dh S(-h) = -S'(-h)
        signed = hs if even else np.concatenate((hs, -hs))
        val = _objective_grid(lams, amps_p, phi, p, signed, block)
        d1 = _slopes(phi, lams[nz], amps_p[nz], p, signed)[0] if slope else None
        if not even:
            n = hs.shape[0]
            back = val[n:] > val[:n]
            val = np.maximum(val[:n], val[n:])
            d1 = None if d1 is None else np.where(back, -d1[n:], d1[:n])
        return val, d1

    def objective(hs):
        with np.errstate(over="ignore", invalid="ignore"):  # reported just below
            out = folded(hs)[0]
        _require_finite(out, p)
        return out

    turns = int(math.ceil(_CELLS_PER_TURN * (lam_max * delta / (2.0 * math.pi))))
    if phi.cell_sup is None:
        n = max(_N_GRID, turns)
        hs = np.linspace(0.0, delta, n + 1)
        obj = objective(hs)
        interior = np.flatnonzero((obj[1:-1] >= obj[:-2]) & (obj[1:-1] >= obj[2:])) + 1
        peaks = np.concatenate(([0], interior, [n]))
        peak_h, peak_v = _refine_maxima(
            lambda t, rows: objective(t), hs[np.maximum(peaks - 1, 0)], hs[np.minimum(peaks + 1, n)], lam_max,
        )
        return objective, lambda hs: (objective(hs), None), hs, obj, peak_h, peak_v, None
    hs = np.linspace(0.0, delta, max(1, turns) + 1)
    with np.errstate(over="ignore", invalid="ignore"):  # reported just below
        obj, bounds, slack = _cell_bounds(lams, amps_p, phi, p, hs, even)
        _require_finite(obj, p)
        rounding = (2.0 * lams.shape[0] + 8.0) * _EPS
        upper = float(np.max(bounds)) * (1.0 + rounding) + 2.0 * slack * float(np.sum(amps_p))
    best = np.maximum.accumulate(obj[:-1]) if running else float(np.max(obj))
    keep = np.flatnonzero(~(bounds <= best * (1.0 + rounding)))
    cuts = _shift_cuts(phi, lams, p, delta) if phi.order * p < 2.0 else np.empty(0)
    # every term rises from its zero at h = 0, so S has no maximum within
    # 2^-30 of the first cell's width; that cell is refined from there on,
    # clear of the zero
    lo, hi = hs[keep], hs[keep + 1]
    lo, hi = _split(np.where(lo == 0.0, hi * 2.0 ** -30, lo), hi, cuts)
    finite = math.isfinite(upper)
    peak_h, peak_v = _cell_peaks(
        (lambda hs: folded(hs)[0]) if finite else objective, phi, lams, amps_p, p, lo, hi, lam_max, even, cuts,
    )
    return objective, lambda hs: folded(hs, True), hs, obj, peak_h, peak_v, (upper if finite else math.inf)


def _require_finite(values: np.ndarray, p: float):
    if not np.isfinite(values).all():
        raise InputDomainError(f"phi^p-weighted sum is not a finite double (p={p:g})")


def _pth_root(power: float, p: float) -> float:
    """power^(1/p); InputDomainError when that is past the double range."""
    try:
        return power ** (1.0 / p)
    except OverflowError:
        raise InputDomainError(f"the modulus is not a finite double (p={p:g})") from None


def omega_phi(f: Spectrum, phi: PhiFunction, delta: float, p: float = 1.0) -> float:
    """Generalized modulus of smoothness at step delta: the largest sample
    or refined peak of the scan of ``_sampled_objective``, to the 1/p.
    Each peak is refined until its bracket spans at most 1e-8 rad of the
    fastest frequency's phase, which at a smooth maximum pins the value to
    double precision.  Builtin generators take the certified scan (16
    cells per oscillation of the fastest frequency; only the cells whose
    upper bound beats the best sample are refined, split where a term
    meets a cusp of phi^p, by Newton's method on the objective's
    derivative); custom generators take the dense scan of at least
    ``_N_GRID`` cells, refined by resampling.  delta must be finite and
    >= 0.  A repeated request returns the stored value (see the module
    docstring).
    """
    if not 0 <= delta < math.inf:
        raise InputDomainError("delta must be finite and >= 0")
    if not 0 < p < math.inf:
        raise InputDomainError("p must be positive and finite")
    return _omega(f, phi, float(delta), float(p))[0]


# the inverse bounds of one (f, alpha, p, n) ask for the same modulus
@functools.lru_cache(maxsize=2 ** 10)
def _omega(f: Spectrum, phi: PhiFunction, delta: float, p: float) -> tuple[float, float | None]:
    """(value, upper): the modulus and, from a certified scan, an upper
    bound of it (the modulus lies in [value, upper] up to the rounding of
    one computed sample); upper is None from a dense scan."""
    scan = _sampled_objective(f, phi, p, delta)
    if scan is None:
        return 0.0, (None if phi.cell_sup is None else 0.0)
    _, _, _, samples, _, peak_v, upper = scan
    value = _pth_root(max(float(np.max(samples)), float(np.max(peak_v, initial=-np.inf))), p)
    if upper is not None:
        try:
            upper = upper ** (1.0 / p) * (1.0 + 4.0 * _EPS)
        except OverflowError:  # the root of a finite power, past the double range
            upper = math.inf
    return value, upper


class OmegaEvaluator:
    """Reusable evaluator of delta -> omega_phi(f, phi, delta, p)^p on [0,
    delta_max], kept as the pieces of the running maximum M(delta) =
    max_{h <= delta} S(h) that ``averaged_omega`` integrates.

    One scan of ``_sampled_objective`` (given ``cuts``) samples S and refines
    every local maximum that may raise M.  Merged in shift order, the
    samples and peaks that beat every earlier one are the records of M,
    ``peak_h`` with values ``peak_v`` (strictly increasing).  After record
    j, M stays at peak_v[j] on the plateau [peak_h[j], cross[j]], and M = S
    on the rising stretch [cross[j], peak_h[j + 1]]; the last plateau runs
    to delta_max.  S climbs through peak_v[j] once between the last sample
    or peak at or below it and record j + 1, the first one above it (twice
    would need a maximum above peak_v[j] in between), and ``_newton_root``
    finds it there as the root of S - peak_v[j]: by Newton's method on the
    closed-form S' of a builtin generator, by regula falsi for a custom
    one (a crossing within the stopping width of the bracket's left end is
    that end, so a rising run of samples keeps plateaus of length 0).
    ``cuts`` are the shifts
    of the term zeros (``_shift_cuts``), kinks of S on the rising stretches;
    for a custom generator, whose zeros are not known, they are the
    refined local minima of its terms on the scan's grid (``_term_minima``).

    A query reads max(S(delta), the last record at or below delta).
    ``value(delta_max)`` is ``omega_phi(f, phi, delta_max, p)``, whose scan
    refines fewer cells; their peak values may round a few ulps apart."""

    def __init__(self, f: Spectrum, phi: PhiFunction, p: float, delta_max: float):
        if not 0 < p < math.inf:
            raise InputDomainError("p must be positive and finite")
        if not 0 <= delta_max < math.inf:
            raise InputDomainError("delta_max must be finite and >= 0")
        self.p = p
        self.delta_max = float(delta_max)
        self._request = (f, phi)
        lams = f.scalar_frequencies()
        self.cuts = _shift_cuts(phi, lams, p, self.delta_max)
        scan = _sampled_objective(f, phi, p, self.delta_max, running=True)
        self.trivial = scan is None
        if self.trivial:
            return
        self._objective, slope, hs, samples, peak_h, peak_v, _ = scan
        if phi.derivs is None:
            self.cuts = _term_minima(phi, lams, hs)
        h = np.concatenate((hs, peak_h))
        order = np.argsort(h, kind="stable")
        h, val = h[order], np.concatenate((samples, peak_v))[order]
        rec = np.flatnonzero(np.append(True, val[1:] > np.maximum.accumulate(val)[:-1]))
        self.peak_h, self.peak_v = h[rec], val[rec]
        up = rec[1:]
        # S passes a record by more than the rounding of its sum (a peak
        # evaluated again may round a few ulps above its stored value); S >=
        # 0 never falls below level 0, so that crossing is its start
        level = self.peak_v[:-1] * (1.0 + (2.0 * lams.shape[0] + 8.0) * _EPS)
        start, rate = h[up - 1], float(np.max(np.abs(lams)))

        def excess(x, rows):
            s, ds = slope(x)
            return s - level[rows], ds

        x = _newton_root(
            excess, start, np.where(level > 0.0, h[up], start), val[up - 1] - level, val[up] - level, rate,
        )
        # a crossing within the stopping width of its start is the start
        self.cross = np.where(x - start <= _stop_width(x, rate), start, x)

    def power_values(self, deltas: np.ndarray) -> np.ndarray:
        """omega^p at each step (vectorized; steps within [0, delta_max])."""
        deltas = np.asarray(deltas, dtype=np.float64)
        if float(np.max(deltas, initial=0.0)) > self.delta_max * (1 + 1e-12):
            raise InputDomainError("query beyond the evaluator range")
        if self.trivial:
            return np.zeros_like(deltas)
        best = self._objective(np.clip(deltas, 0.0, None))
        idx = np.searchsorted(self.peak_h, deltas, side="right") - 1
        on = idx >= 0
        best[on] = np.maximum(best[on], self.peak_v[idx[on]])
        best[deltas <= 0.0] = 0.0
        return best

    def value(self, delta: float) -> float:
        if delta == self.delta_max:
            return omega_phi(*self._request, self.delta_max, self.p)
        return _pth_root(float(self.power_values(np.array([delta]))[0]), self.p)


def averaged_omega(
    f: Spectrum,
    phi: PhiFunction,
    tau: float,
    v: WeightMeasure,
    u: float,
    p: float = 1.0,
    tol: float = 1e-10,
) -> float:
    """Weight-averaged modulus: the normalized p-mean of omega_phi(f, .)^p
    over steps up to u, integrated against v(tau t / u).

    The one weighted integral of the modulus, piece by piece over the
    running maximum of an ``OmegaEvaluator`` on [0, u]: each plateau is its
    value times the v-mass of its interval (``WeightMeasure.mass``), and
    the rising stretches, where the modulus is the objective S itself, are
    cut at the evaluator's ``cuts`` (the term zeros, or the term minima of a
    custom generator) and the knots of a piecewise-linear weight into
    pieces that one batched ``_adaptive_block`` call integrates, each with
    a share of tol in proportion to its length.  A piece [s0, s0 + w] is
    integrated in y over [0, 1] with s = s0 + w y^3 (10 - 15 y + 6 y^2),
    whose derivative vanishes to second order at both ends: a cusp |s -
    s0|^c of S becomes a power y^(3c + 2), smooth enough that the rule
    accepts its first panels instead of bisecting toward the cusp; inside
    a piece a kink of finite order could fool its error estimate.  An
    atomic weight sums the modulus at its atoms.  Never exceeds
    omega_phi(f, u) (the integrand is maximal at the endpoint and the
    average is normalized by the total mass).
    """
    if not 0 < u < math.inf:
        raise InputDomainError("u must be positive and finite")
    if abs(v.tau - tau) > 1e-12 * max(1.0, tau):
        raise InputDomainError("weight is defined on a different [0, tau]")
    mass = v.total_mass()
    if mass <= 0:
        raise DegenerateWeightError("weight has no mass on (0, tau]")
    ev = OmegaEvaluator(f, phi, p, u)
    if ev.trivial:
        return 0.0
    if v.kind == "atomic":
        sel = (v.points > 0.0) & (v.points <= tau)
        val = float((ev.power_values(u * v.points[sel] / tau) * v.jumps[sel]).sum())
    else:
        lo, hi = tau * ev.peak_h / u, tau * np.append(ev.cross, u) / u
        flat = hi > lo
        val = float(np.sum(ev.peak_v[flat] * v.mass(lo[flat], hi[flat])))
        # rising stretches run from one plateau of positive length to the
        # next, the first and last plateau included
        ends = flat.copy()
        ends[0] = ends[-1] = True
        ends = np.flatnonzero(ends)
        a, b = hi[ends[:-1]], lo[ends[1:]]
        if a.size:
            # pieces of the stretches between the term zeros and the knots
            knots = v.knots_t if v.kind == "pwl" else ()
            start, end = _split(a, b, np.concatenate((tau * ev.cuts / u, knots)))
            width = end - start

            def g(y, rows):
                # s = start + width B(y), B(y) = y^3 (10 - 15 y + 6 y^2)
                s = start[rows] + width[rows] * (y * y * y * (10.0 + y * (6.0 * y - 15.0)))
                return ev._objective(u * s / tau) * v.vprime(s) * (width[rows] * 30.0 * (y * (1.0 - y)) ** 2)

            rise, _ = _adaptive_block(g, 0.0, 1.0, tol * width / tau, np.full(width.shape, 2), _BUDGET)
            val += float(np.sum(rise))
    return (max(val, 0.0) / mass) ** (1.0 / p)
