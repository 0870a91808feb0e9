"""Generalized and averaged moduli of smoothness in coefficient-space metrics.

The generalized modulus of a finite spectrum f is

    omega_phi(f, delta)_p = sup_{|h| <= delta} ( sum_k phi(lam_k h)^p |A_k|^p )^{1/p}

for a bounded generator phi with phi(0) = 0.  Builtin generators:

* ``phi_alpha(a)``   -- 2^a |sin(t/2)|^a, the order-a modulus generator;
* ``phi_theta(...)`` -- |sum_j theta_j e^{-ijt}|, matching a generalized
  difference operator with weights theta, as |R(e^{it})| with R(w) =
  theta_0 w^m + ... + theta_m by Horner's rule from theta_0 (one exponential
  per point; at t = 0 the weights add as ``sum`` does);
* ``phi_steklov(m)`` -- (1 - sinc t)^m, matching the m-fold defect of the
  centered sliding mean.

``omega_phi`` and ``OmegaEvaluator`` read one scan of the shift objective
(``_sampled_objective``).  The averaged modulus integrates omega_phi^p
against a nondecreasing weight (Riemann-Stieltjes), normalized by the
weight's total mass; it never exceeds omega_phi at the right endpoint.

``omega_phi`` keeps the values of its 2^10 most recently used requests
(f, phi, delta, p, n_grid) in ``_omega``, so a repeated request returns bit
for bit the value first computed; invalid arguments raise before the
lookup, and a non-finite objective raises InputDomainError (never stored).
"""

from __future__ import annotations

import functools
import math
from typing import Callable, Sequence

import numpy as np

from .errors import BudgetError, DegenerateWeightError, InputDomainError
from .spectrum import DifferenceScheme, Spectrum

_SINC_MIN_ARG = 4.493409457909064  # first positive root of tan t = t
_SINC_MIN = math.cos(_SINC_MIN_ARG)


# ---------------------------------------------------------------------------
# phi generators


class PhiFunction:
    """Nonnegative bounded generator with phi(0) = 0; ``is_even`` records
    whether phi(-t) = phi(t).

    ``evaluator(t, e)`` returns phi(t)**e elementwise; it is the only place
    phi is evaluated (``__call__`` is e = 1, ``pow_p`` is e = p).
    ``monotone_to`` is the right end of a declared interval [0, a] on which
    phi is nondecreasing with phi(a) = sup; it is required by the sharpness
    and inverse-theorem operations.
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
    ):
        self.kind = kind
        self._eval = evaluator
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
        self._validate()

    def _validate(self):
        z = float(self(0.0))
        if abs(z) > 1e-12:
            raise InputDomainError(f"phi(0) must be 0, got {z}")
        grid = np.linspace(1e-3, 7.0, 97)
        vals = self(grid)
        if np.any(~np.isfinite(vals)) or np.any(vals < -1e-12):
            raise InputDomainError("phi must be finite and nonnegative")
        even_gap = float(np.max(np.abs(self(-grid) - vals)))
        self.is_even = even_gap <= 1e-10 * max(1.0, float(np.max(np.abs(vals))))

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
    def ev(t, e):
        # a numpy power: 2^(alpha e) past the double range is inf, not OverflowError
        return (np.float64(2.0) ** (alpha * e)) * np.abs(np.sin(0.5 * t)) ** (alpha * e)

    return PhiFunction(
        "alpha", ev, param=alpha, sup=2.0 ** alpha, monotone_to=math.pi,
        label=f"alpha:{alpha:g}",
    )


def phi_theta(theta: Sequence[complex] | DifferenceScheme) -> PhiFunction:
    """|sum_j theta_j e^{-ijt}| for a difference scheme (weights sum to 0)."""
    scheme = theta if isinstance(theta, DifferenceScheme) else DifferenceScheme(tuple(theta))
    th = scheme.theta

    def ev(t, e):
        w = np.exp(1j * t)
        acc = th[0] * w
        for c in th[1:-1]:
            acc += c
            acc *= w
        return np.abs(acc + th[-1]) ** e

    # classical alternating-binomial weights give 2^m |sin(t/2)|^m
    m = len(th) - 1
    classical = all(th[j] == (-1) ** j * math.comb(m, j) for j in range(m + 1))
    grid = np.linspace(0.0, 2.0 * math.pi, 4097)
    sup = float(np.max(ev(grid, 1.0)))
    return PhiFunction(
        "theta", ev, theta=th, sup=sup,
        monotone_to=math.pi if classical else None,
        label=f"theta:{[complex(x) for x in th]}",
    )


def phi_steklov(m: int) -> PhiFunction:
    """(1 - sinc t)^m; nondecreasing up to the sinc minimum at t ~ 4.4934."""
    if m < 1:
        raise InputDomainError("Steklov order must be >= 1")

    def ev(t, e):
        with np.errstate(invalid="ignore", divide="ignore"):
            sinc = np.where(t == 0.0, 1.0, np.sin(t) / np.where(t == 0.0, 1.0, t))
        # 1 - sinc is nonnegative; clip the -0.0 noise at t ~ 0
        return np.clip(1.0 - sinc, 0.0, None) ** (m * e)

    return PhiFunction(
        "steklov", ev, param=float(m), sup=(1.0 - _SINC_MIN) ** m,
        monotone_to=_SINC_MIN_ARG, label=f"steklov:{m}",
    )


def phi_custom(
    fn: Callable,
    sup: float | None = None,
    monotone_to: float | None = None,
    label: str = "custom",
) -> PhiFunction:
    def ev(t, e):
        return np.asarray(fn(t), dtype=np.float64) ** e

    return PhiFunction("custom", ev, sup=sup, monotone_to=monotone_to, label=label)


# ---------------------------------------------------------------------------
# weights


class WeightMeasure:
    """Bounded nondecreasing non-constant weight on [0, tau].  Weights with
    one tau are equal when an integral reads the same from them: one density
    function, the same knots, or the same atoms and jumps.

    ``cos_moments(a, b)``: integral_0^b cos(a t) dv(t) elementwise over the
    array a in closed form (the builtin densities, piecewise-linear
    weights), or None (custom densities, atomic weights)."""

    def __init__(self, tau: float, kind: str, label: str = "", **data):
        if not tau > 0:
            raise InputDomainError("tau must be positive")
        self.tau = float(tau)
        self.kind = kind
        self.label = label or kind
        if kind == "density":
            self.vprime = data["vprime"]  # vectorized, nonnegative
            self.v = data.get("v")
            self.cos_moments = _COS_MOMENTS.get(self.vprime)
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
            slopes = np.diff(vs) / np.diff(ts)
            # the piecewise-constant density of the slopes
            self.vprime = lambda t: slopes[
                np.clip(np.searchsorted(ts, t, side="right") - 1, 0, slopes.shape[0] - 1)
            ]

            def cos_moments(a, b):
                lo, hi = np.clip(ts[:-1], 0.0, b), np.clip(ts[1:], 0.0, b)
                a = np.asarray(a, dtype=np.float64)[..., None]
                safe = np.where(a == 0.0, 1.0, a)
                pieces = np.where(a == 0.0, hi - lo, (np.sin(a * hi) - np.sin(a * lo)) / safe)
                return (pieces * slopes).sum(axis=-1)

            self.cos_moments = cos_moments
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
            self.cos_moments = None
        else:
            raise InputDomainError(f"unknown weight kind {kind!r}")
        if self.total_mass() <= 0:
            raise DegenerateWeightError("weight must be non-constant on [0, tau]")

    def total_mass(self) -> float:
        """v(tau) - v(0) (atoms at 0 excluded: the measure lives on (0, tau])."""
        return self.mass(0.0, self.tau)

    def mass(self, a: float, b: float) -> float:
        if self.kind == "density":
            if self.v is not None:
                return float(self.v(b)) - float(self.v(a))
            val, _ = weight_integrals(lambda t, rows: np.ones_like(t), self, a, b, 1e-13, 1.0)
            return float(val[0])
        if self.kind == "pwl":
            return float(self._pwl_value(b) - self._pwl_value(a))
        sel = (self.points > a) & (self.points <= b)
        return float(np.sum(self.jumps[sel]))

    def _pwl_value(self, t: float) -> float:
        return float(np.interp(t, self.knots_t, self.knots_v))

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


def _sine_cos_moments(a, b):
    """integral_0^b cos(a t) sin t dt = (g(1 + a) + g(1 - a)) / 2 with
    g(x) = 2 sin^2(x b / 2) / x and g(0) = 0; unlike the expanded form
    (1 - cos b cos ab - a sin b sin ab) / (1 - a^2) it keeps its digits as
    a -> 1."""
    a = np.asarray(a, dtype=np.float64)
    x = np.stack((1.0 + a, 1.0 - a))
    safe = np.where(x == 0.0, 1.0, x)
    g = np.where(x == 0.0, 0.0, 2.0 * np.sin(0.5 * x * b) ** 2 / safe)
    return 0.5 * (g[0] + g[1])


def _unit_cos_moments(a, b):
    """integral_0^b cos(a t) dt = sin(a b) / a, and b at a = 0."""
    a = np.asarray(a, dtype=np.float64)
    return np.where(a == 0.0, b, np.sin(a * b) / np.where(a == 0.0, 1.0, a))


_COS_MOMENTS = {_sine_density: _sine_cos_moments, _unit_density: _unit_cos_moments}


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
    edges = [np.linspace(x, y, k + 1) for x, y, k in zip(a, b, panels)]
    lo, hi = np.concatenate([e[:-1] for e in edges]), np.concatenate([e[1:] for e in edges])
    owner = np.repeat(np.arange(count), panels)
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
    g: Callable, v: WeightMeasure, a: float, b: float, tol, osc
) -> tuple[np.ndarray, np.ndarray]:
    """integral_a^b g(t, i) dv(t) for a batch of integrands i = 0, 1, ...,
    one per entry of ``osc`` (g as in ``_gl_sums``).

    Against a density or piecewise-linear weight, one ``_adaptive_block``
    call integrates g v' for the whole batch, from two starting panels per
    oscillation of ``osc[i]`` (at least four); a piecewise-linear weight is
    the piecewise-constant density of its slopes, and its knots are panel
    edges.  Against an atomic weight each value is the exact sum over the
    atoms in (a, b], from one call of g on every (atom, integrand) pair,
    and g is not called when no atom lies there.  Returns (values, error
    estimates)."""
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
    lams: np.ndarray, amps_p: np.ndarray, phi: PhiFunction, p: float, hs: np.ndarray
) -> np.ndarray:
    """sum_k phi(lam_k h)^p amps_p[k] over the shifts hs (amps_p = |A_k|^p),
    in chunks of shifts that keep the (shifts x frequencies) block small."""
    out = np.empty(hs.shape[0], dtype=np.float64)
    chunk = max(8, 65536 // max(1, lams.shape[0]))
    for start in range(0, hs.shape[0], chunk):
        blk = hs[start:start + chunk]
        w = phi.pow_p(np.multiply.outer(blk, lams), p)
        out[start:start + blk.shape[0]] = w @ amps_p
    return out


# Refinement of sampled maxima: every round resamples each bracket at
# _REFINE_CELLS + 1 equispaced points and keeps the two cells around the
# best sample, shrinking the bracket 32-fold.  A bracket is done once it
# spans at most _REFINE_PHASE radians of the fastest frequency's phase
# (6e-10 in h at lam_max = 16), or 1e-13 |h| for shifts so large that
# rounding h alone moves the phase by more; at a smooth maximum the best
# sample's value is then exact to double precision.  _REFINE_ROUNDS caps
# the loop (32^16 exceeds any ratio of grid cell to tolerance).
_REFINE_CELLS = 64
_REFINE_PHASE = 1e-8
_REFINE_REL = 1e-13
_REFINE_ROUNDS = 16


def _refine_maxima(
    objective: Callable[[np.ndarray], np.ndarray],
    lo: np.ndarray,
    hi: np.ndarray,
    lam_max: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Best shift and objective value found inside each bracket [lo_i, hi_i].

    All brackets are refined together: each round makes one vectorized
    objective call over (brackets x (_REFINE_CELLS + 1)) points."""
    lo = np.asarray(lo, dtype=np.float64)
    hi = np.asarray(hi, dtype=np.float64)
    rows = np.arange(lo.shape[0])
    frac = np.linspace(0.0, 1.0, _REFINE_CELLS + 1)
    best_h = np.empty_like(lo)
    best_v = np.full_like(lo, -np.inf)
    for _ in range(_REFINE_ROUNDS):
        pts = lo[:, None] + (hi - lo)[:, None] * frac
        vals = objective(pts.ravel()).reshape(pts.shape)
        j = np.argmax(vals, axis=1)
        top = vals[rows, j]
        better = top > best_v
        best_v[better] = top[better]
        best_h[better] = pts[rows, j][better]
        lo = pts[rows, np.maximum(j - 1, 0)]
        hi = pts[rows, np.minimum(j + 1, _REFINE_CELLS)]
        tol = np.maximum(_REFINE_PHASE / lam_max, _REFINE_REL * np.abs(best_h))
        if np.all(hi - lo <= tol):
            break
    return best_h, best_v


_N_GRID = 2048  # least cells of a scan grid (``omega_phi`` may ask for more)


def _sampled_objective(f: Spectrum, phi: PhiFunction, p: float, delta: float, n_grid: int):
    """The one scan of the shift objective S(h) = sum_k phi(lam_k h)^p |A_k|^p
    over [0, delta], folded to max(S(h), S(-h)) (one ``_objective_grid``
    call on both signs) when phi is not even.  The grid is uniform,
    endpoints included, with at least ``n_grid`` cells and 16 points per
    oscillation of the fastest frequency.  Every sampled peak, each interior
    local maximum and both grid ends, is refined within its clipped
    neighbours by one ``_refine_maxima`` call.

    Returns (objective, grid, samples, peak shifts, peak values), or None
    when the modulus vanishes identically (no terms, delta <= 0, or only
    the zero frequency)."""
    if len(f) == 0 or delta <= 0:
        return None
    lams = f.scalar_frequencies()
    lam_max = float(np.max(np.abs(lams)))
    if lam_max == 0.0:
        return None
    amps_p = f.abs_coefficients() ** p

    def objective(hs):
        signed = hs if phi.is_even else np.concatenate((hs, -hs))
        with np.errstate(over="ignore", invalid="ignore"):  # reported just below
            out = _objective_grid(lams, amps_p, phi, p, signed)
        if not np.isfinite(out).all():
            raise InputDomainError(f"phi^p-weighted sum is not a finite double (p={p:g})")
        return out if phi.is_even else np.maximum(out[:hs.shape[0]], out[hs.shape[0]:])

    n = max(n_grid, int(math.ceil(16 * (lam_max * delta / (2.0 * math.pi)))))
    hs = np.linspace(0.0, delta, n + 1)
    obj = objective(hs)
    interior = np.flatnonzero((obj[1:-1] >= obj[:-2]) & (obj[1:-1] >= obj[2:])) + 1
    peaks = np.concatenate(([0], interior, [n]))
    peak_h, peak_v = _refine_maxima(
        objective, hs[np.maximum(peaks - 1, 0)], hs[np.minimum(peaks + 1, n)], lam_max
    )
    return objective, hs, obj, peak_h, peak_v


def _pth_root(power: float, p: float) -> float:
    """power^(1/p); InputDomainError when that is past the double range."""
    try:
        return power ** (1.0 / p)
    except OverflowError:
        raise InputDomainError(f"the modulus is not a finite double (p={p:g})") from None


def omega_phi(
    f: Spectrum,
    phi: PhiFunction,
    delta: float,
    p: float = 1.0,
    n_grid: int = _N_GRID,
) -> float:
    """Generalized modulus of smoothness at step delta: the largest sample
    or refined peak of the scan of ``_sampled_objective`` (each peak is
    refined by repeated resampling until its bracket spans at most 1e-8 rad
    of the fastest frequency's phase, which at a smooth maximum pins the
    value to double precision), to the 1/p.  A repeated request returns the
    stored value (see the module docstring).
    """
    if delta < 0:
        raise InputDomainError("delta must be >= 0")
    if not 0 < p < math.inf:
        raise InputDomainError("p must be positive and finite")
    return _omega(f, phi, float(delta), float(p), int(n_grid))


# the inverse bounds of one (f, alpha, p, n) ask for the same modulus
@functools.lru_cache(maxsize=2 ** 10)
def _omega(f: Spectrum, phi: PhiFunction, delta: float, p: float, n_grid: int) -> float:
    scan = _sampled_objective(f, phi, p, delta, n_grid)
    if scan is None:
        return 0.0
    _, _, samples, _, peak_v = scan
    return _pth_root(max(float(np.max(samples)), float(np.max(peak_v))), p)


class OmegaEvaluator:
    """Reusable evaluator of delta -> omega_phi(f, phi, delta, p)^p.

    The scan of ``_sampled_objective`` over [0, delta_max] runs once; the
    evaluator keeps the running maxima of its samples and of its refined
    peaks in shift order.  A query then combines the samples and the peaks
    at or below delta with the exact (folded) objective value at delta
    itself, so at delta_max it reads what ``omega_phi`` reads.  Queries cost
    O(1) spectrum evaluations, which makes weighted integrals of the modulus
    (``averaged_omega``) cheap."""

    def __init__(self, f: Spectrum, phi: PhiFunction, p: float, delta_max: float):
        if not 0 < p < math.inf:
            raise InputDomainError("p must be positive and finite")
        self.p = p
        self.delta_max = float(delta_max)
        scan = _sampled_objective(f, phi, p, self.delta_max, _N_GRID)
        self.trivial = scan is None
        if self.trivial:
            return
        self._objective, self.hs, samples, peak_h, peak_v = scan
        self.runmax = np.maximum.accumulate(samples)
        order = np.argsort(peak_h, kind="stable")
        self.peak_h = peak_h[order]
        self.peak_runmax = np.maximum.accumulate(peak_v[order])

    def power_values(self, deltas: np.ndarray) -> np.ndarray:
        """omega^p at each step (vectorized; steps within [0, delta_max])."""
        deltas = np.asarray(deltas, dtype=np.float64)
        if self.trivial:
            return np.zeros_like(deltas)
        if float(np.max(deltas, initial=0.0)) > self.delta_max * (1 + 1e-12):
            raise InputDomainError("query beyond the evaluator range")
        best = self._objective(np.clip(deltas, 0.0, None))
        idx = np.searchsorted(self.hs, deltas, side="right") - 1
        valid = idx >= 0
        best[valid] = np.maximum(best[valid], self.runmax[idx[valid]])
        jdx = np.searchsorted(self.peak_h, deltas, side="right") - 1
        pv = jdx >= 0
        best[pv] = np.maximum(best[pv], self.peak_runmax[jdx[pv]])
        best[deltas <= 0.0] = 0.0
        return best

    def value(self, delta: float) -> float:
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

    The one weighted integral of the modulus: an ``OmegaEvaluator`` over
    [0, u] answers the queries of one ``stieltjes`` call, seeded with two
    panels per oscillation of the fastest frequency over [0, u].  Never
    exceeds omega_phi(f, u) (the integrand is maximal at the endpoint and
    the average is normalized by the total mass).
    """
    if not u > 0:
        raise InputDomainError("u must be positive")
    if abs(v.tau - tau) > 1e-12 * max(1.0, tau):
        raise InputDomainError("weight is defined on a different [0, tau]")
    mass = v.total_mass()
    if mass <= 0:
        raise DegenerateWeightError("weight has no mass on (0, tau]")
    if len(f) == 0:
        return 0.0
    evaluator = OmegaEvaluator(f, phi, p, u)

    def integrand(s):
        s = np.atleast_1d(np.asarray(s, dtype=np.float64))
        return evaluator.power_values(u * s / tau)

    lam_max = float(np.max(np.abs(f.scalar_frequencies())))
    osc = max(1.0, lam_max * u / (2 * math.pi))
    val, _ = stieltjes(integrand, v, (0.0, tau), tol=tol, osc=osc)
    return (max(val, 0.0) / mass) ** (1.0 / p)
