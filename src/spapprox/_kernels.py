"""Numeric kernels of the Jackson correction series (numpy).

Kernel inventory:

* ``sigma_series_sum``   -- partial sum + rigorous tail bound of the
                            correction series used by the Jackson constant
                            chain for non-integer exponents.
* ``sigma_bound_floor``  -- closed form of that tail bound after a given
                            number of terms, for failing fast.
"""

from __future__ import annotations

import math

import numpy as np

# Upper bound for sum_{i>=1} 1/(2 i^2 - 1) = 1 + 1/7 + 1/17 + ... (~1.2026).
_SUM_INV_ODD = 1.21
# the inner walk stops once its scaled binomial falls below this share of
# the central one; that happens near i = 6.5 sqrt(a)
_WALK_CUT = 1e-18
# elements per block of inner walks (terms x walk length)
_WALK_BLOCK = 2 ** 14


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


def _bound_factor(s: float) -> float:
    odd = 1.0 if int(s) % 2 == 1 else 0.0
    return 2.0 * odd + 4.0 * _SUM_INV_ODD


def sigma_bound_floor(s: float, terms: int) -> float:
    """Tail bound of the correction series after ``terms`` terms, without
    the (nonnegative) neglected part: factor * C(2b, b) 4^{-b} * |C(s, 2b)|
    * (2b + 1) / (2 s) at b = a0 + terms, from log-gamma.  It decreases in
    ``terms``, so a value above the tolerance at the budget means the sum
    cannot converge within it."""
    b = int(s / 2.0) + 1 + terms
    log_wc = math.lgamma(2 * b + 1) - 2.0 * math.lgamma(b + 1) - b * math.log(4.0)
    log_c = math.lgamma(s + 1.0) - math.lgamma(2 * b + 1) - math.lgamma(s - 2 * b + 1.0)
    return _bound_factor(s) * math.exp(log_wc + log_c) * (2 * b + 1) / (2.0 * s)


def sigma_series_sum(s, tol, budget):
    """(value, tail_bound, terms, converged) for the correction series at s > 0."""
    s, tol, budget = float(s), float(tol), int(budget)
    a0 = int(s / 2.0) + 1
    # binomial C(s, m) up to m = 2*a0 by the multiplicative recurrence
    c = 1.0
    for m in range(2 * a0):
        c *= (s - m) / (m + 1.0)
    # scaled central binomial w_c(a) = C(2a, a) 4^{-a}
    wc = 1.0
    for a in range(1, a0 + 1):
        wc *= (2.0 * a - 1.0) / (2.0 * a)
    odd = 1.0 if int(s) % 2 == 1 else 0.0
    factor = _bound_factor(s)
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
                return total, bound, terms, True
        wc = wcs[-1]
    return total, bound, terms, False

