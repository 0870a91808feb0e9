"""Hot numeric kernels (numpy).

Kernel inventory:

* ``modulus_objective``  -- the phi-weighted coefficient sum over a shift
                            grid (the inner loop of every smoothness-modulus
                            computation), for the builtin phi families.
* ``phi_pow``            -- elementwise phi(t)**p for the builtin phi
                            families.
* ``sigma_series_sum``   -- partial sum + rigorous tail bound of the
                            correction series used by the Jackson constant
                            chain for non-integer exponents.
"""

from __future__ import annotations

import math

import numpy as np

PHI_ALPHA = 0
PHI_THETA = 1
PHI_STEKLOV = 2


def phi_pow(t, kind, param, theta_re, theta_im, p):
    """phi(t)**p for builtin phi families, vectorized over ``t``.

    kind 0: phi(t) = 2**a |sin(t/2)|**a          (param = a > 0)
    kind 1: phi(t) = |sum_j theta_j e^{-ijt}|     (theta arrays)
    kind 2: phi(t) = (1 - sinc t)**m              (param = m >= 1)
    """
    t = np.asarray(t, dtype=np.float64)
    if kind == PHI_ALPHA:
        return (2.0 ** (param * p)) * np.abs(np.sin(0.5 * t)) ** (param * p)
    if kind == PHI_THETA:
        j = np.arange(theta_re.shape[0], dtype=np.float64)
        ph = np.exp(-1j * np.multiply.outer(t, j))
        s = ph @ (theta_re + 1j * theta_im)
        return np.abs(s) ** p
    if kind == PHI_STEKLOV:
        with np.errstate(invalid="ignore", divide="ignore"):
            sinc = np.where(t == 0.0, 1.0, np.sin(t) / np.where(t == 0.0, 1.0, t))
        base = 1.0 - sinc
        # 1 - sinc is nonnegative; clip the -0.0 noise at t ~ 0
        return np.clip(base, 0.0, None) ** (param * p)
    raise ValueError(f"unknown phi kind {kind}")


def modulus_objective(lams, amps_p, hs, kind, param, theta_re, theta_im, p):
    """Array of sum_k phi(lam_k h)**p * amps_p[k] over the shift grid hs,
    in chunks of shifts that keep the (shifts x frequencies) block small."""
    lams = np.asarray(lams, dtype=np.float64)
    amps_p = np.asarray(amps_p, dtype=np.float64)
    hs = np.asarray(hs, dtype=np.float64)
    param, p = float(param), float(p)
    out = np.empty(hs.shape[0], dtype=np.float64)
    chunk = max(8, 65536 // max(1, lams.shape[0]))
    for start in range(0, hs.shape[0], chunk):
        hblk = hs[start:start + chunk]
        w = phi_pow(np.multiply.outer(hblk, lams), kind, param, theta_re, theta_im, p)
        out[start:start + hblk.shape[0]] = w @ amps_p
    return out


# Upper bound for sum_{i>=1} 1/(2 i^2 - 1) = 1 + 1/7 + 1/17 + ... (~1.2026).
_SUM_INV_ODD = 1.21


def _sigma_series_impl(s, tol, budget):
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
    total = 0.0
    neglected = 0.0
    a = a0
    terms = 0
    bound = math.inf
    while terms < budget:
        # inner sum over j < a of C(2a,j) 4^{-a} * 4/(2(a-j)^2 - 1),
        # walking j downward from the central column
        w = wc
        contrib = 0.0
        for i in range(1, a + 1):
            j = a - i + 1  # w currently holds the scaled value at column j
            w *= j / (2.0 * a - j + 1.0)
            contrib += w * 4.0 / (2.0 * i * i - 1.0)
            if w < 1e-18 * wc:
                neglected += w * 4.0 * _SUM_INV_ODD
                break
        term = -c * (odd * 2.0 * wc - contrib)
        total += term
        terms += 1
        # rigorous bound on everything past this term
        c_next = c * ((2.0 * a - s) / (2.0 * a + 1.0)) * ((2.0 * a + 1.0 - s) / (2.0 * a + 2.0))
        wc_next = wc * (2.0 * a + 1.0) / (2.0 * a + 2.0)
        factor = 2.0 * odd + 4.0 * _SUM_INV_ODD
        bound = factor * wc_next * abs(c_next) * (2.0 * a + 3.0) / (2.0 * s) + neglected
        c = c_next
        wc = wc_next
        a += 1
        if bound < tol:
            return total, bound, terms, True
    return total, bound, terms, False


def sigma_series_sum(s, tol, budget):
    """(value, tail_bound, terms, converged) for the correction series at s > 0."""
    return _sigma_series_impl(float(s), float(tol), int(budget))
