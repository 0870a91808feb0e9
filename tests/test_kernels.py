import math

import numpy as np
import pytest

from spapprox import _kernels, phi_alpha, phi_custom, phi_steklov, phi_theta
from spapprox.moduli import _objective_grid


def _random_args(seed):
    rng = np.random.default_rng(seed)
    lams = np.sort(rng.uniform(-16, 16, size=9))
    amps = rng.uniform(0.1, 1.0, size=9)
    hs = np.linspace(0.0, math.pi, 513)
    return lams, amps, hs


# generator families of the reference below
ALPHA, THETA, STEKLOV, CUSTOM = range(4)


def _custom(t):
    return np.sqrt(np.abs(np.sin(t))) + 1.0 - np.cos(t)


def _make_phi(kind, param, theta_re, theta_im):
    if kind == ALPHA:
        return phi_alpha(param)
    if kind == THETA:
        return phi_theta([complex(a, b) for a, b in zip(theta_re, theta_im)])
    if kind == STEKLOV:
        return phi_steklov(int(param))
    return phi_custom(_custom)


def _phi_pow_reference(t, kind, param, theta_re, theta_im, p):
    """phi(t)**p for one shift-frequency product, with math only."""
    if kind == ALPHA:
        return (2.0 * abs(math.sin(0.5 * t))) ** (param * p)
    if kind == THETA:
        re = sum(a * math.cos(j * t) + b * math.sin(j * t)
                 for j, (a, b) in enumerate(zip(theta_re, theta_im)))
        im = sum(b * math.cos(j * t) - a * math.sin(j * t)
                 for j, (a, b) in enumerate(zip(theta_re, theta_im)))
        return math.hypot(re, im) ** p
    if kind == CUSTOM:
        return (math.sqrt(abs(math.sin(t))) + 1.0 - math.cos(t)) ** p
    base = 0.0 if t == 0.0 else max(0.0, 1.0 - math.sin(t) / t)
    return base ** (param * p)


@pytest.mark.parametrize("kind,param,theta", [
    (ALPHA, 1.5, ((), ())),
    (THETA, 0.0, ((1.0, -2.0, 1.0), (0.0, 0.5, -0.5))),
    (STEKLOV, 2.0, ((), ())),
    (CUSTOM, 0.0, ((), ())),
])
def test_modulus_objective_paths_agree(kind, param, theta):
    # the objective grid of PhiFunction.pow_p against a plain double loop
    # over shifts and frequencies that shares no numpy code with it
    lams, amps, hs = _random_args(42)
    p = 1.7
    got = _objective_grid(lams, amps, _make_phi(kind, param, *theta), p, hs)
    for h, value in zip(hs.tolist(), got.tolist()):
        want = math.fsum(
            _phi_pow_reference(lam * h, kind, param, theta[0], theta[1], p) * a
            for lam, a in zip(lams.tolist(), amps.tolist())
        )
        assert value == pytest.approx(want, rel=1e-12, abs=1e-13)


def _sigma_series_loop(s, tol, budget):
    """The correction series summed term by term with a scalar inner walk,
    as the numpy kernel does it in blocks; the arithmetic and its order are
    the same, so the results must be equal."""
    a0 = int(s / 2.0) + 1
    c = 1.0
    for m in range(2 * a0):
        c *= (s - m) / (m + 1.0)
    wc = 1.0
    for a in range(1, a0 + 1):
        wc *= (2.0 * a - 1.0) / (2.0 * a)
    odd = 1.0 if int(s) % 2 == 1 else 0.0
    total = neglected = 0.0
    a, terms, bound = a0, 0, math.inf
    while terms < budget:
        w, contrib = wc, 0.0
        for i in range(1, a + 1):
            j = a - i + 1
            w *= j / (2.0 * a - j + 1.0)
            contrib += w * 4.0 / (2.0 * i * i - 1.0)
            if w < 1e-18 * wc:
                neglected += w * 4.0 * 1.21
                break
        total += -c * (odd * 2.0 * wc - contrib)
        terms += 1
        c_next = c * ((2.0 * a - s) / (2.0 * a + 1.0)) * ((2.0 * a + 1.0 - s) / (2.0 * a + 2.0))
        wc_next = wc * (2.0 * a + 1.0) / (2.0 * a + 2.0)
        bound = (2.0 * odd + 4.0 * 1.21) * wc_next * abs(c_next) * (2.0 * a + 3.0) / (2.0 * s) + neglected
        c, wc, a = c_next, wc_next, a + 1
        if bound < tol:
            return total, bound, terms, True
    return total, bound, terms, False


@pytest.mark.parametrize("s,tol,budget", [
    (0.5, 2e-4, 200_000), (1.5, 1e-8, 200_000), (2.3, 1e-8, 10_000),
    (3.7, 1e-12, 10_000), (0.5, 1e-12, 500),
])
def test_sigma_series_blocks_match_scalar_loop(s, tol, budget):
    assert _kernels.sigma_series_sum(s, tol, budget) == _sigma_series_loop(s, tol, budget)


@pytest.mark.parametrize("s", [0.5, 0.7, 1.5, 2.3, 3.7])
def test_sigma_bound_floor_is_the_bound_without_neglected_part(s):
    # the closed form after `terms` terms equals the summed bound up to
    # rounding and the neglected part of the inner walks (1e-17 per term)
    for terms in (1, 10, 300):
        _, bound, done, _ = _kernels.sigma_series_sum(s, 0.0, terms)
        floor = _kernels.sigma_bound_floor(s, terms)
        assert done == terms
        assert abs(bound - floor) <= 1e-12 * bound + 1e-15
