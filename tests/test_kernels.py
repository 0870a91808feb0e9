import math

import numpy as np
import pytest

from spapprox import _kernels


def _random_args(seed):
    rng = np.random.default_rng(seed)
    lams = np.sort(rng.uniform(-16, 16, size=9))
    amps = rng.uniform(0.1, 1.0, size=9)
    hs = np.linspace(0.0, math.pi, 513)
    return lams, amps, hs


def _phi_pow_reference(t, kind, param, theta_re, theta_im, p):
    """phi(t)**p for one shift-frequency product, with math only."""
    if kind == _kernels.PHI_ALPHA:
        return (2.0 * abs(math.sin(0.5 * t))) ** (param * p)
    if kind == _kernels.PHI_THETA:
        re = sum(a * math.cos(j * t) + b * math.sin(j * t)
                 for j, (a, b) in enumerate(zip(theta_re, theta_im)))
        im = sum(b * math.cos(j * t) - a * math.sin(j * t)
                 for j, (a, b) in enumerate(zip(theta_re, theta_im)))
        return math.hypot(re, im) ** p
    base = 0.0 if t == 0.0 else max(0.0, 1.0 - math.sin(t) / t)
    return base ** (param * p)


@pytest.mark.parametrize("kind,param,theta", [
    (_kernels.PHI_ALPHA, 1.5, ((), ())),
    (_kernels.PHI_THETA, 0.0, ((1.0, -2.0, 1.0), (0.0, 0.5, -0.5))),
    (_kernels.PHI_STEKLOV, 2.0, ((), ())),
])
def test_modulus_objective_paths_agree(kind, param, theta):
    # the vectorized kernel against a plain double loop over shifts and
    # frequencies that shares no numpy code with it
    lams, amps, hs = _random_args(42)
    tre = np.array(theta[0] if theta[0] else [0.0])
    tim = np.array(theta[1] if theta[1] else [0.0])
    p = 1.7
    got = _kernels.modulus_objective(lams, amps, hs, kind, param, tre, tim, p)
    lam_list, amp_list = lams.tolist(), amps.tolist()
    tre_list, tim_list = tre.tolist(), tim.tolist()
    for h, value in zip(hs.tolist(), got.tolist()):
        want = math.fsum(
            _phi_pow_reference(lam * h, kind, param, tre_list, tim_list, p) * a
            for lam, a in zip(lam_list, amp_list)
        )
        assert value == pytest.approx(want, rel=1e-12, abs=1e-13)
