import itertools
import math
import warnings

import mpmath
import numpy as np
import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from spapprox import (
    DegenerateWeightError,
    DifferenceScheme,
    InputDomainError,
    Spectrum,
    apply_difference,
    apply_steklov_difference,
    averaged_omega,
    omega_phi,
    phi_alpha,
    phi_custom,
    phi_steklov,
    phi_theta,
    sp_norm,
    steklov_multiplier,
    stieltjes,
    weight_atomic,
    weight_cos,
    weight_linear,
    weight_pwl,
)
from spapprox.errors import BudgetError
from spapprox import moduli
from spapprox.moduli import OmegaEvaluator, _adaptive_block, _objective_grid, _omega, _sinc_defect
from spapprox.oracle import oracle_modulus, oracle_quadrature
from spapprox.testing import random_spectrum


def test_phi_alpha_metadata():
    ph = phi_alpha(1.5)
    assert ph(0.0) == 0.0
    assert ph.is_even
    assert ph.sup == 2.0 ** 1.5
    assert ph(math.pi) == pytest.approx(ph.sup, abs=1e-12)


def test_phi_steklov_monotone_range():
    ph = phi_steklov(2)
    ts = np.linspace(0, ph.monotone_to, 300)
    vals = ph(ts)
    assert np.all(np.diff(vals) >= -1e-12)
    assert vals[-1] == pytest.approx(ph.sup, rel=1e-9)


def test_phi_theta_matches_classical():
    ph = phi_theta(DifferenceScheme.classical(3))
    ts = np.linspace(0, 2 * math.pi, 50)
    assert np.allclose(ph(ts), (2 * np.abs(np.sin(ts / 2))) ** 3, atol=1e-12)
    assert ph.monotone_to == math.pi


_EPS = np.finfo(np.float64).eps


@st.composite
def _theta_points(draw):
    """A scheme with 2-6 complex taps, theta_m = -sum(others), and shifts in
    [-60, 60], t = 0 and the doubles next to 2 pi k (zeros of the symbol)."""
    part = st.complex_numbers(min_magnitude=1e-3, max_magnitude=1e3, allow_nan=False,
                              allow_infinity=False)
    parts = draw(st.lists(part, min_size=1, max_size=5))
    ts = draw(st.lists(st.floats(-60.0, 60.0), min_size=1, max_size=6))
    for k in draw(st.lists(st.integers(-9, 9), min_size=1, max_size=3)):
        ts.append(math.nextafter(2 * math.pi * k, draw(st.sampled_from([-math.inf, math.inf]))))
    return DifferenceScheme(tuple(parts + [-sum(parts)])), [0.0] + ts


@given(case=_theta_points(), e=st.sampled_from([1.0, 1.5, 2.0]))
@settings(max_examples=60, deadline=None)
def test_phi_theta_matches_symbol_and_mpmath(case, e):
    # two references sharing no numpy code with the Horner kernel: the
    # scalar cmath sum of DifferenceScheme.symbol and a 30-digit mpmath sum.
    # Absolute tolerances on |P| are multiples of eps * S, S = sum |theta_j|:
    # 16 against mpmath; 256 against symbol, which rounds j t before its
    # exponential (half an ulp of |j t| <= 300 is 128 eps).  Powers e >= 1
    # scale them by e S^(e-1), plus 4 eps S^e for the power's own rounding.
    scheme, ts = case
    got = phi_theta(scheme).pow_p(np.array(ts), e)
    s = math.fsum(abs(x) for x in scheme.theta)
    with mpmath.workdps(30):
        for t, value in zip(ts, got.tolist()):
            exact = abs(mpmath.fsum(
                mpmath.mpc(x) * mpmath.expj(-j * mpmath.mpf(t))
                for j, x in enumerate(scheme.theta)
            )) ** e
            assert abs(value - float(exact)) <= (16 * e + 4) * _EPS * s ** e
            assert abs(value - abs(scheme.symbol(t)) ** e) <= (256 * e + 4) * _EPS * s ** e


@pytest.mark.parametrize("scale", [1e5, 1e8])
def test_phi_theta_accepts_scaled_schemes_with_exact_zero(scale):
    # theta_m = -sum(others) sums to 0.0 exactly in the forward order, which
    # is the order the kernel adds the weights in at t = 0
    rng = np.random.default_rng(11)
    for _ in range(200):
        parts = [complex(*rng.normal(size=2)) * scale for _ in range(4)]
        phi = phi_theta(parts + [-sum(parts)])
        assert phi(0.0) == 0.0


@st.composite
def _integer_schemes(draw):
    """An integer scheme of 2-7 taps in [-8, 8] that sums to 0 (zero
    weights at either end allowed), with R(w) = sum_j theta_j w^j = (w -
    1)^m0 Q(w) factored exactly by sympy: (theta, m0, the coefficients of Q)."""
    parts = draw(st.lists(st.integers(-8, 8), min_size=1, max_size=6))
    assume(abs(sum(parts)) <= 8)
    theta = parts + [-sum(parts)]
    theta.insert(draw(st.integers(0, len(parts))), theta.pop())
    assume(any(theta))
    w = sympy.Symbol("w")
    poly, m0 = sympy.Poly(theta[::-1], w), 0
    while poly.eval(1) == 0:
        poly, m0 = sympy.quo(poly, sympy.Poly(w - 1, w)), m0 + 1
    return theta, m0, [int(c) for c in poly.all_coeffs()[::-1]]


@given(case=_integer_schemes(), t=st.floats(1e-8, 2 * math.pi), e=st.sampled_from([1.0, 1.5, 2.0]))
@settings(max_examples=150, deadline=None)
def test_phi_theta_keeps_relative_digits_of_integer_schemes(case, t, e):
    # phi = (2 |sin(t/2)|)^m0 |Q(e^{-it})| is exact to (4 m0 e + 8) eps
    # relative from the sine power (as alpha), plus Horner's bound on Q
    # (Higham, Accuracy and Stability of Numerical Algorithms, 5.1: about 2
    # m eps sum |q_j| absolute, doubled for complex products) relative to
    # |Q|, e-fold through the power; infinite where Q vanishes.  The mpmath
    # sum is taken at 150 digits: next to a root of order <= 6 at a double's
    # distance it cancels at most about 100 of them, which leaves 40
    theta, m0, q = case
    got = float(phi_theta(theta).pow_p(np.array([t]), e)[0])
    with mpmath.workdps(150):
        z = mpmath.expj(-mpmath.mpf(t))
        want = abs(mpmath.polyval(theta[::-1], z)) ** e
        q_abs = abs(mpmath.polyval(q[::-1], z))
    assume(q_abs > 0)
    m = len(theta) - 1
    bound = (4 * m0 * e + 8) * _EPS + 4 * m * e * _EPS * sum(abs(c) for c in q) / float(q_abs)
    assert abs(got - float(want)) <= bound * float(want)


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
@pytest.mark.parametrize("m", range(1, 7))
def test_classical_theta_moduli_are_alpha_moduli(m, p):
    # (1 - w)^m is (w - 1)^m times a constant: the same function, the same
    # kernels and the same scan as phi_alpha(m), down to steps of 1e-6 (the
    # Horner sum of the weights lost every digit there)
    theta, alpha = phi_theta(DifferenceScheme.classical(m)), phi_alpha(m)
    assert theta.zeros == (0.0,) and theta.order == m and theta.monotone_to == math.pi
    rng = np.random.default_rng(m)
    spectra = [Spectrum.real({1.0: 1.0, 2.0: 0.5, -3.0: 0.25}), random_spectrum(rng, max_index=12, size=6)]
    for f in spectra:
        for delta in np.geomspace(1e-6, math.pi, 13).tolist():
            assert omega_phi(f, theta, delta, p) == pytest.approx(omega_phi(f, alpha, delta, p), rel=1e-13, abs=0)
        lams = f.scalar_frequencies()
        assert np.array_equal(moduli._shift_cuts(theta, lams, p, 3.0), moduli._shift_cuts(alpha, lams, p, 3.0))


@pytest.mark.parametrize("weights, zeros, order, like", [
    # R = 1 - w^2 = -(w - 1)(w + 1): Q vanishes at w = -1, t = pi
    ([1, 0, -1], (0.0, math.pi), 1.0, None),
    # zero end weights multiply R by a power of w, of modulus 1 on the circle
    ([0, 1, -2, 1, 0], (0.0,), 2.0, 2),
    ([0, 0, -1, 3, -3, 1], (0.0,), 3.0, 3),
    ([0, 1, 0, -1], (0.0, math.pi), 1.0, None),
])
def test_phi_theta_factors_its_zeros(weights, zeros, order, like):
    phi = phi_theta(weights)
    assert phi.zeros == pytest.approx(zeros, abs=1e-12) and phi.order == order
    ts = np.linspace(-7.0, 7.0, 57)
    want = np.abs(np.polyval(weights[::-1], np.exp(-1j * ts)))
    np.testing.assert_allclose(phi(ts), want, rtol=1e-13, atol=1e-13)
    if like is not None:
        assert np.array_equal(phi(ts), phi_alpha(like)(ts))
        assert phi.monotone_to == math.pi


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(0.0, math.nan)])
@pytest.mark.parametrize("at", range(3))
def test_non_finite_weights_are_input_errors(bad, at):
    weights = [1.0, -2.0, 1.0]
    weights[at] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InputDomainError):
            DifferenceScheme(tuple(weights))
        with pytest.raises(InputDomainError):
            phi_theta(weights)


@pytest.mark.parametrize("m", [1.5, 0.0, -1, math.nan, math.inf, "2"])
def test_steklov_orders_are_positive_integers(m):
    f = Spectrum.real({1.0: 1.0})
    for call in (lambda: phi_steklov(m), lambda: steklov_multiplier(m, 1.0, 0.7),
                 lambda: apply_steklov_difference(f, m, 0.7)):
        with pytest.raises(InputDomainError):
            call()
    # an integral float is the integer order
    assert phi_steklov(2.0) == phi_steklov(2)


def test_overflowing_generators_are_input_errors():
    f = Spectrum.real({1.0: 1.0, 3.0: 1.0})
    _omega.cache_clear()
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the typed error is the only report
        for _ in range(2):
            with pytest.raises(InputDomainError):
                phi_alpha(1024.0)
            for phi, p in ((phi_alpha(1000.0), 1.5), (phi_theta([1e300, -1e300]), 1.5),
                           (phi_alpha(1023.0), 0.5)):
                with pytest.raises(InputDomainError):
                    omega_phi(f, phi, 4.0, p=p)
                with pytest.raises(InputDomainError):
                    OmegaEvaluator(f, phi, p, 4.0).value(4.0)
    assert _omega.cache_info().currsize == 0
    # the same generators at p = 1 stay finite
    for phi in (phi_alpha(1000.0), phi_theta([1e300, -1e300])):
        assert math.isfinite(omega_phi(f, phi, 4.0))


def test_stieltjes_textbook_integral():
    v1 = weight_cos()
    val, err = stieltjes(np.sin, v1, (0.0, math.pi))
    assert val == pytest.approx(math.pi / 2, abs=1e-10)


def test_stieltjes_total_mass():
    v1 = weight_cos()
    val, _ = stieltjes(lambda t: np.ones_like(t), v1, (0.0, math.pi))
    assert val == pytest.approx(2.0, abs=1e-10)
    v2 = weight_linear(1.5)
    val, _ = stieltjes(lambda t: np.ones_like(t), v2, (0.0, 1.5))
    assert val == pytest.approx(1.5, abs=1e-12)


def test_stieltjes_atomic_single_jump():
    va = weight_atomic([0.5], [1.0], tau=1.0)
    val, err = stieltjes(lambda t: np.asarray(t) ** 2, va, (0.0, 1.0))
    assert val == 0.25 and err == 0.0


def test_stieltjes_pwl_matches_density():
    # piecewise-linear approximation of v(t) = t converges to the density case
    ts = np.linspace(0.0, 1.0, 2001)
    v = weight_pwl(ts, ts)
    val, _ = stieltjes(lambda t: np.cos(t), v, (0.0, 1.0))
    assert val == pytest.approx(math.sin(1.0), abs=1e-8)


def test_weight_validation():
    with pytest.raises(InputDomainError):
        weight_pwl([0.0, 1.0], [1.0, 0.0])
    with pytest.raises(DegenerateWeightError):
        weight_atomic([0.0], [1.0], tau=1.0)  # all mass at 0 -> none on (0, tau]
    # every comparison with NaN is False, so only a finiteness check stops it
    for build in (
        lambda: weight_pwl([0.0, 1.0, math.pi], [0.0, math.nan, 2.0]),
        lambda: weight_pwl([0.0, math.inf, math.pi], [0.0, 1.0, 2.0]),
        lambda: weight_atomic([1.0, 1.5], [1.0, math.nan], tau=2.0),
        lambda: weight_atomic([1.0, math.nan], [1.0, 1.0], tau=2.0),
        lambda: weight_atomic([1.0, 1.5], [1.0, math.inf], tau=2.0),
    ):
        with pytest.raises(InputDomainError, match="finite"):
            build()


def test_modulus_constant_function_is_zero():
    f = Spectrum.real({0.0: 2.5 + 1.0j})
    assert omega_phi(f, phi_alpha(2.0), 0.5, 1.0) == 0.0


def test_modulus_extremal_two_frequency_closed_form():
    lam, eps = 4.0, 0.7
    f = Spectrum.real({0.0: 0.3 + 0.2j, lam: eps, -lam: eps})
    for p in (1.0, 2.0):
        for delta in (0.1, 0.4, math.pi / lam):
            ph = phi_alpha(1.0)
            got = omega_phi(f, ph, delta, p)
            want = 2.0 ** (1.0 / p) * eps * ph(lam * delta)
            assert got == pytest.approx(want, abs=1e-11)


def test_modulus_against_oracle_dense_grid(rng):
    worst = 0.0
    for _ in range(60):
        f = random_spectrum(rng, max_index=12)
        alpha = float(rng.uniform(0.5, 3.0))
        p = float(rng.uniform(1.0, 2.5))
        delta = float(rng.uniform(0.1, math.pi))
        mine = omega_phi(f, phi_alpha(alpha), delta, p)
        ref = oracle_modulus(f, phi_alpha(alpha), delta, p)
        worst = max(worst, abs(mine - ref))
    assert worst < 1e-6


def test_modulus_monotone_and_bounded(rng):
    f = random_spectrum(rng, max_index=8)
    ph = phi_alpha(1.3)
    p = 1.5
    vals = [omega_phi(f, ph, d, p) for d in (0.2, 0.5, 1.0, 2.0, 3.0)]
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
    assert vals[-1] <= ph.sup * sp_norm(f, p) + 1e-12


def test_modulus_scaling(rng):
    f = random_spectrum(rng, max_index=8)
    g = Spectrum.real({k: 3.5 * c for k, c in f.items()})
    assert omega_phi(g, phi_alpha(1.0), 1.0, 2.0) == pytest.approx(
        3.5 * omega_phi(f, phi_alpha(1.0), 1.0, 2.0), rel=1e-12
    )


def test_multiplier_identity_exact_per_shift(rng):
    # the modulus generator of a difference scheme reproduces the norm of the
    # applied operator exactly, shift by shift
    for _ in range(20):
        f = random_spectrum(rng, max_index=10)
        theta = [complex(*rng.normal(size=2)) for _ in range(int(rng.integers(2, 5)))]
        theta.append(-sum(theta))
        scheme = DifferenceScheme(tuple(theta))
        ph = phi_theta(scheme)
        p = float(rng.uniform(1.0, 2.5))
        for h in (0.17, 0.9, 2.3):
            lhs = sp_norm(apply_difference(f, scheme, h), p)
            lams = f.scalar_frequencies()
            rhs = (
                sum(ph(float(l) * h) ** p * abs(c) ** p for l, c in zip(lams, f.coefficients))
            ) ** (1 / p)
            assert abs(lhs - rhs) < 1e-12 * max(1.0, rhs)


def test_steklov_modulus_two_routes(rng):
    # multiplier route vs direct application of the mean-defect operator
    for _ in range(10):
        f = random_spectrum(rng, max_index=6)
        m = int(rng.integers(1, 4))
        p = float(rng.uniform(1.0, 2.0))
        ph = phi_steklov(m)
        for h in (0.25, 0.8):
            direct = sp_norm(apply_steklov_difference(f, m, h), p)
            lams = f.scalar_frequencies()
            weighted = (
                sum(ph(float(l) * h) ** p * abs(c) ** p for l, c in zip(lams, f.coefficients))
            ) ** (1 / p)
            assert abs(direct - weighted) < 1e-12 * max(1.0, weighted)


def test_averaged_never_exceeds_endpoint_modulus(rng):
    for _ in range(30):
        f = random_spectrum(rng, max_index=10)
        ph = phi_alpha(float(rng.uniform(0.5, 2.5)))
        p = float(rng.uniform(1.0, 2.0))
        u = float(rng.uniform(0.2, math.pi))
        v = weight_cos() if rng.uniform() < 0.5 else weight_linear(math.pi)
        om = averaged_omega(f, ph, math.pi, v, u, p, tol=1e-7)
        w = omega_phi(f, ph, u, p)
        assert om <= w + 1e-7


def test_averaged_constant_function_zero():
    f = Spectrum.real({0.0: 1.0})
    assert averaged_omega(f, phi_alpha(1.0), math.pi, weight_cos(), 1.0, 2.0) == 0.0


def test_averaged_extremal_closed_form():
    lam, eps, p = 3.0, 0.7, 2.0
    f = Spectrum.real({0.0: 0.1, lam: eps, -lam: eps})
    u = math.pi / lam
    om = averaged_omega(f, phi_alpha(1.0), math.pi, weight_linear(math.pi), u, p)
    target_p = (1 / math.pi) * oracle_quadrature(
        lambda s: 2 * eps ** p * phi_alpha(1.0)(s) ** p, 0.0, math.pi, 1e-12
    )[0]
    assert om == pytest.approx(target_p ** (1 / p), abs=1e-9)


# frequency: (re, im) of a random twelve-term spectrum whose running-maximum
# modulus has kinks inside (0, 3 pi / 4), where its plateaus start and end
_KINKED_SPECTRUM = {
    0.0: (-0.9775708151850006, 0.2106069830241471),
    12.0: (-0.028804159448781824, -0.06079036592679776),
    -4.0: (0.24663365156473385, -0.03533314658123455),
    1.0: (0.09640653343466596, -0.7047588945020524),
    -1.0: (0.17704968959104642, -0.6889359378667645),
    11.0: (0.024651449113929642, -0.0668780027956223),
    -11.0: (-0.056097831974371015, 0.043970381498494665),
    8.0: (0.11560932154761165, -0.09160665743668757),
    -8.0: (-0.12968344055803166, -0.07028157767475882),
    7.0: (-0.15141530375110118, 0.08817714653834394),
    -7.0: (-0.12931265998007432, -0.11823721643611414),
    -6.0: (-0.14403093532309685, 0.04207233117031747),
}


def test_stieltjes_kinked_modulus_integral_matches_scipy():
    # the plain Jackson bound's modulus integral (n = 1): scipy's QUADPACK
    # shares no code with stieltjes
    f = Spectrum.real({k: complex(*c) for k, c in _KINKED_SPECTRUM.items()})
    v = weight_linear(3 * math.pi / 4)
    ev = OmegaEvaluator(f, phi_alpha(1.8352047405794611), 1.0, v.tau)

    def integrand(t):
        return ev.power_values(np.atleast_1d(np.asarray(t, dtype=np.float64)))

    got, _ = stieltjes(integrand, v, (0.0, v.tau), tol=1e-10, osc=12.0 * v.tau / (2 * math.pi))
    ref, _ = quad(lambda t: float(integrand(t)[0]), 0.0, v.tau, epsabs=1e-13, epsrel=1e-13, limit=5000)
    assert abs(got - ref) < 1e-9


def test_omega_evaluator_matches_one_shot(rng):
    f = random_spectrum(rng, max_index=10)
    ph = phi_alpha(1.2)
    ev = OmegaEvaluator(f, ph, 1.5, 2.0)
    for d in (0.05, 0.3, 1.1, 2.0):
        assert ev.value(d) == pytest.approx(omega_phi(f, ph, d, 1.5), abs=1e-10)


def test_custom_phi_goes_through_numpy_path():
    ph = phi_custom(lambda t: np.abs(np.sin(t)), sup=1.0, monotone_to=math.pi / 2)
    f = Spectrum.real({1.0: 1.0, -1.0: 1.0})
    got = omega_phi(f, ph, math.pi / 2, 2.0)
    assert got == pytest.approx(2 ** 0.5 * 1.0, abs=1e-10)


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


# first positive root of tan t = t, by Newton's method in plain floats
def _sinc_argmin():
    t = 4.5
    for _ in range(50):
        t -= (math.tan(t) - t) / (math.tan(t) ** 2)
    return t


@pytest.mark.parametrize("p", [1.0, 1.7])
@pytest.mark.parametrize("a", [0.7, 1.0, 2.5])
def test_modulus_interior_max_single_frequency_alpha(a, p):
    # 2^a |sin(lam h / 2)|^a peaks at h = pi / lam, inside (0, delta) and
    # off the scan grid, so only refinement reaches the closed form 2^a |A|
    lam, amp, delta = 3.7, 0.8 - 0.45j, 2.0
    assert math.pi < lam * delta < 3.0 * math.pi
    f = Spectrum.real({lam: amp})
    want = 2.0 ** a * abs(amp)
    ph = phi_alpha(a)
    assert omega_phi(f, ph, delta, p) == pytest.approx(want, rel=1e-12)
    assert OmegaEvaluator(f, ph, p, delta).value(delta) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("p", [1.0, 1.7])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_modulus_interior_max_single_frequency_steklov(m, p):
    # 1 - sinc t is largest at the first root t* of tan t = t, where
    # sinc t* = cos t*; with lam delta > t* the maximum is interior
    t_star = _sinc_argmin()
    assert abs(t_star - 4.4934094579) < 1e-9
    lam, amp, delta = 2.3, 1.25, 2.9
    assert t_star < lam * delta < 7.7
    f = Spectrum.real({0.0: 0.4, lam: amp})
    want = (1.0 - math.cos(t_star)) ** m * amp
    ph = phi_steklov(m)
    assert omega_phi(f, ph, delta, p) == pytest.approx(want, rel=1e-12)
    assert OmegaEvaluator(f, ph, p, delta).value(delta) == pytest.approx(want, rel=1e-12)


def _even_custom():
    return phi_custom(
        lambda t: np.abs(np.sin(0.5 * t)) * (1.0 + 0.6 * np.cos(t) ** 2), label="sine-bump",
    )


_GENERATORS = {
    "alpha": lambda: phi_alpha(1.4),
    "theta": lambda: phi_theta((1.0, -0.5 + 0.8j, -0.5 - 0.8j)),
    "steklov": lambda: phi_steklov(2),
    "custom": _even_custom,
}


@st.composite
def _spectra(draw):
    ks = draw(st.lists(st.integers(-10, 10), min_size=1, max_size=6, unique=True))
    amps = draw(st.lists(st.floats(0.05, 2.0), min_size=len(ks), max_size=len(ks)))
    return Spectrum.real({float(k): a for k, a in zip(ks, amps)})


@given(
    f=_spectra(),
    kind=st.sampled_from(sorted(_GENERATORS)),
    p=st.sampled_from([1.0, 1.5, 2.0]),
    d1=st.floats(0.05, math.pi),
    d2=st.floats(0.05, math.pi),
)
@settings(max_examples=25, deadline=None)
def test_modulus_invariants(f, kind, p, d1, d2):
    lo, hi = min(d1, d2), max(d1, d2)
    ph = _GENERATORS[kind]()
    w_lo = omega_phi(f, ph, lo, p)
    w_hi = omega_phi(f, ph, hi, p)
    # nondecreasing in delta
    assert w_lo <= w_hi * (1.0 + 1e-12)
    # the dense-grid oracle samples the same sup without refinement
    assert abs(w_hi - oracle_modulus(f, ph, hi, p)) < 1e-6
    # the shared evaluator answers every step below its range as one-shot
    if ph.is_even:
        ev = OmegaEvaluator(f, ph, p, hi)
        assert ev.value(lo) == pytest.approx(w_lo, rel=1e-12, abs=1e-14)
        assert ev.value(hi) == pytest.approx(w_hi, rel=1e-12, abs=1e-14)


@given(
    f=_spectra(),
    kind=st.sampled_from(sorted(_GENERATORS)),
    p=st.sampled_from([0.5, 1.0, 1.5, 2.0]),
    delta=st.floats(0.05, math.pi),
)
@settings(max_examples=40, deadline=None)
def test_evaluator_at_its_range_reads_the_one_shot_modulus(f, kind, p, delta):
    # both read the samples and refined peaks of one scan (the theta
    # generator, with complex taps, is not even); only the exact objective
    # value at delta, evaluated on its own, may differ in rounding
    ph = _GENERATORS[kind]()
    _omega.cache_clear()
    want = omega_phi(f, ph, delta, p)
    got = OmegaEvaluator(f, ph, p, delta).value(delta)
    assert abs(got - want) <= 4 * math.ulp(want)


def test_non_even_evaluator_matches_symmetric_oracle():
    # the folded objective max(S(h), S(-h)) on [0, delta] against the
    # oracle's dense grid of 200,001 shifts over [-delta, delta]
    ph = _GENERATORS["theta"]()
    assert not ph.is_even
    f = Spectrum.real({-7.0: 0.6, -2.0: 1.1 - 0.4j, 1.0: 0.8, 3.0: 0.3j, 9.0: 0.45})
    p, u = 1.5, 2.5
    ev = OmegaEvaluator(f, ph, p, u)
    for delta in (0.1, 0.4, 1.0, 1.7, u):
        assert abs(ev.value(delta) - oracle_modulus(f, ph, delta, p)) < 1e-6
    for v in (weight_cos(), weight_linear(3 * math.pi / 4)):
        assert averaged_omega(f, ph, v.tau, v, u, p) <= omega_phi(f, ph, u, p) * (1 + 1e-9)


@st.composite
def _weights(draw):
    """A density, piecewise-linear or atomic weight on [0, tau]."""
    tau = draw(st.sampled_from([math.pi, 3 * math.pi / 4]))
    kind = draw(st.sampled_from(["cos", "t", "pwl", "atomic"]))
    if kind == "cos":
        return weight_cos(tau)
    if kind == "t":
        return weight_linear(tau)
    inner = draw(st.lists(st.integers(1, 99), max_size=4, unique=True))
    ts = [0.0] + [tau * k / 100 for k in sorted(inner)] + [tau]
    if kind == "pwl":
        rises = draw(st.lists(st.floats(0.0, 2.0), min_size=len(ts) - 1, max_size=len(ts) - 1))
        assume(sum(rises) > 0.0)
        return weight_pwl(ts, np.concatenate(([0.0], np.cumsum(rises))))
    jumps = draw(st.lists(st.floats(0.1, 2.0), min_size=len(ts) - 1, max_size=len(ts) - 1))
    return weight_atomic(ts[1:], jumps, tau)


@given(
    f=_spectra(),
    kind=st.sampled_from(["alpha", "custom", "steklov"]),
    p=st.sampled_from([1.0, 1.5, 2.0]),
    v=_weights(),
    u=st.floats(0.05, math.pi),
)
@settings(max_examples=25, deadline=None)
def test_averaged_modulus_at_most_endpoint_modulus(f, kind, p, v, u):
    # the normalized average of omega^p over steps up to u is at most omega^p(u)
    ph = _GENERATORS[kind]()
    assert averaged_omega(f, ph, v.tau, v, u, p) <= omega_phi(f, ph, u, p) * (1 + 1e-9)


def test_adaptive_block_batch_matches_batches_of_one():
    # int_0^b cos(c t) dt = sin(c b) / c; every interval's panels are
    # bisected on their own, so a batch gives each interval's batch-of-one value
    c = np.array([0.5, 3.0, 17.0, 40.0])
    b = np.array([1.0, 2.0, 0.7, 3.0])
    p0 = np.array([2, 4, 8, 16])

    def g(t, rows):
        return np.cos(c[rows] * t)

    vals, errs = _adaptive_block(g, 0.0, b, 1e-12, p0, 2 ** 16)
    np.testing.assert_allclose(vals, np.sin(c * b) / c, rtol=0, atol=1e-11)
    assert np.all(errs <= 1e-12)
    for i in range(4):
        one, _ = _adaptive_block(lambda t, rows: np.cos(c[i] * t), 0.0, b[i], 1e-12, p0[i], 2 ** 16)
        assert vals[i] == pytest.approx(one[0], rel=1e-14, abs=0)
    # an interval that cannot meet its tolerance stops the whole batch:
    # sin(1 / (t - x0)) oscillates without end toward the irrational x0
    x0 = 1.0 / math.sqrt(8.0)

    def wild(t, rows):
        return np.where(rows == 2, np.sin(1.0 / (t - x0)), g(t, rows))

    with pytest.raises(BudgetError):
        _adaptive_block(wild, 0.0, b, 1e-12, p0, 64)


# ---------------------------------------------------------------------------
# the omega_phi cache


@st.composite
def _builtin_generators(draw):
    kind = draw(st.sampled_from(["alpha", "theta", "steklov"]))
    if kind == "alpha":
        return phi_alpha(draw(st.floats(0.3, 3.0)))
    if kind == "steklov":
        return phi_steklov(draw(st.integers(1, 3)))
    part = st.complex_numbers(min_magnitude=0.1, max_magnitude=2.0)
    parts = draw(st.lists(part, min_size=1, max_size=3))
    return phi_theta(parts + [-sum(parts)])


@given(
    f=_spectra(),
    phi=_builtin_generators(),
    delta=st.floats(0.0, math.pi),
    p=st.floats(0.5, 3.0),
)
@settings(max_examples=40, deadline=None)
def test_modulus_cache_returns_the_computed_value(f, phi, delta, p):
    omega_phi(f, phi, delta, p)
    size = _omega.cache_info().currsize
    stored = omega_phi(f, phi, delta, p)
    assert _omega.cache_info().currsize == size
    _omega.cache_clear()
    assert omega_phi(f, phi, delta, p) == stored


def test_modulus_cache_keys_on_every_field():
    entries = {0.0: 0.4, 1.0: 1.0, -2.5: 0.3 + 0.2j}
    moved = {**entries, 1.0: math.nextafter(1.0, 2.0)}
    base = {"f": Spectrum.real(entries), "phi": phi_alpha(2.0), "delta": 1.1, "p": 1.5}

    def call(**change):
        args = {**base, **change}
        return omega_phi(args["f"], args["phi"], args["delta"], args["p"])

    _omega.cache_clear()
    first = call()
    assert call() == first and _omega.cache_info().currsize == 1
    changes = [
        {"f": Spectrum.real(moved)},
        # the same function as phi_alpha(2.0), under two other generator kinds
        {"phi": phi_theta(DifferenceScheme.classical(2))},
        {"phi": phi_steklov(2)},
        {"delta": math.nextafter(1.1, 2.0)},
        {"p": 2.0},
    ]
    for size, change in enumerate(changes, start=2):
        call(**change)
        assert _omega.cache_info().currsize == size
    assert call(phi=phi_theta(DifferenceScheme.classical(2))) == pytest.approx(first, rel=1e-9)


def test_modulus_cache_tells_custom_generators_apart():
    f = Spectrum.real({1.0: 1.0})
    half = phi_custom(lambda t: np.abs(np.sin(0.5 * t)), label="same")
    square = phi_custom(lambda t: np.sin(0.5 * t) ** 2, label="same")
    _omega.cache_clear()
    # single frequency: the sup over |h| <= 1 sits at the endpoint h = 1
    for _ in range(2):
        assert omega_phi(f, half, 1.0) == pytest.approx(math.sin(0.5), rel=1e-12)
        assert omega_phi(f, square, 1.0) == pytest.approx(math.sin(0.5) ** 2, rel=1e-12)
    assert _omega.cache_info().currsize == 2


_BUILDERS = {
    "alpha": phi_alpha, "steklov": phi_steklov, "theta": phi_theta,
    "cos": weight_cos, "t": weight_linear, "pwl": weight_pwl, "atomic": weight_atomic,
}


def _knots(steps, column):
    return list(itertools.accumulate((step[column] for step in steps), initial=0.0))


_STEPS = st.lists(st.tuples(st.floats(0.1, 1.0), st.floats(0.1, 1.0)), min_size=1, max_size=3)
_PARTS = st.lists(st.complex_numbers(min_magnitude=0.1, max_magnitude=2.0), min_size=1, max_size=3)
# (builder, arguments): building one twice gives two equal objects
_RECIPES = st.one_of(
    st.tuples(st.just("alpha"), st.tuples(st.floats(0.3, 3.0))),
    st.tuples(st.just("steklov"), st.tuples(st.integers(1, 3))),
    _PARTS.map(lambda parts: ("theta", (parts + [-sum(parts)],))),
    st.tuples(st.sampled_from(["cos", "t"]), st.tuples(st.floats(0.5, math.pi))),
    _STEPS.map(lambda steps: ("pwl", (_knots(steps, 0), _knots(steps, 1)))),
    _STEPS.map(lambda steps: ("atomic", (_knots(steps, 0)[1:], [jump for _, jump in steps]))),
)


@given(a=_RECIPES, b=_RECIPES, label=st.text(max_size=5))
@settings(max_examples=100, deadline=None)
def test_generators_and_weights_hash_by_value(a, b, label):
    x, y = _BUILDERS[a[0]](*a[1]), _BUILDERS[b[0]](*b[1])
    rebuilt = _BUILDERS[a[0]](*a[1])
    assert rebuilt == x and hash(rebuilt) == hash(x)
    assert {x: a}[rebuilt] == a
    assert (x == y) == (y == x)
    if x == y:
        assert hash(x) == hash(y)
    if a[0] != b[0]:
        assert x != y
    # a custom generator equals only itself, whatever its label says
    one, two = (phi_custom(lambda t: np.abs(np.sin(0.5 * t)), label=label) for _ in range(2))
    assert one == one and one != two and two != x


def test_modulus_cache_is_bounded():
    assert _omega.cache_info().maxsize == 2 ** 10
    _omega.cache_clear()
    f, phi = Spectrum.real({1.0: 1.0, 3.0: 0.5}), phi_alpha(1.3)
    deltas = [0.1 + 1e-3 * k for k in range(2 ** 10 + 8)]
    first = [omega_phi(f, phi, d) for d in deltas]
    assert _omega.cache_info().currsize == 2 ** 10
    # least recently used first: the first eight steps are gone, the last kept
    hits, misses = _omega.cache_info()[:2]
    assert omega_phi(f, phi, deltas[-1]) == first[-1]
    assert _omega.cache_info()[:2] == (hits + 1, misses)
    assert omega_phi(f, phi, deltas[0]) == first[0]
    assert _omega.cache_info()[:2] == (hits + 1, misses + 1)
    assert _omega.cache_info().currsize == 2 ** 10


def test_modulus_errors_are_not_cached():
    f = Spectrum.real({1.0: 1.0})
    _omega.cache_clear()
    for _ in range(2):
        with pytest.raises(InputDomainError):
            omega_phi(f, phi_alpha(1.0), -0.5)
        with pytest.raises(InputDomainError):
            omega_phi(f, phi_alpha(1.0), 0.5, p=math.inf)
        with pytest.raises(InputDomainError):
            omega_phi(Spectrum.lattice({(1, 1): 1.0}), phi_alpha(1.0), 0.5)
    assert _omega.cache_info().currsize == 0


def test_phi_alpha_builds_one_generator_per_alpha():
    assert phi_alpha(2) is phi_alpha(2.0) is phi_alpha(np.float64(2.0))
    assert phi_alpha(2.0).label == "alpha:2"
    for _ in range(2):
        with pytest.raises(InputDomainError):
            phi_alpha(0.0)
        with pytest.raises(InputDomainError):
            phi_alpha(math.nan)


def test_adaptive_block_rejects_non_finite_integrand():
    # e^{800 t} passes the double range at t ~ 0.887: a typed error at the
    # first such panel, with no numpy warning and no bisection to the budget
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InputDomainError):
            _adaptive_block(lambda t, rows: np.exp(800.0 * t), 0.0, 1.0, 1e-10, 4, 2 ** 16)


# ---------------------------------------------------------------------------
# the certified scan: the modulus lies in [value, upper]


def _np_phi_pow(phi, t, e):
    """phi(t)**e from the generator's parameters, with numpy only."""
    if phi.kind == "alpha":
        return (2.0 * np.abs(np.sin(0.5 * t))) ** (phi.param * e)
    if phi.kind == "steklov":
        return np.clip(1.0 - np.sinc(t / math.pi), 0.0, None) ** (phi.param * e)
    return np.abs(sum(c * np.exp(-1j * j * t) for j, c in enumerate(phi.theta))) ** e


def _mp_phi_pow(phi, t, e):
    """phi(t)**e at the working precision of mpmath."""
    if phi.kind == "alpha":
        return (2 * abs(mpmath.sin(t / 2))) ** (phi.param * e)
    if phi.kind == "steklov":
        return (1 - mpmath.sin(t) / t) ** (phi.param * e) if t else mpmath.mpf(0)
    return abs(mpmath.fsum(mpmath.mpc(c) * mpmath.expj(-j * t) for j, c in enumerate(phi.theta))) ** e


def _mp_grid(delta, cells, near):
    """np.linspace(0, delta, cells + 1) with more points toward each shift
    in ``near``, 2^-10 .. 2^-50 of delta away on both sides."""
    hs = np.linspace(0.0, delta, cells + 1)
    if len(near):
        offsets = delta * 2.0 ** -np.arange(10.0, 51.0)
        extra = np.add.outer(np.asarray(near, dtype=float), np.concatenate((-offsets, offsets))).ravel()
        hs = np.unique(np.concatenate((hs, extra[(extra > 0.0) & (extra < delta)])))
    return hs


def _mp_max_power(f, phi, delta, e, near=()):
    """sup over |h| <= delta of S(h) = sum_k phi(lam_k h)^e |A_k|^e at 30
    digits: a 4,001-point numpy grid (with more points toward the shifts
    ``near``, where S may peak next to a zero of a term) finds the
    candidates (grid maxima within 1e-3 of the top, and both ends), and
    mpmath ``findroot`` of S' refines each one whose neighbouring samples
    bracket a sign change of S'."""
    # phi(0) = 0 (a scheme's weights sum to 0 in the kernel's order, not
    # always in exact arithmetic), so the zero frequency adds nothing
    terms = [(k, abs(c)) for k, c in f.items() if k != 0.0]
    lams = np.array([k for k, _ in terms])
    hs = _mp_grid(delta, 4000, near)
    best = mpmath.mpf(0)
    with mpmath.workdps(30):
        for sign in (1, -1):
            def S(h):
                return mpmath.fsum(
                    mpmath.mpf(a) ** e * _mp_phi_pow(phi, sign * k * mpmath.mpf(h), e) for k, a in terms
                )

            def dS(h):
                return mpmath.diff(S, h)

            g = _np_phi_pow(phi, sign * np.multiply.outer(hs, lams), e) @ np.abs(
                np.array([c for _, c in terms])) ** e
            inner = [i for i in range(1, hs.size - 1) if g[i] >= max(g[i - 1], g[i + 1])]
            for i in [0, hs.size - 1] + inner:
                if g[i] < np.max(g) * (1 - 1e-3):
                    continue
                best = max(best, S(hs[i]))
                for a, b in ((i - 1, i), (i, i + 1), (i - 1, i + 1)):
                    if 0 <= a and b < hs.size and dS(hs[a]) > 0 > dS(hs[b]):
                        root = mpmath.findroot(dS, (mpmath.mpf(hs[a]), mpmath.mpf(hs[b])), solver="anderson")
                        best = max(best, S(root))
                        break
    return best


def _cell_gap_bound(f, phi, e):
    """The stated bound on upper^p - sup S: every cell spans at most pi/8 rad
    of the fastest frequency's phase, d_k = pi/8 |lam_k| / lam_max of term
    k's, and the cell bound exceeds the term anywhere in its cell by at most
    omega_k(d_k), a modulus of continuity of phi^e: for alpha, with
    2|sin(t/2)| 1-Lipschitz and at most 2, g 2^(g-1) d (g = alpha e >= 1) or
    d^g; for Steklov, with 1 - sinc 1/2-Lipschitz and at most 1.2173,
    g 1.2173^(g-1) d/2 (g = m e >= 1) or (d/2)^g; for theta, with P =
    |symbol / s|^2 <= 1 (s = sum |theta_j|) and the second-order bound
    within D = 2 M1 r + M2 r^2/2 of P (r = d/2, M_i = sum |j-l|^i |u_j||u_l|,
    u = theta / s), s^e (e/2) D (e >= 2) or s^e D^(e/2)."""
    lam_max = max(abs(k) for k, _ in f.items())
    total = 0.0
    for k, c in f.items():
        d = math.pi / 8 * abs(k) / lam_max
        if phi.kind == "alpha":
            g = phi.param * e
            w = g * 2 ** (g - 1) * d if g >= 1 else d ** g
        elif phi.kind == "steklov":
            g = phi.param * e
            w = g * 1.2173 ** (g - 1) * d / 2 if g >= 1 else (d / 2) ** g
        else:
            s = math.fsum(abs(x) for x in phi.theta)
            u = [abs(x) / s for x in phi.theta]
            pairs = [(abs(j - l), u[j] * u[l]) for j in range(len(u)) for l in range(len(u))]
            m1 = math.fsum(gap * w for gap, w in pairs)
            m2 = math.fsum(gap * gap * w for gap, w in pairs)
            r = d / 2
            D = 2 * m1 * r + m2 * r * r / 2
            w = s ** e * (e / 2 * D if e >= 2 else D ** (e / 2))
        total += abs(c) ** e * w
    return total


@given(f=_spectra(), phi=_builtin_generators(), p=st.floats(0.5, 3.0),
       delta=st.floats(0.05, math.pi))
@settings(max_examples=30, deadline=None)
def test_certified_modulus_brackets_the_mpmath_maximum(f, phi, p, delta):
    # the value is a sample of S (a few ulps of rounding), the upper bound a
    # bound of every exact and computed value of S; the gap is at most the
    # stated bound of the cell bounds' excess, plus rounding
    _omega.cache_clear()
    value, upper = _omega(f, phi, delta, p)
    assert value == omega_phi(f, phi, delta, p)
    if all(k == 0.0 for k, _ in f.items()):
        assert (value, upper) == (0.0, 0.0)
        return
    top = float(_mp_max_power(f, phi, delta, p))
    exact = top ** (1 / p)
    assert value <= exact * (1 + 1e-12)
    assert exact <= upper
    assert upper ** p <= (top + _cell_gap_bound(f, phi, p)) * (1 + 1e-9)


def test_certified_scan_finds_a_maximum_inside_a_cell_away_from_the_best_sample():
    # S(h) = 0.6 (2 - 2 cos 2h) + 0.54 (2 - 2 cos 4h) peaks where cos 2h = -5/18,
    # at S = 529/150: at h* = arccos(-5/18) / 2 inside [0, 2.2], and again just
    # past 2.2, so the grid end samples nearly the top while the grid
    # (16 cells per turn of the frequency 4: 23 cells) misses h* by more
    f = Spectrum.real({2.0: 0.6, 4.0: 0.54 - 0.0j})
    delta, want = 2.2, 529 / 150
    hs = np.linspace(0.0, delta, 24)
    samples = 0.6 * (2 - 2 * np.cos(2 * hs)) + 0.54 * (2 - 2 * np.cos(4 * hs))
    cell = math.acos(-5 / 18) / 2 / (delta / 23)
    assert np.argmax(samples) == 23 and 9.5 < cell < 9.9
    assert np.max(samples) < want * (1 - 1e-4)
    _omega.cache_clear()
    value, upper = _omega(f, phi_alpha(2.0), delta, 1.0)
    assert value == pytest.approx(want, rel=1e-13)
    assert want <= upper


def test_only_builtin_generators_are_certified():
    f = Spectrum.real({1.0: 1.0, -3.0: 0.5j})
    _omega.cache_clear()
    assert _omega(f, _even_custom(), 1.3, 1.5)[1] is None
    assert _omega(f, _even_custom(), 0.0, 1.5) == (0.0, None)
    for make in ("alpha", "theta", "steklov"):
        value, upper = _omega(f, _GENERATORS[make](), 1.3, 1.5)
        assert value <= upper < math.inf
        assert _omega(f, _GENERATORS[make](), 0.0, 1.5) == (0.0, 0.0)


def test_cells_without_a_finite_bound_are_refined(monkeypatch):
    # a generator whose cell bound is inf on every third cell of the scan:
    # the certified scan refines those cells too (never the dense scan),
    # reads the modulus of the generator's own bounds and an upper of inf
    rng = np.random.default_rng(3)
    ph = phi_alpha(1.3)
    holes = []

    def holed(t0, t1, w0, w1, e):
        bounds, slack = ph.cell_sup(t0, t1, w0, w1, e)
        bounds = bounds.copy()
        bounds[::3] = np.inf
        holes.append(np.arange(bounds.shape[0])[::3])
        return bounds, slack

    fake = moduli.PhiFunction("alpha", ph._eval, param=ph.param, sup=ph.sup, cell_sup=holed,
                              derivs=ph.derivs, zeros=ph.zeros, order=ph.order)
    refined = []
    original = moduli._cell_peaks

    def recording(objective, phi, lams, amps_p, p, lo, hi, *rest):
        refined.append((lo, hi))
        return original(objective, phi, lams, amps_p, p, lo, hi, *rest)

    def dense(*args):
        raise AssertionError("dense scan")

    monkeypatch.setattr(moduli, "_cell_peaks", recording)
    monkeypatch.setattr(moduli, "_refine_maxima", dense)
    for p in (1.0, 1.5):
        f = random_spectrum(rng, max_index=12, size=8)
        want = moduli._sampled_objective(f, ph, p, 2.0)
        holes.clear()
        refined.clear()
        got = moduli._sampled_objective(f, fake, p, 2.0)
        hs, (lo, hi) = got[2], refined[0]
        mids = 0.5 * (hs[holes[0]] + hs[holes[0] + 1])
        j = np.searchsorted(lo, mids, side="right") - 1
        assert (j >= 0).all() and (mids < hi[j]).all()
        value = max(np.max(got[3]), np.max(got[5], initial=0.0))
        assert value == pytest.approx(max(np.max(want[3]), np.max(want[5], initial=0.0)), rel=1e-15, abs=0)
        assert want[6] < math.inf and got[6] == math.inf


# ---------------------------------------------------------------------------
# Newton peaks: closed-form derivatives of the builtin generators


@given(phi=_builtin_generators(), t=st.floats(-7.0, 7.0), e=st.floats(0.5, 3.0))
@settings(max_examples=60, deadline=None)
def test_generator_derivatives_match_mpmath(phi, t, e):
    # g' and g'' of g = phi^e against mpmath's numerical derivatives of its
    # own formula for phi at 30 digits, away from the zeros of phi; the
    # error is measured against the 2-jet |g| + |g'| + |g''|, since a
    # derivative near one of its own zeros keeps only that absolute accuracy
    assume(phi(t) >= 1e-2 * phi.sup)
    d1, d2 = phi.derivs(np.array([t]), e)
    with mpmath.workdps(30):
        jet = [mpmath.diff(lambda x: _mp_phi_pow(phi, x, e), mpmath.mpf(t), k) for k in range(3)]
    scale = float(sum(abs(x) for x in jet))
    assert abs(d1[0] - float(jet[1])) <= 1e-13 * scale
    assert abs(d2[0] - float(jet[2])) <= 1e-13 * scale


@given(t=st.floats(1e-8, 2 * math.pi), m=st.integers(1, 3), sign=st.sampled_from([1.0, -1.0]))
@settings(max_examples=80, deadline=None)
def test_steklov_keeps_its_digits_at_small_phases(t, m, sign):
    # 1 - sinc t is summed as a series below |t| = 1, where the subtraction
    # cancels (it was off by 1.3e-4 relative at t = 1e-6); its derivatives
    # against the 2-jet, as above
    with mpmath.workdps(40):
        x = mpmath.mpf(sign * t)
        u = [1 - mpmath.sin(x) / x, (mpmath.sin(x) - x * mpmath.cos(x)) / x ** 2]
        u.append((mpmath.sin(x) - 2 * u[1]) / x)
        want = u[0] ** m
    assert abs(phi_steklov(m)(sign * t) - float(want)) <= 4e-15 * float(want)
    got = _sinc_defect(np.array([sign * t]), 2)
    scale = float(sum(abs(v) for v in u))
    for g, v in zip(got[1:], u[1:]):
        assert abs(g[0] - float(v)) <= 1e-14 * scale


def test_steklov_modulus_at_a_small_step():
    f = Spectrum.real({1.0: 1.0})
    _omega.cache_clear()
    with mpmath.workdps(40):
        want = float(1 - mpmath.sin(mpmath.mpf("1e-5")) / mpmath.mpf("1e-5"))
    assert omega_phi(f, phi_steklov(1), 1e-5) == pytest.approx(want, rel=1e-13)
    assert want == pytest.approx(1.6666667e-11, rel=1e-8)


@pytest.mark.parametrize("f, n_lam, p, alpha", [
    # inverse, integer ladder, n = 3 (alpha p = 1.027): the peak lies inside
    # the last cell, which ends at a cusp of the frequency-6 term at
    # delta = pi/3, where S' is positive again (S' at the cell ends alone
    # missed it by 1.2e-4)
    (Spectrum.real({
        -6.0: -0.01872283082650036 - 0.015736743647907833j, 5.0: 0.029987171601023543 + 0.0075293311145966995j,
        -5.0: -0.021907726190806553 - 0.0218168013423397j, 2.0: 0.1348250918688848 - 0.05033774679049603j,
        -2.0: -0.005431052526147031 + 0.14381306553250145j, 11.0: -1.162282381138886e-05 - 0.00337901433403082j,
        3.0: -0.06675409972044159 + 0.048594776508688195j, -3.0: -0.08233511053382943 - 0.0062041685017497905j,
    }), 3.0, 1.1926581107863552, 0.8611371830274233),
    # inverse, squares ladder, n = 1 (alpha p = 1.654): the peak sits 3.2e-6
    # before a cusp at delta = pi, where S' is positive again (Newton that
    # ignored the cusp lost 2.1e-12)
    (Spectrum.real({
        0.0: 0.3767695007322638 + 0.9263070459183395j, -1.0: -0.30527545555575913 - 0.5020106783923224j,
        196.0: 8.565671190747993e-05 + 0.000160696840270818j, -196.0: -0.0001530057636262231 + 9.87409897913838e-05j,
        169.0: -0.0002376353534679628 + 2.2168265426742605e-05j, -169.0: -0.00020567760052857145 + 0.00012107319212230066j,
        100.0: -0.001457096350558721 - 0.0002095712281138628j, 49.0: -0.0033552514772648466 + 0.004530566614673065j,
        -49.0: -0.003777255921768889 + 0.004185222100096953j, 9.0: 0.04614698510531394 + 0.03803209233235675j,
        -9.0: 0.05896904505090378 - 0.00993156620435346j, 121.0: -0.0005816225651426705 - 0.0005524369012049628j,
        -121.0: -0.0008015506415017486 - 3.143099114277389e-05j,
    }), 1.0, 1.7936975852825572, 0.9221389119561499),
])
def test_certified_peaks_next_to_the_hazards(f, n_lam, p, alpha):
    _omega.cache_clear()
    delta, phi = math.pi / n_lam, phi_alpha(alpha)
    want = float(_mp_max_power(f, phi, delta, p))
    assert omega_phi(f, phi, delta, p) ** p == pytest.approx(want, rel=1e-14)


def test_smooth_alpha_modulus_takes_no_resampling(monkeypatch):
    # alpha p >= 2: phi^p has no cusp, so every refined cell takes Newton
    calls = []
    original = moduli._refine_maxima

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(moduli, "_refine_maxima", counting)
    _omega.cache_clear()
    rng = np.random.default_rng(5)
    for alpha, p in ((2.0, 1.0), (1.3, 1.6), (0.8, 2.5), (3.1, 1.0)):
        for _ in range(10):
            f = random_spectrum(rng, max_index=12, size=8)
            value, upper = _omega(f, phi_alpha(alpha), float(rng.uniform(0.05, math.pi)), p)
            assert value <= upper
    assert calls == []


@given(
    gen=st.one_of(st.floats(1e-3, 1023.0).map(lambda a: ("alpha", a)),
                  st.integers(1, 3000).map(lambda m: ("steklov", m))),
    # a subnormal phase loses bits when alpha halves it
    ts=st.lists(st.floats(-60.0, 60.0, allow_subnormal=False), min_size=1, max_size=8),
)
@settings(max_examples=80, deadline=None)
def test_unprobed_generators_have_the_probed_properties(gen, ts):
    # alpha and Steklov generators skip the construction probe that theta
    # and custom ones get; what it checks holds for them by construction:
    # phi(0) = 0, finite nonnegative values, and phi(-t) = phi(t) bit for
    # bit.  The values agree with mpmath at 30 digits (and 2 more per
    # decade of |t| below 1, where 1 - sin(t)/t cancels) to (8 c + 8) eps
    # relative (c = alpha, or m for Steklov: the power carries c times the
    # error of its base), above the underflow of the power's base, 2^-1074
    # times 2^alpha
    kind, param = gen
    phi = phi_alpha(param) if kind == "alpha" else phi_steklov(param)
    assert phi.is_even
    assert phi(0.0) == 0.0
    t = np.array(ts)
    got = phi(t)
    assert np.isfinite(got).all() and (got >= 0.0).all()
    assert np.array_equal(phi(-t), got)
    floor = 2.0 ** (param - 1074.0) if kind == "alpha" else 2.0 ** -1074
    for x, value in zip(ts, got.tolist()):
        with mpmath.workdps(30 + 2 * max(0, -math.floor(math.log10(abs(x) or 1.0)))):
            want = float(_mp_phi_pow(phi, mpmath.mpf(x), 1))
        assert abs(value - want) <= (8.0 * param + 8.0) * _EPS * want + floor


def _theta_from_roots(*roots):
    """phi_theta of R(w) = (w - 1) prod_i (w - roots_i), whose coefficient
    of w^j is theta_j: phi vanishes at t = -arg w_0 for a root on the unit
    circle, and comes near 0 there for one off it."""
    return phi_theta(np.poly((1.0,) + roots)[::-1].tolist())


def test_builtin_generators_take_no_resampling(monkeypatch):
    # every zero of a builtin generator is a known phase, a cut where the
    # scan splits its cells, so even where phi^p has a cusp (alpha p < 2;
    # a theta root on the unit circle and one near it at p < 2; Steklov at
    # h = 0 with m p < 1) every refined cell takes Newton: neither
    # omega_phi nor OmegaEvaluator reaches _refine_maxima, which the dense
    # scan of a custom generator still calls
    calls = []
    original = moduli._refine_maxima

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(moduli, "_refine_maxima", counting)
    _omega.cache_clear()
    rng = np.random.default_rng(11)
    cases = [(phi_alpha(0.7), 1.5), (phi_alpha(0.4), 1.0), (phi_alpha(1.9), 1.0)]
    for gap in (1e-3, 1e-2, 1e-1):
        near = (1.0 + gap) * np.exp(1j * rng.uniform(-3.0, 3.0))
        cases.append((_theta_from_roots(np.exp(1j * rng.uniform(0.2, 3.0)), near), 1.0))
        cases.append((_theta_from_roots(np.exp(1j * rng.uniform(-3.0, -0.2)), near.conjugate()), 1.5))
    cases += [(phi_steklov(1), 0.5), (phi_steklov(2), 0.4)]
    for phi, p in cases:
        for _ in range(6):
            f = random_spectrum(rng, max_index=12, size=8)
            delta = float(rng.uniform(0.05, math.pi))
            value, upper = _omega(f, phi, delta, p)
            assert value <= upper
            assert OmegaEvaluator(f, phi, p, delta).value(0.5 * delta) <= value * (1 + 1e-12)
    assert calls == []
    omega_phi(random_spectrum(rng, max_index=12, size=8), _even_custom(), 1.0, 1.0)
    assert calls


def _mp_running_max(f, phi, delta, e, queries, near=()):
    """max over |h| <= q of S(h) = sum_k phi(lam_k h)^e |A_k|^e at each q
    of ``queries``: a 32,768-cell numpy grid (with more points toward the
    shifts ``near``, and the queries), and every grid maximum within 1e-3
    of the running maximum refined by mpmath ``findroot`` of S' at 30
    digits where its neighbouring samples bracket a sign change of S'."""
    terms = [(k, abs(c)) for k, c in f.items() if k != 0.0]
    lams = np.array([k for k, _ in terms])
    hs = np.unique(np.concatenate((_mp_grid(delta, 32768, near), queries)))
    out = np.zeros(len(queries))
    with mpmath.workdps(30):
        for sign in (1, -1):
            def S(h):
                return mpmath.fsum(
                    mpmath.mpf(a) ** e * _mp_phi_pow(phi, sign * k * mpmath.mpf(h), e) for k, a in terms
                )

            def dS(h):
                return mpmath.diff(S, h)

            g = _np_phi_pow(phi, sign * np.multiply.outer(hs, lams), e) @ np.abs(
                np.array([c for _, c in terms])) ** e
            run = np.maximum.accumulate(g)
            peaks = []
            for i in range(1, hs.size - 1):
                if g[i] < max(g[i - 1], g[i + 1]) or g[i] < run[i - 1] * (1 - 1e-3):
                    continue
                for a, b in ((i - 1, i), (i, i + 1), (i - 1, i + 1)):
                    if dS(hs[a]) > 0 > dS(hs[b]):
                        root = mpmath.findroot(dS, (mpmath.mpf(hs[a]), mpmath.mpf(hs[b])), solver="anderson")
                        peaks.append((float(root), float(S(root))))
                        break
            for j, q in enumerate(queries):
                out[j] = max(out[j], run[np.searchsorted(hs, q)], *(v for h, v in peaks if h <= q))
    return out


@st.composite
def _next_to_a_zero(draw):
    """(f, phi, p, delta, near): S has a dominant slow term, frequency 1,
    and a small fast one, frequency 8..40, one of whose zeros of phi^p
    lies near the crest of the slow term and inside [0, delta]; phi^p has
    cusps there: alpha p in [0.3, 2), or theta at p = 1 or 1.5 with one
    root on the unit circle and one 1e-3 .. 1e-1 off it.  ``near`` lists
    the shifts of every zero of both terms."""
    p = draw(st.sampled_from([1.0, 1.5]))
    if draw(st.booleans()):
        phi = phi_alpha(draw(st.floats(0.3, 1.999)) / p)
        zeros = [0.0]
    else:
        on, off = draw(st.floats(0.2, 3.0)) * draw(st.sampled_from([-1.0, 1.0])), draw(st.floats(-3.0, 3.0))
        gap = draw(st.floats(1e-3, 1e-1)) * draw(st.sampled_from([-1.0, 1.0]))
        phi = _theta_from_roots(np.exp(1j * on), (1.0 + gap) * np.exp(1j * off))
        zeros = [0.0, abs(on), abs(off)]
    ts = np.linspace(0.0, 2.0 * math.pi, 4097)
    crest = float(ts[np.argmax(phi(ts))])
    fast = float(draw(st.integers(8, 40)))
    phases = [2.0 * math.pi * j + s * z for j in range(42) for z in zeros for s in (1.0, -1.0)]
    h0 = min((t / fast for t in phases if t > 0.0), key=lambda h: abs(h - crest))
    if draw(st.booleans()):
        delta = h0 * (1.0 + draw(st.sampled_from([0.0, 1e-12, 1e-9, 1e-6])))
    else:
        delta = draw(st.floats(h0, 6.0))
    f = Spectrum.real({1.0: 1.0, fast: draw(st.floats(1e-3, 0.3)) * np.exp(1j * draw(st.floats(0.0, 6.0)))})
    near = sorted({t / rate for t in phases for rate in (1.0, fast) if 0.0 < t / rate <= delta})
    return f, phi, p, delta, near


@given(case=_next_to_a_zero())
@settings(max_examples=20, deadline=None)
def test_peaks_next_to_a_zero_match_mpmath(case):
    # a maximum of S next to a cusp of its small fast term is found by
    # Newton's method from the samples of S' that close in on the cusp; the
    # modulus and the evaluator's running maximum agree with mpmath, the
    # running maximum to 1e-13 of itself or of the modulus (S loses its
    # relative digits where a term nearly vanishes: near a root of theta
    # off the unit circle, by cancellation)
    f, phi, p, delta, near = case
    _omega.cache_clear()
    value, upper = _omega(f, phi, delta, p)
    assert value <= upper
    want = float(_mp_max_power(f, phi, delta, p, near))
    assert omega_phi(f, phi, delta, p) ** p == pytest.approx(want, rel=1e-13)
    assert want <= upper ** p
    queries = np.sort(np.concatenate((np.linspace(0.1, 1.0, 10) * delta, [h * (1.0 + 1e-9) for h in near])))
    queries = queries[queries <= delta]
    got = OmegaEvaluator(f, phi, p, delta).power_values(queries)
    np.testing.assert_allclose(got, _mp_running_max(f, phi, delta, p, queries, near), rtol=1e-13, atol=1e-13 * want)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "the peak lies 1.03e-11 left of the cusp, closer than the cusp-end slope "
    "samples (2^-30 of a cell, 4.6e-11 here) reach; the scan reads S at the cusp"))
def test_evaluator_finds_the_peak_just_left_of_a_cusp():
    # S(h) = (2 sin(h/2))^0.75 + 2^-12 (2 |sin 4h|)^0.75: the fast term's
    # zero at h = pi/2 is a cusp, and S' (slow slope 0.49 against the fast
    # term's -0.75 c d^-0.25) falls through zero at d = pi/2 - h = 1.03e-11,
    # where S is 1.29e-12 relative above S(pi/2) (mpmath findroot of S' on
    # [pi/2 - 1e-6, pi/2)); the running maximum at pi/2 is that peak
    f, phi, p = Spectrum.real({1: 1, 8: 2 ** -8}), phi_alpha(0.5), 1.5
    with mpmath.workdps(40):
        def S(h):
            return (2 * abs(mpmath.sin(h / 2))) ** 0.75 + mpmath.mpf(2) ** -12 * (2 * abs(mpmath.sin(4 * h))) ** 0.75

        top = mpmath.pi / 2
        root = mpmath.findroot(lambda h: mpmath.diff(S, h), (top - mpmath.mpf("1e-6"), top - mpmath.mpf("1e-30")),
                               solver="anderson")
        want = float(S(root))
    got = OmegaEvaluator(f, phi, p, math.pi).power_values(np.array([math.pi / 2]))[0]
    assert got == pytest.approx(want, rel=1e-13)


@pytest.mark.parametrize("step", [math.nan, math.inf, -0.5])
def test_omega_phi_rejects_a_non_finite_step(step):
    with pytest.raises(InputDomainError):
        omega_phi(Spectrum.real({1.0: 1.0}), phi_alpha(1.0), step)


@pytest.mark.parametrize("step", [math.nan, math.inf, -0.5])
def test_omega_evaluator_rejects_a_non_finite_range(step):
    with pytest.raises(InputDomainError):
        OmegaEvaluator(Spectrum.real({1.0: 1.0}), phi_alpha(1.0), 1.0, step)


def test_omega_evaluator_guards():
    f, ph = Spectrum.real({1.0: 1.0, -2.0: 0.5}), phi_alpha(1.0)
    for p in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(InputDomainError):
            OmegaEvaluator(f, ph, p, 1.0)
    ev = OmegaEvaluator(f, ph, 1.0, 1.0)
    with pytest.raises(InputDomainError):
        ev.power_values(np.array([0.5, 1.01]))
    # the zero frequency alone, no terms, or a range of 0: the modulus is 0
    for g, top in ((Spectrum.real({0.0: 2.0}), 1.0), (Spectrum.real({}), 1.0), (f, 0.0)):
        ev = OmegaEvaluator(g, ph, 1.5, top)
        assert ev.trivial
        assert ev.power_values(np.array([0.0, 0.5 * top, top])).tolist() == [0.0] * 3
        assert ev.value(0.5 * top) == ev.value(top) == 0.0
        # past the range a trivial evaluator raises as a nontrivial one does
        with pytest.raises(InputDomainError):
            ev.power_values(np.array([5.0, -1.0]))
        with pytest.raises(InputDomainError):
            ev.value(7.0)


@pytest.mark.parametrize("u", [math.nan, math.inf, 0.0])
def test_averaged_omega_rejects_a_non_finite_step(u):
    with pytest.raises(InputDomainError):
        averaged_omega(Spectrum.real({1.0: 1.0}), phi_alpha(1.0), math.pi, weight_cos(), u)


# ---------------------------------------------------------------------------
# the averaged modulus, piece by piece


def _mp_averaged_integral(terms, g_np, g_mp, even, v, u, zeros=(0,)):
    """integral over (0, tau] of M(u s / tau) dv(s) at 30 digits, where M(d)
    = max_{h <= d} S(h) and S(h) = sum_k a_k g(lam_k h) for terms (lam_k,
    a_k), folded to max(S(h), S(-h)) unless ``even``.

    S is split at its terms' zeros and near-zeros ((2 pi j +- z) / |lam_k|
    for z in ``zeros``, phases in [0, pi] where g vanishes or nearly does,
    up to sign and a multiple of 2 pi) and, folded, where its
    two branches cross (bisection in mpmath).  On each piece a numpy grid,
    graded toward both ends, brackets the local maxima, which golden-section
    search refines in mpmath; their records are the plateaus of M, and
    bisection finds where S climbs back through each.  A plateau is its
    value times the v-mass of its interval, a rising stretch mpmath ``quad``
    of S v' split at the zeros and the knots; an atomic weight sums M at
    its atoms."""
    lam = np.array([k for k, _ in terms], dtype=np.float64)
    amp = np.array([a for _, a in terms], dtype=np.float64)

    def sampled(h):
        out = g_np(np.multiply.outer(h, lam)) @ amp
        return out if even else np.maximum(out, g_np(np.multiply.outer(-h, lam)) @ amp)

    with mpmath.workdps(30):
        top = mpmath.mpf(u)

        def branch(h):
            return mpmath.fsum(mpmath.mpf(a) * g_mp(mpmath.mpf(k) * h) for k, a in terms)

        def S(h):
            return branch(h) if even else max(branch(h), branch(-h))

        kinks = {(2 * mpmath.pi * j + sign * z) / abs(mpmath.mpf(k)) for k in lam for z in zeros
                 for sign in (1, -1) for j in range(int(abs(k) * u / 2 / math.pi) + 2)}
        if not even:
            hs = np.linspace(0.0, u, 4001)
            gap = g_np(np.multiply.outer(hs, lam)) @ amp - g_np(np.multiply.outer(-hs, lam)) @ amp
            for i in np.flatnonzero(gap[:-1] * gap[1:] < 0):
                lo, hi = mpmath.mpf(hs[i]), mpmath.mpf(hs[i + 1])
                for _ in range(50):
                    mid = (lo + hi) / 2
                    lo, hi = (mid, hi) if (branch(mid) - branch(-mid)) * gap[i] > 0 else (lo, mid)
                kinks.add(lo)
        edges = sorted({mpmath.mpf(0), top} | {z for z in kinks if 0 < z < top})
        frac = np.unique(np.concatenate((np.linspace(0.0, 1.0, 257), 2.0 ** -np.arange(3.0, 48.0),
                                         1.0 - 2.0 ** -np.arange(3.0, 48.0))))
        peaks, samples = [(mpmath.mpf(0), mpmath.mpf(0)), (top, S(top))], []
        ratio = (mpmath.sqrt(5) - 1) / 2
        for a, b in zip(edges[:-1], edges[1:]):
            xs = float(a) + float(b - a) * frac
            ys = sampled(xs)
            samples.append((xs, ys))
            for i in np.flatnonzero((ys[1:-1] >= ys[:-2]) & (ys[1:-1] >= ys[2:])) + 1:
                # 48 golden steps pin a smooth maximum's value far below 1e-20
                lo, hi = mpmath.mpf(xs[i - 1]), mpmath.mpf(xs[i + 1])
                c, d = hi - ratio * (hi - lo), lo + ratio * (hi - lo)
                fc, fd = S(c), S(d)
                for _ in range(48):
                    if fc >= fd:
                        hi, d, fd = d, c, fc
                        c = hi - ratio * (hi - lo)
                        fc = S(c)
                    else:
                        lo, c, fc = c, d, fd
                        d = lo + ratio * (hi - lo)
                        fd = S(d)
                peaks.append(max((fc, c), (fd, d))[::-1])
        records = []
        for h, m in sorted(peaks):
            if not records or m > records[-1][1]:
                records.append((h, m))
        xs, ys = (np.concatenate(z) for z in zip(*samples))
        crossings = []
        for (h0, m0), (h1, _) in zip(records[:-1], records[1:]):
            if m0 == 0:
                crossings.append(h0)
                continue
            # from the last sample at or below m0 to the next one
            inside = (xs >= float(h0)) & (xs < float(h1))
            below = inside & (ys <= float(m0))
            lo = mpmath.mpf(float(np.max(xs[below]))) if below.any() else h0
            after = inside & (xs > float(lo))
            hi = min(mpmath.mpf(float(np.min(xs[after]))), h1) if after.any() else h1
            for _ in range(50):
                mid = (lo + hi) / 2
                lo, hi = (mid, hi) if S(mid) <= m0 else (lo, mid)
            crossings.append(lo)
        tau = mpmath.mpf(v.tau)
        if v.kind == "atomic":
            def M(d):
                return max([S(d)] + [m for h, m in records if h <= d])
            return mpmath.fsum(mpmath.mpf(j) * M(top * mpmath.mpf(t) / tau)
                               for t, j in zip(v.points, v.jumps) if 0 < t <= v.tau)
        if v.kind == "pwl":
            ts, vs = [mpmath.mpf(x) for x in v.knots_t], [mpmath.mpf(x) for x in v.knots_v]
            slopes = [(vs[i + 1] - vs[i]) / (ts[i + 1] - ts[i]) for i in range(len(ts) - 1)]

            def dens(s):
                return slopes[max(i for i in range(len(slopes)) if ts[i] <= s or i == 0)]

            def mass(s):
                i = max(i for i in range(len(slopes)) if ts[i] <= s or i == 0)
                return vs[i] + slopes[i] * (s - ts[i])
            knots = [t * top / tau for t in ts]
        else:
            cos = v.label == "cos"
            dens = mpmath.sin if cos else (lambda s: mpmath.mpf(1))
            mass = (lambda s: 1 - mpmath.cos(s)) if cos else (lambda s: s)
            knots = []
        total = mpmath.fsum(m * (mass(tau * c / top) - mass(tau * h / top))
                            for (h, m), c in zip(records, crossings + [top]))
        for c, (h, _) in zip(crossings, records[1:]):
            if h > c:
                points = sorted({c, h} | {z for z in list(kinks) + knots if c < z < h})
                total += mpmath.quad(lambda d: S(d) * dens(tau * d / top) * tau / top, points)
        return total


def _averaged_reference(f, phi, v, u, p):
    """``_mp_averaged_integral`` of the integral that ``averaged_omega``
    normalizes, for a builtin generator or ``_even_custom``."""
    terms = [(k, abs(c) ** p) for k, c in f.items() if k != 0.0]
    if phi.kind == "custom":
        return _mp_averaged_integral(
            terms, lambda t: (np.abs(np.sin(0.5 * t)) * (1.0 + 0.6 * np.cos(t) ** 2)) ** p,
            lambda t: (abs(mpmath.sin(t / 2)) * (1 + mpmath.mpf(0.6) * mpmath.cos(t) ** 2)) ** p,
            phi.is_even, v, u,
        )
    zeros = (0,)
    if phi.kind == "theta":
        def g_mp(t):
            # sum_j theta_j z^j at z = e^{-it}, by Horner's rule
            z, acc = mpmath.expj(-t), mpmath.mpc(0)
            for c in reversed(phi.theta):
                acc = acc * z + mpmath.mpc(c)
            return abs(acc) ** p

        # phi vanishes, or comes near 0, at t = -arg w for each root w of
        # sum_j theta_j w^j: a sharp feature inside a piece can fool quad
        with mpmath.workdps(30):
            roots = mpmath.polyroots([mpmath.mpc(c) for c in reversed(phi.theta)], maxsteps=200, extraprec=60)
            zeros = tuple(abs(mpmath.arg(w)) for w in roots if w != 0)
    else:
        def g_mp(t):
            return _mp_phi_pow(phi, t, p)
    return _mp_averaged_integral(terms, lambda t: _np_phi_pow(phi, t, p), g_mp, phi.is_even, v, u, zeros)


# default-seed jackson slack cases (frequency: (re, im)), with (n, weight,
# alpha, p).  In 281, 988 and 201 the running maximum has kinks inside the
# panels of a whole-interval rule, whose error estimate they fooled by
# 9.8e-9, 1.2e-9 and 9.0e-10 on the integral; in 604 a record, evaluated
# again, rounds above its stored value, which must not end its plateau
# there (3.4e-9 on the integral when it did)
_PINNED_SLACK = {
    281: ({6.0: (-0.0005073078985395935, 0.1032061436956649), -6.0: (-0.04464583630512013, 0.09305114055427031),
           8.0: (-0.07308258103785378, 0.04766863332675015), -8.0: (-0.05843737332782716, 0.06479533666043238),
           12.0: (-0.04721363914478571, 0.008513290326102539), -12.0: (0.04708315401934181, -0.009207629502835667),
           3.0: (0.1427325983547748, -0.22220933707957533), -3.0: (-0.24723673681539898, 0.09286323323750324)},
          4, "t", 0.5564265795069512, 1.0),
    988: ({2.0: (0.45208194672675084, 0.2406509173935594), -2.0: (-0.18225897915096165, 0.47861531015781333),
           9.0: (0.12325602384869454, -0.011400113370160161)},
          2, "cos", 0.693091651459385, 1.0),
    201: ({0.0: (0.918916951197898, 0.39445105754853804), 7.0: (-0.02199966981787422, 0.06280206803860156),
           -7.0: (-0.014759704018056496, -0.06488633414918732), 10.0: (0.03426003471898692, 0.0005630776912906126),
           -10.0: (-0.002248038938866389, 0.03419083731589443), 2.0: (-0.11601329933759802, -0.31471994579183316),
           -2.0: (-0.21650266965593093, 0.2561919669588888), 1.0: (-0.09003013171220473, 0.45042238070197144),
           -1.0: (-0.25017857010892575, -0.38522257035589436), 11.0: (-0.020430736565061867, 0.015199708373727961),
           -11.0: (-0.013162341772603458, 0.021799057096546857), -8.0: (0.02530213957585911, -0.06785116986467621)},
          1, "t", 1.3029642575882114, 2.0),
    604: ({0.0: (-0.641400999307937, -0.7672058120783365), 10.0: (-0.0024810837974847556, 0.0020740179814639353),
           3.0: (-0.06851437949373461, -0.025207563021784455), -3.0: (0.0036965321582651737, -0.07291074736217994),
           7.0: (0.0003641897695972904, 0.013962682714750303), -7.0: (-0.0035198214768579323, -0.013516656374714713),
           1.0: (0.19134465930578953, -0.6124978821591529), -1.0: (0.14535613869897387, 0.6250104217025672),
           8.0: (-1.7339258815545e-05, -0.007957462103151382), -8.0: (-0.00795322927795066, -0.000260091955537078)},
          1, "cos", 0.8729014963712521, 1.0),
}


@pytest.mark.parametrize("case", sorted(_PINNED_SLACK))
def test_averaged_modulus_of_pinned_slack_cases_matches_mpmath(case):
    spectrum, n, weight, alpha, p = _PINNED_SLACK[case]
    f = Spectrum.real({k: complex(*c) for k, c in spectrum.items()})
    v = weight_cos() if weight == "cos" else weight_linear(3 * math.pi / 4)
    u, ph = v.tau / n, phi_alpha(alpha)
    got = averaged_omega(f, ph, v.tau, v, u, p) ** p * v.total_mass()
    want = _averaged_reference(f, ph, v, u, p)
    assert abs(got - want) <= 1e-10


def test_averaged_modulus_keeps_a_peak_a_few_percent_of_a_cell_before_a_cusp():
    # seed-7 jackson slack case 636 (alpha p = 1.21): S peaks at h = 0.69397,
    # 12% of a cell's width before the zero 2 pi / 9 of its frequency-9 term
    # at the cell's end, and S' is positive again closer to that zero; S'
    # sampled toward the cusp only from 2^-7 of the width missed the peak,
    # and the integral by 2.0e-8
    spectrum = {
        0.0: (0.8776598555277226, -0.4792840264342815), 4.0: (0.15259592657280202, 0.19561722340867113),
        -4.0: (0.22337605050306392, 0.10795719041537985), 8.0: (0.021184008491376756, -0.08863693740651897),
        -8.0: (0.08156268069036456, 0.04065461852202672), -9.0: (0.05885308531836497, 0.04789931995837689),
        -3.0: (-0.13260102437953664, 0.18233511166881983), 10.0: (-0.049028459783946994, 0.010051775094494437),
        11.0: (0.010777147538445527, -0.03197585199025726), -11.0: (-0.023649636139723276, -0.024068583880796898),
        5.0: (-0.03326405228978963, 0.17310444635229164), -5.0: (0.010135928312703076, -0.17597985532131516),
        -6.0: (0.026396930951861203, 0.09439285697718505),
    }
    f = Spectrum.real({k: complex(*c) for k, c in spectrum.items()})
    v, ph, p = weight_cos(), phi_alpha(0.6054454378165307), 2.0
    u = math.pi / 3
    got = averaged_omega(f, ph, v.tau, v, u, p) ** p * v.total_mass()
    assert abs(got - _averaged_reference(f, ph, v, u, p)) <= 1e-10


_AVERAGED_GENERATORS = dict(_GENERATORS, alpha=lambda: phi_alpha(0.6), alpha2=lambda: phi_alpha(1.4))


@given(
    f=_spectra(),
    kind=st.sampled_from(sorted(_AVERAGED_GENERATORS)),
    p=st.sampled_from([1.0, 1.5, 2.0]),
    v=_weights(),
    u=st.floats(0.05, math.pi),
)
@settings(max_examples=15, deadline=None)
def test_averaged_modulus_matches_the_mpmath_pieces(f, kind, p, v, u):
    # alpha 0.6 at p = 1 puts a cusp of phi^p at every zero of a term, and
    # the theta generator (complex taps) is not even, so S is folded
    ph = _AVERAGED_GENERATORS[kind]()
    got = averaged_omega(f, ph, v.tau, v, u, p)
    want = _averaged_reference(f, ph, v, u, p)
    assert abs(got ** p * v.total_mass() - want) <= 1e-10 + 1e-13 * want
    assert got <= omega_phi(f, ph, u, p) * (1 + 1e-12)


@pytest.mark.parametrize("spectrum, u", [
    ({2.0: 1.03125, 3.0: 2.0, -9.0: 0.453125}, 0.75),
    ({0.0: 1.0, 3.0: 2.0, 10.0: 0.125}, 0.701171875),
])
def test_averaged_modulus_of_a_custom_generator_cuts_at_term_minima(spectrum, u):
    # a rising stretch of S crosses the cusp of a small fast term at its zero
    # 2 pi / |lam|, which sat just outside the Gauss-Legendre nodes of the
    # panels at both levels of bisection: the panel and its halves agreed,
    # and the integral was low by 2.7e-8 and 1.1e-7 before the custom
    # generator's term minima became cuts
    f, v, ph = Spectrum.real(spectrum), weight_cos(), _even_custom()
    got = averaged_omega(f, ph, v.tau, v, u, 1.0) * v.total_mass()
    assert abs(got - _averaged_reference(f, ph, v, u, 1.0)) <= 1e-10


def test_mirrored_spectrum_scans_one_sign(monkeypatch):
    # |A_k|^p equal at k and -k makes S(-h) = S(h) for any generator, so a
    # theta generator that is not even scans h >= 0 only
    ph = _GENERATORS["theta"]()
    assert not ph.is_even
    shifts = []
    original = moduli._objective_grid

    def recording(lams, amps_p, phi, p, hs, *block):
        shifts.append(np.min(hs))
        return original(lams, amps_p, phi, p, hs, *block)

    monkeypatch.setattr(moduli, "_objective_grid", recording)
    mirrored = Spectrum.real({1.0: 0.8 - 0.6j, -1.0: 0.6 + 0.8j, 3.0: 0.3j, -3.0: 0.3})
    lopsided = Spectrum.real({1.0: 0.8 - 0.6j, -1.0: 0.5, 3.0: 0.3j, -3.0: 0.3})
    for f, scans_back in ((mirrored, False), (lopsided, True)):
        _omega.cache_clear()
        shifts.clear()
        omega_phi(f, ph, 2.0, 1.5)
        OmegaEvaluator(f, ph, 1.5, 2.0)
        assert (min(shifts) < 0.0) == scans_back
    # the one-sign scan reads the folded modulus of the oracle's dense grid
    assert abs(omega_phi(mirrored, ph, 2.0, 1.5) - oracle_modulus(mirrored, ph, 2.0, 1.5)) < 1e-6
