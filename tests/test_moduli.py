import itertools
import math
import warnings

import mpmath
import numpy as np
import pytest
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
    stieltjes,
    weight_atomic,
    weight_cos,
    weight_linear,
    weight_pwl,
)
from spapprox.errors import BudgetError
from spapprox.moduli import OmegaEvaluator, _adaptive_block, _objective_grid, _omega
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
    base = {"f": Spectrum.real(entries), "phi": phi_alpha(2.0), "delta": 1.1, "p": 1.5,
            "n_grid": 2048}

    def call(**change):
        args = {**base, **change}
        return omega_phi(args["f"], args["phi"], args["delta"], args["p"], args["n_grid"])

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
        {"n_grid": 4096},
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
