import math
import time

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import roots_jacobi

from spapprox import (
    ConvergenceError,
    DifferenceScheme,
    ExplicitSeqPsi,
    FrequencyLadder,
    InputDomainError,
    JacksonSetup,
    RadialPsi,
    Spectrum,
    WeightMeasure,
    chernykh_constants,
    inverse_bound_alpha,
    jackson_I,
    jackson_bound,
    jackson_constant,
    jackson_sharpness_witness,
    kappa,
    phi_alpha,
    phi_custom,
    phi_steklov,
    phi_theta,
    psi_derivative,
    sigma_series,
    sine_moment,
    weight_atomic,
    weight_cos,
    weight_linear,
    weight_pwl,
)
from spapprox import jackson
from spapprox.jackson import (
    _integral_store,
    _jacobi_rule,
    _period_kernel,
    _phi_period_mean,
    _scaled_phi_integrals,
    scaled_phi_integral,
)
from spapprox.oracle import oracle_quadrature
from spapprox.testing import random_spectrum
from spapprox.verify import DEFAULT_SEED, suite_jackson


def setup_v1(n=3, alpha=1.0, p=2.0):
    return JacksonSetup(n=n, phi=phi_alpha(alpha), p=p, tau=math.pi, v=weight_cos())


def test_scan_value_sine_weight_alpha1_p2():
    res = jackson_I(setup_v1())
    assert res.k_star == 3
    assert res.value == pytest.approx(4.0, abs=1e-9)


def test_scan_atomic_weight_endpoint():
    # single unit jump at tau: each candidate integral is phi^p(k tau / n).
    # At k = n the value is phi^p(tau) = sup^p; periodicity makes far
    # candidates smaller (near-zero when k tau/n approaches a full period),
    # so the scan must return the true minimum, not the k = n value.
    va = weight_atomic([math.pi], [1.0], tau=math.pi)
    setup = JacksonSetup(n=2, phi=phi_alpha(1.0), p=2.0, tau=math.pi, v=va)
    res = jackson_I(setup)
    at_n = scaled_phi_integral(phi_alpha(1.0), 2.0, va, math.pi, 1.0)
    assert at_n == pytest.approx(phi_alpha(1.0)(math.pi) ** 2, abs=1e-12)
    assert res.value <= at_n
    assert res.value == pytest.approx(0.0, abs=1e-12)  # k tau/n hits ~2 pi m
    # with a jump inside the monotone range and a scan staying there the
    # k = n candidate is genuinely minimal
    vb = weight_atomic([0.04], [1.0], tau=0.04)
    res_b = jackson_I(JacksonSetup(n=8, phi=phi_alpha(1.0), p=2.0, tau=0.04, v=vb))
    assert res_b.k_star == 8


def test_scan_closed_form_small_grid():
    for s in (1, 2, 3):
        target = 2.0 ** (s + 1) / (s + 1)
        for n in (1, 2, 5):
            res = jackson_I(JacksonSetup(n=n, phi=phi_alpha(float(s)), p=2.0,
                                         tau=math.pi, v=weight_cos()))
            assert res.k_star == n
            assert res.value / 2.0 ** s == pytest.approx(target, abs=1e-8)


def test_scan_min_never_above_first_candidate():
    for alpha, p in ((0.7, 1.0), (1.0, 2.0), (2.2, 1.3)):
        setup = JacksonSetup(n=4, phi=phi_alpha(alpha), p=p, tau=math.pi, v=weight_cos())
        res = jackson_I(setup, quad_tol=1e-9)
        first = scaled_phi_integral(phi_alpha(alpha), p, weight_cos(), math.pi, 1.0)
        assert res.value <= first + 1e-12


def test_sharp_constant_value():
    assert jackson_constant(setup_v1(n=5)) == pytest.approx(2 ** -0.5, abs=1e-9)


def test_sigma_series_integers_zero():
    for s in range(1, 7):
        res = sigma_series(float(s))
        assert res.value == 0.0 and res.terms == 0 and res.tail_bound == 0.0


def test_sigma_series_fractional_converges():
    res = sigma_series(0.5, tol=2e-4, budget=200_000)
    assert res.tail_bound <= 2e-4
    assert res.value == pytest.approx(-0.2505, abs=2e-3)
    res15 = sigma_series(1.5, tol=1e-9, budget=200_000)
    assert res15.tail_bound <= 1e-9
    assert res15.value == pytest.approx(0.0126741, abs=1e-6)
    with pytest.raises(ConvergenceError):
        sigma_series(0.5, tol=1e-12, budget=500)


def test_bound_chain_at_natural_exponents():
    # K^p <= 1/(2^{s-1} I_n(s)) <= (s+1)/(2^{2s} + 2^{s-1}(s+1) sigma(s));
    # at natural s the correction vanishes and the chain closes with equality
    for s in (1, 2, 3):
        for n in (1, 3):
            setup = JacksonSetup(n=n, phi=phi_alpha(float(s)), p=2.0,
                                 tau=math.pi, v=weight_cos())
            I_n = jackson_I(setup).value / 2.0 ** s
            mid = 1.0 / (2.0 ** (s - 1) * I_n)
            sig = sigma_series(float(s)).value
            right = (s + 1) / (2.0 ** (2 * s) + 2.0 ** (s - 1) * (s + 1) * sig)
            assert mid <= right + 1e-12
            assert jackson_constant(setup) ** 2 <= mid + 1e-12


def test_bound_chain_fractional_documented_behavior():
    # s = 0.5: the ordering mid <= right holds with visible slack.
    # s = 1.5: the scanned infimum is attained at k = n where the integral
    # equals 2^{s+1}/(s+1) exactly, which forces any valid correction to be
    # <= 0; the printed series gives a positive value there, so the ordering
    # fails by exactly that quantum.  Both facts are asserted as measured.
    def chain(s, n=2):
        # alpha p / 2 = s via p = 2, alpha = s
        setup = JacksonSetup(n=n, phi=phi_alpha(s), p=2.0, tau=math.pi, v=weight_cos())
        I_n = jackson_I(setup, quad_tol=1e-10).value / 2.0 ** s
        mid = 1.0 / (2.0 ** (s - 1) * I_n)
        sig = sigma_series(s, tol=5e-4, budget=200_000).value
        right = (s + 1) / (2.0 ** (2 * s) + 2.0 ** (s - 1) * (s + 1) * sig)
        return I_n, mid, right, sig

    I_n, mid, right, sig = chain(0.5)
    assert sig < 0
    assert mid <= right + 1e-9
    I_n, mid, right, sig = chain(1.5)
    assert sig > 0
    assert I_n == pytest.approx(2.0 ** 2.5 / 2.5, abs=1e-9)
    assert mid > right  # the documented discrepancy of the printed series


def test_moment_constants():
    assert sine_moment(1) == pytest.approx(math.pi ** 2 - 4.0, abs=1e-12)
    assert sine_moment(2) == pytest.approx(math.pi ** 4 - 12 * math.pi ** 2 + 48.0, abs=1e-10)
    assert kappa(1) == pytest.approx((math.pi ** 2 - 4.0) / 2.0, abs=1e-12)
    for N in range(1, 6):
        quad, _ = oracle_quadrature(lambda u: u ** (2 * N) * math.sin(u), 0.0, math.pi, 1e-10)
        assert 2 * math.factorial(N) * kappa(N) == pytest.approx(quad, abs=1e-8)
    with pytest.raises(InputDomainError):
        kappa(21)


@pytest.mark.parametrize("call", [
    lambda: JacksonSetup(n=1.5, phi=phi_alpha(1.0), p=2.0, tau=math.pi, v=weight_cos()),
    lambda: JacksonSetup(n=math.nan, phi=phi_alpha(1.0), p=2.0, tau=math.pi, v=weight_cos()),
    lambda: sigma_series(1.5, budget=math.nan),
    lambda: sigma_series(1.5, budget=2.5),
    lambda: kappa(2.5),
    lambda: kappa(math.inf),
    lambda: sine_moment(1.5),
    lambda: sine_moment(math.nan),
    lambda: jackson_I(JacksonSetup(n=2, phi=phi_alpha(1.0), p=2.0, tau=math.pi, v=weight_cos()), 1.5),
    lambda: jackson_I(JacksonSetup(n=2, phi=phi_alpha(1.0), p=2.0, tau=math.pi, v=weight_cos()), math.inf),
])
def test_integer_counts_are_typed_errors(call):
    with pytest.raises(InputDomainError):
        call()


def test_integral_float_counts_are_integers():
    assert kappa(3.0) == kappa(3) and sine_moment(2.0) == sine_moment(2)
    assert JacksonSetup(n=2.0, phi=phi_alpha(1.0), p=2.0, tau=math.pi, v=weight_cos()).n == 2


def test_constants_table():
    t = chernykh_constants(alpha=1.0, p=2.0, m=1)
    assert t["sharp_ratio_pow_p"] == pytest.approx(0.5, abs=0)
    assert t["uniform_ratio"] == pytest.approx((4 / 3) ** 0.5 / 2 ** 0.5, abs=1e-15)
    assert t["hilbert_averaged"] == pytest.approx(0.25, abs=0)
    assert t["hilbert_endpoint"] == pytest.approx(math.sqrt(2) / 2, abs=1e-15)
    assert chernykh_constants(m=2)["uniform_ratio_integer"] == pytest.approx(
        (4 - 2 * math.sqrt(2)) / 2, abs=1e-15
    )
    with pytest.raises(InputDomainError):
        chernykh_constants()


def test_sharpness_witness_sine_weight():
    sw = jackson_sharpness_witness(setup_v1(n=4))
    assert sw.equivalence_ok
    assert sw.ratio_averaged == pytest.approx(math.sqrt(2) / 2, abs=1e-9)
    assert sw.ratio_averaged == pytest.approx(sw.closed_averaged, abs=1e-9)
    assert sw.ratio_integral == pytest.approx(sw.closed_integral, abs=1e-9)
    # the constant term never matters
    sw2 = jackson_sharpness_witness(setup_v1(n=4), gamma=123.0 - 7.0j)
    assert sw2.ratio_averaged == pytest.approx(sw.ratio_averaged, abs=1e-10)


def test_sharpness_witness_linear_weight():
    tau = 3 * math.pi / 4
    setup = JacksonSetup(n=2, phi=phi_alpha(1.0), p=1.0, tau=tau, v=weight_linear(tau))
    sw = jackson_sharpness_witness(setup)
    assert sw.equivalence_ok
    ref, _ = oracle_quadrature(lambda t: 2 * math.sin(t / 2), 0.0, tau, 1e-12)
    assert sw.ratio_averaged == pytest.approx(tau / ref, abs=1e-9)


def test_sharpness_witness_with_psi_system():
    psi = RadialPsi(("pow", 2.0), d=1)
    setup = JacksonSetup(n=3, phi=phi_alpha(1.0), p=2.0, tau=math.pi,
                         v=weight_cos(), psi=psi)
    sw = jackson_sharpness_witness(setup)
    assert sw.equivalence_ok
    assert sw.details["nu"] == psi.nu(3) == 3.0 ** -2
    assert sw.ratio_averaged == pytest.approx(sw.closed_averaged, abs=1e-9)


def test_bound_slack_and_trivial_lhs(rng):
    # support below the band: lhs = 0 <= any rhs
    f0 = Spectrum.real({0.0: 1.0, 1.0: 0.5, -1.0: 0.5})
    b0 = jackson_bound(JacksonSetup(n=5, phi=phi_alpha(1.0), p=2.0,
                                    tau=math.pi, v=weight_cos()), f0)
    assert b0.lhs == 0.0 and b0.rhs >= 0.0
    for _ in range(20):
        f = random_spectrum(rng, max_index=10)
        setup = JacksonSetup(n=int(rng.integers(1, 6)), phi=phi_alpha(float(rng.uniform(0.5, 2.0))),
                             p=float(rng.choice([1.0, 2.0])), tau=math.pi, v=weight_cos())
        b = jackson_bound(setup, f, quad_tol=1e-6)
        assert b.slack >= -1e-10


def test_bound_with_psi_class_constant():
    psi = ExplicitSeqPsi.geometric(0.5)
    setup = JacksonSetup(n=3, phi=phi_alpha(1.0), p=2.0, tau=math.pi,
                         v=weight_cos(), psi=psi)
    b = jackson_bound(setup)
    assert b.lhs is None
    assert b.rhs == pytest.approx(jackson_constant(setup) * psi.nu(3), abs=1e-12)


@settings(max_examples=25, deadline=None)
@given(
    coefs=st.dictionaries(
        st.integers(-12, 12), st.tuples(st.floats(-4.0, 4.0), st.floats(-4.0, 4.0)).map(lambda c: complex(*c)),
        min_size=1, max_size=8,
    ),
    n=st.integers(1, 5),
    p=st.sampled_from([1.0, 2.0]),
    s=st.one_of(st.just(1.0), st.floats(0.5, 3.0)),
)
def test_class_form_bound_is_nu_times_the_plain_bound_of_the_derivative(coefs, n, p, s):
    # the class form of a spectrum f, for the harmonic system (s = 1) and
    # power sequences: rhs is nu(n) times the plain-form rhs of its
    # psi-derivative f' (the integer ladder has lam_n = n, so both read the
    # averaged modulus at tau / n), and E_n(f) <= nu(n) E_n(f') (psi falls
    # in |k|) with the plain inequality for f' gives slack >= 0
    psi = ExplicitSeqPsi.harmonic() if s == 1.0 else ExplicitSeqPsi.power(s)
    f = Spectrum.lattice(coefs)
    common = dict(n=n, phi=phi_alpha(1.3), p=p, tau=math.pi, v=weight_cos())
    b = jackson_bound(JacksonSetup(**common, psi=psi), f, quad_tol=1e-6)
    plain = jackson_bound(JacksonSetup(**common), psi_derivative(f, psi), quad_tol=1e-6)
    assert b.factors["nu"] == psi.nu(n)
    assert b.slack >= -1e-10
    assert b.rhs == pytest.approx(psi.nu(n) * plain.rhs, rel=1e-15, abs=0)


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
def test_even_theta_period_mean_matches_mpmath(p):
    # the real scheme (1, -3, 2) is even; its period mean of |sigma|^p,
    # sigma(t) = 1 - 3 e^{-it} + 2 e^{-2it}, comes from the quadrature route
    phi = phi_theta([1.0, -3.0, 2.0])
    assert phi.is_even
    v = weight_cos()
    res = jackson_I(JacksonSetup(n=1, phi=phi, p=p, tau=math.pi, v=v))
    with mpmath.workdps(30):
        def sigma_p(t):
            return abs(1 - 3 * mpmath.expj(-t) + 2 * mpmath.expj(-2 * t)) ** p

        mean = mpmath.quad(sigma_p, [0, mpmath.pi, 2 * mpmath.pi]) / (2 * mpmath.pi)
    assert res.certificate["tail_mean"] == pytest.approx(float(mean) * v.total_mass(), rel=1e-10)
    # the classical second difference: |sigma| = 2 - 2 cos t, mean C(2, 1) = 2
    classical = jackson_I(JacksonSetup(n=1, phi=phi_theta(DifferenceScheme.classical(2)), p=1.0,
                                       tau=math.pi, v=v))
    assert classical.certificate["tail_mean"] == pytest.approx(4.0, rel=1e-10)


def test_steklov_generator_scan_runs():
    setup = JacksonSetup(n=2, phi=phi_steklov(1), p=2.0, tau=math.pi, v=weight_cos())
    res = jackson_I(setup)
    assert res.value > 0
    assert res.certificate["k_range"] == [2, 128]


def test_integral_cache_tells_custom_generators_apart():
    # two custom generators with the default label: the second is four
    # times the first, and so is its integral against the sine density
    # (int_0^pi |sin(t/2)| sin t dt = 4/3)
    one = phi_custom(lambda t: np.abs(np.sin(0.5 * t)))
    four = phi_custom(lambda t: 4.0 * np.abs(np.sin(0.5 * t)))
    assert one.label == four.label
    a = scaled_phi_integral(one, 1.0, weight_cos(), math.pi, 1.0)
    b = scaled_phi_integral(four, 1.0, weight_cos(), math.pi, 1.0)
    assert a == pytest.approx(4.0 / 3.0, rel=1e-10)
    assert b == pytest.approx(16.0 / 3.0, rel=1e-10)


def test_integral_cache_tells_custom_weights_apart():
    # custom density weights made and dropped one after another, so a new
    # weight may land at a freed address; each must get its own integral
    # (int_0^pi 4 sin^2(t/2) dt = 2 pi per unit of density)
    phi = phi_alpha(2.0)

    def flat(scale):
        return WeightMeasure(
            math.pi, "density", label="flat",
            vprime=lambda t: scale * np.ones_like(np.asarray(t, dtype=np.float64)),
        )

    for i in range(12):
        scale = 1.0 + i % 3
        w = flat(scale)
        got = scaled_phi_integral(phi, 1.0, w, math.pi, 1.0)
        assert got == pytest.approx(2.0 * math.pi * scale, rel=1e-10)
        del w


def test_integral_cache_keys_quad_tol_on_adaptive_route():
    # a kinked custom generator takes the adaptive Gauss-Legendre route; a
    # loose-tolerance result must not be served to a tight request.
    # int_0^pi |sin 3t| sin t dt = 3 sqrt(3) / 4
    phi = phi_custom(lambda t: np.abs(np.sin(3.0 * t)))
    exact = 3.0 * math.sqrt(3.0) / 4.0
    loose = scaled_phi_integral(phi, 1.0, weight_cos(), math.pi, 1.0, quad_tol=1e-1)
    assert abs(loose - exact) > 1e-6
    tight = scaled_phi_integral(phi, 1.0, weight_cos(), math.pi, 1.0, quad_tol=1e-9)
    assert tight == pytest.approx(exact, abs=1e-8)


def test_integral_cache_shares_jacobi_route_across_quad_tol():
    # the Gauss-Jacobi route (sine powers, fractional and even, against a
    # density) does not read quad_tol, so a second tolerance, a request of
    # its own, returns the identical value
    for alpha in (1.3, 2.0):
        first = scaled_phi_integral(phi_alpha(alpha), 1.0, weight_cos(), math.pi, 2.5, quad_tol=1e-11)
        again = scaled_phi_integral(phi_alpha(alpha), 1.0, weight_cos(), math.pi, 2.5, quad_tol=1e-6)
        assert again == first


# ---------------------------------------------------------------------------
# batched scan, bounded caches, fail-fast series: independent references


@pytest.mark.parametrize(
    "a, b", [(0.0, 0.7), (1.7, 1.7), (3.9, 3.9), (0.0, 3.9), (2.5, 0.3)]
)
def test_jacobi_rule_matches_scipy(a, b):
    nodes, weights = _jacobi_rule(a, b)
    ref_nodes, ref_weights = roots_jacobi(24, a, b)
    np.testing.assert_allclose(nodes, ref_nodes, rtol=0, atol=1e-14)
    np.testing.assert_allclose(weights, ref_weights, rtol=1e-12, atol=0)
    assert _jacobi_rule.cache_info().maxsize is not None


@pytest.mark.parametrize("gamma", [0.5, 1.3, 1.7, 3.0, 3.9])
def test_period_kernel_matches_scipy_weights(gamma):
    # scipy's (gamma, gamma) Jacobi weights times (pi/2)^{2 gamma} g(u)^gamma,
    # where sin u = u (pi - u) g(u) at u = (pi/2)(1 + x_j)
    x, w = roots_jacobi(24, gamma, gamma)
    u = 0.5 * math.pi * (1.0 + x)
    ref = w * (0.5 * math.pi) ** (2 * gamma) * (np.sin(u) / (u * (math.pi - u))) ** gamma
    kernel = _period_kernel(gamma)
    np.testing.assert_allclose(kernel, ref, rtol=1e-12, atol=0)
    assert not kernel.flags.writeable
    assert _period_kernel.cache_info().maxsize is not None


def _one_plus_t(t):
    return 1.0 + np.asarray(t)


# weights of the mpmath reference: name -> (tau, knots of a piecewise-linear
# weight or None); "pwl" starts left of 0, and "pwl-zero" has a knot 1e-5 of
# a period before 0.8 pi, the first sine zero of ratio 2.5
_REFERENCE_WEIGHTS = {
    "cos": (math.pi, None),
    "cos2": (2.0, None),
    "t": (3 * math.pi / 4, None),
    "pwl": (math.pi, ([-0.5, 1.0, 2.0, math.pi], [0.0, 0.5, 0.7, 2.0])),
    "pwl-zero": (math.pi, ([0.0, 1.0, 0.8 * math.pi * (1 - 1e-5), math.pi], [0.0, 0.5, 0.7, 2.0])),
    "cos004": (0.04, None),
    "t004": (0.04, None),
    "1+t": (math.pi, None),
}


def _reference_weight(name):
    tau, knots = _REFERENCE_WEIGHTS[name]
    if knots is not None:
        return weight_pwl(*knots)
    if name == "1+t":
        return WeightMeasure(tau, "density", label="1+t", vprime=_one_plus_t)
    return weight_linear(tau) if name.startswith("t") else weight_cos(tau)


def _mpmath_scan_integral(ratio, weight, gamma):
    """integral_0^tau (2 |sin(r t / 2)|)^gamma v'(t) dt at 30 digits, split
    at the sine zeros 2 pi m / r and at the interior knots: tanh-sinh for
    the cusps of fractional powers at the zeros, Gauss-Legendre (faster at
    r tau = 400) for smooth even powers."""
    tau_f, knots = _REFERENCE_WEIGHTS[weight]
    with mpmath.workdps(30):
        r = mpmath.mpf(ratio)
        gamma = mpmath.mpf(gamma)
        tau = mpmath.pi if weight == "cos" else mpmath.mpf(tau_f)
        inner = []
        if knots is not None:
            ts, vs = [mpmath.mpf(x) for x in knots[0]], [mpmath.mpf(x) for x in knots[1]]
            inner = [t for t in ts if 0 < t < tau]

        def density(t):
            if weight.startswith("cos"):
                return mpmath.sin(t)
            if weight == "1+t":
                return 1 + t
            if knots is None:
                return 1
            i = max(j for j in range(len(ts) - 1) if ts[j] <= t)
            return (vs[i + 1] - vs[i]) / (ts[i + 1] - ts[i])

        def f(t):
            return (2 * abs(mpmath.sin(r * t / 2))) ** gamma * density(t)

        zeros = [2 * mpmath.pi * m / r for m in range(1, int(ratio) + 1)]
        points = sorted([mpmath.mpf(0), tau] + inner + [z for z in zeros if z < tau])
        even = abs(gamma - mpmath.nint(gamma)) < 1e-12
        return float(mpmath.quad(f, points, method="gauss-legendre" if even else "tanh-sinh"))


# (ratio, weight, alpha, p), all on the Gauss-Jacobi route: fractional
# alpha p; even alpha p = 2 s at ratios 1, 7/3, 1 + 1e-9 and r tau = 400 for
# s = 1 and 5; even powers at r tau <= 0.1, where (2 - 2 cos r t)^s ~
# (r t)^2s; and fractional powers against a piecewise-linear weight with a
# knot 1e-5 of a period before the first zero of ratio 2.5
_MPMATH_CASES = [
    (ratio, weight, alpha, p)
    for weight, alpha, p in [("cos", 1.3, 1.0), ("t", 0.7, 2.0), ("cos", 0.55, 1.0)]
    for ratio in [1.0, 2.5, 7.0, 13.0 / 3.0]
] + [
    (ratio, weight, 2 * s / 1.7, 1.7)
    for s in range(1, 6)
    for weight in ("cos", "cos2", "t", "pwl")
    for ratio in [1.0, 7.0 / 3.0, 1.0 + 1e-9] + ([400 / _REFERENCE_WEIGHTS[weight][0]] if s in (1, 5) else [])
] + [
    (ratio, weight, 2 * s / 1.7, 1.7)
    for s in (3, 5)
    for weight in ("cos004", "t004")
    for ratio in [1.0, 7.0 / 3.0]
] + [
    # fractional powers where the shared full-period kernel carries the
    # integral: the scan-end ratios of an n = 8 scan (63.875 and 64, up to
    # 32 full periods), ratio 2 at tau = pi (one full period and no partial
    # piece), and a custom density
    (ratio, weight, alpha, p)
    for weight, alpha, p in [("cos", 1.3, 1.0), ("t", 0.7, 2.0), ("cos", 0.55, 1.0), ("1+t", 1.3, 1.0)]
    for ratio in ([1.0, 2.5, 7.0] if weight == "1+t" else []) + [2.0, 63.875, 64.0]
] + [
    (ratio, "pwl-zero", gamma, 1.0)
    for gamma in (0.55, 1.3)
    for ratio in [1.0, 2.5, 7.0, 13.0 / 3.0]
]


@pytest.mark.parametrize("ratio, weight, alpha, p", _MPMATH_CASES)
def test_scaled_integral_matches_mpmath_quad(ratio, weight, alpha, p):
    # fractional gamma = alpha p takes full sine periods and a partial last
    # piece for most ratios
    v = _reference_weight(weight)
    got = scaled_phi_integral(phi_alpha(alpha), p, v, v.tau, ratio)
    assert got == pytest.approx(_mpmath_scan_integral(ratio, weight, alpha * p), rel=1e-12, abs=0)


@settings(max_examples=20, deadline=None)
@given(
    gamma=st.floats(0.5, 4.0),
    ratio=st.floats(1.0, 64.0),
    weight=st.sampled_from(["cos", "t"]),
)
def test_jacobi_route_matches_mpmath_for_any_fractional_power(gamma, ratio, weight):
    # any exponent, even integers included, and any ratio of an n = 1 scan:
    # full periods through the shared kernel, the partial piece through the
    # (0, gamma) rule and, past 0.8 of a period, graded sub-pieces
    v = _reference_weight(weight)
    got = scaled_phi_integral(phi_alpha(gamma), 1.0, v, v.tau, ratio)
    assert got == pytest.approx(_mpmath_scan_integral(ratio, weight, gamma), rel=1e-12, abs=0)


@pytest.mark.parametrize("fraction", [0.99, 0.99999])
def test_partial_piece_ending_near_a_zero(fraction):
    # 0.5 power against the unit density with no full period: the partial
    # piece spans this fraction of a period, and the cusp of the next zero
    # sits just past its end.  One (0, gamma) rule, whose smooth factor
    # (sin u / u)^gamma sees that cusp as a near singularity, is off by
    # 2.1e-8 at 0.99 and 1.5e-5 at 0.99999, so graded Gauss-Legendre
    # sub-pieces finish the piece past 0.8 of a period
    v = _reference_weight("t")
    ratio = 2 * math.pi * fraction / v.tau
    got = scaled_phi_integral(phi_alpha(0.5), 1.0, v, v.tau, ratio)
    assert got == pytest.approx(_mpmath_scan_integral(ratio, "t", 0.5), rel=1e-12, abs=0)


@settings(max_examples=30, deadline=None)
@given(
    gamma=st.floats(0.5, 4.0),
    ratio=st.floats(0.5, 16.0),
    at=st.floats(0.01, 0.99),
    gap=st.floats(-9.0, -3.0),
    rises=st.lists(st.floats(0.1, 1.0), min_size=4, max_size=4),
)
def test_crowded_knots_keep_their_digits(gamma, ratio, at, gap, rises):
    # a piecewise-linear weight whose second segment is 10^gap long: each
    # segment is integrated between its own knots, so the steep segment's
    # slope multiplies no difference of two integrals from 0 (such a
    # difference cancels to about 2e-8 relative at gaps near 1e-9)
    tau = math.pi
    first = at * tau / 2
    ts = [0.0, first, first + 10.0 ** gap, tau / 2 + first, tau]
    vs = np.concatenate(([0.0], np.cumsum(rises)))
    got = scaled_phi_integral(phi_alpha(gamma), 1.0, weight_pwl(ts, vs), tau, ratio)
    with mpmath.workdps(30):
        r, g = mpmath.mpf(ratio), mpmath.mpf(gamma)
        want = mpmath.mpf(0)
        for a, b, rise in zip(ts[:-1], ts[1:], rises):
            a, b = mpmath.mpf(a), mpmath.mpf(b)
            zeros = [2 * mpmath.pi * m / r for m in range(1, int(ratio * tau / (2 * math.pi)) + 2)]
            points = [a] + [z for z in zeros if a < z < b] + [b]
            want += mpmath.mpf(rise) / (b - a) * mpmath.quad(lambda t: (2 * abs(mpmath.sin(r * t / 2))) ** g, points)
    assert got == pytest.approx(float(want), rel=1e-13, abs=0)


@pytest.mark.parametrize("gamma, ratio", [(40.3, 3.9), (200.0, 3.9), (200.0, 1.0)])
def test_jacobi_route_holds_for_high_powers(gamma, ratio):
    # past gamma = 32 the power's peak at mid-period narrows like
    # 1/sqrt(gamma), so a partial piece's (0, gamma) rule reaches less far
    # and graded sub-pieces carry the rest (0.95 of a period at ratio 3.9,
    # half a period at ratio 1); past gamma = 84 the (gamma, gamma) rule's
    # constant comes from log-gamma.  mpmath splits at the sine zeros and
    # around each peak, in steps of its width
    got = scaled_phi_integral(phi_alpha(gamma), 1.0, weight_cos(), math.pi, ratio)
    with mpmath.workdps(30):
        r, g = mpmath.mpf(ratio), mpmath.mpf(gamma)
        width = 2 / (r * mpmath.sqrt(g))
        points = {mpmath.mpf(0), mpmath.pi}
        for m in range(int(ratio / 2) + 1):
            points.add(2 * mpmath.pi * m / r)
            points.update((2 * m + 1) * mpmath.pi / r + j * width for j in range(-8, 9))
        ref = mpmath.quad(lambda t: (2 * abs(mpmath.sin(r * t / 2))) ** g * mpmath.sin(t),
                          sorted(x for x in points if 0 <= x <= mpmath.pi))
    assert got == pytest.approx(float(ref), rel=1e-12, abs=0)


def _mpmath_by_periods(ratio, weight, tau, gamma):
    """integral_0^tau (2 |sin(r t / 2)|)^gamma v'(t) dt at 30 digits for
    v' = sin t ("cos") or 1 ("t"), period by period.  Period m starts at
    t_m = m P, P = 2 pi / r, and sin(t_m + u) = sin t_m cos u + cos t_m sin u,
    so the M full periods are two one-period integrals (cos u and sin u,
    split at the middle zero) against the plain sums of sin t_m and cos t_m;
    against the unit density, M times one period.  The partial piece is
    split at its zeros."""
    with mpmath.workdps(30):
        r, g, tau = mpmath.mpf(ratio), mpmath.mpf(gamma), mpmath.mpf(tau)
        period = 2 * mpmath.pi / r
        full = int(mpmath.floor(tau / period))

        def quad(density, points):
            return mpmath.quad(lambda t: (2 * abs(mpmath.sin(r * t / 2))) ** g * density(t), points)

        one = [0, period / 2, period]
        start = full * period
        piece = [start] + ([start + period / 2] if start + period / 2 < tau else []) + [tau]
        if weight == "t":
            return float(full * quad(lambda t: 1, one) + quad(lambda t: 1, piece))
        sines = mpmath.fsum(mpmath.sin(m * period) for m in range(full))
        cosines = mpmath.fsum(mpmath.cos(m * period) for m in range(full))
        return float(quad(mpmath.cos, one) * sines + quad(mpmath.sin, one) * cosines
                     + quad(mpmath.sin, piece))


@settings(max_examples=50, deadline=None)
@given(
    gamma=st.floats(0.5, 4.0),
    weight=st.sampled_from(["cos", "t"]),
    tau=st.floats(0.5, 8.0),
    periods=st.floats(10.0, 500.0),
)
def test_closed_form_period_sums_match_mpmath(gamma, weight, tau, periods):
    # the builtin densities sum their full periods in closed form; a sine
    # density is nonnegative on [0, tau] only for tau <= pi
    if weight == "cos":
        tau = min(tau, math.pi)
    v = weight_cos(tau) if weight == "cos" else weight_linear(tau)
    assert v.period_sums is not None
    ratio = 2 * math.pi * periods / tau
    got = scaled_phi_integral(phi_alpha(gamma), 1.0, v, tau, ratio)
    assert got == pytest.approx(_mpmath_by_periods(ratio, weight, tau, gamma), rel=1e-12, abs=0)


def _counting(density, points):
    def counted(t):
        points.append(np.size(t))
        return density(t)
    return counted


def test_closed_form_evaluates_the_density_only_on_partial_pieces():
    # 128 to 255 full periods per ratio at tau = pi: the sine density sums
    # them in closed form and is evaluated at the 24 nodes of each partial
    # piece alone; the same density as a custom function is evaluated at
    # every full period's nodes too
    ratios = np.array([256.5, 300.25, 511.0])
    full = np.floor(ratios / 2)
    builtin, custom = [], []
    v = weight_cos()
    v.vprime = _counting(v.vprime, builtin)
    jackson._alpha_scan_integrals_jacobi(1.3, 1.0, v, math.pi, ratios)
    assert sum(builtin) == 24 * len(ratios)
    w = WeightMeasure(math.pi, "density", vprime=_counting(np.sin, custom))
    custom.clear()  # the construction's nonnegativity check
    jackson._alpha_scan_integrals_jacobi(1.3, 1.0, w, math.pi, ratios)
    assert sum(custom) == 24 * int((full + 1).sum())


@pytest.mark.parametrize("builtin, density", [
    (weight_cos(), lambda t: np.sin(t)),
    (weight_linear(math.pi), lambda t: np.ones_like(t)),
])
def test_custom_density_route_agrees_with_the_closed_form(builtin, density):
    # the ratios k / 8 of an n = 8 scan: a custom density takes the
    # per-node route, its builtin twin the closed-form period sums
    custom = WeightMeasure(math.pi, "density", vprime=density)
    assert custom.period_sums is None and builtin.period_sums is not None
    ratios = np.arange(8, 8 * 64 + 1) / 8.0
    for gamma in (0.55, 1.3, 3.3):
        got = _scaled_phi_integrals(phi_alpha(gamma), 1.0, builtin, math.pi, ratios)
        ref = _scaled_phi_integrals(phi_alpha(gamma), 1.0, custom, math.pi, ratios)
        np.testing.assert_allclose(got, ref, rtol=1e-13, atol=0)


@pytest.mark.parametrize("alpha, p", [(0.7, 1.5), (1.3, 1.0), (0.5, 2.0), (2.5, 1.5)])
def test_min_gap_of_a_tie_is_zero_not_negative(alpha, p):
    # unit density on [0, pi]: I(k) is pi times the period mean of phi^p
    # for every integer k, so all 64 scanned values tie up to rounding
    res = jackson_I(JacksonSetup(n=1, phi=phi_alpha(alpha), p=p, tau=math.pi,
                                 v=weight_linear(math.pi)))
    gamma = alpha * p
    mean = float(mpmath.gamma(gamma + 1) / mpmath.gamma(gamma / 2 + 1) ** 2)
    assert res.value == pytest.approx(math.pi * mean, rel=1e-13)
    assert res.k_star == 1
    assert 0.0 <= res.certificate["min_gap"] <= 1e-13 * res.value


def _wobble(shift):
    return FrequencyLadder(lambda k: k + shift * math.sin(k), label="wobble")


_ATOMIC = weight_atomic([0.3, 1.1, 2.0, 2.9], [0.5, 1.0, 0.25, 0.75], tau=math.pi)


@settings(max_examples=25, deadline=None)
@given(
    generator=st.sampled_from(["fractional", "even", "theta"]),
    weight=st.sampled_from(["cos", "t", "pwl", "atomic"]),
    n=st.integers(1, 5),
    shift=st.sampled_from([0.0, 0.3, 0.45]),
    chunk=st.integers(1, 9),
    seed=st.integers(0, 2 ** 16),
)
def test_batched_integrals_independent_of_chunking_and_order(generator, weight, n, shift, chunk, seed):
    # two routes: sine powers, fractional and even, against cos, t and pwl
    # weights take Gauss-Jacobi rules, everything else (theta, atomic sums)
    # the batched weight integrals; integer (shift 0) and non-integer
    # ladders; each ratio's value in a shuffled, re-chunked batch equals its
    # batch of one
    phi, p = {
        "fractional": (phi_alpha(1.3), 1.0),
        "even": (phi_alpha(2.0 / 1.7), 1.7),
        "theta": (phi_theta([1.0, -2.0 + 0.5j, 1.0 - 0.5j]), 1.5),
    }[generator]
    v = {"cos": weight_cos(), "t": weight_linear(3 * math.pi / 4),
         "pwl": _reference_weight("pwl"), "atomic": _ATOMIC}[weight]
    ladder = _wobble(shift)
    ratios = [ladder.value(k) / ladder.value(n) for k in range(n, 6 * n + 1)]
    order = np.random.default_rng(seed).permutation(len(ratios))
    shuffled = [ratios[i] for i in order]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(jackson, "_JACOBI_CHUNK", chunk)
        mp.setattr(jackson, "_SMOOTH_CHUNK", chunk)
        _integral_store.cache_clear()
        batch = _scaled_phi_integrals(phi, p, v, v.tau, shuffled)
    for r, val in zip(shuffled, batch):
        _integral_store.cache_clear()
        assert val == pytest.approx(scaled_phi_integral(phi, p, v, v.tau, r), rel=1e-14, abs=0)


def test_atomic_scan_is_the_plain_sum_over_atoms():
    # sum_j (2 |sin(r t_j / 2)|)^(alpha p) J_j, in plain Python floats
    alpha, p, n = 1.3, 1.5, 3
    points, jumps = [0.3, 1.1, 2.0, 2.9], [0.5, 1.0, 0.25, 0.75]
    v = weight_atomic(points, jumps, tau=math.pi)

    def reference(r):
        return math.fsum((2.0 * abs(math.sin(r * t / 2.0))) ** (alpha * p) * J
                         for t, J in zip(points, jumps))

    ratios = [1.0, 1.5, 7.0 / 3.0, 10.0]
    _integral_store.cache_clear()
    got = _scaled_phi_integrals(phi_alpha(alpha), p, v, math.pi, ratios)
    for r, val in zip(ratios, got):
        assert val == pytest.approx(reference(r), rel=1e-15, abs=0)
    res = jackson_I(JacksonSetup(n=n, phi=phi_alpha(alpha), p=p, tau=math.pi, v=v))
    refs = [reference(k / n) for k in range(n, 64 * n + 1)]
    assert res.value == pytest.approx(min(refs), rel=1e-15, abs=0)
    assert res.k_star == n + int(np.argmin(refs))


# (alpha, p, weight, n) -> (k_star, value) of the per-k scan loop that the
# batched scan replaced, on the ladder lam_k = k + 0.3 sin k
_WOBBLE_REFERENCE = {
    (1.3, 1.0, "cos", 3): (192, 2.8800493977695094),
    (0.7, 2.0, "t", 2): (2, 2.727237611085975),
    (1.0, 2.0, "cos", 3): (3, 4.0),
    (2.0, 1.5, "t", 2): (2, 4.842626101603879),
    (1.5, 2.0, "cos", 5): (5, 6.400000000000008),
}


@pytest.mark.parametrize("case", sorted(_WOBBLE_REFERENCE))
def test_scan_on_wobble_ladder_matches_per_k_loop(case):
    alpha, p, weight, n = case
    v = weight_cos() if weight == "cos" else weight_linear(3 * math.pi / 4)
    _integral_store.cache_clear()
    res = jackson_I(JacksonSetup(n=n, phi=phi_alpha(alpha), p=p, tau=v.tau, v=v,
                                 ladder=_wobble(0.3)))
    k_star, value = _WOBBLE_REFERENCE[case]
    assert res.k_star == k_star
    assert res.value == pytest.approx(value, rel=1e-13)


def test_integral_store_is_bounded():
    # one store per request, at most 8 requests: a ninth evicts the least
    # recently used
    assert _integral_store.cache_info().maxsize == 8
    _integral_store.cache_clear()
    phi = phi_alpha(2.0)  # alpha p = 2: the Gauss-Jacobi route
    weights = [weight_linear(1.0 + 0.25 * j) for j in range(9)]
    for v in weights:
        scaled_phi_integral(phi, 1.0, v, v.tau, 2.0)
    assert _integral_store.cache_info().currsize == 8
    misses = _integral_store.cache_info().misses
    scaled_phi_integral(phi, 1.0, weights[-1], weights[-1].tau, 2.0)
    assert _integral_store.cache_info().misses == misses
    scaled_phi_integral(phi, 1.0, weights[0], weights[0].tau, 2.0)
    assert _integral_store.cache_info().misses == misses + 1


def _stored(store) -> dict:
    """A request's integral store read as {ratio: integral}."""
    return dict(zip(store.ratios.tolist(), store.values.tolist()))


def test_integral_store_is_emptied_past_its_ratio_bound():
    # a store holding more than 2^12 ratios is emptied before the next scan
    # of its request; one holding 2^12 is not
    assert jackson._STORE_RATIOS == 2 ** 12
    phi, v = phi_alpha(2.0), weight_cos()
    ratios = [1.0 + k / 64 for k in range(2 ** 12 + 1)]
    _integral_store.cache_clear()
    first = _scaled_phi_integrals(phi, 1.0, v, math.pi, ratios[:-1])
    store = _integral_store(phi, 1.0, v, math.pi, None)  # the Gauss-Jacobi route's store
    assert len(_stored(store)) == 2 ** 12
    assert _scaled_phi_integrals(phi, 1.0, v, math.pi, ratios) == first + [_stored(store)[ratios[-1]]]
    assert len(_stored(store)) == 2 ** 12 + 1
    assert scaled_phi_integral(phi, 1.0, v, math.pi, ratios[0]) == first[0]
    assert list(_stored(store)) == [ratios[0]]


def test_fractional_sweep_computes_each_ratio_once(monkeypatch):
    # the n-sweep of one generator shares one store: each distinct ratio
    # k / n of the sweeps n = 1..8 goes through the Gauss-Jacobi scan once
    seen = []
    original = jackson._alpha_scan_integrals_jacobi

    def counting(alpha, p, v, tau, ratios):
        seen.extend((v, tau, r) for r in ratios.tolist())
        return original(alpha, p, v, tau, ratios)

    monkeypatch.setattr(jackson, "_alpha_scan_integrals_jacobi", counting)
    _integral_store.cache_clear()
    v = weight_cos()
    for n in range(1, 9):
        jackson_I(JacksonSetup(n=n, phi=phi_alpha(1.3), p=1.0, tau=math.pi, v=v))
    # the period mean is a closed form, so the scans' request is the only one
    assert {(w, tau) for w, tau, _ in seen} == {(v, math.pi)}
    scans = [r for _, _, r in seen]
    assert len(scans) == len(set(scans))
    assert set(scans) == {k / n for n in range(1, 9) for k in range(n, 64 * n + 1)}


@pytest.mark.filterwarnings("error")  # ratio 0 stays clear of the sine-period arithmetic
@pytest.mark.parametrize("ratio", [-1.0, -1e-300, math.nan, math.inf, -math.inf])
def test_scaled_integral_rejects_negative_and_non_finite_ratios(ratio):
    _integral_store.cache_clear()
    for phi, p in ((phi_alpha(1.3), 1.0), (phi_alpha(1.0), 2.0), (phi_steklov(1), 1.0)):
        with pytest.raises(InputDomainError):
            scaled_phi_integral(phi, p, weight_cos(), math.pi, ratio)
        with pytest.raises(InputDomainError):
            _scaled_phi_integrals(phi, p, weight_cos(), math.pi, [2.0, ratio])
        assert scaled_phi_integral(phi, p, weight_cos(), math.pi, 0.0) == 0.0
    # nothing but the ratios 0 was stored (the Gauss-Jacobi route's stores,
    # of the alpha generators, are not keyed on quad_tol)
    assert _integral_store.cache_info().currsize == 3
    assert all(list(_stored(_integral_store(phi, p, weight_cos(), math.pi, tol))) == [0.0]
               for phi, p, tol in ((phi_alpha(1.3), 1.0, None), (phi_alpha(1.0), 2.0, None),
                                   (phi_steklov(1), 1.0, 1e-11)))


def test_array_ladder_past_its_end_is_an_input_error():
    lad = FrequencyLadder([1.0, 2.0, 3.0, 4.0])
    assert lad.value(4) == 4.0 and list(lad.values(4)) == [0.0, 1.0, 2.0, 3.0, 4.0]
    f = Spectrum.real({1.0: 1.0, 3.0: 0.5})
    calls = [
        lambda: jackson_I(JacksonSetup(n=1, phi=phi_alpha(1.0), p=2.0, tau=math.pi,
                                       v=weight_cos(), ladder=lad)),
        lambda: inverse_bound_alpha(f, 1.0, 2.0, lad, 6),
        lambda: lad.value(9),
        lambda: lad.values(5),
    ]
    for call in calls:
        with pytest.raises(InputDomainError, match="ladder of 4 values"):
            call()
    # the scan stays within a long enough ladder; shorter ladders still build
    res = jackson_I(JacksonSetup(n=1, phi=phi_alpha(1.0), p=2.0, tau=math.pi, v=weight_cos(),
                                 ladder=FrequencyLadder([float(k) for k in range(1, 65)])))
    assert res.k_star == 1 and res.value == pytest.approx(4.0, abs=1e-9)
    for values in ([], [1.0], [1.0, 2.0], [1.0, 2.0, 3.0]):
        assert list(FrequencyLadder(values).values(len(values))) == [0.0] + values
    with pytest.raises(InputDomainError, match="increasing"):
        FrequencyLadder([1.0, 3.0, 2.0])


def _values_per_index(ladder, n):
    return np.array([ladder.value(k) for k in range(n + 1)], dtype=np.float64)


@settings(max_examples=80, deadline=None)
@given(
    kind=st.sampled_from(["integer", "array", "rule"]),
    steps=st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=40),
    n=st.integers(-3, 45),
)
def test_ladder_values_are_the_per_index_values_to_the_bit(kind, steps, n):
    # values(n) equals value(0..n) bit for bit on every ladder kind (empty
    # for n < 0); past an array ladder's end both raise the error of its
    # first missing index
    arr = np.cumsum(steps).tolist()
    ladder = {
        "integer": FrequencyLadder.integer(),
        "array": FrequencyLadder(arr),
        "rule": FrequencyLadder(lambda k: k + 0.3 * math.sin(k)),
    }[kind]
    if kind == "array" and n > len(arr):
        for call in (ladder.values, lambda n: _values_per_index(ladder, n)):
            with pytest.raises(InputDomainError, match=f"index {len(arr) + 1} is past the end"):
                call(n)
        return
    got, want = ladder.values(n), _values_per_index(ladder, n)
    assert got.dtype == want.dtype and got.shape == want.shape == (max(n + 1, 0),)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("phi, p, v", [
    (phi_alpha(1.3), 1.0, weight_cos()),  # Gauss-Jacobi, closed-form period sums
    (phi_alpha(0.7), 2.0, _reference_weight("pwl")),  # Gauss-Jacobi, knot segments
    (phi_alpha(1.3), 1.5, _ATOMIC),  # atom sums
    (phi_theta([1.0, -2.0 + 0.5j, 1.0 - 0.5j]), 1.5, weight_linear(3 * math.pi / 4)),  # adaptive
], ids=["jacobi", "pwl", "atomic", "adaptive"])
def test_scan_values_are_the_same_from_a_cold_warm_or_shuffled_store(phi, p, v):
    # an n = 3 scan reads the same values from an empty store as from one
    # that holds the scan already, and from one filled by shuffled pieces of
    # it, each ratio the value its piece computed: a row of a batch sums
    # its own nodes in one order wherever it sits, on every route
    ratios = np.arange(3, 64 * 3 + 1) / 3.0
    _integral_store.cache_clear()
    cold = _scaled_phi_integrals(phi, p, v, v.tau, ratios)
    assert _scaled_phi_integrals(phi, p, v, v.tau, ratios) == cold
    _integral_store.cache_clear()
    shuffled = ratios[np.random.default_rng(5).permutation(ratios.shape[0])]
    pieces = {}
    for piece in np.array_split(shuffled, 7):
        pieces.update(zip(piece.tolist(), _scaled_phi_integrals(phi, p, v, v.tau, piece)))
    filled = _scaled_phi_integrals(phi, p, v, v.tau, ratios)
    assert filled == [pieces[r] for r in ratios.tolist()]
    assert filled == cold


def test_kinked_custom_generator_at_default_arguments():
    # |sin 3t| has kinks at pi/3 and 2 pi/3 inside (0, pi); against the
    # sine density the integral is 3 sqrt(3) / 4
    got = scaled_phi_integral(
        phi_custom(lambda t: np.abs(np.sin(3 * t))), 1, weight_cos(), math.pi, 1
    )
    with mpmath.workdps(30):
        ref = float(mpmath.quad(
            lambda t: abs(mpmath.sin(3 * t)) * mpmath.sin(t),
            [0, mpmath.pi / 3, 2 * mpmath.pi / 3, mpmath.pi],
        ))
    assert ref == pytest.approx(3 * math.sqrt(3) / 4, rel=1e-15)
    assert got == pytest.approx(ref, rel=1e-11)


def test_pwl_weight_scan_with_interior_cusps_at_default_arguments():
    # (2 |sin(r t / 2)|)^1.3 has cusps at the sine zeros 2 pi m / r inside
    # the segments of the piecewise-linear weight; mpmath integrates the
    # minimizing ratio r = k* / n split at the knot t = 1 and at those zeros
    v = weight_pwl([0.0, 1.0, math.pi], [0.0, 0.5, 2.0])
    res = jackson_I(JacksonSetup(n=2, phi=phi_alpha(1.3), p=1.0, tau=math.pi, v=v))
    assert res.k_star == 5
    with mpmath.workdps(30):
        r = mpmath.mpf(res.k_star) / 2
        slopes = (mpmath.mpf(0.5), mpmath.mpf(1.5) / (mpmath.pi - 1))

        def f(t):
            return (2 * abs(mpmath.sin(r * t / 2))) ** mpmath.mpf(1.3) * slopes[t > 1]

        zeros = [2 * mpmath.pi * m / r for m in range(1, int(r) + 1)]
        points = sorted([mpmath.mpf(0), mpmath.mpf(1), mpmath.pi] + [z for z in zeros if z < mpmath.pi])
        ref = float(mpmath.quad(f, points))
    assert res.value == pytest.approx(ref, rel=1e-12)


def test_period_mean_is_cached(monkeypatch):
    # mean of (2 |sin(t/2)|)^g over a period: 2^g Gamma((g+1)/2) / (sqrt(pi) Gamma(g/2+1));
    # g = 0.9137 is the closed form Gamma(g+1) / Gamma(g/2+1)^2 of the same
    # value; g = 2 and g = 6 are even powers (2 - 2 cos t)^s, whose means
    # C(2, 1) = 2 and C(6, 3) = 20 are exact; no sine power reads a
    # quadrature route, the first time or again
    g = 0.9137
    closed = 2.0 ** g * math.gamma((g + 1) / 2) / (math.sqrt(math.pi) * math.gamma(g / 2 + 1))
    first = {key: _phi_period_mean(phi_alpha(key), 1.0) for key in (g, 2.0, 6.0)}
    assert first[g] == pytest.approx(closed, rel=1e-13)
    assert first[2.0] == 2.0
    assert first[6.0] == 20.0

    def recompute(*args, **kwargs):
        raise AssertionError("period mean recomputed")

    monkeypatch.setattr(jackson, "_alpha_scan_integrals_jacobi", recompute)
    monkeypatch.setattr(jackson, "weight_integrals", recompute)
    for key, mean in first.items():
        assert _phi_period_mean(phi_alpha(key), 1.0) == mean


@settings(max_examples=40, deadline=None)
@given(alpha=st.floats(0.05, 8.0), p=st.floats(1.0, 4.0))
def test_period_mean_of_sine_powers_matches_mpmath(alpha, p):
    # the mean over a period of (2 |sin(t/2)|)^(alpha p), folded onto [0, pi]
    gamma = alpha * p
    with mpmath.workdps(30):
        ref = mpmath.quad(lambda t: (2 * mpmath.sin(t / 2)) ** gamma, [0, mpmath.pi]) / mpmath.pi
    assert _phi_period_mean(phi_alpha(alpha), p) == pytest.approx(float(ref), rel=1e-13)


def test_sine_power_scan_needs_no_quadrature(monkeypatch):
    # alpha p = 4 and 1.3: whole n = 8 scans against cos, t, pwl, a custom
    # density and t on [0, 0.04] (where (2 - 2 cos r t)^2 ~ (r t)^4) take
    # Gauss-Jacobi rules only; atomic weights reach the weight integrals
    class Quadrature(Exception):
        pass

    def quadrature(*args, **kwargs):
        raise Quadrature

    custom = WeightMeasure(math.pi, "density", vprime=lambda t: 1.0 + np.asarray(t))
    monkeypatch.setattr(jackson, "weight_integrals", quadrature)
    _integral_store.cache_clear()
    for v in (weight_cos(), weight_linear(2.0), _reference_weight("pwl"), custom, weight_linear(0.04)):
        for alpha, p in ((2.0, 2.0), (1.3, 1.0)):
            res = jackson_I(JacksonSetup(n=8, phi=phi_alpha(alpha), p=p, tau=v.tau, v=v))
            assert math.isfinite(res.value) and 8 <= res.k_star <= 512
    with pytest.raises(Quadrature):
        jackson_I(JacksonSetup(n=8, phi=phi_alpha(2.0), p=2.0, tau=math.pi, v=_ATOMIC))


def test_jacobi_scan_store_is_shared_across_quad_tol(monkeypatch):
    # the Gauss-Jacobi route (every alpha generator against a density or
    # piecewise-linear weight) does not read quad_tol, so its store is one
    # whatever quad_tol: after a scan at quad_tol = 1e-6 (190 ratios at n =
    # 3), the scan at the default computes none, and reads the same values
    computed = []
    original = jackson._alpha_scan_integrals_jacobi

    def counting(alpha, p, v, tau, ratios):
        computed.extend(ratios.tolist())
        return original(alpha, p, v, tau, ratios)

    monkeypatch.setattr(jackson, "_alpha_scan_integrals_jacobi", counting)
    _integral_store.cache_clear()
    setup = JacksonSetup(n=3, phi=phi_alpha(1.37), p=2.0, tau=math.pi, v=weight_cos())
    loose = jackson_I(setup, quad_tol=1e-6)
    assert len(computed) == len(set(computed)) == 190
    computed.clear()
    tight = jackson_I(setup)
    assert computed == []
    assert (tight.value, tight.k_star, tight.certificate["min_gap"]) == (
        loose.value, loose.k_star, loose.certificate["min_gap"])
    assert _integral_store.cache_info().currsize == 1


def test_sigma_series_default_arguments_fail_fast():
    # at s = 1/2 the tail bound falls about as 1/a, so the default tolerance
    # 1e-8 is out of reach of the default budget of 1e6 terms
    t0 = time.perf_counter()
    with pytest.raises(ConvergenceError):
        sigma_series(0.5)
    assert time.perf_counter() - t0 < 1.0


@pytest.mark.parametrize("s, tol, budget", [
    (math.inf, 1e-8, 1000), (math.nan, 1e-8, 1000), (-1.5, 1e-8, 1000),
    (2.5, 0.0, 10), (2.5, -1.0, 10), (2.5, math.nan, 10), (2.5, math.inf, 10),
    (2.5, 1e-8, -5), (2.0, 0.0, 10), (2.0, 1e-8, -1),
])
def test_sigma_series_rejects_bad_arguments_before_summing(monkeypatch, s, tol, budget):
    def no_summing(*args):
        raise AssertionError("the series was summed")

    monkeypatch.setattr(jackson, "_sigma_partial_sum", no_summing)
    with pytest.raises(InputDomainError):
        sigma_series(s, tol, budget)


@pytest.mark.parametrize("s, tol, budget", [(0.5, 1e-8, 3000), (2.5, 1e-8, 0)])
def test_sigma_series_keeps_convergence_errors_for_valid_arguments(s, tol, budget):
    with pytest.raises(ConvergenceError):
        sigma_series(s, tol, budget)


def _sigma_setup(s):
    """First term index, parity flag and tail-bound factor of the series."""
    a0 = int(s / 2.0) + 1
    odd = 1.0 if int(s) % 2 == 1 else 0.0
    return a0, odd, 2.0 * odd + 4.0 * 1.21


def _sigma_series_loop(s, tol, budget):
    """The correction series summed term by term with a scalar inner walk,
    as the numpy code does it in blocks; the arithmetic and its order are
    the same, so the results must be equal."""
    a0, odd, factor = _sigma_setup(s)
    c = 1.0
    for m in range(2 * a0):
        c *= (s - m) / (m + 1.0)
    wc = 1.0
    for a in range(1, a0 + 1):
        wc *= (2.0 * a - 1.0) / (2.0 * a)
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
        bound = factor * wc_next * abs(c_next) * (2.0 * a + 3.0) / (2.0 * s) + neglected
        c, wc, a = c_next, wc_next, a + 1
        if bound < tol:
            return total, bound, terms, True
    return total, bound, terms, False


@pytest.mark.parametrize("s,tol,budget", [
    (0.5, 2e-4, 200_000), (1.5, 1e-8, 200_000), (2.3, 1e-8, 10_000),
    (3.7, 1e-12, 10_000), (0.5, 1e-12, 500),
])
def test_sigma_series_blocks_match_scalar_loop(s, tol, budget):
    value, bound, terms, converged = _sigma_series_loop(s, tol, budget)
    assert jackson._sigma_partial_sum(s, *_sigma_setup(s), tol, budget) == (value, bound, terms)
    if converged:
        res = sigma_series(s, tol, budget)
        assert (res.value, res.tail_bound, res.terms) == (value, bound, terms)
    else:
        with pytest.raises(ConvergenceError):
            sigma_series(s, tol, budget)


@pytest.mark.parametrize("s", [0.5, 0.7, 1.5, 2.3, 3.7])
def test_sigma_bound_floor_is_the_bound_without_neglected_part(s):
    # the closed form after `terms` terms equals the summed bound up to
    # rounding and the neglected part of the inner walks (1e-17 per term)
    a0, odd, factor = _sigma_setup(s)
    for terms in (1, 10, 300):
        _, bound, done = jackson._sigma_partial_sum(s, a0, odd, factor, 0.0, terms)
        floor = jackson._sigma_bound_floor(s, a0 + terms, factor)
        assert done == terms
        assert abs(bound - floor) <= 1e-12 * bound + 1e-15


def _sigma_reference(s: float) -> float:
    """sum_{a >= a0} -C(s, 2a) 4^{-a} [odd 2 C(2a, a)
    - sum_{i=1}^{a} C(2a, a-i) 4 / (2 i^2 - 1)], a0 = floor(s/2) + 1,
    odd = 1 when floor(s) is odd, by mpmath.nsum at 30 digits with exact
    integer binomials."""
    a0 = int(s / 2) + 1
    odd = 1 if int(s) % 2 == 1 else 0
    with mpmath.workdps(30):
        sm = mpmath.mpf(s)

        def term(a):
            a = int(a)
            inner = mpmath.fsum(
                mpmath.mpf(math.comb(2 * a, a - i)) / (2 * i * i - 1) for i in range(1, a + 1)
            )
            central = mpmath.mpf(math.comb(2 * a, a))
            return -mpmath.binomial(sm, 2 * a) * (odd * 2 * central - 4 * inner) / mpmath.mpf(4) ** a

        return float(mpmath.nsum(term, [a0, mpmath.inf]))


@pytest.mark.parametrize("s", [2.5, 3.3, 3.7])
def test_sigma_series_matches_mpmath_nsum(s):
    res = sigma_series(s, tol=1e-12)
    assert res.tail_bound <= 1e-12
    assert abs(res.value - _sigma_reference(s)) <= res.tail_bound


def test_verify_jackson_suite_passes_at_the_default_seed():
    # the acceptance tests run the other four verify suites; this one runs
    # the Jackson suite as `spapprox verify jackson` does
    summary = suite_jackson()
    assert summary["suite"] == "jackson" and summary["seed"] == DEFAULT_SEED
    assert [c["name"] for c in summary["checks"]] == [
        "scan-closed-form", "sharp-constant", "correction-series-integer-zeros",
        "moment-consistency", "sharpness-witness", "bound-slack-nonnegative",
    ]
    assert summary["passed"], [c for c in summary["checks"] if not c["passed"]]
