import math

import numpy as np
import pytest

from spapprox import (
    ConvergenceError,
    ExplicitSeqPsi,
    InputDomainError,
    JacksonSetup,
    RadialPsi,
    Spectrum,
    WeightMeasure,
    chernykh_constants,
    jackson_I,
    jackson_bound,
    jackson_constant,
    jackson_sharpness_witness,
    kappa,
    phi_alpha,
    phi_custom,
    phi_steklov,
    sigma_series,
    sine_moment,
    weight_atomic,
    weight_cos,
    weight_linear,
)
from spapprox.jackson import _I_CACHE, scaled_phi_integral
from spapprox.oracle import oracle_quadrature
from spapprox.testing import random_spectrum


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
    # the Gauss-Jacobi route (fractional sine power, density weight) does
    # not read quad_tol, so a second tolerance is a cache hit
    phi = phi_alpha(1.3)
    first = scaled_phi_integral(phi, 1.0, weight_cos(), math.pi, 2.5, quad_tol=1e-11)
    size = len(_I_CACHE)
    again = scaled_phi_integral(phi_alpha(1.3), 1.0, weight_cos(), math.pi, 2.5, quad_tol=1e-6)
    assert again == first
    assert len(_I_CACHE) == size
