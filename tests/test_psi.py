import contextlib
import dataclasses
import gc
import hashlib
import itertools
import math
import time
import weakref

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spapprox import (
    AxisGeom,
    AxisPow,
    CertificationError,
    ClassSpec,
    ConvergenceError,
    ExplicitSeqPsi,
    ExplicitTablePsi,
    InputDomainError,
    PhasedPsi,
    ProductPsi,
    RadialPsi,
    Spectrum,
    build_charseq,
    class_widths,
    psi_derivative,
    psi_integral,
    rearrangement,
    tail_sum,
)
from spapprox import psi as psi_module
from spapprox.classes import _SIGMA_STEP_CAP, SIGMA_SCAN_BUDGET, order_estimate_check
from spapprox.oracle import oracle_charseq
from spapprox.psi import (
    _axis_index,
    _orbit_norms,
    _orbit_representatives,
    _pow,
    _power_tail,
    _seq_position,
    lattice_norm,
    rearrangement_padded,
)


def test_charseq_geometric_radial_levels():
    psi = RadialPsi(("geom", 0.5), d=1, origin="exact")
    cs = build_charseq(psi, levels=4)
    assert cs.eps == (1.0, 0.5, 0.25, 0.125)
    assert cs.delta == (1, 3, 5, 7)
    assert cs.g(0) == frozenset()
    assert cs.g(2) == {(0,), (1,), (-1,)}


@pytest.mark.parametrize("d", [1.5, 0.0, math.nan, math.inf])
def test_radial_dimension_must_be_a_positive_integer(d):
    # 1.5 was truncated to 1; NaN and inf raised ValueError and OverflowError
    with pytest.raises(InputDomainError):
        RadialPsi(("pow", 2.0), d=d)


def test_radial_geometric_profile_whose_far_values_underflow():
    # 0.2**512 is 0.0 in double precision; the profile is still valid
    psi = RadialPsi(("geom", 0.2), d=1, origin="exact")
    head = [value for value, _ in itertools.islice(psi.stream(), 5)]
    assert head == pytest.approx([1.0, 0.2, 0.2, 0.04, 0.04], rel=1e-15)
    assert list(rearrangement(psi, 5)) == head
    # callable profiles are still spot-checked
    with pytest.raises(InputDomainError):
        RadialPsi(lambda t: float(t), d=1)


@pytest.mark.parametrize("psi", [
    ProductPsi([AxisGeom(0.2)]),
    RadialPsi(("geom", 0.2), d=1, origin="exact"),
], ids=["product", "radial"])
def test_underflow_fails_fast(psi):
    # 0.2**463 underflows to 0.0 after about 925 items; an infinite system
    # cannot certify anything past that, so both calls raise at once
    for call in (lambda: rearrangement(psi, 1000), lambda: build_charseq(psi, levels=470)):
        start = time.perf_counter()
        with pytest.raises(CertificationError):
            call()
        assert time.perf_counter() - start < 1.0


def test_charseq_hyperbolic_counts_match_full_sort():
    hyp = ProductPsi([AxisPow(1), AxisPow(1)])
    cs = build_charseq(hyp, levels=6)
    ocs = oracle_charseq(hyp, 40)
    assert cs.eps[:6] == ocs.eps[:6]
    assert cs.delta[:6] == ocs.delta[:6]
    # first counts of the hyperbolic cross |k1' k2'| <= n
    assert cs.delta[:4] == (9, 21, 33, 49)


def test_charseq_single_level_table():
    t = ExplicitTablePsi({0: 0.5, 1: 0.5, 2: 0.5})
    cs = build_charseq(t, levels=1)
    assert cs.eps == (0.5,) and cs.delta == (3,)
    with pytest.raises(CertificationError):
        build_charseq(t, levels=2)


def test_rearrangement_examples():
    psi = RadialPsi(("pow", 1.0), d=1)
    assert list(rearrangement(psi, 6)) == [1.0, 1.0, 1.0, 0.5, 0.5, 1 / 3]
    assert list(rearrangement(psi, 1)) == [1.0]
    prod = ProductPsi([AxisGeom(0.5), AxisGeom(1 / 3)])
    vals = rearrangement(prod, 200)
    # oracle: full sort over a generous box
    box_vals = sorted(
        (prod.magnitude((a, b)) for a in range(-65, 66) for b in range(-65, 66)),
        reverse=True,
    )[:200]
    assert list(vals) == box_vals
    assert vals[:3].tolist() == [1.0, 0.5, 0.5]


def test_product_stream_nonincreasing_long():
    prod = ProductPsi([AxisPow(1), AxisPow(2)])
    prev = math.inf
    for v, _ in itertools.islice(prod.stream(), 100_000):
        assert v <= prev
        prev = v


# first 64 (value, index) pairs, recorded before the product, radial and
# sequence streams shared one walk
PINNED_PRODUCT = [
    (1.0, [(0, 0), (0, -1), (0, 1), (-1, 0), (-1, -1), (-1, 1), (1, 0), (1, -1), (1, 1)]),
    (0.5, [(-2, 0), (-2, -1), (-2, 1), (2, 0), (2, -1), (2, 1)]),
    (0.3333333333333333, [(-3, 0), (-3, -1), (-3, 1), (3, 0), (3, -1), (3, 1)]),
    (0.25, [(0, -2), (0, 2), (-1, -2), (-1, 2), (1, -2), (1, 2), (-4, 0), (-4, -1), (-4, 1),
            (4, 0), (4, -1), (4, 1)]),
    (0.2, [(-5, 0), (-5, -1), (-5, 1), (5, 0), (5, -1), (5, 1)]),
    (0.16666666666666666, [(-6, 0), (-6, -1), (-6, 1), (6, 0), (6, -1), (6, 1)]),
    (0.14285714285714285, [(-7, 0), (-7, -1), (-7, 1), (7, 0), (7, -1), (7, 1)]),
    (0.125, [(-2, -2), (-2, 2), (2, -2), (2, 2), (-8, 0), (-8, -1), (-8, 1), (8, 0),
             (8, -1), (8, 1)]),
    (0.1111111111111111, [(0, -3), (0, 3), (-1, -3)]),
]
PINNED_HARMONIC_INDICES = [
    0, -1, 1, -2, 2, -3, 3, -4, 4, -5, 5, -6, 6, -7, 7, -8, 8, -9, 9, -10, 10, -11, 11, -12,
    12, -13, 13, -14, 14, -15, 15, -16, 16, -17, 17, -18, 18, -19, 19, -20, 20, -21, 21,
    -22, 22, -23, 23, -24, 24, -25, 25, -26, 26, -27, 27, -28, 28, -29, 29, -30, 30, -31,
    31, -32,
]
PINNED_HARMONIC_VALUES = [
    1.0, 0.5, 0.3333333333333333, 0.25, 0.2, 0.16666666666666666, 0.14285714285714285,
    0.125, 0.1111111111111111, 0.1, 0.09090909090909091, 0.08333333333333333,
    0.07692307692307693, 0.07142857142857142, 0.06666666666666667, 0.0625,
    0.058823529411764705, 0.05555555555555555, 0.05263157894736842, 0.05,
    0.047619047619047616, 0.045454545454545456, 0.043478260869565216, 0.041666666666666664,
    0.04, 0.038461538461538464, 0.037037037037037035, 0.03571428571428571,
    0.034482758620689655, 0.03333333333333333, 0.03225806451612903, 0.03125,
    0.030303030303030304, 0.029411764705882353, 0.02857142857142857, 0.027777777777777776,
    0.02702702702702703, 0.02631578947368421, 0.02564102564102564, 0.025,
    0.024390243902439025, 0.023809523809523808, 0.023255813953488372, 0.022727272727272728,
    0.022222222222222223, 0.021739130434782608, 0.02127659574468085, 0.020833333333333332,
    0.02040816326530612, 0.02, 0.0196078431372549, 0.019230769230769232,
    0.018867924528301886, 0.018518518518518517, 0.01818181818181818, 0.017857142857142856,
    0.017543859649122806, 0.017241379310344827, 0.01694915254237288, 0.016666666666666666,
    0.01639344262295082, 0.016129032258064516, 0.015873015873015872, 0.015625,
]


def test_product_and_sequence_streams_pinned():
    prod = list(itertools.islice(ProductPsi([AxisPow(1), AxisPow(2)]).stream(), 64))
    assert prod == [(v, k) for v, ks in PINNED_PRODUCT for k in ks]
    harm = list(itertools.islice(ExplicitSeqPsi.harmonic().stream(), 64))
    assert harm == [(v, (k,)) for v, k in zip(PINNED_HARMONIC_VALUES, PINNED_HARMONIC_INDICES)]


def test_product_sign_multiplicities_match_symmetry():
    # distinct axis magnitudes: multiplicity of each level is 2^(d - zeros)
    prod = ProductPsi([AxisGeom(0.5), AxisGeom(1 / 3)])
    cs = build_charseq(prod, levels=8)
    for eps, shell in zip(cs.eps, cs.shells):
        q = sum(1 for x in shell[0] if x == 0)
        assert len(shell) == 2 ** (2 - q)


def test_psi_integral_examples():
    f = Spectrum.lattice({1: 1.0})
    ident = ExplicitTablePsi({k: 1.0 for k in range(-4, 5)})
    assert psi_integral(f, ident) == f
    half = ExplicitTablePsi({1: 0.5})
    assert psi_integral(f, half).coefficient(1) == 0.5 + 0j
    with pytest.raises(InputDomainError):
        psi_derivative(Spectrum.lattice({2: 1.0}), half)


def test_psi_round_trip_exact(rng):
    psi = ProductPsi([AxisPow(1), AxisPow(1)])
    for _ in range(100):
        ks = [tuple(map(int, rng.integers(-6, 7, size=2))) for _ in range(8)]
        f = Spectrum.lattice({k: complex(*rng.normal(size=2)) for k in set(ks)}, d=2)
        back = psi_derivative(psi_integral(f, psi), psi)
        worst = max(abs(back.coefficient(k) - c) for k, c in f.items())
        assert worst < 1e-15


def test_phase_only_changes_transforms(rng):
    base = RadialPsi(("geom", 0.5), d=1, origin="exact")
    phased = PhasedPsi(base, lambda k: complex(math.cos(k[0]), math.sin(k[0])))
    assert build_charseq(phased, levels=3).eps == build_charseq(base, levels=3).eps
    f = Spectrum.lattice({k: complex(*rng.normal(size=2)) for k in range(-3, 4)})
    fi = psi_integral(f, phased)
    for k, c in f.items():
        assert abs(abs(fi.coefficient(k)) - abs(c) * base.magnitude(k)) < 1e-15
    back = psi_derivative(fi, phased)
    assert max(abs(back.coefficient(k) - c) for k, c in f.items()) < 1e-14


def test_oracle_charseq_agreement_radial():
    psi = RadialPsi(("pow", 2.0), d=2, r=2.0)
    cs = build_charseq(psi, levels=8)
    ocs = oracle_charseq(psi, 32)
    assert cs.eps[:8] == ocs.eps[:8]
    assert cs.delta[:8] == ocs.delta[:8]


def test_tail_sum_examples():
    val, bound = tail_sum(ExplicitSeqPsi.geometric(0.5, first=0.5), 2.0, 2, tol=1e-12)
    assert val == pytest.approx(1 / 12, abs=1e-14)
    assert bound <= 1e-12
    val, bound = tail_sum(ExplicitSeqPsi.power(2.0), 1.0, 1, tol=1e-8)
    assert val == pytest.approx(math.pi ** 2 / 6, abs=1e-8)
    with pytest.raises(ConvergenceError):
        tail_sum(ExplicitSeqPsi.harmonic(), 0.0, 1)
    with pytest.raises(ConvergenceError):
        tail_sum(ExplicitSeqPsi.harmonic(), 1.0, 1)


def test_tail_sum_product_and_radial():
    # product separability: total = prod of axis sums
    prod = ProductPsi([AxisGeom(0.5), AxisGeom(0.25)])
    val, bound = tail_sum(prod, 1.0, 1, tol=1e-9)
    ax1 = 1 + 2 * 0.5 / (1 - 0.5)
    ax2 = 1 + 2 * 0.25 / (1 - 0.25)
    assert val == pytest.approx(ax1 * ax2, rel=1e-12)
    # radial d=1 power tail vs direct summation
    rad = RadialPsi(("pow", 2.0), d=1)
    val, bound = tail_sum(rad, 1.0, 1, tol=1e-7)
    direct = 1.0 + 2 * sum(k ** -2.0 for k in range(1, 200000))
    assert val == pytest.approx(direct, abs=1e-4)


def _callable_pow2(d, t0=1):
    return RadialPsi(lambda t: t ** -2.0, d=d, power_bound=(1, 2, t0))


def test_callable_radial_tail_d1_closed_form():
    # sum over Z of max(|k|, 1)^-4 = 1 + 2 zeta(4)
    val, bound = tail_sum(_callable_pow2(1), 2.0)
    assert abs(val - (1.0 + math.pi ** 4 / 45.0)) <= bound


def test_callable_radial_tail_d2_sup_norm():
    # sup-norm shells of radius m hold 8m points: 1 + 8 zeta(3)
    val, bound = tail_sum(_callable_pow2(2), 2.0, tol=1e-3)
    assert abs(val - float(1 + 8 * mpmath.zeta(3))) <= bound
    form_val, _ = tail_sum(RadialPsi(("pow", 2.0), d=2), 2.0, tol=1e-3)
    assert abs(val - form_val) <= bound


def test_callable_radial_tail_needs_box_to_reach_t0():
    with pytest.raises(ConvergenceError):
        tail_sum(_callable_pow2(2, t0=1000), 2.0, tol=1.0)


@pytest.mark.parametrize("psi,e", [
    (RadialPsi(("pow", 1.0), d=2), 1.5),  # shell exponent s - j = 0.5 <= 1
    (RadialPsi(lambda t: t ** -2.0, d=2), 2.0),  # callable without power_bound
    (_callable_pow2(2, t0=1000), 2.0),  # box B = 96 < t0
], ids=["divergent-pow", "callable-no-bound", "box-below-t0"])
def test_radial_power_sum_fails_before_the_box(monkeypatch, psi, e):
    def box_sum(self, e, B):
        raise AssertionError("the box was summed before the tail was certified")

    monkeypatch.setattr(RadialPsi, "_box_sum", box_sum)
    with pytest.raises(ConvergenceError):
        psi.power_sum_total(e)


def test_radial_power_sum_d4_is_fast():
    start = time.perf_counter()
    RadialPsi(("pow", 2.0), d=4, r=2.0).power_sum_total(3.0)
    assert time.perf_counter() - start < 1.0


def _lattice_sum_eucl(sigma):
    """sum over Z^2 minus 0 of |k|_2^(-2 sigma) = 4 zeta(sigma) beta(sigma)
    (Borwein, Glasser, McPhedran, Wan and Zucker, Lattice Sums Then and Now,
    CUP 2013), with beta the Dirichlet beta function."""
    return 4 * mpmath.zeta(sigma) * mpmath.dirichlet(sigma, [0, 1, 0, -1])


def _lattice_sum_sup(sigma):
    """sum over Z^2 minus 0 of |k|_inf^(-sigma) = 8 zeta(sigma - 1): the
    sup-norm shell of radius m holds 8m points."""
    return 8 * mpmath.zeta(sigma - 1)


@pytest.mark.parametrize("beta,e,r,reference,sigma", [
    (3.0, 2.0, 2.0, _lattice_sum_eucl, 3.0),
    (1.5, 2.0, 2.0, _lattice_sum_eucl, 1.5),
    (2.0, 1.5, 2.0, _lattice_sum_eucl, 1.5),
    (3.0, 1.0, math.inf, _lattice_sum_sup, 3.0),
    (1.5, 3.0, math.inf, _lattice_sum_sup, 4.5),
    (2.0, 1.2, math.inf, _lattice_sum_sup, 2.4),
], ids=["eucl-3", "eucl-1.5", "eucl-1.5-e", "sup-3", "sup-4.5", "sup-2.4"])
def test_radial_power_sum_against_closed_form_lattice_sums(beta, e, r, reference, sigma):
    total, bound = RadialPsi(("pow", beta), d=2, r=r).power_sum_total(e)
    with mpmath.workdps(30):
        want = reference(mpmath.mpf(sigma))
    # the clamped origin carries profile(1)^e = 1
    assert abs(total - 1.0 - float(want)) <= bound


@settings(max_examples=200, deadline=None)
@given(s=st.floats(1.01, 12.0), K=st.integers(1, 5000), low=st.floats(-4.0, 1.0))
def test_power_tail_bound_contains_hurwitz_zeta(s, K, low):
    est, bound = _power_tail(s, K)
    # zeta(s, K + 1) is about K^{-s} times zeta(s): the working precision
    # adds those digits so that the reference keeps 30 significant ones
    with mpmath.workdps(35 + int(s * math.log10(K + 1))):
        assert abs(mpmath.mpf(est) - mpmath.zeta(s, K + 1)) <= bound
    with pytest.raises(ConvergenceError):
        _power_tail(low, K)


def _midpoint_bound(s, K):
    """s/24 (K - 1/2)^{-s-1}: the bound of the midpoint rule for the power
    tail past a K-term head, the yardstick the Euler-Maclaurin bounds beat."""
    return s / 24.0 * (K - 0.5) ** (-s - 1.0)


def _power_sum_cases(beta, e):
    """(certified sum, reference at 30 digits, yardstick bound) for each
    power sum with exponent s = beta e: sum over Z of max(|k|, 1)^{-s} is
    1 + 2 zeta(s), and a sequence scale j^{-beta} sums to scale^e zeta(s)."""
    s = mpmath.mpf(beta * e)
    head = [j ** -beta for j in range(1, 101)]
    return [
        (AxisPow(beta).power_sum(e), 1 + 2 * mpmath.zeta(s), 2 * _midpoint_bound(s, 20000)),
        (RadialPsi(("pow", beta), d=1).power_sum_total(e), 1 + 2 * mpmath.zeta(s),
         2 * _midpoint_bound(s, 20000)),
        (ExplicitSeqPsi.power(beta, 0.5).power_sum_total(e),
         mpmath.mpf(0.5) ** e * mpmath.zeta(s), 0.5 ** e * _midpoint_bound(s, 4096)),
        (ExplicitSeqPsi(head, ("pow", beta, 1.0)).power_sum_total(e),
         mpmath.fsum(mpmath.mpf(h) ** e for h in head) + mpmath.zeta(s, 101),
         _midpoint_bound(s, 4196)),
    ]


@pytest.mark.parametrize("beta,e", [
    (1.0, 1.01), (1.0, 1.5), (0.5, 3.0), (2.0, 0.75), (0.5, 2.5), (1.0, 2.0),
    (3.0, 2.0), (0.25, 9.0),
])
def test_power_sums_against_zeta(beta, e):
    with mpmath.workdps(30):
        for (total, bound), reference, yardstick in _power_sum_cases(beta, e):
            assert abs(mpmath.mpf(total) - reference) <= bound
            if beta * e <= 1.5:
                assert 100 * bound <= yardstick


def _geometric_sum_cases(ratio, e):
    """(certified sum, reference at 40 digits) for each geometric power sum
    with x = ratio^e: sum over Z of x^{|k|} is 1 + 2x/(1 - x), and the clamped
    radial origin reads x instead of 1; a sequence continuing a head h_1..h_K
    by h_K ratio^j adds (h_K ratio)^e / (1 - x) to the head's sum."""
    x = mpmath.mpf(ratio) ** e
    head = (2.0, 1.5, 0.75)
    return [
        (AxisGeom(ratio).power_sum(e), 1 + 2 * x / (1 - x)),
        (RadialPsi(("geom", ratio), d=1).power_sum_total(e), x + 2 * x / (1 - x)),
        (RadialPsi(("geom", ratio), d=1, origin="exact").power_sum_total(e), 1 + 2 * x / (1 - x)),
        (ExplicitSeqPsi.geometric(ratio, 3.0).power_sum_total(e),
         mpmath.mpf(3.0) ** e / (1 - x)),
        (ExplicitSeqPsi(head, ("geom", ratio, 1.0)).power_sum_total(e),
         mpmath.fsum(mpmath.mpf(h) ** e for h in head) + (mpmath.mpf(head[-1]) * ratio) ** e / (1 - x)),
    ]


@settings(max_examples=150, deadline=None)
@given(
    ratio=st.sampled_from([0.999, 0.9999]) | st.floats(0.01, 1.0 - 1e-9, exclude_max=True),
    e=st.sampled_from([1.3, 1.5]) | st.floats(0.05, 20.0),
)
def test_geometric_power_sum_bounds_contain_the_error(ratio, e):
    # ratio^e rounds by an ulp, which 1/(1 - x) would amplify by x/(1 - x);
    # at ratio 0.9999, e = 1.3 that was an error of 2.5e-9 under a bound of 0
    with mpmath.workdps(40):
        for (total, bound), reference in _geometric_sum_cases(ratio, e):
            assert abs(mpmath.mpf(total) - reference) <= bound
            assert bound <= 1e-12 * total


def test_geometric_radial_d1_sum_is_closed_form(monkeypatch):
    # the box is the origin alone and the shells past it a closed form:
    # ratio 0.9999 at e = 1.3 once took a 20,000-term box and then the
    # 100,000-shell cap of a term-by-term sum
    boxes = []
    box_sum = RadialPsi._box_sum
    monkeypatch.setattr(RadialPsi, "_box_sum", lambda self, e, B: boxes.append(B) or box_sum(self, e, B))
    for origin in ("clamp", "exact"):
        total, bound = RadialPsi(("geom", 0.9999), d=1, origin=origin).power_sum_total(1.3)
        assert math.isfinite(total) and bound <= 1e-12 * total
    assert boxes == [0, 0]


@pytest.mark.parametrize("ratio,d,r,e", [
    (0.5, 2, math.inf, 1.0), (0.99, 2, math.inf, 0.5), (0.999, 2, math.inf, 1.0),
    (0.999, 3, math.inf, 0.5), (0.99, 4, math.inf, 2.0), (0.9, 4, math.inf, 0.5),
    (0.999, 2, 1.0, 1.0), (0.9, 3, 1.0, 0.5), (0.3, 4, 1.0, 2.0),
])
def test_geometric_radial_sum_bounds_contain_the_error(ratio, d, r, e):
    # sup-norm shells hold (2m+1)^d - (2m-1)^d points and the l1 sum is
    # ((1 + x)/(1 - x))^d; the clamped origin reads x instead of 1.  A
    # term-by-term shell sum reported bounds up to 29 times below its error
    # here (error 0.054 under a bound of 0.0019 at ratio 0.999, d = 3, e = 0.5)
    with mpmath.workdps(40):
        x = mpmath.mpf(ratio) ** e
        if r == math.inf:
            rest = mpmath.nsum(lambda m: ((2 * m + 1) ** d - (2 * m - 1) ** d) * x ** m, [1, mpmath.inf])
        else:
            rest = ((1 + x) / (1 - x)) ** d - 1
        total, bound = RadialPsi(("geom", ratio), d=d, r=r).power_sum_total(e)
        assert abs(mpmath.mpf(total) - (x + rest)) <= bound


@settings(max_examples=60, deadline=None)
@given(d=st.integers(1, 4), B=st.integers(0, 5),
       r=st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0, 6.0, 7.0, math.inf]))
def test_orbit_representatives_cover_the_box(d, B, r):
    reps, sizes = _orbit_representatives(d, B)
    assert int(sizes.sum()) == (2 * B + 1) ** d
    from_orbits = sorted(
        tuple(row) for row, size in zip(reps.tolist(), sizes.tolist()) for _ in range(size)
    )
    from_box = sorted(
        tuple(sorted((abs(x) for x in k), reverse=True))
        for k in itertools.product(range(-B, B + 1), repeat=d)
    )
    assert from_orbits == from_box
    # every orbit member reads the representative's norm, bit for bit
    assert _orbit_norms(reps, r).tolist() == [lattice_norm(k, r) for k in reps.tolist()]


def test_orbit_norms_past_int64():
    # 2000^6 > 2^63, so the integer power sums are taken in Python integers
    reps, _ = _orbit_representatives(1, 2000)
    assert _orbit_norms(reps, 6.0).tolist() == [lattice_norm(k, 6.0) for k in reps.tolist()]


def _plain_norm(k, r):
    if r == math.inf:
        return float(max(abs(x) for x in k))
    return sum(abs(x) ** r for x in k) ** (1.0 / r)


@pytest.mark.parametrize("profile,r,e,d", [
    pytest.param(("pow", 3.0), 2.0, 1.5, 2, id="pow-r2"),
    pytest.param(("pow", 1.3), 1.5, 2.7, 2, id="pow-r1.5"),
    pytest.param(("pow", 2.0), 1.0, 3.0, 2, id="pow-r1"),
    pytest.param(("geom", 0.7), 0.5, 2.0, 2, id="geom-r0.5"),
    pytest.param(("geom", 0.5), math.inf, 1.0, 2, id="geom-inf"),
    pytest.param(lambda t: (1.0 + t) ** -2.5, 3.0, 2.0, 2, id="callable-r3"),
] + [
    pytest.param(profile, r, e, d, id=f"{profile[0]}-r{r:g}-d{d}")
    for profile, e in ((("pow", 1.3), 2.7), (("geom", 0.7), 1.5))
    for r in (1.0, 2.0, math.inf) for d in (1, 2, 3)
])
def test_radial_box_sum_matches_full_box_fsum(profile, r, e, d):
    B = {1: 60, 2: 30, 3: 6}[d]
    psi = RadialPsi(profile, d=d, r=r)
    func = profile if callable(profile) else lambda t: _shape_value(profile, t)
    plain = math.fsum(
        func(max(_plain_norm(k, r), 1.0)) ** e
        for k in itertools.product(range(-B, B + 1), repeat=d)
    )
    scalar = math.fsum(
        psi.magnitude(k) ** e for k in itertools.product(range(-B, B + 1), repeat=d)
    )
    got = psi._box_sum(e, B)
    assert got == pytest.approx(plain, rel=1e-15, abs=0)
    # one power per distinct norm, counted its orbits' total size, rounds
    # once to the same double as every point's own term, the scalar magnitude
    assert got == scalar


def _walk_position(k):
    """Position vector of index k in the axis order 0, -1, 1, -2, 2, ..."""
    return tuple(-2 * x - 1 if x < 0 else 2 * x for x in k)


def test_rearrangement_multiset_matches_box_sort():
    # every point outside the box [-40, 40]^2 has magnitude <= 1/41 on both
    for psi in (RadialPsi(("pow", 1.0), d=2, r=1.0),
                ProductPsi([AxisPow(1.0), AxisGeom(0.5)])):
        cs = build_charseq(psi, levels=6)
        box = sorted(
            ((psi.magnitude(k), k) for k in itertools.product(range(-40, 41), repeat=2)),
            key=lambda vk: (-vk[0], _walk_position(vk[1])),
        )
        flat = [e for e, shell in zip(cs.eps, cs.shells) for _ in shell]
        assert flat == [v for v, _ in box[: len(flat)]]
        # the stream is sorted by exactly (-value, position)
        n = sum(1 for v, _ in box if v > 1.0 / 41)
        assert list(itertools.islice(psi.stream(), n)) == box[:n]


# systems whose streams share one sorted prefix: product, radial and sequence forms
_WALKED = {
    "product": lambda: ProductPsi([AxisPow(1.0), AxisPow(2.0)]),
    "radial": lambda: RadialPsi(("pow", 3.0), d=2, r=2.0),
    "sequence": ExplicitSeqPsi.harmonic,
}


@pytest.mark.parametrize("make", list(_WALKED.values()), ids=list(_WALKED))
def test_interleaved_streams_read_one_walk(make):
    psi = make()
    a, b = psi.stream(), psi.stream()
    got_a, got_b = [], []
    for step in range(1, 40):
        got_a.extend(itertools.islice(a, step))
        got_b.extend(itertools.islice(b, 3 * step % 7 + 1))
    n = max(len(got_a), len(got_b))
    got_c = list(itertools.islice(psi.stream(), n))
    assert got_a == got_c[: len(got_a)]
    assert got_b == got_c[: len(got_b)]
    assert got_c == list(itertools.islice(make().stream(), n))


def test_second_read_evaluates_no_magnitude():
    calls = 0

    def profile(t):
        nonlocal calls
        calls += 1
        return (1.0 + t) ** -3.0

    psi = RadialPsi(profile, d=2, r=2.0, power_bound=(1.0, 3.0, 1.0))
    first = rearrangement(psi, 10_000)
    calls = 0
    again = rearrangement(psi, 10_000)
    assert calls == 0
    assert again.tolist() == first.tolist()


@pytest.mark.parametrize("make,most", [
    (lambda: ProductPsi([AxisPow(1.0), AxisPow(1.0)]), 2),
    # twelve levels need the 626th index, past the first block's box of
    # 289, so the prefix grows 289 -> 625 -> 1369 before the long read
    (lambda: RadialPsi(("pow", 3.0), d=2), 4),
], ids=["hyperbolic", "radial"])
def test_prefix_grows_in_few_blocks(monkeypatch, make, most):
    # the lattice benchmark's deepest read; growing from one index took 5
    # product and 7 radial blocks
    psi = make()
    aims, boxes = [], []
    block, reps = type(psi)._block, _orbit_representatives
    monkeypatch.setattr(type(psi), "_block",
                        lambda self, count, aim: aims.append(aim) or block(self, count, aim))
    monkeypatch.setattr("spapprox.psi._orbit_representatives",
                        lambda d, B: boxes.append((aims[-1], (2 * B + 1) ** d)) or reps(d, B))
    build_charseq(psi, levels=12)
    rearrangement(psi, 9600)
    assert len(aims) <= most
    # no box is built that cannot hold its aim
    assert all(size >= aim for aim, size in boxes)


def _plateau():
    # not a psi system: it never falls below 0.3, so only the 49 indices of
    # |k|_inf <= 3 can be certified, and a block may fall short of its aim
    return RadialPsi(lambda t: max(1.0 / t, 0.3), d=2)


@pytest.mark.parametrize("lengths", [[26], [25, 26], [9, 26], [3]])
def test_certification_does_not_depend_on_growth_history(lengths):
    # a block raises only when it cannot certify the read; a doubled aim of
    # 50 once made [25, 26] raise where [26] alone did not
    psi = _plateau()
    for n in lengths:
        got = rearrangement(psi, n)
    assert got.tolist() == ([1.0] * 9 + [0.5] * 16 + [1.0 / 3.0])[: lengths[-1]]


def test_plateau_certifies_the_levels_above_it():
    # level 2 ends at index 25 and the certified 26th is smaller; level 3
    # needs the 50th, which lies on the plateau
    cs = build_charseq(_plateau(), levels=2)
    assert (cs.eps, cs.delta) == ((1.0, 0.5), (9, 25))
    with pytest.raises(CertificationError, match="certifies 50 indices"):
        build_charseq(_plateau(), levels=3)


@pytest.mark.parametrize("read,reached", [
    (lambda psi: build_charseq(psi, levels=3), "certifies 50 indices, only the 49"),
    (lambda psi: rearrangement(psi, 100), "certifies 100 indices, only the 49"),
], ids=["levels", "rearrangement"])
def test_plateau_read_fails_before_the_largest_box(monkeypatch, read, reached):
    # every box [-B, B]^2 with B >= 3 has edge profile(B + 1) = 0.3, the
    # largest box's edge, so it certifies the same 49 indices; the read
    # raises from the first box
    boxes, reps = [], _orbit_representatives
    monkeypatch.setattr("spapprox.psi._orbit_representatives",
                        lambda d, B: boxes.append(B) or reps(d, B))
    seconds = []
    for _ in range(3):
        psi = _plateau()
        start = time.perf_counter()
        with pytest.raises(CertificationError, match=reached):
            read(psi)
        seconds.append(time.perf_counter() - start)
    assert min(seconds) < 0.01
    assert max(boxes) <= 8


@pytest.mark.parametrize("axis,error,length", [
    # 0.2**463 is the first power that underflows
    (AxisGeom(0.2), CertificationError, 1 + 2 * 462),
    # 6.0**400 is the first weight that overflows: the stream yields every
    # representable magnitude, 0, -1, 1, ..., -5, 5, and then raises
    (AxisPow(400.0), CertificationError, 11),
], ids=["underflow", "overflow"])
def test_failing_walk_raises_at_the_same_index_for_every_reader(axis, error, length):
    psi = ProductPsi([axis])
    prefixes = []
    for _ in range(3):
        got = []
        with pytest.raises(error):
            for pair in psi.stream():
                got.append(pair)
        prefixes.append(got)
    assert prefixes[0] == prefixes[1] == prefixes[2]
    assert len(prefixes[0]) == length
    assert prefixes[0][-1][0] > 0.0


@pytest.mark.parametrize("psi,length", [
    (ExplicitTablePsi({0: 1.0, 1: 0.5, -1: 0.5}), 3),
    (ExplicitSeqPsi.table([1.0, 0.5, 0.25]), 3),
    (PhasedPsi(ExplicitSeqPsi.table([1.0, 0.5, 0.25]), lambda k: 1.0), 3),
], ids=["table", "seq-table", "phased-seq-table"])
def test_finite_streams_end_at_the_same_length_for_every_reader(psi, length):
    partial = list(itertools.islice(psi.stream(), 1))
    reads = [list(psi.stream()) for _ in range(3)]
    assert len(reads[0]) == length
    assert reads[1] == reads[2] == reads[0]
    assert partial == reads[0][:1]


@pytest.mark.parametrize("make", list(_WALKED.values()), ids=list(_WALKED))
def test_a_read_system_is_freed_without_the_cycle_collector(make):
    gc.disable()
    try:
        psi = make()
        rearrangement(psi, 100)
        build_charseq(psi, levels=3)
        ref = weakref.ref(psi)
        del psi
        assert ref() is None
    finally:
        gc.enable()


# sha256 of the first 10^5 (value, index) pairs, values as little-endian
# doubles followed by indices as little-endian int64 rows, recorded from the
# heap walk that produced the rearrangement before the sorted blocks
_PINNED_DIGESTS = {
    "product": (_WALKED["product"],
                "c337f3382321f258307d80e65e1e70f6854e960dcfc97c30e4fe7fb60c93dcb2"),
    "radial": (_WALKED["radial"],
               "68525564fb27b7d82b8ff3dcd9af181e46e681c69a2d08c0985273bd316ad4fb"),
    "harmonic": (_WALKED["sequence"],
                 "8555016be58d42ac04b7096c87a6e33e9462bffe7033c6458dbfdf23f0670bae"),
    "hyperbolic": (lambda: ProductPsi([AxisPow(1.0), AxisPow(1.0)]),
                   "50478d52c08614cc7f3cd3c0ee62914f5682e7699b7bd2effc239cf40c44bfc8"),
    "radial1": (lambda: RadialPsi(("pow", 2.0), d=1),
                "0aac9cfd6a81dee7b75d4f6c0112dddbcf5e9d71fd883fa3fa60a3e1d1da4f72"),
    "radial2": (lambda: RadialPsi(("pow", 3.0), d=2),
                "78a6d1ee2787431ab31fcbe3def3838c0474bdf6aca8ff875d9d6167b5705428"),
}


@pytest.mark.parametrize("name", list(_PINNED_DIGESTS))
def test_stream_reproduces_the_pinned_walk(name):
    # "anisotropic" of the lattice benchmark is the "product" system here
    make, digest = _PINNED_DIGESTS[name]
    pairs = list(itertools.islice(make().stream(), 100_000))
    vals = np.array([v for v, _ in pairs], dtype="<f8")
    idx = np.array([k for _, k in pairs], dtype="<i8")
    assert hashlib.sha256(vals.tobytes() + idx.tobytes()).hexdigest() == digest


def _certified_head(psi, sup_outside, b):
    """Plain sort of the box [-b, b]^d by (-magnitude, position vector), cut
    to the pairs above ``sup_outside``, which bounds every magnitude outside."""
    box = sorted(((psi.magnitude(k), k) for k in itertools.product(range(-b, b + 1), repeat=psi.d)),
                 key=lambda vk: (-vk[0], _walk_position(vk[1])))
    return [vk for vk in box if vk[0] > sup_outside]


def test_padded_rearrangement_for_finite_tables():
    t = ExplicitTablePsi({0: 1.0, 1: 0.5})
    assert list(rearrangement_padded(t, 4)) == [1.0, 0.5, 0.0, 0.0]


@pytest.mark.parametrize("base", [
    ExplicitTablePsi({0: 1.0, 1: 0.5}),
    ExplicitSeqPsi.table([1.0, 0.5]),
], ids=["table", "seq-table"])
def test_rearrangement_of_phased_finite_system(base):
    # a phase does not make a finite system infinite: its stream still ends
    phased = PhasedPsi(base, lambda k: 1.0)
    assert list(rearrangement(phased, 4)) == [1.0, 0.5]
    assert list(rearrangement_padded(phased, 4)) == [1.0, 0.5, 0.0, 0.0]


# shapes of product axes and radial profiles: ("pow", beta) or ("geom", ratio)
_POW = st.tuples(st.just("pow"), st.sampled_from([0.5, 1.0, 2.0]) | st.floats(0.5, 3.0))
_AXIS = _POW | st.tuples(st.just("geom"), st.sampled_from([0.3, 0.5]) | st.floats(0.2, 0.8))
_PROFILE = _POW | st.tuples(st.just("geom"), st.sampled_from([0.3, 0.5]) | st.floats(0.2, 0.8))


def _shape_value(shape, t):
    """|t|'^-beta or ratio^|t|, with |t|' = max(|t|, 1)."""
    kind, param = shape
    if kind == "pow":
        return max(abs(t), 1.0) ** -param
    return param ** abs(t)


def _box_sort(value_at, axis_sup, d, K):
    """Plain value-descending sort of (value_at(k), k) over a box [-B_1, B_1]
    x ... x [-B_d, B_d], grown until no point outside it can exceed the K-th
    value; axis_sup(j, b) bounds every value at a point with |k_j| >= b."""
    radii = [1] * d
    while True:
        pairs = sorted(
            ((value_at(k), k) for k in itertools.product(*(range(-b, b + 1) for b in radii))),
            key=lambda vk: -vk[0],
        )
        short = [j for j in range(d)
                 if len(pairs) < K or axis_sup(j, radii[j] + 1) > pairs[K - 1][0]]
        if not short:
            return pairs
        for j in short:
            radii[j] *= 2


@settings(max_examples=40, deadline=None)
@given(axes=st.lists(_AXIS, min_size=1, max_size=3), K=st.integers(1, 100))
def test_product_rearrangement_matches_full_sort(axes, K):
    psi = ProductPsi([AxisPow(b) if kind == "pow" else AxisGeom(b) for kind, b in axes])
    want = _box_sort(
        lambda k: math.prod(_shape_value(shape, kj) for shape, kj in zip(axes, k)),
        lambda j, b: _shape_value(axes[j], b),
        len(axes), K,
    )
    assert rearrangement(psi, K).tolist() == pytest.approx(
        [v for v, _ in want[:K]], rel=1e-13, abs=0)


@settings(max_examples=150, deadline=None)
@given(
    profile=_PROFILE, r=st.sampled_from([0.5, 1.0, 2.0, math.inf]),
    d=st.integers(1, 3), K=st.integers(1, 100), exact=st.booleans(),
)
def test_radial_rearrangement_matches_full_sort(profile, r, d, K, exact):
    def norm(k):
        if r == math.inf:
            return float(max(abs(x) for x in k))
        return sum(abs(x) ** r for x in k) ** (1.0 / r)

    # a geometric profile is finite at 0, so its origin may read it there
    origin = "exact" if exact and profile[0] == "geom" else "clamp"
    floor = 0.0 if origin == "exact" else 1.0
    psi = RadialPsi(profile, d=d, r=r, origin=origin)
    # |k_j| >= b implies |k|_r >= b for every r in (0, inf]
    want = _box_sort(
        lambda k: _shape_value(profile, max(norm(k), floor)),
        lambda j, b: _shape_value(profile, b),
        d, K,
    )
    got = list(itertools.islice(psi.stream(), K))
    assert [v for v, _ in got] == pytest.approx([v for v, _ in want[:K]], rel=1e-13, abs=0)
    # indices come from positions: every complete tie group holds
    # exactly the box points of that magnitude
    box = [k for _, k in want]
    for v, group in itertools.groupby(got, key=lambda vk: vk[0]):
        if v == got[-1][0]:
            break
        assert {k for _, k in group} == {k for k in box if psi.magnitude(k) == v}


# a product (mixed axis shapes), radial (profile, r, d) or sequence (head
# values at least 1, then a power, geometric or zero continuation below 1)
_SPEC = st.one_of(
    st.tuples(st.just("product"), st.lists(_AXIS, min_size=1, max_size=3)),
    st.tuples(st.just("radial"), st.tuples(_PROFILE, st.sampled_from([0.5, 1.0, 2.0, math.inf]),
                                           st.integers(1, 3))),
    st.tuples(st.just("sequence"), st.tuples(
        st.lists(st.sampled_from([1.0, 2.0, 3.0]) | st.floats(1.0, 4.0), max_size=40),
        st.tuples(st.just("pow"), st.floats(0.5, 3.0), st.floats(0.1, 1.0))
        | st.tuples(st.just("geom"), st.floats(0.7, 0.99), st.floats(0.1, 1.0))
        | st.just(("zero",)))),
)


def _make(spec):
    kind, params = spec
    if kind == "product":
        return ProductPsi([AxisPow(b) if shape == "pow" else AxisGeom(b) for shape, b in params])
    if kind == "sequence":
        head, tail = params
        return ExplicitSeqPsi(sorted(head, reverse=True) or [1.0], tail)
    profile, r, d = params
    return RadialPsi(profile, d=d, r=r)


def _box_and_sup_outside(psi):
    """A box [-b, b]^d and a bound on every magnitude outside it: such an
    index has some |k_j| > b, so its magnitude is at most that of one axis
    (product), the profile (radial) or the sequence (position 2b + 2) at
    b + 1."""
    b = {1: 400, 2: 20, 3: 6}[psi.d]
    if isinstance(psi, ProductPsi):
        return b, max(a.value(b + 1) for a in psi.axes)
    if isinstance(psi, RadialPsi):
        return b, psi.profile(float(b + 1))
    return b, psi.seq(2 * b + 2)


@settings(max_examples=80, deadline=None)
@given(spec=_SPEC, lengths=st.lists(st.integers(1, 2000), min_size=1, max_size=4))
def test_prefix_is_one_certified_sort_whatever_the_growth_order(spec, lengths):
    grown, whole = _make(spec), _make(spec)
    if grown.d == 1 and not grown.magnitude((1000,)) > 0:
        # a one-dimensional geometric system with ratio below about 0.47
        # underflows before index 2000, where its rearrangement must raise
        # (ratio 0.2 at index 925); read it only up to 400
        lengths = [min(n, 400) for n in lengths]
    for n in lengths:
        rearrangement(grown, n)
    # the whole prefix, block ends included
    vals, idx, _, _ = grown._rearranged(max(lengths))
    got = list(zip(vals.tolist(), map(tuple, idx.tolist())))
    # the equal system reads its own cold prefix, not the one grown holds
    psi_module._store.cache_clear()
    assert got == list(itertools.islice(whole.stream(), len(got)))
    keys = [(-v, _walk_position(k)) for v, k in got]
    assert all(a < b for a, b in zip(keys, keys[1:]))
    assert all(v == grown.magnitude(k) for v, k in got)
    if spec[0] == "sequence":
        # position j carries the j-th value; only a zero tail ends it early
        assert got == [(grown.seq(j), (_axis_index(j - 1),)) for j in range(1, len(got) + 1)]
        assert len(got) >= max(lengths) or grown.seq(len(got) + 1) == 0.0
        return
    b, sup_outside = _box_and_sup_outside(grown)
    head = _certified_head(grown, sup_outside, b)
    assert got[: len(head)] == head[: len(got)]


def test_axis_index_inverts_seq_position():
    assert [_axis_index(j) for j in range(5)] == [0, -1, 1, -2, 2]
    assert all(_seq_position(_axis_index(j)) == j + 1 for j in range(10_000))


# a read of a system: build_charseq by levels, by value (at or between the
# oracle's certified levels, picked by a fraction of them) or a rearrangement
_READ = st.lists(
    st.tuples(st.just("levels"), st.integers(1, 40))
    | st.tuples(st.just("down_to_value"), st.floats(0.0, 1.0, exclude_max=True), st.booleans())
    | st.tuples(st.just("rearrangement"), st.integers(1, 2000)),
    min_size=1, max_size=5)


def _read(psi, kind, arg):
    """What a read returns, as plain values, or the type of error it raises."""
    try:
        if kind == "rearrangement":
            return rearrangement(psi, arg).tolist()
        cs = build_charseq(psi, **{kind: arg})
    except CertificationError as exc:
        return type(exc)
    return cs.eps, cs.delta, cs.shells


@settings(max_examples=60, deadline=None)
@given(spec=_SPEC, reads=_READ)
def test_charseq_is_the_full_sort_whatever_the_reads(spec, reads):
    grown = _make(spec)
    b, sup_outside = _box_and_sup_outside(grown)
    ocs = oracle_charseq(_make(spec), b)
    # a level above every magnitude outside the box holds all its indices
    certified = sum(1 for e in ocs.eps if e > sup_outside)
    for kind, arg, *between in reads:
        if kind == "down_to_value":
            i = int(arg * certified)
            arg = ocs.eps[i]
            if between[0] and i + 1 < certified:
                arg = 0.5 * (arg + ocs.eps[i + 1])
        got = _read(grown, kind, arg)
        # growth history cannot leak: a fresh system on a cold store (grown
        # keeps its own entry) reads the same
        psi_module._store.cache_clear()
        assert got == _read(_make(spec), kind, arg)
        if kind == "rearrangement" or got is CertificationError:
            continue
        eps, delta, shells = got
        n = min(len(eps), certified)
        assert eps[:n] == ocs.eps[:n] and delta[:n] == ocs.delta[:n]
        # the oracle orders a shell by index, the enumeration by position
        assert [sorted(g) for g in shells[:n]] == [sorted(g) for g in ocs.shells[:n]]
        if kind == "down_to_value":
            # the read stops at the first level at or below the value
            assert eps[-1] <= arg < min(eps[:-1], default=math.inf)


@pytest.mark.parametrize("make", [
    lambda: ProductPsi([AxisPow(1.0), AxisPow(1.0)]),
    lambda: RadialPsi(("pow", 3.0), d=2),
    lambda: ExplicitSeqPsi.harmonic(),
    lambda: ExplicitSeqPsi.table([3.0, 2.0, 2.0, 1.0]),
], ids=["hyperbolic", "radial", "harmonic", "finite"])
def test_level_ends_are_found_once_per_prefix_growth(monkeypatch, make):
    psi = make()
    blocks, ends = [], []
    block, level_ends = type(psi)._block, psi_module._level_ends
    monkeypatch.setattr(type(psi), "_block",
                        lambda self, count, aim: blocks.append(aim) or block(self, count, aim))
    monkeypatch.setattr(psi_module, "_level_ends",
                        lambda vals, ended: ends.append(vals.shape[0]) or level_ends(vals, ended))
    for n in (1, 4, 2, 12, 3, 30, 12, 1):
        # the finite table has three levels
        with contextlib.suppress(CertificationError):
            build_charseq(psi, levels=n)
            build_charseq(psi, levels=n, down_to_value=0.1)
            rearrangement(psi, 40 * n)
    # 24 reads (fewer on the table) grow the prefix at most five times, and
    # each growth finds its level ends once
    assert len(ends) == len(blocks) <= 5


@pytest.mark.parametrize("value", [0.0, -1.0, math.nan])
@pytest.mark.parametrize("make", [
    lambda: ProductPsi([AxisPow(1.0), AxisPow(1.0)]),
    lambda: PhasedPsi(ExplicitSeqPsi.harmonic(), lambda k: 1.0),
], ids=["hyperbolic", "phased-harmonic"])
def test_reading_every_level_of_an_infinite_system_fails_fast(make, value):
    # no magnitude of these systems underflows, so a read down to 0 would
    # grow the prefix until memory runs out
    psi = make()
    start = time.perf_counter()
    with pytest.raises(CertificationError, match=f"down_to_value={value!r}"):
        build_charseq(psi, down_to_value=value)
    assert time.perf_counter() - start < 0.01
    assert psi._entry.prefix is None


@settings(max_examples=40, deadline=None)
@given(beta=st.sampled_from([1.0, 0.5, 2.5, 150.0, 400.0]),
       reads=st.lists(st.integers(1, 3000), min_size=1, max_size=6))
def test_axis_weights_are_one_table_read_in_any_order(beta, reads):
    # beta = 150 overflows past |k| = 113 and beta = 400 past 5: those
    # weights read inf, as the fresh power does
    axis = AxisPow(beta)
    for m in reads:
        got = axis.weights(m)
        want = _pow(np.maximum(np.arange(m), 1), beta)
        assert got.tobytes() == want.tobytes() == AxisPow(beta).weights(m).tobytes()
        with pytest.raises(ValueError, match="read-only"):
            got[0] = 0.0


# ---------------------------------------------------------------------------
# the store that equal systems share


@pytest.mark.parametrize("make", [
    lambda: ProductPsi([AxisPow(1.0), AxisPow(1.0)]),
    lambda: ProductPsi([AxisGeom(0.5), AxisPow(2.0)]),
    lambda: RadialPsi(("pow", 3.0), d=2),
    lambda: ExplicitSeqPsi((3.0, 2.0), ("pow", 2.0, 1.0)),
    lambda: PhasedPsi(ExplicitSeqPsi.harmonic(), lambda k: 1.0),
], ids=["hyperbolic", "mixed", "radial", "sequence", "phased-harmonic"])
def test_equal_systems_share_one_prefix_and_one_power_sum(monkeypatch, make):
    psi = make()
    cls = type(getattr(psi, "base", psi))
    blocks, sums = [], []
    block, total = cls._block, cls.power_sum_total
    monkeypatch.setattr(cls, "_block", lambda self, count, aim: blocks.append(aim) or block(self, count, aim))
    monkeypatch.setattr(cls, "power_sum_total", lambda self, e: sums.append(e) or total(self, e))

    def reads(psi):
        cs = build_charseq(psi, levels=12)
        tails = [tail_sum(psi, e, 5, tol=1e-6) for e in (2.0, 3.0, 2.0)]
        width = class_widths(ClassSpec(psi, 1.0, 2.0), 3).value  # tail exponent 2
        return cs.eps, cs.delta, rearrangement(psi, 3000).tobytes(), tails, width

    first = reads(make())
    grown = list(blocks)
    assert reads(make()) == first
    assert blocks == grown and sums == [2.0, 3.0]


def test_distinct_profile_callables_never_share():
    # every profile but the last is dropped with its system; keyed by its
    # address, a later profile built at a freed one would read the earlier
    # profile's prefix and power sums
    for beta in (2.0, 3.0, 2.5, 4.0, 2.0, 3.5, 3.0, 2.25):
        psi = RadialPsi(lambda t, b=beta: float(t) ** -b, d=2, power_bound=(1.0, 2.0, 1.0))
        form = RadialPsi(("pow", beta), d=2)
        assert rearrangement(psi, 300).tobytes() == rearrangement(form, 300).tobytes()
        assert psi_module._power_sum(psi, 1.5) == RadialPsi(
            lambda t, b=beta: float(t) ** -b, d=2, power_bound=(1.0, 2.0, 1.0)).power_sum_total(1.5)
        profile = weakref.ref(psi._func)
        del psi
        gc.collect()
        # the store holds the profile it keys by, so its address is not freed
        assert profile() is not None


def _cube(t):
    return max(t, 1.0) ** -3.0


def test_a_different_power_bound_shares_no_power_sum():
    loose = RadialPsi(_cube, d=1, power_bound=(2.0, 3.0, 1.0))
    tight = RadialPsi(_cube, d=1, power_bound=(1.0, 3.0, 1.0))
    got = [psi_module._power_sum(psi, 1.0) for psi in (loose, tight)]
    assert got == [loose.power_sum_total(1.0), tight.power_sum_total(1.0)]
    assert got[0] != got[1]
    # a bound given as a list of integers is the same bound
    assert psi_module._power_sum(RadialPsi(_cube, d=1, power_bound=[1, 3, 1]), 1.0) == got[1]


@dataclasses.dataclass
class _PowerProfile:
    # eq=True without frozen=True leaves the instances unhashable
    beta: float

    def __call__(self, t):
        return max(float(t), 1.0) ** -self.beta


def test_an_unhashable_profile_matches_only_itself():
    one, two = _PowerProfile(3.0), _PowerProfile(3.0)
    assert one == two and _PowerProfile.__hash__ is None
    want = rearrangement(RadialPsi(("pow", 3.0), d=2), 200).tobytes()
    for profile in (one, two, one):
        assert rearrangement(RadialPsi(profile, d=2), 200).tobytes() == want
    # the form, one and two: equal profiles that are distinct objects share nothing
    assert psi_module._store.cache_info().currsize == 3
    # a form's parameter is read as a float, so an integer one is the same form
    rearrangement(RadialPsi(("pow", 3), d=2), 200)
    assert psi_module._store.cache_info().currsize == 3
    rep = order_estimate_check(one, 1, math.inf, 1.0, 2.0, [2, 4, 8], power_bound=(1.0, 3.0, 1.0))
    assert rep.delta2_ok and rep.bounded


def test_a_live_system_keeps_its_prefix_whatever_the_store_evicts(monkeypatch):
    blocks, sums = [], []
    block, total = ExplicitSeqPsi._block, ExplicitSeqPsi.power_sum_total
    monkeypatch.setattr(ExplicitSeqPsi, "_block",
                        lambda self, count, aim: blocks.append(aim) or block(self, count, aim))
    monkeypatch.setattr(ExplicitSeqPsi, "power_sum_total",
                        lambda self, e: sums.append(e) or total(self, e))
    # twelve live systems, more than the store holds, read in turn twice
    systems = [ExplicitSeqPsi.power(1.0 + j / 4) for j in range(12)]

    def reads():
        return [(rearrangement(psi, 300).tobytes(), tail_sum(psi, 2.0, 10)) for psi in systems]

    first = reads()
    assert len(blocks) == len(sums) == 12 and psi_module._store.cache_info().currsize == 8
    assert reads() == first
    assert len(blocks) == len(sums) == 12


@pytest.mark.parametrize("make", [
    lambda: ProductPsi([AxisPow(1.0), AxisPow(1.0)]),
    lambda: RadialPsi(("pow", 3.0), d=2),
    lambda: ExplicitSeqPsi.harmonic(),
    lambda: ExplicitTablePsi({0: 1.0, 1: 0.5, -1: 0.5}),
], ids=["hyperbolic", "radial", "harmonic", "table"])
def test_the_stored_prefix_is_read_only(make):
    psi = make()
    build_charseq(psi, levels=2)
    for array in psi._rearranged(300)[:3]:
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0
    # readers hand out copies
    rearrangement(psi, 3)[0] = 0.0
    assert psi._rearranged(3)[0][0] > 0.0


def _shared_read(psi, kind, n):
    """A read as bytes and tuples, or the type of error it raises."""
    try:
        if kind == "levels":
            cs = build_charseq(psi, levels=n % 40 + 1)
            return np.array(cs.eps).tobytes(), cs.delta, cs.shells
        if kind == "rearrangement":
            return rearrangement(psi, n).tobytes()
        pairs = list(itertools.islice(psi.stream(), n))
        return np.array([v for v, _ in pairs]).tobytes(), [k for _, k in pairs]
    except CertificationError as exc:
        return type(exc)


@settings(max_examples=60, deadline=None)
@given(spec=_SPEC, other=_SPEC, reads=st.lists(st.tuples(
    st.integers(0, 3), st.sampled_from(["levels", "rearrangement", "stream"]), st.integers(1, 600)),
    min_size=1, max_size=8))
def test_equal_systems_read_what_a_cold_store_reads(spec, other, reads):
    # three equal systems, one behind a phase, grow one prefix between them;
    # a fourth, most often different, system must never read theirs
    specs = [spec, spec, spec, other]
    cold = []
    for which, kind, n in reads:
        psi_module._store.cache_clear()
        cold.append(_shared_read(_make(specs[which]), kind, n))
    psi_module._store.cache_clear()
    systems = [_make(spec), _make(spec), PhasedPsi(_make(spec), lambda k: 1.0), _make(other)]
    for (which, kind, n), want in zip(reads, cold):
        assert _shared_read(systems[which], kind, n) == want


def test_a_read_by_value_past_the_prefix_cap_fails_fast(monkeypatch):
    # the cap is about twice the deepest read the n-term scan's budget allows
    assert psi_module._PREFIX_CAP >= 2 * (SIGMA_SCAN_BUDGET + _SIGMA_STEP_CAP)
    monkeypatch.setattr(psi_module, "_PREFIX_CAP", 3000)
    aims, block = [], ExplicitSeqPsi._block
    monkeypatch.setattr(ExplicitSeqPsi, "_block",
                        lambda self, count, aim: aims.append(aim) or block(self, count, aim))
    psi = ExplicitSeqPsi.harmonic()
    # every position is a level of its own, so 1e-12 lies 10^12 pairs deep;
    # a sequence block holds exactly its aim, and the doubling stops at the cap
    with pytest.raises(CertificationError, match="down_to_value=1e-12 .* first 3000 pairs.* reached 3000"):
        build_charseq(psi, down_to_value=1e-12)
    assert aims == [256, 512, 1024, 2048, 3000]
    # the read's prefix is dropped, not kept for the system's life
    assert psi._entry.prefix is None

    # level 2999 is certified by pair 3000, within the cap; level 3000 is not,
    # whether or not an explicit read grew the prefix past the cap before
    def by_value(psi, j):
        try:
            return build_charseq(psi, down_to_value=psi.seq(j)).delta[-1]
        except CertificationError:
            return None

    assert [by_value(ExplicitSeqPsi.harmonic(), j) for j in (2999, 3000)] == [2999, None]
    psi_module._store.cache_clear()
    assert rearrangement(psi, 5000)[-1] == psi.seq(5000)
    assert [by_value(psi, j) for j in (2999, 3000)] == [2999, None]
    # explicit counts pass the cap, as do reads by value on a finite system
    assert build_charseq(ExplicitSeqPsi.harmonic(), levels=4000).delta[-1] == 4000
    table = ExplicitSeqPsi([5000.0 - j for j in range(4500)], ("zero",))
    assert build_charseq(table, down_to_value=0.0).delta[-1] == 4500


@pytest.mark.parametrize("one,other", [
    (lambda: ProductPsi([AxisPow(0.5)]), lambda: ProductPsi([AxisGeom(0.5)])),
    (lambda: ProductPsi([AxisPow(1.0), AxisPow(2.0)]), lambda: ProductPsi([AxisPow(2.0), AxisPow(1.0)])),
    (lambda: RadialPsi(("pow", 2.0), d=2), lambda: RadialPsi(("pow", 2.0), d=3)),
    (lambda: RadialPsi(("geom", 0.5), d=2), lambda: RadialPsi(("geom", 0.5), d=2, r=2.0)),
    (lambda: RadialPsi(("geom", 0.5), d=2), lambda: RadialPsi(("geom", 0.5), d=2, origin="exact")),
    (lambda: ExplicitSeqPsi((3.0,), ("pow", 1.0, 1.0)), lambda: ExplicitSeqPsi((2.0,), ("pow", 1.0, 1.0))),
    (lambda: ExplicitSeqPsi((), ("pow", 1.0, 1.0)), lambda: ExplicitSeqPsi((), ("pow", 1.0, 0.5))),
], ids=["axis-class", "axis-order", "d", "r", "origin", "head", "continuation"])
def test_systems_that_differ_in_one_parameter_share_nothing(one, other):
    def reads(psi):
        return rearrangement(psi, 50).tobytes(), psi_module._power_sum(psi, 3.0)

    cold = []
    for make in (one, other):
        psi_module._store.cache_clear()
        cold.append(reads(make()))
    psi_module._store.cache_clear()
    assert [reads(one()), reads(other())] == cold
