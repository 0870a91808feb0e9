import itertools
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spapprox import (
    AxisGeom,
    AxisPow,
    BudgetError,
    CertificationError,
    ConvergenceError,
    ExplicitSeqPsi,
    ExplicitTablePsi,
    InputDomainError,
    PhasedPsi,
    ProductPsi,
    RadialPsi,
    Spectrum,
    build_charseq,
    lattice_ball_count,
    psi_derivative,
    psi_integral,
    rearrangement,
    tail_sum,
)
from spapprox.oracle import oracle_charseq
from spapprox.psi import _axis_index, _seq_position, rearrangement_padded


def test_charseq_geometric_radial_levels():
    psi = RadialPsi(("geom", 0.5), d=1, origin="exact")
    cs = build_charseq(psi, levels=4)
    assert cs.eps == (1.0, 0.5, 0.25, 0.125)
    assert cs.delta == (1, 3, 5, 7)
    assert cs.g(0) == frozenset()
    assert cs.g(2) == {(0,), (1,), (-1,)}


def test_radial_geometric_profile_whose_far_values_underflow():
    # 0.2**512 is 0.0 in double precision; the profile is still valid
    psi = RadialPsi(("geom", 0.2), d=1, origin="exact")
    head = [value for value, _ in itertools.islice(psi.stream(), 5)]
    assert head == pytest.approx([1.0, 0.2, 0.2, 0.04, 0.04], rel=1e-15)
    assert list(rearrangement(psi, 5)) == head
    # callable profiles are still spot-checked
    with pytest.raises(InputDomainError):
        RadialPsi(lambda t: float(t), d=1)


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


def test_lattice_ball_examples():
    assert lattice_ball_count(2, math.inf, 3) == 49
    assert lattice_ball_count(2, 1, 2) == 13
    assert lattice_ball_count(1, 2.7, 5) == 11
    with pytest.raises(BudgetError):
        lattice_ball_count(4, 2, 10 ** 4)


def test_lattice_ball_two_sided_volume_bounds():
    # M_r (m - c1)^d < count <= M_r (m + c2)^d with the unit-ball volumes
    # M_inf = 2^d and M_1 = 2^d / d!; c1 = c2 = 1 works on this range
    for d in (1, 2, 3):
        for r, M in ((math.inf, 2.0 ** d), (1.0, 2.0 ** d / math.factorial(d))):
            for m in (4, 9, 17, 33, 64):
                cnt = lattice_ball_count(d, r, m)
                assert M * (m - 1) ** d < cnt <= M * (m + 1) ** d
        for m in (4, 9, 17, 33, 64):
            cnt = lattice_ball_count(d, 2.0, m)
            ball_vol = math.pi ** (d / 2) / math.gamma(d / 2 + 1)
            assert ball_vol * (m - 1) ** d < cnt <= ball_vol * (m + 1.1) ** d


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


def test_rearrangement_multiset_matches_box_sort():
    psi = RadialPsi(("pow", 1.0), d=2, r=1.0)
    cs = build_charseq(psi, levels=6)
    vals = sorted(
        (psi.magnitude((a, b)) for a in range(-40, 41) for b in range(-40, 41)),
        reverse=True,
    )
    flat = [e for e, shell in zip(cs.eps, cs.shells) for _ in shell]
    assert flat == vals[: len(flat)]


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
    """First K values of a plain sort of value_at over a box [-B_1, B_1] x
    ... x [-B_d, B_d], grown until no point outside it can exceed the K-th
    value; axis_sup(j, b) bounds every value at a point with |k_j| >= b."""
    radii = [1] * d
    while True:
        vals = sorted(
            (value_at(k) for k in itertools.product(*(range(-b, b + 1) for b in radii))),
            reverse=True,
        )
        short = [j for j in range(d) if len(vals) < K or axis_sup(j, radii[j] + 1) > vals[K - 1]]
        if not short:
            return vals[:K]
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
    assert rearrangement(psi, K).tolist() == pytest.approx(want, rel=1e-13, abs=0)


@settings(max_examples=150, deadline=None)
@given(
    profile=_PROFILE, r=st.sampled_from([1.0, 2.0, math.inf]),
    d=st.integers(1, 2), K=st.integers(1, 100),
)
def test_radial_rearrangement_matches_full_sort(profile, r, d, K):
    def norm(k):
        if r == math.inf:
            return float(max(abs(x) for x in k))
        return sum(abs(x) ** r for x in k) ** (1.0 / r)

    psi = RadialPsi(profile, d=d, r=r)
    # the origin reads the profile at 1; |k_j| >= b implies |k|_r >= b
    want = _box_sort(
        lambda k: _shape_value(profile, max(norm(k), 1.0)),
        lambda j, b: _shape_value(profile, b),
        d, K,
    )
    assert rearrangement(psi, K).tolist() == pytest.approx(want, rel=1e-13, abs=0)


def test_axis_index_inverts_seq_position():
    assert [_axis_index(j) for j in range(5)] == [0, -1, 1, -2, 2]
    assert all(_seq_position(_axis_index(j)) == j + 1 for j in range(10_000))
