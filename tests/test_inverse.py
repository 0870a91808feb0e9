import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spapprox import (
    FrequencyLadder,
    InputDomainError,
    Majorant,
    PreconditionError,
    Spectrum,
    abel_sum_identity,
    bari_check,
    class_membership_homega,
    inverse_bound_alpha,
    inverse_bound_general,
    phi_alpha,
    phi_custom,
    sharpness_single_frequency,
)
from spapprox import moduli
from spapprox.inverse import _tail_powers
from spapprox.spectrum import ladder_tail_norm
from spapprox.testing import random_spectrum_on_ladder

LAD = FrequencyLadder.integer()


def test_abel_examples():
    assert abel_sum_identity([1, 2], [1, 1], 1, 2) == (3.0, 3.0)
    assert abel_sum_identity([1, 5, 9], [0, 0, 0], 1, 3) == (0.0, 0.0)


@given(
    st.lists(st.integers(-9, 9), min_size=2, max_size=10),
    st.data(),
)
@settings(max_examples=100, deadline=None)
def test_abel_identity_exact_on_integers(a, data):
    c = data.draw(st.lists(st.integers(-9, 9), min_size=len(a), max_size=len(a)))
    N1 = data.draw(st.integers(1, len(a)))
    N2 = data.draw(st.integers(N1, len(a)))
    lhs, rhs = abel_sum_identity(a, c, N1, N2)
    assert abs(lhs - rhs) < 1e-14


def test_inverse_general_trivial_and_witness():
    f0 = Spectrum.real({0.0: 3.0})
    r = inverse_bound_general(f0, phi_alpha(1.0), LAD, 3, math.pi, 2.0)
    assert r.lhs == 0.0 and r.rhs == 0.0 and r.holds
    # single-frequency witness: tails are 1 up to the witness index, 0 after
    k0 = 3
    fstar = Spectrum.real({float(k0): 1.0})
    from spapprox import ladder_tail_norm

    for v in range(1, 7):
        expect = 1.0 if v <= k0 else 0.0
        assert ladder_tail_norm(fstar, float(v), 2.0) == expect


def test_inverse_bounds_hold_on_ladders(rng):
    ladders = [
        LAD,
        FrequencyLadder(lambda k: k + 0.3 * math.sin(k), gap_bound=1.6, label="wobble"),
        FrequencyLadder(lambda k: float(k * k), label="squares"),
    ]
    for i in range(60):
        lad = ladders[i % 3]
        f = random_spectrum_on_ladder(rng, lad, max_index=12)
        n = int(rng.integers(1, 8))
        p = float(rng.uniform(1.0, 3.0))
        alpha = max(1.05 / p, float(rng.uniform(0.4, 2.0)))
        rg = inverse_bound_general(f, phi_alpha(alpha), lad, n, math.pi, p)
        ri = inverse_bound_alpha(f, alpha, p, lad, n, "improved")
        rc = inverse_bound_alpha(f, alpha, p, lad, n, "classic")
        assert rg.holds and ri.holds and rc.holds
        assert ri.rhs <= rc.rhs * (1 + 1e-12)
        assert ri.details["ratio_vs_classic"] <= 1 + 1e-12
        if lad.gap_bound is not None:
            assert inverse_bound_alpha(f, alpha, p, lad, n, "gap").holds


def test_improved_holds_below_unit_exponent(rng):
    # the improved and general variants stay valid even for alpha p < 1
    for _ in range(40):
        f = random_spectrum_on_ladder(rng, LAD, max_index=10)
        alpha, p = float(rng.uniform(0.2, 0.9)), 1.0
        assert inverse_bound_alpha(f, alpha, p, LAD, 4, "improved").holds
        assert inverse_bound_general(f, phi_alpha(alpha), LAD, 4, math.pi, p).holds


def test_gap_variant_requires_bound():
    f = Spectrum.real({4.0: 1.0})
    lad = FrequencyLadder(lambda k: float(k * k), label="squares")
    with pytest.raises(PreconditionError):
        inverse_bound_alpha(f, 1.0, 2.0, lad, 3, "gap")


def test_general_requires_monotone_phi():
    f = Spectrum.real({1.0: 1.0})
    with pytest.raises(InputDomainError):
        inverse_bound_general(f, phi_alpha(1.0), LAD, 2, 2 * math.pi, 2.0)


@pytest.mark.parametrize("n", [1.5, math.nan, math.inf])
def test_inverse_bounds_reject_a_non_integer_n(n):
    # each raised TypeError from inside the ladder
    f = Spectrum.real({1.0: 1.0, 3.0: 0.5})
    with pytest.raises(InputDomainError):
        inverse_bound_general(f, phi_alpha(1.0), LAD, n, math.pi, 2.0)
    with pytest.raises(InputDomainError):
        inverse_bound_alpha(f, 1.0, 2.0, LAD, n)


def test_pi_alpha_sharpness_threshold():
    for alpha in (1.0, 2.0):
        target = math.pi ** alpha - 0.1
        n0 = next(
            (n for n in range(1, 256) if sharpness_single_frequency(alpha, 2.0, LAD, 1, n) > target),
            None,
        )
        assert n0 is not None
        # once reached, the ratio stays above the threshold on a sample
        for n in (n0, 2 * n0, 4 * n0):
            assert sharpness_single_frequency(alpha, 2.0, LAD, 1, n) > target


def test_bari_power_majorants():
    grid = [16, 32, 64, 128, 256, 512, 1024, 2048, 4096]
    ok = bari_check(lambda t: t ** 0.5, LAD, 1.0, grid)
    assert ok.bounded
    bad = bari_check(lambda t: t ** 1.0, LAD, 1.0, grid)
    assert not bad.bounded
    single = bari_check(lambda t: t ** 1.0, LAD, 1.0, [64])
    assert single.bounded  # a singleton range is trivially bounded


def test_majorant_validation():
    Majorant(lambda t: t ** 0.5)
    with pytest.raises(InputDomainError):
        Majorant(lambda t: 1.0 + 0 * t)  # does not vanish at 0+
    with pytest.raises(InputDomainError):
        Majorant(lambda t: -t)


def test_membership_consistent_power_decay():
    r, p, alpha = 0.8, 2.0, 1.0
    f = Spectrum.real({
        float(k) * s: (abs(k)) ** (-r - 1 / p) for k in range(1, 48) for s in (1, -1)
    })
    rep = class_membership_homega(f, lambda t: t ** r, alpha, p, LAD, [2, 4, 8, 16, 32])
    assert rep.direct_bounded and rep.modulus_bounded and rep.bari_ok
    assert rep.consistent
    assert rep.details["converse_certified"]


def test_membership_trig_polynomial_always_member():
    f = Spectrum.real({1.0: 1.0, -1.0: 0.5, 2.0: 0.25})
    rep = class_membership_homega(f, lambda t: t ** 0.4, 1.0, 2.0, LAD, [4, 8, 16, 32])
    assert rep.direct_bounded and rep.consistent


def test_membership_uncertified_converse_reported():
    # majorant violating the regularity condition: the converse direction is
    # reported as not certified
    f = Spectrum.real({float(k): k ** -2.0 for k in range(1, 24)})
    rep = class_membership_homega(
        f, lambda t: t ** 1.0, 1.0, 1.0, LAD, [16, 64, 256, 1024]
    )
    assert not rep.bari_ok
    assert not rep.details["converse_certified"]


def test_inverse_variants_sample_one_modulus(monkeypatch):
    sampled = []
    original = moduli._sampled_objective

    def counting(*args):
        sampled.append(args)
        return original(*args)

    monkeypatch.setattr(moduli, "_sampled_objective", counting)
    moduli._omega.cache_clear()
    f = Spectrum.real({0.0: 0.5, 1.0: 1.0, -2.0: 0.4j, 3.0: 0.25, -5.0: 0.1})
    alpha, p, n = 1.3, 1.7, 4
    results = [inverse_bound_general(f, phi_alpha(alpha), LAD, n, math.pi, p)]
    results += [inverse_bound_alpha(f, alpha, p, LAD, n, variant)
                for variant in ("classic", "improved", "gap")]
    assert len(sampled) == 1
    assert len({r.lhs for r in results}) == 1
    assert all(r.holds for r in results)


@given(seed=st.integers(0, 2 ** 32 - 1), p=st.floats(0.5, 4.0), n=st.integers(1, 9))
@settings(max_examples=50, deadline=None)
def test_tail_powers_match_ladder_tail_norm(seed, p, n):
    lad = FrequencyLadder(lambda k: k + 0.3 * math.sin(k), gap_bound=1.6, label="wobble")
    f = random_spectrum_on_ladder(np.random.default_rng(seed), lad, max_index=12)
    lam = lad.values(n)
    want = [ladder_tail_norm(f, lam[v], p) ** p for v in range(1, n + 1)]
    assert _tail_powers(f, lam, p).tolist() == want
