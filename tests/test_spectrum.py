import json
import math
import os
import tempfile

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from spapprox import (
    DifferenceScheme,
    InputDomainError,
    ParseError,
    Spectrum,
    apply_difference,
    apply_steklov_difference,
    best_tail_approx,
    difference_multiplier,
    greedy_select,
    ladder_tail_norm,
    load_spectrum,
    omega_phi,
    partial_sum,
    phi_alpha,
    save_spectrum,
    sp_norm,
    spectrum_from_json_dict,
    spectrum_to_json_dict,
    steklov_multiplier,
)
from spapprox.ladder import FrequencyLadder
from spapprox.oracle import oracle_nterm_exhaustive
from spapprox.testing import random_spectrum, random_spectrum_on_ladder


def test_norm_single_unit_coefficient():
    assert sp_norm(Spectrum.real({1.0: 1.0}), 2) == 1.0


def test_norm_finite_geometric_sum():
    f = Spectrum.lattice({0: 1.0, 1: 0.5, 2: 0.25})
    assert sp_norm(f, 1) == pytest.approx(1.75, abs=0)


def test_norm_two_unit_coefficients():
    f = Spectrum.lattice({-1: 1.0, 1: 1.0})
    assert sp_norm(f, 2) == pytest.approx(math.sqrt(2.0), abs=1e-15)


def test_norm_sup_branch():
    f = Spectrum.lattice({0: 3.0, 5: -4.0})
    assert sp_norm(f, math.inf) == 4.0


def test_norm_rejects_bad_exponent_and_nonfinite():
    with pytest.raises(InputDomainError):
        sp_norm(Spectrum.lattice({0: 1.0}), 0.5)
    with pytest.raises(InputDomainError):
        Spectrum.lattice({0: complex(math.nan, 0)})


def test_partial_sum_examples():
    f = Spectrum.lattice({0: 1.0, 1: 2.0})
    assert partial_sum(f, [0]).as_dict() == {(0,): (1 + 0j)}
    assert partial_sum(f, f.frequencies) == f
    g = Spectrum.lattice({-1: 1j, 1: 1.0, 2: 3.0})
    s = partial_sum(g, lambda k: abs(k[0]) <= 1)
    assert sp_norm(Spectrum.lattice({2: 3.0}), 1) == best_tail_approx(g, lambda k: abs(k[0]) <= 1, 1) == 3.0
    assert set(s.frequencies) == {(-1,), (1,)}


def test_partial_sum_minimality_under_perturbation(rng):
    # keeping the exact coefficient on a retained frequency is strictly optimal
    f = Spectrum.lattice({k: complex(*rng.normal(size=2)) for k in range(-3, 4)})
    region = [(-1,), (0,), (2,)]
    base = best_tail_approx(f, region, 1.7)
    for _ in range(25):
        g = {k: f.coefficient(k) for k in region}
        key = region[rng.integers(0, len(region))]
        g[key] += complex(*(0.2 * rng.normal(size=2) + 0.01))
        diff = Spectrum.lattice(
            {k: c - g.get(k, 0j) for k, c in f.items()} | {k: -c for k, c in g.items() if k not in f}
        )
        assert sp_norm(diff, 1.7) > base


def test_best_tail_examples():
    assert best_tail_approx(Spectrum.lattice({1: 1.0}), [1], 2) == 0.0
    f = Spectrum.lattice({-1: 1.0, 0: 1.0, 1: 1.0})
    assert best_tail_approx(f, [0], 1) == 2.0
    g = Spectrum.lattice({k: 2.0 ** -k for k in range(6)})
    assert best_tail_approx(g, [0, 1], 1) == pytest.approx(0.46875, abs=1e-15)


def test_tail_monotone_in_region(rng):
    f = Spectrum.lattice({k: complex(*rng.normal(size=2)) for k in range(-4, 5)})
    gamma = [(-1,), (2,)]
    larger = gamma + [(0,), (3,)]
    for p in (1.0, 1.5, 2.0, math.inf):
        assert best_tail_approx(f, larger, p) <= best_tail_approx(f, gamma, p) + 1e-15


def test_greedy_examples():
    g = greedy_select(Spectrum.lattice({0: 3.0, 1: 1.0, 2: 2.0}), 2, 1)
    assert g.indices == {(0,), (2,)} and g.value == 1.0 and not g.tie
    f = Spectrum.lattice({0: 3.0, 1: 1.0, 2: 2.0})
    assert greedy_select(f, len(f), 2).value == 0.0


def test_greedy_tie_flag_and_oracle_value():
    # equal magnitudes at the cut: flagged, and the value matches the
    # exhaustive oracle (the value is tie-independent)
    f = Spectrum.lattice({1: 1.0, -1: 1.0, 2: 0.5, -2: 0.5, 3: 0.25, -3: 0.25})
    g = greedy_select(f, 3, 2)
    _, oracle_val = oracle_nterm_exhaustive(f, 3, 2)
    assert g.tie
    assert g.value == pytest.approx(math.sqrt(3.0 / 8.0), abs=1e-15)
    assert g.value == pytest.approx(oracle_val, abs=0)


# coefficients are a magnitude from a small set times a unit, so abs() is
# exact and equal magnitudes (ties at the cut) are common
_TIED_COEF = st.builds(
    lambda m, u: m * u, st.sampled_from([0.25, 0.5, 1.0, 2.0]), st.sampled_from([1, -1, 1j, -1j]),
)
_TIED_SPECTRA = st.one_of(
    st.dictionaries(st.integers(-24, 24).map(lambda x: x / 4), _TIED_COEF, max_size=8)
    .map(Spectrum.real),
    st.integers(1, 2).flatmap(lambda d: st.dictionaries(
        st.tuples(*[st.integers(-3, 3)] * d), _TIED_COEF, max_size=8,
    ).map(lambda entries: Spectrum.lattice(entries, d))),
)


def _documented_rank(freq):
    # the canonical order as documented: smaller |frequency| first (the
    # squared length of a lattice index, exact in integers), negative before
    # positive by the first nonzero component, then lexicographic
    x = freq if isinstance(freq, tuple) else (freq,)
    first = next((v for v in x if v != 0), 0)
    return (sum(v * v for v in x), first >= 0, x)


@given(f=_TIED_SPECTRA, n=st.integers(0, 9), p=st.sampled_from([1.0, 1.5, 2.0, math.inf]))
@settings(max_examples=200, deadline=None)
def test_greedy_matches_exhaustive_small(f, n, p):
    g = greedy_select(f, n, p)
    _, val = oracle_nterm_exhaustive(f, n, p)
    assert g.value == val
    mags = sorted((abs(c) for c in f.coefficients), reverse=True)
    assert g.tie == (0 < n < len(mags) and mags[n - 1] == mags[n])
    # ties are kept in the documented order
    ranked = sorted(f.items(), key=lambda kc: (-abs(kc[1]), _documented_rank(kc[0])))
    assert g.indices == {k for k, _ in ranked[:n]}


# components 0 or of magnitude in [2^-10, 2^10]: no term |c|^p (p <= 4)
# underflows, so the error bound below holds term by term
_COMPONENT = st.one_of(
    st.just(0.0), st.floats(2.0 ** -10, 2.0 ** 10), st.floats(-(2.0 ** 10), -(2.0 ** -10)),
)
_NORM_COEF = st.builds(complex, _COMPONENT, _COMPONENT)
_NORM_SPECTRA = st.one_of(
    st.dictionaries(st.integers(-24, 24).map(lambda x: x / 4), _NORM_COEF, max_size=8)
    .map(Spectrum.real),
    st.integers(1, 2).flatmap(lambda d: st.dictionaries(
        st.tuples(*[st.integers(-3, 3)] * d), _NORM_COEF, max_size=8,
    ).map(lambda entries: Spectrum.lattice(entries, d))),
)
_P = st.one_of(st.floats(0.0, 4.0, exclude_min=True), st.just(math.inf))
_U = 2.0 ** -53  # unit roundoff of a double


def _mp_norm(coefs, p):
    """(l_p norm, sum |c|^p) at 50 digits, from mpmath alone; the sum is
    None at p = inf."""
    with mpmath.workdps(50):
        mags = [mpmath.sqrt(mpmath.mpf(c.real) ** 2 + mpmath.mpf(c.imag) ** 2) for c in coefs]
        if p == math.inf:
            return max(mags, default=mpmath.mpf(0)), None
        total = mpmath.fsum(m ** mpmath.mpf(p) for m in mags)
        return total ** (1 / mpmath.mpf(p)), total


@given(f=_NORM_SPECTRA, p=_P, data=st.data())
@settings(max_examples=300, deadline=None)
def test_norms_match_mpmath_within_the_rounding_bound(f, p, data):
    kept = data.draw(st.sets(st.sampled_from(f.frequencies)) if len(f) else st.just(set()))
    ref, total = _mp_norm([c for k, c in f.items() if k not in kept], p)
    if ref == 0:
        assert best_tail_approx(f, kept, p) == 0.0
        return
    with mpmath.workdps(50):
        # a tiny p sends S^(1/p) past the double range
        assume(mpmath.mpf(2) ** -1000 < ref < mpmath.mpf(2) ** 1000)
        got = best_tail_approx(f, kept, p)
        # first-order relative error, u = 2^-53, with abs (hypot) and pow
        # each within 1 ulp (relative 2u):
        #   |c|^p    2u from pow, plus p times the 2u of abs     (2p + 2) u
        #   S        fsum rounds the exact sum of the terms once (2p + 3) u
        #   1/p      one rounding, which moves S^(1/p) by        u |ln S| / p
        #   S^(1/p)  pow's own 2u, plus S's error over p
        # in all (4 + (3 + |ln S|) / p) u; at p = inf the norm is one abs, 2u.
        # The factor 1.01 and expm1 cover the second-order terms, which
        # matter only where 1/p is huge
        if p == math.inf:
            bound = 2 * _U
        else:
            bound = (4 + (3 + abs(float(mpmath.log(total)))) / p) * _U
        assert abs(mpmath.mpf(got) - ref) <= mpmath.expm1(1.01 * bound) * ref
    if not kept and p >= 1:
        assert sp_norm(f, p) == got


@given(f=_NORM_SPECTRA)
@settings(max_examples=100, deadline=None)
def test_abs_coefficients_are_python_abs_computed_once(f):
    mags = f.abs_coefficients()
    assert mags.tolist() == [abs(c) for c in f.coefficients]
    assert f.abs_coefficients() is mags and not mags.flags.writeable


# p >= 1/16 keeps every tail below 8^16 * 2^11, inside the double range
@given(f=_NORM_SPECTRA, p=st.one_of(st.floats(1 / 16, 4.0), st.just(math.inf)),
       lam=st.floats(0.0, 7.0), n=st.integers(0, 9))
@settings(max_examples=200, deadline=None)
def test_norm_entry_points_agree_on_equal_index_sets(f, p, lam, n):
    g = greedy_select(f, n, p)
    assert g.value == best_tail_approx(f, g.indices, p)
    if f.d == 1:
        low = {k for k, x in zip(f.frequencies, f.scalar_frequencies()) if abs(x) < lam}
        assert ladder_tail_norm(f, lam, p) == best_tail_approx(f, low, p)


@pytest.mark.parametrize("p", [0.0, -1.0, math.nan])
def test_norm_entry_points_reject_p_outside_0_inf(p):
    f = Spectrum.real({0.0: 1.0, 1.0: 0.5, -2.0: 0.25j})
    calls = [
        lambda: sp_norm(f, p),
        lambda: best_tail_approx(f, [0.0], p),
        lambda: ladder_tail_norm(f, 1.0, p),
        lambda: greedy_select(f, 1, p),
    ]
    for call in calls:
        with pytest.raises(InputDomainError):
            call()


# |c| = 1.7e308 sqrt(2) is past the double range, while re and im are not
_HUGE = Spectrum.real({1.0: complex(1.7e308, 1.7e308)})


@pytest.mark.parametrize("call", [
    # a power |c|^p past the double range
    lambda: sp_norm(Spectrum.real({0.0: 1e200}), 2),
    # a modulus |c| past the double range, at p = 1
    lambda: greedy_select(_HUGE, 0, 1.0),
    lambda: ladder_tail_norm(_HUGE, 1.0, 1.0),
    lambda: omega_phi(_HUGE, phi_alpha(1.0), 1.0, 1.0),
    # the root: S = 2 to the 1/p = 1e84
    lambda: best_tail_approx(Spectrum.real({0.0: 1j, 0.25: 1j}), (), 1e-84),
], ids=["power", "modulus", "modulus-ladder", "modulus-omega", "root"])
def test_norm_past_the_double_range_is_an_input_error(call):
    # np.hypot's overflow warning would be an error under the test settings,
    # so these calls check that |c| is taken with the warning silenced
    with pytest.raises(InputDomainError, match="not a finite double"):
        call()


def test_difference_multiplier_examples():
    first = DifferenceScheme((1, -1))
    assert difference_multiplier(first, 1.0, math.pi) == pytest.approx(2.0, abs=1e-15)
    second = DifferenceScheme((1, -2, 1))
    assert difference_multiplier(second, 1.0, math.pi / 2) == pytest.approx(2.0, abs=1e-14)
    assert difference_multiplier(second, 3.7, 0.0) == 0.0
    # a small step, where a direct sum of the weights is 0.11 off
    t = 1e-4
    assert difference_multiplier(DifferenceScheme.classical(4), 1.0, t) == pytest.approx(
        (2.0 * math.sin(t / 2.0)) ** 4, rel=1e-14, abs=0)


def test_alternating_binomial_multiplier_closed_form():
    ts = np.linspace(0.0, 2 * math.pi, 41)
    for m in range(1, 6):
        scheme = DifferenceScheme.classical(m)
        for t in ts:
            target = (2.0 * abs(math.sin(t / 2.0))) ** m
            assert difference_multiplier(scheme, 1.0, t) == pytest.approx(target, abs=1e-12)


def test_difference_scheme_validation():
    with pytest.raises(InputDomainError):
        DifferenceScheme((1, -0.5))
    with pytest.raises(InputDomainError):
        DifferenceScheme((0, 0))


def test_steklov_multiplier_examples():
    assert steklov_multiplier(1, 1.0, 0.0) == 0.0
    assert steklov_multiplier(1, 1.0, math.pi) == pytest.approx(1.0, abs=1e-15)
    assert steklov_multiplier(2, 1.0, math.pi / 2) == pytest.approx((1 - 2 / math.pi) ** 2, abs=1e-15)
    # 1 - sinc t = t^2/6 (1 - t^2/20 + ...): (t^2/6)^2 to 1e-17 relative at
    # t = 1e-8, where 1 - sin(t)/t rounds to 0
    t = 1e-8
    assert steklov_multiplier(2, 1.0, t) == pytest.approx((t * t / 6.0) ** 2, rel=1e-15, abs=0)


def test_apply_steklov_matches_multiplier(rng):
    f = Spectrum.real({0.0: 1.0, 1.5: 0.5 + 0.25j, -2.0: 0.125})
    for m in (1, 2, 3):
        for h in (0.3, 1.1):
            g = apply_steklov_difference(f, m, h)
            for (k, c), lam in zip(f.items(), f.scalar_frequencies()):
                assert abs(abs(g.coefficient(k)) - steklov_multiplier(m, float(lam), h) * abs(c)) < 1e-15


def test_json_round_trip_and_duplicate_rejection():
    f = Spectrum.lattice({(1, 0): 1.0, (0, 1): 1j}, d=2)
    doc = spectrum_to_json_dict(f)
    assert spectrum_from_json_dict(doc) == f
    g = Spectrum.real({1.5: 1.0 - 0.5j})
    assert spectrum_from_json_dict(spectrum_to_json_dict(g)) == g
    bad = {"kind": "lattice", "d": 1, "entries": [
        {"k": [1], "re": 1.0, "im": 0.0}, {"k": [1], "re": 2.0, "im": 0.0}]}
    with pytest.raises(Exception):
        spectrum_from_json_dict(bad)


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_COEF = st.builds(complex, _FINITE, _FINITE)
_SPECTRA = st.one_of(
    st.dictionaries(_FINITE, _COEF, max_size=6).map(Spectrum.real),
    st.integers(1, 3).flatmap(lambda d: st.dictionaries(
        st.tuples(*[st.integers(-10 ** 6, 10 ** 6)] * d), _COEF, max_size=6,
    ).map(lambda entries: Spectrum.lattice(entries, d))),
)


def _bits(f: Spectrum) -> tuple:
    return (f.kind, f.d, repr(f.frequencies), repr(f.coefficients))


@settings(max_examples=100, deadline=None)
@given(f=_SPECTRA)
def test_json_round_trip_is_exact(f):
    assert _bits(spectrum_from_json_dict(spectrum_to_json_dict(f))) == _bits(f)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "f.json")
        save_spectrum(f, path)
        assert _bits(load_spectrum(path)) == _bits(f)

def test_fractional_lattice_index_is_rejected():
    assert Spectrum.lattice({(2.0,): 1.0}).frequencies == ((2,),)
    with pytest.raises(InputDomainError):
        Spectrum.lattice({(1.7,): 1.0})
    with pytest.raises(InputDomainError):
        Spectrum.lattice({(0, 0.5): 1.0}, d=2)
    doc = {"kind": "lattice", "entries": [{"k": [2.0], "re": 1.0}]}
    assert spectrum_from_json_dict(doc).frequencies == ((2,),)
    with pytest.raises(ParseError, match="entry 1"):
        spectrum_from_json_dict({"kind": "lattice", "entries": [
            {"k": [0], "re": 1.0}, {"k": [1.7], "re": 1.0}]})


def test_spectrum_never_mixes_kinds():
    with pytest.raises(InputDomainError):
        Spectrum("real", {}, d=2)
    with pytest.raises(InputDomainError):
        Spectrum.lattice({(1, 2): 1.0, (3,): 1.0})


# seeded spectra recorded before the generators shared one entry generator
PINNED_SPECTRA = [
    ("real", [
        (0.0, (0.9534395623107652+0.3015841524693505j)),
        (-1.0, (-0.8160959901741318-0.01725191590810997j)),
        (1.0, (-0.21541577812528537-0.7873413086555759j)),
        (-2.0, (0.1383152200104354-0.10666571149144924j)),
        (2.0, (0.11963879625116684-0.12726049082918084j)),
        (-3.0, (-0.07385742325673367-0.14883807826642684j)),
        (3.0, (-0.1296106508278503+0.10396524276963126j)),
        (4.0, (-0.007679864401188912+0.05663341853217215j)),
        (-5.0, (0.07072601894925502-0.011572919936927639j)),
        (5.0, (0.0069639657050646515+0.07132745203591391j)),
    ]),
    ("lattice", [
        ((0,), (-0.4262473469883942-0.9046066544003285j)),
        ((1,), (0.5270445396273529+0.41888225647537486j)),
        ((-2,), (-0.29350896437851265+0.0050389316373748326j)),
        ((2,), (0.2110866750017689+0.203998329991426j)),
        ((-3,), (0.14165338215722728-0.019010515142093662j)),
        ((3,), (0.08414718423212825-0.1155263249149453j)),
        ((-4,), (0.09008810343773421-0.12421603793229288j)),
        ((4,), (0.14649564139456675+0.04565651665424361j)),
        ((-5,), (-0.0568325076538666+0.03215494083144736j)),
        ((5,), (-0.05581498240415719-0.03389043943834766j)),
    ]),
    ("ladder", [
        (-1.0, (-0.021991247717568052+0.718525629433302j)),
        (1.0, (-0.23512582256829623+0.6793221199771727j)),
        (-2.8284271247461903, (0.0037689588786217272+0.24136050992450286j)),
        (2.8284271247461903, (-0.2404408859715452-0.021384133259573394j)),
        (-5.196152422706632, (0.0559489912354179+0.08842166373961437j)),
        (5.196152422706632, (0.10438431108496345-0.007252298812092713j)),
        (8.0, (-0.043254156367093996-0.015112690558825404j)),
        (-11.180339887498949, (-0.029612903410129402+0.006384053134028334j)),
        (11.180339887498949, (0.02953516155941268+0.006734568616856035j)),
    ]),
]


@pytest.mark.parametrize("kind,want", PINNED_SPECTRA, ids=[k for k, _ in PINNED_SPECTRA])
def test_seeded_generators_pinned(kind, want):
    if kind == "real":
        f = random_spectrum(5, kind="real", max_index=5)
    elif kind == "lattice":
        f = random_spectrum(6, kind="lattice", max_index=5)
    else:
        f = random_spectrum_on_ladder(7, FrequencyLadder(lambda k: k ** 1.5), max_index=5)
    assert list(f.items()) == want
    if kind == "lattice":
        assert all(type(x) is int for k in f.frequencies for x in k)
    else:
        assert all(type(k) is float for k in f.frequencies)
