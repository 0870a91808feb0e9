import collections
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from spapprox import (
    AxisPow,
    CertificationError,
    ClassSpec,
    ExplicitSeqPsi,
    ExplicitTablePsi,
    IdentityConvention,
    InputDomainError,
    PhasedPsi,
    PreconditionError,
    ProductPsi,
    RadialPsi,
    Spectrum,
    build_charseq,
    class_best_approx,
    class_sigma,
    class_widths,
    direct_identity_check,
    inverse_identity_check,
    kolmogorov_ladder,
    order_estimate_check,
    pin_convention,
    psi_derivative,
    psi_integral,
)
from spapprox import classes as classes_module
from spapprox.classes import DEFAULT_CONVENTION, _identity_tails, dyadic_doubling_check
from spapprox.oracle import SearchBudget, oracle_sigma_class
from spapprox.psi import _pow, rearrangement_padded
from spapprox.testing import identity_psi_families, random_integral_pair


@pytest.fixture
def geom_psi():
    return RadialPsi(("geom", 0.5), d=1, origin="exact")


def test_best_approx_set_form(geom_psi):
    spec = ClassSpec(geom_psi, 1.0, 1.0)
    assert class_best_approx(spec, gamma=[(0,)]).value == 0.5
    assert class_best_approx(spec, gamma=[]).value == 1.0


def test_best_approx_level_form(geom_psi):
    spec = ClassSpec(geom_psi, 2.0, 1.0)
    assert class_best_approx(spec, level=1).value == 1.0
    assert class_best_approx(spec, level=3).value == 0.25


def test_best_approx_geometric_tail_q_gt_p():
    spec = ClassSpec(ExplicitSeqPsi.geometric(0.5), 1.0, 2.0)
    # exponent pq/(q-p) = 2; level n sums the rearrangement squares from
    # position delta_{n-1}+1 on
    assert class_best_approx(spec, level=1).value == pytest.approx(
        math.sqrt(4.0 / 3.0), abs=1e-12
    )
    assert class_best_approx(spec, level=2).value == pytest.approx(
        math.sqrt(1.0 / 3.0), abs=1e-12
    )
    # index conventions: the level-(n+1) value coincides with the width of
    # order delta_n (same tail of the rearrangement)
    w = class_widths(spec, 1)
    assert w.value == pytest.approx(class_best_approx(spec, level=2).value, abs=0)


def test_widths_examples(geom_psi):
    spec = ClassSpec(geom_psi, 2.0, 1.0)
    assert class_widths(spec, 0).value == 1.0
    assert class_widths(spec, 1).value == 0.5
    assert class_widths(spec, 3).value == 0.25


def test_width_q_gt_p_certifies_summability():
    psi = ExplicitSeqPsi.harmonic()
    spec = ClassSpec(psi, 1.0, 2.0)  # exponent pq/(q-p) = 2: summable
    val = class_widths(spec, 1).value
    assert val == pytest.approx(math.sqrt(math.pi ** 2 / 6 - 1.0), abs=1e-8)
    bad = ClassSpec(ExplicitSeqPsi.harmonic(), 1.0, 1.5)  # exponent 3... summable too
    # exponent pq/(q-p): p=2, q=3 -> 6; harmonic^6 summable; a divergent case:
    worse = ClassSpec(ExplicitSeqPsi.power(0.4), 1.0, 2.0)  # 0.8 < 1 diverges
    with pytest.raises(PreconditionError):
        class_widths(worse, 1)


def test_kolmogorov_ladder_matches_level_values(geom_psi):
    spec = ClassSpec(geom_psi, 1.5, 1.5)
    for n in (1, 2, 3, 4):
        rep = kolmogorov_ladder(spec, n)
        lo, hi = rep.certificate["dimension_range"]
        assert rep.value == class_best_approx(spec, level=n).value
        # geometric radial: delta_n = 2n - 1, so the ladder step has width
        # delta_n - delta_{n-1} = 2 for n >= 2 and 1 at the first level
        assert (hi - lo + 1) == (1 if n == 1 else 2)
    with pytest.raises(PreconditionError):
        kolmogorov_ladder(ClassSpec(geom_psi, 2.0, 1.0), 1)


def test_sigma_harmonic_third(harmonic_psi):
    spec = ClassSpec(harmonic_psi, 1.0, 1.0)
    rep = class_sigma(spec, 1)
    assert rep.value == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert rep.s_star in (2, 3)


def test_sigma_geometric(harmonic_psi):
    spec = ClassSpec(ExplicitSeqPsi.geometric(0.5), 1.0, 1.0)
    rep = class_sigma(spec, 1)
    assert rep.value == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert rep.s_star == 2


def test_sigma_zero_beyond_finite_support():
    table = ExplicitSeqPsi.table([1.0, 0.5, 0.25])
    spec = ClassSpec(table, 1.0, 1.0)
    rep = class_sigma(spec, 3)
    assert rep.value == 0.0
    assert rep.warnings  # test-only system flagged


def test_sigma_nonincreasing_in_n(harmonic_psi):
    spec = ClassSpec(harmonic_psi, 1.0, 1.0)
    vals = [class_sigma(spec, n).value for n in range(1, 8)]
    assert all(b <= a + 1e-15 for a, b in zip(vals, vals[1:]))


def test_sigma_vanishes_relative_to_width():
    # for q < p the n-term value falls below the width scale as n grows
    # (at q = p the two quantities share the same order and the ratio only
    # stays bounded, so the decreasing check is meaningful for q < p)
    spec = ClassSpec(RadialPsi(("pow", 2.0), d=1), 2.0, 1.0)
    ratios = [
        class_sigma(spec, n).value / class_widths(spec, n).value
        for n in (4, 8, 16, 32, 64)
    ]
    assert all(b < a for a, b in zip(ratios, ratios[1:]))
    boundary = ClassSpec(RadialPsi(("pow", 2.0), d=1), 1.0, 1.0)
    bratios = [
        class_sigma(boundary, n).value / class_widths(boundary, n).value
        for n in (4, 8, 16, 32, 64)
    ]
    assert max(bratios) / min(bratios) < 3.0


def test_sigma_q_gt_p_vs_search_oracle():
    spec = ClassSpec(ExplicitSeqPsi.geometric(0.5), 1.0, 2.0)
    rep = class_sigma(spec, 1)
    res = oracle_sigma_class(
        np.array([0.5 ** k for k in range(8)]), 1.0, 2.0, 1, 8,
        SearchBudget(seed=7, restarts=64),
    )
    assert res.lower_bound <= rep.value + 1e-9
    assert res.lower_bound >= rep.value * 0.98  # pins the head-length rule
    assert rep.s_star == 2


_SIGMA_SYSTEMS = {
    "harmonic": ExplicitSeqPsi.harmonic,
    "power-1.5": lambda: ExplicitSeqPsi.power(1.5, 2.0),
    "geometric": lambda: ExplicitSeqPsi.geometric(0.9),
    "table": lambda: ExplicitSeqPsi.table([1.0 / (1 + k) ** 0.5 for k in range(700)]),
    "hyperbolic": lambda: ProductPsi([AxisPow(1), AxisPow(1)]),
    "radial": lambda: RadialPsi(("pow", 1.5), d=2, r=2.0),
}


@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(sorted(_SIGMA_SYSTEMS)),
    pq=st.sampled_from([(1.0, 1.0), (2.0, 1.0), (3.0, 1.5), (1.0, 2.0), (1.5, 4.0)]),
    n=st.integers(1, 300),
)
def test_sigma_scan_matches_one_shot_cumsum(name, pq, n):
    # the scan adds each block's terms to a running carry; its maximum and
    # argmax are bit for bit those of one cumsum over the scanned prefix
    p, q = pq
    spec = ClassSpec(_SIGMA_SYSTEMS[name](), p, q)
    try:
        rep = class_sigma(spec, n)
    except PreconditionError:
        assume(False)
    end = rep.certificate["at_s"]
    rr = rearrangement_padded(spec.psi, end)
    base = np.where(rr > 0.0, rr, 1.0)
    cums = np.cumsum(np.where(rr > 0.0, _pow(base, -q), np.inf))[n:]
    s = np.arange(n + 1, end + 1, dtype=np.float64)
    with np.errstate(over="ignore"):
        if q <= p:
            obj, root = (s - n) * cums ** (-p / q), 1.0 / p
        else:
            e = spec.tail_exponent
            tails = spec.tail()[0] - np.cumsum(np.where(rr > 0.0, _pow(base, e), 0.0))[n:]
            obj = (s - n) ** (q / (q - p)) * cums ** (-p / (q - p)) + np.maximum(tails, 0.0)
            root = (q - p) / (p * q)
    obj = np.where(np.isfinite(obj), obj, 0.0)
    i = int(np.argmax(obj))
    if obj[i] > 0.0:
        assert (rep.value, rep.s_star) == (float(obj[i]) ** root, n + 1 + i)
    else:
        assert (rep.value, rep.s_star) == (0.0, None)


def test_sigma_q_gt_p_needs_certificate():
    spec = ClassSpec(ExplicitSeqPsi.power(0.4), 1.0, 2.0)
    with pytest.raises(PreconditionError):
        class_sigma(spec, 1)


def test_identities_exact_on_families(rng):
    worst = 0.0
    for psi in identity_psi_families():
        for trial in range(20):
            f, _ = random_integral_pair(rng, psi, max_index=4)
            n = int(rng.integers(1, 5))
            for p in (1.0, 2.0):
                d = direct_identity_check(f, psi, n, p=p)
                i = inverse_identity_check(f, psi, n, p=p)
                assert i.convergence_ok
                worst = max(worst, d.residual, i.residual)
    assert worst < 1e-12


def test_identity_tails_are_rounded_once(rng):
    # each side's level tail is the exact sum of its |c|^p terms, rounded
    # once; a sum of per-level sums rounds twice and can miss by an ulp
    for psi in identity_psi_families():
        for trial in range(20):
            f, _ = random_integral_pair(rng, psi, max_index=4)
            n, p = int(rng.integers(1, 5)), float(rng.choice([1.0, 1.5, 2.0]))
            mags = {k: psi.magnitude(k) for k in f.frequencies}
            cs = build_charseq(psi, down_to_value=min(mags.values()))
            for check, g in ((direct_identity_check, f), (inverse_identity_check, psi_derivative(f, psi))):
                exact = sum(Fraction(abs(c) ** p) for k, c in g.items()
                            if cs.level_of_value(mags[k]) >= n)
                assert check(f, psi, n, p=p).lhs == float(exact)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("p", [1.0, 2.0])
def test_identity_tails_of_a_system_with_fewer_levels_than_asked(n, p):
    # the identities ask for n + 2 levels; a two-level table has fewer, so
    # its tails are read from all of its levels, and with dyadic values
    # both sides are exact: the lhs is the exact tail and the residual 0
    psi = ExplicitTablePsi({0: 1.0, 1: 0.5, -1: 0.5})
    level = {(0,): 1, (1,): 2, (-1,): 2}
    f = Spectrum.lattice({0: 0.75, 1: -0.375, -1: 0.625})
    for check, g in ((direct_identity_check, f), (inverse_identity_check, psi_derivative(f, psi))):
        r = check(f, psi, n, p=p)
        assert r.lhs == sum(Fraction(abs(c)) ** int(p) for k, c in g.items() if level[k] >= n)
        assert r.residual == 0.0


def test_identity_trivial_inside_levels(geom_psi):
    # spectrum inside the first n-1 levels: both sides vanish
    f = Spectrum.lattice({0: 1.0, 1: 0.5j, -1: -0.25})
    r = direct_identity_check(f, geom_psi, 3, p=1.5)
    assert r.lhs == r.rhs == 0.0
    ri = inverse_identity_check(f, geom_psi, 3, p=1.5)
    assert ri.lhs == ri.rhs == 0.0


def test_single_shell_identity(geom_psi):
    # one coefficient in level n+1: lhs = eps_{n+1}^p |coef/psi|^p exactly
    n, p = 2, 1.7
    f = Spectrum.lattice({2: 0.25 * 0.6})  # psi(2) = 0.25, derivative coef 0.6
    r = direct_identity_check(f, geom_psi, n, p=p)
    assert r.lhs == pytest.approx(abs(0.25 * 0.6) ** p, abs=1e-15)
    assert r.residual < 1e-15


def test_pin_convention_default_exact(rng):
    psi = identity_psi_families()[0]
    cases = []
    for _ in range(8):
        f, _ = random_integral_pair(rng, psi, max_index=4)
        cases.append((f, psi, int(rng.integers(2, 5))))
    ranked = pin_convention(cases, p=1.5)
    assert ranked[0][1] < 1e-13
    exact = {repr(c) for c, w in ranked if w < 1e-13}
    assert repr(IdentityConvention(0, 0)) in exact
    # everything outside the re-indexing equivalence class fails clearly
    inexact = [w for c, w in ranked if repr(c) not in exact]
    assert all(w > 1e-6 for w in inexact)


def test_order_estimate_band():
    rep = order_estimate_check(lambda t: t ** -2.0, 1, math.inf, 1.0, 1.0, [4, 8, 16, 32, 64])
    assert rep.delta2_ok
    assert rep.bounded and rep.band_quotient < 10


def test_order_estimate_q_gt_p_callable_profile():
    # class_sigma q > p certifies the callable profile's tail via power_bound
    rep = order_estimate_check(lambda t: t ** -2.0, 1, math.inf, 1.0, 2.0, [2, 4, 8],
                               power_bound=(1.0, 2.0, 1.0))
    assert rep.delta2_ok and rep.bounded

def test_order_estimate_delta2_warning():
    ok, _ = dyadic_doubling_check(lambda t: math.exp(-t))
    assert not ok
    rep = order_estimate_check(lambda t: math.exp(-t), 1, math.inf, 1.0, 1.0, [2, 4])
    assert not rep.delta2_ok
    assert rep.warnings


def test_order_estimate_singleton_trivially_bounded():
    rep = order_estimate_check(lambda t: t ** -2.0, 1, math.inf, 1.0, 1.0, [8])
    assert rep.bounded and rep.band_quotient == 1.0


def test_reported_values_ignore_phase(rng):
    base = RadialPsi(("geom", 0.5), d=1, origin="exact")
    phased = PhasedPsi(base, lambda k: complex(math.cos(0.7 * k[0]), math.sin(0.7 * k[0])))
    for n in (1, 2, 4):
        assert class_widths(ClassSpec(base, 2.0, 1.0), n).value == \
            class_widths(ClassSpec(phased, 2.0, 1.0), n).value
    s1 = class_sigma(ClassSpec(base, 1.0, 1.0), 2)
    s2 = class_sigma(ClassSpec(phased, 1.0, 1.0), 2)
    assert s1.value == s2.value


nan = math.nan

# (lhs, rhs, residual, convergence_ok) of the direct and the inverse identity
# per (eps_offset, tail_offset), recorded before both identities shared one
# implementation and re-recorded when each level tail became one correctly
# rounded fsum (every lhs that moved then equals the exact tail rounded
# once); None where a PreconditionError was raised
IDENTITY_PINS = {
    (3, 0, 1): {
        (-1, -1): [(1.8875874652554938, nan, nan, True), (4.459663693244699, nan, nan, True)],
        (-1, 0): [(1.8875874652554938, nan, nan, True), (4.459663693244699, nan, nan, True)],
        (-1, 1): [(0.47137274632201986, nan, nan, True), (3.043448974311225, nan, nan, True)],
        (0, -1): [None, None],
        (0, 0): [(1.8875874652554938, 1.8875874652554936, 2.220446049250313e-16, True),
                 (4.459663693244699, 4.459663693244699, 0.0, True)],
        (0, 1): [(0.47137274632201986, 1.601743025424827, 1.1303702791028072, True),
                 (3.043448974311225, 1.2153087094731494, 1.8281402648380758, True)],
        (1, -1): [None, None],
        (1, 0): [None, None],
        (1, 1): [(0.47137274632201986, 0.47137274632201986, 0.0, True),
                 (3.043448974311225, 3.043448974311225, 0.0, True)],
    },
    (4, 1, 2): {
        (-1, -1): [(2.2194662965492897, 2.21946629654929, 4.440892098500626e-16, True),
                   (6.029971766357124, 6.029971766357123, 8.881784197001252e-16, True)],
        (-1, 0): [(1.2762451863369544, 1.892019692189069, 0.6157745058521147, True),
                  (5.086750656144789, 3.810505469807834, 1.2762451863369546, True)],
        (-1, 1): [(0.9787972527545085, 1.996673267213324, 1.0178760144588157, True),
                  (4.4918547889798965, 2.5342602834708794, 1.9575945055090171, True)],
        (0, -1): [None, None],
        (0, 0): [(1.2762451863369544, 1.2762451863369544, 0.0, True),
                 (5.086750656144789, 5.086750656144789, 0.0, True)],
        (0, 1): [(0.9787972527545085, 1.297123825024177, 0.31832657226966854, True),
                 (4.4918547889798965, 3.513057536225388, 0.9787972527545086, True)],
        (1, -1): [None, None],
        (1, 0): [None, None],
        (1, 1): [(0.9787972527545085, 0.9787972527545086, 1.1102230246251565e-16, True),
                 (4.4918547889798965, 4.4918547889798965, 0.0, True)],
    },
}


@pytest.mark.parametrize("seed,family,n", sorted(IDENTITY_PINS))
def test_identity_values_pinned_for_every_convention(seed, family, n):
    psi = identity_psi_families()[family]
    f, _ = random_integral_pair(seed, psi)
    for (eo, to), want in IDENTITY_PINS[(seed, family, n)].items():
        conv = IdentityConvention(eps_offset=eo, tail_offset=to)
        for check, pinned in zip((direct_identity_check, inverse_identity_check), want):
            if pinned is None:
                with pytest.raises(PreconditionError):
                    check(f, psi, n, conv)
                continue
            r = check(f, psi, n, conv)
            got = (r.lhs, r.rhs, r.residual, r.convergence_ok)
            for a, b in zip(got, pinned):
                assert a == b or (math.isnan(a) and math.isnan(b)), (check.__name__, eo, to, got)


@pytest.mark.parametrize("call", [
    # each raised TypeError from a slice, and an infinite order ran the
    # n-term scan out of budget
    lambda spec: class_best_approx(spec, level=1.5),
    lambda spec: class_widths(spec, 1.5),
    lambda spec: kolmogorov_ladder(spec, 1.5),
    lambda spec: class_sigma(spec, 1.5),
    lambda spec: direct_identity_check(Spectrum.lattice({0: 0.0, 1: 0.5}), spec.psi, 1.5),
    lambda spec: inverse_identity_check(Spectrum.lattice({0: 0.0, 1: 0.5}), spec.psi, 2.5),
    lambda spec: class_sigma(spec, math.inf),
])
def test_levels_and_orders_must_be_integers(call):
    with pytest.raises(InputDomainError):
        call(ClassSpec(ExplicitSeqPsi.geometric(0.5), 1.0, 1.0))


@pytest.mark.parametrize("p", [-1.0, 0.0, math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("check", [direct_identity_check, inverse_identity_check])
def test_identity_checks_reject_an_exponent_outside_zero_to_inf(check, p):
    # p = -1 once divided by zero, p = 0 read 2.0 on both sides, p = inf
    # raised from fsum or read inf, and p = nan read nan
    f = Spectrum.lattice({0: 0.0, 1: 0.5})
    before = _identity_tails.cache_info()
    with pytest.raises(InputDomainError, match="exponent p"):
        check(f, ExplicitSeqPsi.harmonic(), 1, p=p)
    assert _identity_tails.cache_info() == before


def _count_identity_passes(monkeypatch):
    """Counts of psi_derivative calls and _level_tails passes, from cold."""
    _identity_tails.cache_clear()
    calls = collections.Counter()
    for name in ("psi_derivative", "_level_tails"):
        def counted(*args, _fn=getattr(classes_module, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(classes_module, name, counted)
    return calls


def test_identity_pair_makes_one_derivative_and_one_level_pass(monkeypatch):
    psi = identity_psi_families()[1]
    f, _ = random_integral_pair(3, psi)
    calls = _count_identity_passes(monkeypatch)
    direct_identity_check(f, psi, 2, p=1.5)
    inverse_identity_check(f, psi, 2, p=1.5)
    assert calls == {"psi_derivative": 1, "_level_tails": 1}
    # the nine conventions of one case read one entry too
    g, _ = random_integral_pair(4, psi)
    pin_convention([(g, psi, 2)], p=1.5)
    assert calls == {"psi_derivative": 2, "_level_tails": 2}


def test_identity_tails_are_keyed_by_system_exponent_and_level(monkeypatch):
    psi, twin = identity_psi_families()[0], identity_psi_families()[0]
    f, _ = random_integral_pair(5, psi)
    calls = _count_identity_passes(monkeypatch)
    keys = [(psi, 1.0, 2), (twin, 1.0, 2), (psi, 2.0, 2), (psi, 1.0, 3)]
    for k, (system, p, n) in enumerate(keys):
        direct_identity_check(f, system, n, p=p)
        inverse_identity_check(f, system, n, p=p)
        assert calls["_level_tails"] == k + 1
    # an equal spectrum and an equal exponent of another type share the entry
    direct_identity_check(Spectrum.lattice(f.as_dict()), psi, 2, p=1)
    assert calls["_level_tails"] == 4


_IDENTITY_SYSTEMS = {
    "product": lambda: ProductPsi([AxisPow(1.0), AxisPow(2.0)]),
    "radial": lambda: RadialPsi(("pow", 3.0), d=2),
    "sequence": ExplicitSeqPsi.harmonic,
    "phased": lambda: PhasedPsi(RadialPsi(("pow", 2.0), d=1),
                                lambda k: complex(math.cos(0.7 * k[0]), math.sin(0.7 * k[0]))),
}


def _identity_outcome(check, f, psi, n, conv, p):
    """(lhs, rhs, residual, convergence_ok), or the type of error raised."""
    try:
        r = check(f, psi, n, conv, p)
    except PreconditionError as exc:
        return type(exc)
    return r.lhs, r.rhs, r.residual, r.convergence_ok


@settings(max_examples=60, deadline=None)
@given(system=st.sampled_from(sorted(_IDENTITY_SYSTEMS)), seed=st.integers(0, 2 ** 16),
       p=st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0]), n=st.integers(1, 5),
       offsets=st.tuples(st.integers(-1, 1), st.integers(-1, 1)))
def test_warm_identity_tails_read_as_cold_ones(system, seed, p, n, offsets):
    psi = _IDENTITY_SYSTEMS[system]()
    f, _ = random_integral_pair(seed, psi)
    conv = IdentityConvention(*offsets)
    checks = (direct_identity_check, inverse_identity_check)
    _identity_tails.cache_clear()
    for check in checks:
        _identity_outcome(check, f, psi, n, DEFAULT_CONVENTION, p)
    warm = [_identity_outcome(check, f, psi, n, conv, p) for check in checks]
    _identity_tails.cache_clear()
    cold = [_identity_outcome(check, f, psi, n, conv, p) for check in checks]
    for a, b in zip(warm, cold):
        if isinstance(a, type):
            assert a is b
            continue
        assert all(x == y or (math.isnan(x) and math.isnan(y)) for x, y in zip(a, b)), (a, b)


def test_identity_tails_of_an_infinite_system_keep_its_first_error():
    # the identities ask for n + 2 = 3 levels; this profile never falls
    # below 0.3, so only two can be certified: the read raises, and no read
    # down to 0 follows
    psi = RadialPsi(lambda t: max(1.0 / t, 0.3), d=2)
    f = Spectrum.lattice({(0, 0): 0.5, (1, 2): 0.25}, 2)
    with pytest.raises(CertificationError, match="certifies 50 indices"):
        direct_identity_check(f, psi, 1)


def _lattice_workload_systems():
    return {
        "hyperbolic": ProductPsi([AxisPow(1.0), AxisPow(1.0)]),
        "anisotropic": ProductPsi([AxisPow(1.0), AxisPow(2.0)]),
        "radial1": RadialPsi(("pow", 2.0), d=1),
        "radial2": RadialPsi(("pow", 3.0), d=2),
        "harmonic": ExplicitSeqPsi.harmonic(),
        "geom2": RadialPsi(("geom", 0.5), d=2, r=2),
    }


def test_one_power_sum_per_class_spec(monkeypatch):
    psi = RadialPsi(("pow", 3.0), d=2)
    calls = []
    original = RadialPsi.power_sum_total
    monkeypatch.setattr(
        RadialPsi, "power_sum_total", lambda self, e: calls.append(e) or original(self, e)
    )
    spec = ClassSpec(psi, 1.0, 2.0)
    class_sigma(spec, 3)
    class_widths(spec, 0)
    class_widths(spec, 3)
    class_best_approx(spec, level=3)
    class_best_approx(spec, gamma=[(0, 0), (1, 0)])
    assert calls == [2.0]


# q > p (p, q = 1, 2; tail exponent 2) on the lattice-workload systems and a
# geometric radial d = 2, r = 2 system, recorded with the Euler-Maclaurin
# power tails: (value, tail_bound) of the empty-head tail (width n = 0 =
# best level 1) and of width n = 3; (value, tail_bound, tail_from) of best
# level 3; (value, envelope, at_s) of sigma n = 3
_PINNED_TAILS = {
    "hyperbolic": {
        "total": (4.289868133696453, 7.251638118987234e-14),
        "width": (3.9246615910807257, 7.551638118987234e-14),
        "level": (2.530408782095156, 8.451638118987234e-14, 22),
        "sigma": (3.8279196183441853, 12.775267822065349, 963),
    },
    "anisotropic": {
        "total": (3.6845509950345203, 5.312979678498528e-14),
        "width": (3.252063350399231, 5.6129796784985284e-14),
        "level": (1.7538289640127036, 6.362979678498528e-14, 16),
        "sigma": (3.13463172238939, 9.701471527077752, 195),
    },
    "radial1": {
        "total": (1.7789453244611753, 7.38082531644891e-15),
        "width": (0.4057665183603451, 1.038082531644891e-14),
        "level": (0.19911420698251617, 1.050582531644891e-14, 6),
        "sigma": (0.39341841132520056, 0.008642780905834258, 67),
    },
    "radial2": {
        "total": (3.0488394580802316, 2.1679412032942996e-14),
        "width": (2.5090679626401036, 2.4679412032942996e-14),
        "level": (0.21312447336465118, 3.0929412032942995e-14, 26),
        "sigma": (2.3548719797787223, 1.3714820283730624, 67),
    },
    "harmonic": {
        "total": (1.282549830161864, 3.89422393952726e-15),
        "width": (0.5327503690633308, 5.2553350506383715e-15),
        "level": (0.6284377987106015, 5.14422393952726e-15, 3),
        "sigma": (0.5046348076286936, 0.16672574417508645, 195),
    },
    "geom2": {
        "total": (1.6805437943748143, 6.586854248021562e-15),
        "width": (1.4402178463037103, 7.336854248021562e-15),
        "level": (1.005527015797686, 8.399997113334259e-15, 10),
        "sigma": (1.3735819760071466, 0.7160545783467511, 195),
    },
}


@pytest.mark.parametrize("name", sorted(_PINNED_TAILS))
def test_q_gt_p_tails_pinned(name):
    psi = _lattice_workload_systems()[name]
    pins = _PINNED_TAILS[name]
    spec = ClassSpec(psi, 1.0, 2.0)
    total, total_bound = pins["total"]
    reps = {
        "width0": class_widths(spec, 0),
        "level1": class_best_approx(spec, level=1),
        "width": class_widths(spec, 3),
        "level": class_best_approx(spec, level=3),
        "sigma": class_sigma(spec, 3),
    }
    tail = {"tail_exponent": 2.0}
    want = {
        "width0": (total, {**tail, "tail_bound": total_bound, "tail_from": 1}),
        "level1": (total, {**tail, "tail_bound": total_bound, "tail_from": 1, "form": "level"}),
        "width": (pins["width"][0], {**tail, "tail_bound": pins["width"][1], "tail_from": 4}),
        "level": (pins["level"][0], {**tail, "tail_bound": pins["level"][1],
                                     "tail_from": pins["level"][2], "form": "level"}),
        "sigma": (pins["sigma"][0], {"scan_budget": 1_000_000, "stop": "tail-envelope",
                                     "envelope": pins["sigma"][1], "at_s": pins["sigma"][2],
                                     "summability_bound": total_bound}),
    }
    for key, rep in reps.items():
        assert (rep.value, rep.certificate) == want[key], key
    assert reps["sigma"].s_star == 4
    # the set form outside the width head: same value as the width; its
    # tail_bound now carries the head's rounding (it used to be total_bound)
    gamma = [k for _, k in itertools.islice(psi.stream(), 3)]
    rep = class_best_approx(spec, gamma=gamma)
    assert (rep.value, rep.certificate) == (
        pins["width"][0], {**tail, "tail_bound": pins["width"][1], "form": "set"}
    )
    assert rep.certificate["tail_bound"] > total_bound
