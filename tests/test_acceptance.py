"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the
per-criterion lines as they print).  Tolerances are pinned here and nowhere
else.  Criterion 9 has two halves: 9a checks the characteristic data of the
2-d hyperbolic product system against the full-sort oracle, and 9b checks the
exact second hyperbolic level count against an independent integer
enumeration.
"""

import math
import time

import numpy as np
import pytest

from spapprox import (
    ClassSpec,
    JacksonSetup,
    Spectrum,
    apply_difference,
    class_best_approx,
    jackson_constant,
    jackson_sharpness_witness,
    kappa,
    kolmogorov_ladder,
    omega_phi,
    order_estimate_check,
    phi_alpha,
    phi_theta,
    sigma_series,
    sine_moment,
    sp_norm,
    weight_cos,
    weight_linear,
)
from spapprox.classes import build_charseq
from spapprox.jackson import _integral_store, jackson_I
from spapprox.moduli import averaged_omega
from spapprox.oracle import oracle_charseq, oracle_modulus, oracle_quadrature
from spapprox.psi import AxisPow, ProductPsi
from spapprox.spectrum import DifferenceScheme
from spapprox.testing import identity_psi_families, random_spectrum
from spapprox.verify import (
    suite_identities,
    suite_inverse,
    suite_nterm,
    suite_rearrangement,
)

SEED = 20260810


def _line(cid: str, ok: bool, detail: str = ""):
    tag = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {cid}: {tag} {detail}".rstrip(), flush=True)
    return ok


def test_criterion_01_jackson_closed_form_scan():
    """Scanned integral equals 2^{s+1}/(s+1) at k = n for s = 1..5, n = 1..8
    (tolerance 1e-8, runtime < 5 s, cold cache)."""
    _integral_store.cache_clear()
    t0 = time.perf_counter()
    failures = []
    for s in range(1, 6):
        target = 2.0 ** (s + 1) / (s + 1)
        for n in range(1, 9):
            setup = JacksonSetup(n=n, phi=phi_alpha(float(s)), p=2.0,
                                 tau=math.pi, v=weight_cos())
            res = jackson_I(setup)
            if res.k_star != n or abs(res.value / 2.0 ** s - target) > 1e-8:
                failures.append((s, n, res.k_star, res.value))
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 5.0
    assert _line("1", ok, f"(runtime {elapsed:.2f}s)"), (failures, elapsed)


def test_criterion_02_sharp_constant():
    """alpha=1, p=2, sine-density weight, tau=pi: constant = 2^(-1/2) +- 1e-9."""
    c = jackson_constant(JacksonSetup(n=5, phi=phi_alpha(1.0), p=2.0,
                                      tau=math.pi, v=weight_cos()))
    ok = abs(c - 2.0 ** -0.5) < 1e-9
    assert _line("2", ok, f"(value {c!r})"), c


def test_criterion_03_correction_series_integer_zeros():
    """sigma(s) = 0 for s = 1..6, |sigma| < 1e-12, returned without summation."""
    results = [sigma_series(float(s)) for s in range(1, 7)]
    ok = all(r.value == 0.0 and abs(r.value) < 1e-12 and r.terms == 0 for r in results)
    assert _line("3", ok), results


def test_criterion_04_moment_consistency():
    """2 N! kappa(N) matches the quadrature oracle within 1e-8 for N = 1..5;
    the recurrence at N = 1 equals pi^2 - 4 within 1e-12."""
    bad = []
    for N in range(1, 6):
        quad, _ = oracle_quadrature(lambda u: u ** (2 * N) * math.sin(u),
                                    0.0, math.pi, 1e-10)
        if abs(2 * math.factorial(N) * kappa(N) - quad) > 1e-8:
            bad.append(N)
    rec_ok = abs(sine_moment(1) - (math.pi ** 2 - 4.0)) < 1e-12
    ok = not bad and rec_ok
    assert _line("4", ok), (bad, sine_moment(1))


def test_criterion_05_sharpness_witnesses():
    """Attained witness ratio equals the closed-form constant within 1e-9
    for n = 1..8, both canonical weights, natural alpha*p/2."""
    failures = []
    cases = [
        (1.0, 2.0, weight_cos, math.pi),
        (2.0, 1.0, weight_cos, math.pi),
        (2.0, 2.0, weight_cos, math.pi),
        (2.0, 1.0, weight_linear, 3 * math.pi / 4),
        (1.0, 2.0, weight_linear, 3 * math.pi / 4),
    ]
    for n in range(1, 9):
        for alpha, p, make_v, tau in cases:
            sw = jackson_sharpness_witness(
                JacksonSetup(n=n, phi=phi_alpha(alpha), p=p, tau=tau, v=make_v(tau))
            )
            if (not sw.equivalence_ok
                    or abs(sw.ratio_averaged - sw.closed_averaged) > 1e-9
                    or abs(sw.ratio_integral - sw.closed_integral) > 1e-9):
                failures.append((n, alpha, p, make_v.__name__))
    ok = not failures
    assert _line("5", ok, f"({8 * len(cases)} witnesses)"), failures


def test_criterion_06_series_identities():
    """Direct/inverse identities exact (< 1e-12) on 200 seeded samples over
    three builtin multiplier families; the convention-pinning gate fails
    loudly if no offset convention achieves exactness."""
    summary = suite_identities(seed=SEED, cases=200, tol=1e-12)
    ok = summary["passed"]
    worst = summary["checks"][0]["info"]["worst_residual"]
    assert _line("6", ok, f"(worst residual {worst:.2e})"), summary


def test_criterion_07_greedy_vs_exhaustive():
    """Greedy value equals the exhaustive-subset oracle exactly on 500 seeded
    spectra with support <= 8."""
    summary = suite_nterm(seed=SEED, cases=500)
    check = summary["checks"][0]
    assert check["name"] == "greedy-vs-exhaustive"
    assert _line("7", check["passed"], f"({check['info']['cases']} cases)"), check


def test_criterion_08_class_sigma_formula_and_oracle():
    """Harmonic rearrangement, p = q = 1, n = 1: value 1/3 with the head
    length in {2, 3}; the ellipsoid search oracle reaches 0.333 - 1e-6 in
    dimension 6."""
    summary = suite_nterm(seed=SEED, cases=1)
    by_name = {c["name"]: c for c in summary["checks"]}
    f_ok = by_name["class-sigma-formula"]["passed"]
    o_ok = by_name["sigma-oracle-lower-bound"]["passed"]
    ok = f_ok and o_ok
    assert _line("8", ok, f"(oracle {by_name['sigma-oracle-lower-bound']['info']['lower_bound']:.6f})"), summary


def test_criterion_09a_charseq_against_full_sort():
    """Characteristic data of the 2-d hyperbolic product system agrees with
    the full-sort oracle over the box [-64, 64]^2 (identical level values and
    cumulative counts on the box-certified prefix)."""
    summary = suite_rearrangement(box=64)
    check = summary["checks"][0]
    assert _line("9a", check["passed"],
                 f"(levels {check['info']['levels']}, delta head {check['info']['delta_head']})"), check


def test_criterion_09b_hyperbolic_delta2_as_stated():
    """Second hyperbolic level count: delta_2 = 21.

    With k' = max(1, |k|), the level set g_n of the 2-d hyperbolic product
    system is the cross {k : k1' k2' <= n}.  g_1 is the 3 x 3 block (9
    points); g_2 adds the 12 points (+-2, {-1, 0, 1}) and ({-1, 0, 1}, +-2),
    so delta = (9, 21, 33, 49, ...).  The criterion's literal value 13 occurs
    at no level index: it is the size of the l1 ball of radius 2, which lies
    inside g_2 and misses exactly the 8 points (+-2, +-1), (+-1, +-2).  The
    expected set is enumerated here over the integers, sharing no code with
    ``build_charseq`` or ``oracle_charseq``.
    """
    hyp = ProductPsi([AxisPow(1.0), AxisPow(1.0)])
    cs = build_charseq(hyp, levels=2)
    ocs = oracle_charseq(hyp, 64)
    assert cs.delta[1] == ocs.delta[1], "implementation disagrees with oracle"

    box = [(a, b) for a in range(-2, 3) for b in range(-2, 3)]
    expected = {(a, b) for a, b in box if max(1, abs(a)) * max(1, abs(b)) <= 2}
    l1_ball = {(a, b) for a, b in box if abs(a) + abs(b) <= 2}
    g2 = set(cs.g(2))
    ok = g2 == expected and cs.delta[:2] == (9, 21)
    _line("9b", ok, f"(computed delta_2 = {cs.delta[1]}, expected {len(expected)})")
    assert ok, (sorted(g2 ^ expected), cs.delta)

    assert len(l1_ball) == 13 and l1_ball < expected
    assert expected - l1_ball == {(a, b) for a in (-2, -1, 1, 2)
                                  for b in (-2, -1, 1, 2) if abs(a) != abs(b)}


def test_criterion_10_width_ladder_agreement():
    """Kolmogorov ladder values coincide with the level-form best
    approximation (both the n-th level magnitude) for p = q on three
    families, n = 1..10, exactly; cross-checked against the full-sort
    oracle's level values."""
    from spapprox.psi import RadialPsi

    failures = []
    families = identity_psi_families()
    boxes = [32, 64, 64]
    for psi, box in zip(families, boxes):
        spec = ClassSpec(psi, 1.5, 1.5)
        ocs = oracle_charseq(psi, box)
        for n in range(1, 11):
            ladder_val = kolmogorov_ladder(spec, n).value
            level_val = class_best_approx(spec, level=n).value
            if not (ladder_val == level_val == ocs.eps[n - 1]):
                failures.append((psi.variant, n, ladder_val, level_val, ocs.eps[n - 1]))
    ok = not failures
    assert _line("10", ok, "(3 families x 10 levels, exact)"), failures


def test_criterion_11_inverse_inequalities():
    """All inverse bounds hold (lhs <= rhs + 1e-10) on 1000 seeded spectra
    (classic/gap on their alpha p >= 1 domain); the improved right-hand side
    never exceeds the classic one; the single-frequency witness ratio
    exceeds pi^alpha - 0.1 from a reported n0 on."""
    summary = suite_inverse(seed=SEED, cases=1000)
    ok = summary["passed"]
    n0 = summary["checks"][2]["info"]["n0"]
    assert _line("11", ok, f"(1000 cases, sharpness n0 = {n0})"), summary


def test_criterion_12_moduli():
    """On 500 seeded spectra: the averaged modulus never exceeds the endpoint
    modulus; the grid-refined modulus matches the dense-grid oracle within
    1e-6; the difference-scheme multiplier identity is exact per shift to
    1e-12."""
    rng = np.random.default_rng(SEED)
    avg_viol, oracle_gap = [], 0.0
    for i in range(500):
        f = random_spectrum(rng, max_index=12)
        alpha = float(rng.uniform(0.5, 2.5))
        p = float(rng.choice([1.0, 1.5, 2.0]))
        delta = float(rng.uniform(0.2, math.pi))
        ph = phi_alpha(alpha)
        w = omega_phi(f, ph, delta, p)
        ref = oracle_modulus(f, ph, delta, p)
        oracle_gap = max(oracle_gap, abs(w - ref))
        if i % 5 == 0:
            v = weight_cos() if rng.uniform() < 0.5 else weight_linear(math.pi)
            om = averaged_omega(f, ph, math.pi, v, delta, p, tol=1e-7)
            if om > w + 1e-7:
                avg_viol.append(i)
    mult_worst = 0.0
    for _ in range(100):
        f = random_spectrum(rng, max_index=10)
        theta = [complex(*rng.normal(size=2)) for _ in range(int(rng.integers(2, 5)))]
        theta.append(-sum(theta))
        scheme = DifferenceScheme(tuple(theta))
        ph = phi_theta(scheme)
        p = float(rng.choice([1.0, 2.0]))
        h = float(rng.uniform(0.05, 3.0))
        lhs = sp_norm(apply_difference(f, scheme, h), p)
        lams = f.scalar_frequencies()
        rhs = (sum(ph(float(l) * h) ** p * abs(c) ** p
                   for l, c in zip(lams, f.coefficients))) ** (1 / p)
        mult_worst = max(mult_worst, abs(lhs - rhs) / max(1.0, rhs))
    ok = not avg_viol and oracle_gap < 1e-6 and mult_worst < 1e-12
    assert _line("12", ok, f"(oracle gap {oracle_gap:.2e}, multiplier {mult_worst:.2e})"), (
        avg_viol, oracle_gap, mult_worst,
    )


def test_criterion_13_order_estimate_band():
    """Radial profile t^-2, d = 1, sup-norm, p = q = 1: the n-term values
    stay within a band of the profile scale with quotient < 10 over
    n in [4, 256]."""
    rep = order_estimate_check(
        lambda t: t ** -2.0, 1, math.inf, 1.0, 1.0,
        [4, 6, 8, 12, 16, 24, 32, 48, 64, 96, 128, 192, 256],
    )
    ok = rep.bounded and rep.band_quotient < 10 and rep.delta2_ok
    assert _line("13", ok, f"(band quotient {rep.band_quotient:.3f})"), rep
