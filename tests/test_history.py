"""Same inputs, same bits: no value depends on the calls made before it.

A Hypothesis state machine interleaves the cached entry points -- the
Jackson scan and bound, the modulus, the averaged modulus and the
characteristic sequence -- over a small pool of inputs, with rules that
clear each cache and store and that fill the scan store piece by piece.
Every result must equal, bit for bit, the value the same call returns from
a cold state (every cache empty), computed once per input up front."""

import functools
import math

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, rule

from spapprox import (
    AxisPow,
    ExplicitSeqPsi,
    JacksonSetup,
    ProductPsi,
    RadialPsi,
    Spectrum,
    averaged_omega,
    build_charseq,
    jackson_bound,
    jackson_I,
    omega_phi,
    phi_alpha,
    phi_steklov,
    phi_theta,
    weight_cos,
    weight_pwl,
)
from spapprox import classes, jackson, moduli, psi
from spapprox.jackson import scaled_phi_integral

CACHES = {
    "psi store": psi._store,
    "integral store": jackson._integral_store,
    "jacobi rules": jackson._jacobi_rule,
    "period kernels": jackson._period_kernel,
    "moduli": moduli._omega,
    "alpha generators": moduli._phi_alpha,
    "identity tails": classes._identity_tails,
}

# every input is built anew at each call, so that only the caches carry state
SPECTRA = [
    ("lattice", {1: 1.0, -3: 0.4 + 0.3j, 5: 0.2j}),
    ("lattice", {2: 0.7, -2: 0.7, 4: 0.1, -7: 0.05 - 0.2j}),
    ("real", {0.5: 1.0, -1.7: 0.6, 2.9: 0.3 - 0.1j}),
]
GENERATORS = [
    lambda: phi_alpha(1.3),
    lambda: phi_steklov(2),
    lambda: phi_theta((1, -0.5 + 0.8j, -0.5 - 0.8j)),
]
WEIGHTS = [weight_cos, lambda: weight_pwl([0.0, 1.0, math.pi], [0.0, 0.5, 2.0])]
# (generator, p, n, weight): the n of one (generator, p, weight) share a
# store, whose ratios k / n overlap
SETUPS = [
    (0, 1.5, 1, 0), (0, 1.5, 2, 0), (0, 1.5, 3, 0),
    (0, 2.0, 2, 1), (0, 2.0, 3, 1),
    (1, 1.0, 2, 0), (1, 1.0, 3, 0),
]
PSI = [
    lambda: ProductPsi([AxisPow(1.0), AxisPow(1.0)]),
    lambda: RadialPsi(("pow", 1.5), d=2, r=2),
    ExplicitSeqPsi.harmonic,
]


def _spectrum(i):
    kind, entries = SPECTRA[i]
    return Spectrum(kind, entries)


def _setup(i):
    g, p, n, w = SETUPS[i]
    return JacksonSetup(n=n, phi=GENERATORS[g](), p=p, tau=math.pi, v=WEIGHTS[w]())


def _call(key):
    op, *args = key
    if op == "jackson_I":
        res = jackson_I(_setup(*args))
        return res.value, res.k_star, res.certificate
    if op == "jackson_bound":
        i, j = args
        res = jackson_bound(_setup(i), _spectrum(j))
        return res.rhs, res.lhs, res.slack, res.factors
    if op == "omega_phi":
        j, g, delta = args
        return omega_phi(_spectrum(j), GENERATORS[g](), delta, 1.5)
    if op == "averaged_omega":
        j, g, w = args
        v = WEIGHTS[w]()
        return averaged_omega(_spectrum(j), GENERATORS[g](), v.tau, v, 0.8, 1.5)
    i, levels = args
    cs = build_charseq(PSI[i](), levels=levels)
    return cs.eps, cs.delta, cs.shells


KEYS = {
    "jackson_I": [("jackson_I", i) for i in range(len(SETUPS))],
    "jackson_bound": [("jackson_bound", i, j) for i in range(len(SETUPS)) for j in (0, 2)],
    "omega_phi": [("omega_phi", j, g, d) for j in range(len(SPECTRA))
                  for g in range(len(GENERATORS)) for d in (0.3, 0.7)],
    "averaged_omega": [("averaged_omega", j, g, w) for j in range(len(SPECTRA))
                       for g in range(len(GENERATORS)) for w in range(len(WEIGHTS))],
    "build_charseq": [("build_charseq", i, levels) for i in range(len(PSI)) for levels in (4, 30)],
}


def _clear_all():
    for cache in CACHES.values():
        cache.cache_clear()


@functools.lru_cache(maxsize=None)
def _cold():
    """Each key's value from a state with every cache empty."""
    values = {}
    for keys in KEYS.values():
        for key in keys:
            _clear_all()
            values[key] = _call(key)
    return values


class SameBitsFromAnyHistory(RuleBasedStateMachine):
    @initialize()
    def start_cold(self):
        _cold()
        _clear_all()

    def check(self, key):
        assert _call(key) == _cold()[key], key

    @rule(cache=st.sampled_from(sorted(CACHES)))
    def clear(self, cache):
        CACHES[cache].cache_clear()

    @rule(i=st.integers(0, len(SETUPS) - 1), k=st.integers(1, 64 * 3))
    def fill_store(self, i, k):
        # one ratio of a scan, a batch of one
        s = _setup(i)
        scaled_phi_integral(s.phi, s.p, s.v, s.tau, k / s.n)

    @rule(key=st.sampled_from(KEYS["jackson_I"]))
    def scan(self, key):
        self.check(key)

    @rule(key=st.sampled_from(KEYS["jackson_bound"]))
    def bound(self, key):
        self.check(key)

    @rule(key=st.sampled_from(KEYS["omega_phi"]))
    def modulus(self, key):
        self.check(key)

    @rule(key=st.sampled_from(KEYS["averaged_omega"]))
    def averaged_modulus(self, key):
        self.check(key)

    @rule(key=st.sampled_from(KEYS["build_charseq"]))
    def charseq(self, key):
        self.check(key)


SameBitsFromAnyHistory.TestCase.settings = settings(
    max_examples=60, stateful_step_count=30, deadline=None,
)
TestSameBitsFromAnyHistory = SameBitsFromAnyHistory.TestCase
