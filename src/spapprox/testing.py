"""Seeded generators shared by the test suite and the ``verify`` CLI suites.

Generators record nothing global: pass an explicit ``numpy`` Generator (or a
seed) and identical values come back, bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from .psi import ExplicitSeqPsi, ProductPsi, AxisPow, PsiSystem, RadialPsi, psi_integral
from .spectrum import Spectrum


def rng_from(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def _random_entries(rng: np.random.Generator, freq, max_index, size, rho, beta, with_constant) -> dict:
    """Entries {+-freq(k): coefficient} over distinct indices 1 <= k <=
    max_index, with magnitudes rho^k u_k k^{-beta}, u_k uniform in [0.5, 1],
    uniform random phases, and maybe a constant term at freq(0)."""
    if rho is None:
        rho = float(rng.uniform(0.55, 0.95))
    if beta is None:
        beta = float(rng.uniform(0.0, 1.5))
    if size is None:
        size = int(rng.integers(2, 9))
    ks = rng.choice(np.arange(1, max_index + 1), size=min(size, max_index), replace=False)
    entries: dict = {}
    if with_constant and rng.uniform() < 0.7:
        entries[freq(0)] = _random_coef(rng, 1.0)
    for k in ks:
        amp = rho ** float(k) * float(rng.uniform(0.5, 1.0)) * float(k) ** (-beta)
        lam = freq(int(k))
        for sgn in (1, -1):
            if rng.uniform() < 0.85:
                entries[sgn * lam] = _random_coef(rng, amp)
    if not entries:
        entries = {freq(1): _random_coef(rng, 1.0)}
    return entries


def random_spectrum(
    seed,
    kind: str = "real",
    max_index: int = 16,
    size: int | None = None,
    rho: float | None = None,
    beta: float | None = None,
    with_constant: bool = True,
) -> Spectrum:
    """Random finite spectrum with magnitudes rho^k u_k k^{-beta}, u_k
    uniform in [0.5, 1], and uniform random phases; covers geometric and
    polynomial decay regimes (and their mixtures)."""
    freq = float if kind == "real" else int
    entries = _random_entries(rng_from(seed), freq, max_index, size, rho, beta, with_constant)
    return Spectrum.real(entries) if kind == "real" else Spectrum.lattice(entries)


def _random_coef(rng: np.random.Generator, amp: float) -> complex:
    phase = rng.uniform(0.0, 2.0 * math.pi)
    return amp * complex(math.cos(phase), math.sin(phase))


def random_spectrum_on_ladder(
    seed,
    ladder,
    max_index: int = 14,
    size: int | None = None,
    rho: float | None = None,
    beta: float | None = None,
    with_constant: bool = True,
) -> Spectrum:
    """Like :func:`random_spectrum`, but the frequencies are drawn from the
    given ladder (as the inverse-theorem hypotheses require)."""
    entries = _random_entries(rng_from(seed), ladder.value, max_index, size, rho, beta, with_constant)
    return Spectrum.real(entries)


def identity_psi_families() -> list[PsiSystem]:
    """The three builtin multiplier families exercised by the series-identity
    gates: a radial power profile, the two-dimensional hyperbolic product,
    and the directly-given harmonic sequence."""
    return [
        RadialPsi(("pow", 2.0), d=1),
        ProductPsi([AxisPow(1.0), AxisPow(1.0)]),
        ExplicitSeqPsi.harmonic(),
    ]


def random_integral_pair(seed, psi: PsiSystem, max_index: int = 4):
    """(f, g) with f the psi-integral of a bounded random lattice spectrum g.

    Sampling the class through its defining transform keeps every
    intermediate quantity of the series identities O(1), so the exactness
    gates are meaningful at the 1e-12 scale."""
    rng = rng_from(seed)
    box = range(-max_index, max_index + 1)
    pts = [k for k in np.stack(np.meshgrid(*([list(box)] * psi.d)), -1).reshape(-1, psi.d)]
    count = int(rng.integers(2, min(12, len(pts)) + 1))
    sel = rng.choice(len(pts), size=count, replace=False)
    entries = {tuple(int(x) for x in pts[i]): _random_coef(rng, float(rng.uniform(0.2, 1.0))) for i in sel}
    g = Spectrum.lattice(entries, psi.d)
    return psi_integral(g, psi), g
