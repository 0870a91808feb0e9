"""Seeded case pools, case execution and output checks for the three
benchmark workloads.

A case is plain data (numbers, lists, dicts), generated from the seed before
the timed phase.  ``run_case`` turns one case into library calls and returns
the computed values; ``Checker.check`` verifies them afterwards against an
oracle or a closed form, outside the timed phase.

Cost-relevant parameters are stratified rather than drawn freely: the order
of case kinds is a fixed cycle and parameters that set a case's cost (the
psi system, n, the correction-series exponent) walk a seeded permutation or
a seeded low-discrepancy sequence.  Two seeds then give different inputs
with the same cost mix, so throughput differences between runs measure the
program, not the draw.

Case i depends only on (seed, workload, i), so any slice of the sequence can
be generated on its own: every run segment generates the same number of
cases, and set-up time does not grow when a faster program gets further.
"""

from __future__ import annotations

import math

import numpy as np

from spapprox import (
    AxisPow,
    ClassSpec,
    ExplicitSeqPsi,
    FrequencyLadder,
    JacksonSetup,
    ProductPsi,
    RadialPsi,
    Spectrum,
    build_charseq,
    class_best_approx,
    class_sigma,
    class_widths,
    direct_identity_check,
    greedy_select,
    inverse_bound_alpha,
    inverse_bound_general,
    inverse_identity_check,
    jackson_I,
    jackson_bound,
    jackson_sharpness_witness,
    kolmogorov_ladder,
    omega_phi,
    phi_alpha,
    phi_custom,
    phi_steklov,
    phi_theta,
    psi_integral,
    rearrangement,
    sigma_series,
    weight_atomic,
    weight_cos,
    weight_linear,
    weight_pwl,
)
from spapprox.oracle import oracle_charseq, oracle_modulus, oracle_nterm_exhaustive

WORKLOADS = ("modulus", "jackson", "lattice")

# Cases generated per run segment: several times what a six-second segment
# consumes on a 2-vCPU Xeon host, so a faster program measures more cases
# instead of running dry.
CHUNK = {"modulus": 2000, "jackson": 600, "lattice": 150}

# A segment's peak RSS is read after this many cases: late enough that the
# largest transient allocations of the case mix have happened, early enough
# that every segment gets there, and fixed, so that caches which grow with
# every case do not make a faster program look heavier.
RSS_AFTER = {"modulus": 320, "jackson": 48, "lattice": 20}

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

# Acceptance tolerances, mirrored from the repository's acceptance criteria.
ORACLE_MODULUS_TOL = 1e-6  # criterion 12
SLACK_TOL = -1e-10
SCAN_CLOSED_FORM_TOL = 1e-8  # criterion 1
WITNESS_TOL = 1e-9  # criterion 5
IDENTITY_TOL = 1e-12  # criterion 6
IMPROVED_REL = 1e-12  # criterion 11


# ---------------------------------------------------------------------------
# seeded input helpers (independent of spapprox.testing, so that the
# benchmark's inputs stay fixed when the library's test helpers change)


def _coef(rng: np.random.Generator, amp: float) -> list:
    phase = rng.uniform(0.0, 2.0 * math.pi)
    return [amp * math.cos(phase), amp * math.sin(phase)]


def _entries(rng: np.random.Generator, freq_of, max_index: int, size: int | None = None) -> list:
    """[[frequency, re, im], ...] with magnitudes rho^k u_k k^-beta (u_k in
    [0.5, 1]), random phases, each of +-k kept with probability 0.85 and a
    constant term with probability 0.7."""
    rho = float(rng.uniform(0.55, 0.95))
    beta = float(rng.uniform(0.0, 1.5))
    if size is None:
        size = int(rng.integers(2, 9))
    ks = rng.choice(np.arange(1, max_index + 1), size=min(size, max_index), replace=False)
    out = []
    if rng.uniform() < 0.7:
        out.append([0.0, *_coef(rng, 1.0)])
    for k in ks:
        amp = rho ** float(k) * float(rng.uniform(0.5, 1.0)) * float(k) ** (-beta)
        lam = freq_of(int(k))
        for sgn in (1, -1):
            if rng.uniform() < 0.85:
                out.append([sgn * lam, *_coef(rng, amp)])
    if not out:
        out.append([freq_of(1), *_coef(rng, 1.0)])
    return out


def _real_spectrum(entries: list) -> Spectrum:
    return Spectrum.real({float(x): complex(re, im) for x, re, im in entries})


def _lattice_spectrum(entries: list, d: int) -> Spectrum:
    return Spectrum.lattice({tuple(k): complex(re, im) for k, re, im in entries}, d)


class _Seeds:
    """Random streams addressed by (purpose, index) under one (seed,
    workload) pair."""

    CASE, WALK, SWEEP, SERIES = range(4)

    def __init__(self, seed: int, workload: int):
        self.base = [seed, workload]
        self._perms: dict = {}

    def rng(self, *key: int) -> np.random.Generator:
        return np.random.default_rng(self.base + list(key))

    def permuted(self, values, walk: int, j: int):
        """j-th step of an endless walk through seeded permutations."""
        block, pos = divmod(j, len(values))
        perm = self._perms.get((walk, block))
        if perm is None:
            perm = self._perms[walk, block] = self.rng(self.WALK, walk, block).permutation(len(values))
        return values[int(perm[pos])]

    def low_discrepancy(self, j: int) -> float:
        """j-th point of a golden-ratio sequence in [0, 1), seeded offset."""
        return (float(self.rng(self.SERIES).uniform()) + j * _GOLDEN) % 1.0


# ---------------------------------------------------------------------------
# modulus: inverse bounds on ladder spectra plus direct omega_phi calls

LADDERS = {
    "integer": FrequencyLadder.integer(),
    "wobble": FrequencyLadder(lambda k: k + 0.3 * math.sin(k), gap_bound=1.6, label="wobble"),
    "squares": FrequencyLadder(lambda k: float(k * k), label="squares"),
}
_LADDER_CYCLE = ("integer", "wobble", "squares")
_GENERATORS = ("alpha", "theta", "steklov", "custom")


def _custom_phi(shape: int, a: float):
    """Two custom generators, each even, nonnegative and zero at 0."""
    if shape == 0:
        return phi_custom(
            lambda t: (1.0 - np.cos(t)) ** a, sup=2.0 ** a, monotone_to=math.pi,
            label=f"one-minus-cos^{a:.6g}",
        )
    return phi_custom(
        lambda t: np.abs(np.sin(0.5 * t)) * (1.0 + a * np.cos(t) ** 2),
        label=f"sine-bump:{a:.6g}",
    )


def _make_phi(gen: dict):
    kind = gen["kind"]
    if kind == "alpha":
        return phi_alpha(gen["alpha"])
    if kind == "theta":
        return phi_theta([complex(re, im) for re, im in gen["theta"]])
    if kind == "steklov":
        return phi_steklov(gen["m"])
    return _custom_phi(gen["shape"], gen["a"])


def _modulus_case(seeds: _Seeds, i: int) -> dict:
    rng = seeds.rng(seeds.CASE, i)
    slot = i % 4
    if slot < 3:
        lad_name = _LADDER_CYCLE[slot]
        entries = _entries(rng, LADDERS[lad_name].value, max_index=14)
        n = seeds.permuted(tuple(range(1, 9)), 1 + slot, i // 4)
        p = float(rng.uniform(1.0, 3.0))
        alpha = float(rng.uniform(1.0, 2.5)) / min(p, 2.0) + 1e-3
        if alpha * p < 1.0:
            alpha = 1.05 / p
        return {"kind": "inverse", "ladder": lad_name, "f": entries, "n": n, "p": p,
                "alpha": alpha}
    kind = seeds.permuted(_GENERATORS, 0, i // 4)
    if kind == "alpha":
        gen = {"kind": "alpha", "alpha": float(rng.uniform(0.5, 2.5))}
    elif kind == "theta":
        theta = [[float(x) for x in rng.normal(size=2)] for _ in range(int(rng.integers(2, 5)))]
        theta.append([-sum(t[0] for t in theta), -sum(t[1] for t in theta)])
        gen = {"kind": "theta", "theta": theta}
    elif kind == "steklov":
        gen = {"kind": "steklov", "m": int(rng.integers(1, 4))}
    else:
        gen = {"kind": "custom", "shape": int(rng.integers(0, 2)),
               "a": float(rng.uniform(0.5, 1.5))}
    return {
        "kind": "omega", "gen": gen, "f": _entries(rng, float, max_index=12),
        "p": float(rng.choice([1.0, 1.5, 2.0])), "delta": float(rng.uniform(0.2, math.pi)),
    }


def _run_inverse(case: dict) -> dict:
    lad = LADDERS[case["ladder"]]
    f = _real_spectrum(case["f"])
    n, p, alpha = case["n"], case["p"], case["alpha"]
    rg = inverse_bound_general(f, phi_alpha(alpha), lad, n, math.pi, p)
    rc = inverse_bound_alpha(f, alpha, p, lad, n, "classic")
    ri = inverse_bound_alpha(f, alpha, p, lad, n, "improved")
    out = {
        "general": [rg.lhs, rg.rhs, rg.holds],
        "classic": [rc.lhs, rc.rhs, rc.holds],
        "improved": [ri.lhs, ri.rhs, ri.holds],
    }
    if lad.gap_bound is not None:
        rgap = inverse_bound_alpha(f, alpha, p, lad, n, "gap")
        out["gap"] = [rgap.lhs, rgap.rhs, rgap.holds]
    return out


def _run_omega(case: dict) -> dict:
    f = _real_spectrum(case["f"])
    return {"omega": omega_phi(f, _make_phi(case["gen"]), case["delta"], case["p"])}


# ---------------------------------------------------------------------------
# jackson: n-sweeps of the scanned integral, bound slack, witnesses, series

_JACKSON_CYCLE = 16  # 8 sweep cases, 6 slack cases, 1 witness, 1 series


def _witness_weight(rng: np.random.Generator, kind: str, tau: float) -> dict:
    if kind == "pwl":
        knots_t = np.concatenate(([0.0], np.sort(rng.uniform(0.0, tau, size=3)), [tau]))
        knots_v = np.concatenate(([0.0], np.cumsum(rng.uniform(0.2, 1.0, size=4))))
        return {"kind": "pwl", "t": knots_t.tolist(), "v": knots_v.tolist()}
    if kind == "atomic":
        m = int(rng.integers(3, 6))
        return {"kind": "atomic", "points": np.sort(rng.uniform(0.05 * tau, tau, size=m)).tolist(),
                "jumps": rng.uniform(0.2, 1.0, size=m).tolist(), "tau": tau}
    return {"kind": kind, "tau": tau}


def _make_weight(w: dict):
    kind = w["kind"]
    if kind == "cos":
        return weight_cos(w["tau"])
    if kind == "t":
        return weight_linear(w["tau"])
    if kind == "pwl":
        return weight_pwl(w["t"], w["v"])
    return weight_atomic(w["points"], w["jumps"], w["tau"])


def _sweep_generator(seeds: _Seeds, cycle: int) -> dict:
    rng = seeds.rng(seeds.SWEEP, cycle)
    if cycle % 2 == 0:
        # fractional alpha*p: the Gauss-Jacobi route
        p = float(rng.choice([1.0, 2.0]))
        while True:
            alpha = float(rng.uniform(0.5, 2.0))
            half = alpha * p / 2.0
            if abs(half - round(half)) > 1e-3:
                return {"alpha": alpha, "p": p, "integer_s": None}
    # natural s = alpha*p/2: the smooth Gauss-Legendre route, checked
    # against the closed form 2^{s+1}/(s+1)
    s = seeds.permuted((1, 2, 3, 4, 5), 0, cycle // 2)
    p = float(rng.uniform(1.0, 3.0))
    return {"alpha": 2.0 * s / p, "p": p, "integer_s": s}


def _jackson_case(seeds: _Seeds, i: int) -> dict:
    cycle, slot = divmod(i, _JACKSON_CYCLE)
    rng = seeds.rng(seeds.CASE, i)
    if slot < 8:
        # one user sweeping n = 1..8 for a generator nobody asked for before
        return {"kind": "sweep", "n": slot + 1, **_sweep_generator(seeds, cycle)}
    if slot < 14:
        tau_kind = ("cos", "t")[slot % 2]
        tau = math.pi if tau_kind == "cos" else 3.0 * math.pi / 4.0
        return {
            "kind": "slack", "f": _entries(rng, float, max_index=12),
            "n": seeds.permuted(tuple(range(1, 7)), 3, 6 * cycle + slot - 8),
            "weight": {"kind": tau_kind, "tau": tau},
            "alpha": float(rng.uniform(0.5, 2.0)), "p": float(rng.choice([1.0, 2.0])),
        }
    if slot == 14:
        alpha, p = seeds.permuted(((1.0, 2.0), (2.0, 1.0), (2.0, 2.0)), 1, cycle)
        kind = seeds.permuted(("cos", "t", "pwl", "atomic"), 2, cycle)
        tau = math.pi if kind == "cos" else 3.0 * math.pi / 4.0
        return {"kind": "witness", "n": seeds.permuted(tuple(range(1, 9)), 4, cycle),
                "alpha": alpha, "p": p,
                "weight": _witness_weight(rng, kind, tau)}
    if cycle == 0:
        # s = 0.5 converges about as 1/N: a bounded budget must end in a
        # typed ConvergenceError, which is a declared outcome
        return {"kind": "series", "s": 0.5, "tol": 1e-8, "budget": 3000,
                "declared": ["ConvergenceError"]}
    return {"kind": "series", "s": 1.5 + 2.5 * seeds.low_discrepancy(cycle), "tol": 1e-8,
            "budget": 1_000_000}


def _run_sweep(case: dict) -> dict:
    setup = JacksonSetup(n=case["n"], phi=phi_alpha(case["alpha"]), p=case["p"],
                         tau=math.pi, v=weight_cos())
    res = jackson_I(setup)
    return {"I": res.value, "k_star": res.k_star}


def _run_slack(case: dict) -> dict:
    v = _make_weight(case["weight"])
    setup = JacksonSetup(n=case["n"], phi=phi_alpha(case["alpha"]), p=case["p"], tau=v.tau, v=v)
    b = jackson_bound(setup, _real_spectrum(case["f"]), quad_tol=1e-6)
    return {"rhs": b.rhs, "lhs": b.lhs, "slack": b.slack}


def _run_witness(case: dict) -> dict:
    v = _make_weight(case["weight"])
    sw = jackson_sharpness_witness(
        JacksonSetup(n=case["n"], phi=phi_alpha(case["alpha"]), p=case["p"], tau=v.tau, v=v)
    )
    return {"ratio_integral": sw.ratio_integral, "closed_integral": sw.closed_integral,
            "ratio_averaged": sw.ratio_averaged, "closed_averaged": sw.closed_averaged}


def _run_series(case: dict) -> dict:
    r = sigma_series(case["s"], tol=case["tol"], budget=case["budget"])
    return {"value": r.value, "tail_bound": r.tail_bound, "terms": r.terms}


# ---------------------------------------------------------------------------
# lattice: one bundle of class quantities per (psi system, n)

SYSTEMS = ("hyperbolic", "anisotropic", "radial1", "radial2", "harmonic")
_DIM = {"hyperbolic": 2, "anisotropic": 2, "radial1": 1, "radial2": 2, "harmonic": 1}
# rearrangement depth per unit of n: the radial d = 2 system streams up to
# about ten thousand indices per case, the others a few hundred to two thousand
_DEPTH = {"hyperbolic": 256, "anisotropic": 256, "radial1": 256, "radial2": 1200, "harmonic": 256}
# exponent pairs on the valid domain of every system (q > p pairs keep
# |psi|^{pq/(q-p)} summable, so the tail certification succeeds)
_LE_PAIRS = ((1.0, 1.0), (1.5, 1.5), (2.0, 1.0), (2.0, 1.5), (1.5, 1.0))
_GT_PAIRS = ((1.0, 2.0), (1.0, 1.5), (1.5, 2.0), (1.5, 3.0))


def make_psi(name: str):
    if name == "hyperbolic":
        return ProductPsi([AxisPow(1.0), AxisPow(1.0)])
    if name == "anisotropic":
        return ProductPsi([AxisPow(1.0), AxisPow(2.0)])
    if name == "radial1":
        return RadialPsi(("pow", 2.0), d=1)
    if name == "radial2":
        return RadialPsi(("pow", 3.0), d=2)
    return ExplicitSeqPsi.harmonic()


def _integral_pair_entries(rng: np.random.Generator, d: int, max_index: int = 4) -> list:
    """Coefficients of a bounded random lattice spectrum g; the identity
    input is its psi-integral, which keeps every term O(1)."""
    box = np.arange(-max_index, max_index + 1)
    pts = np.stack(np.meshgrid(*([box] * d)), -1).reshape(-1, d)
    count = int(rng.integers(2, min(12, len(pts)) + 1))
    sel = rng.choice(len(pts), size=count, replace=False)
    return [[[int(x) for x in pts[i]], *_coef(rng, float(rng.uniform(0.2, 1.0)))] for i in sel]


def _lattice_case(seeds: _Seeds, i: int) -> dict:
    system, occurrence = i % len(SYSTEMS), i // len(SYSTEMS)
    name = SYSTEMS[system]
    rng = seeds.rng(seeds.CASE, i)
    le = (1.0, 1.0) if name == "harmonic" else seeds.permuted(_LE_PAIRS, 10 + system, occurrence)
    gt = seeds.permuted(_GT_PAIRS, 20 + system, occurrence)
    return {
        "kind": "bundle", "system": name,
        "n": seeds.permuted(tuple(range(1, 9)), system, occurrence),
        "le": list(le), "gt": list(gt),
        "identity": {"g": _integral_pair_entries(rng, _DIM[name]),
                     "n": int(rng.integers(1, 6)),
                     "p": float(rng.choice([1.0, 1.5, 2.0]))},
        "greedy": {"f": _entries(rng, float, max_index=9, size=int(rng.integers(1, 4))),
                   "p": float(rng.choice([1.0, 1.5, 2.0])),
                   "n_frac": float(rng.uniform())},
    }


def _run_bundle(case: dict) -> dict:
    name, n = case["system"], case["n"]
    psi = make_psi(name)
    cs = build_charseq(psi, levels=n + 4)
    rr = rearrangement(psi, _DEPTH[name] * n)
    out = {"eps": list(cs.eps), "delta": list(cs.delta),
           "rr_head": rr[:64].tolist(), "rr_len": int(rr.shape[0]), "rr_last": float(rr[-1])}
    for label, (p, q) in (("le", case["le"]), ("gt", case["gt"])):
        spec = ClassSpec(psi, p, q)
        sig = class_sigma(spec, n)
        out[f"sigma_{label}"] = sig.value
        out[f"width_{label}"] = class_widths(spec, n).value
        out[f"best_{label}"] = class_best_approx(spec, level=n).value
    p_le = case["le"][0]
    kol = kolmogorov_ladder(ClassSpec(psi, p_le, p_le), n)
    out["kolmogorov"] = kol.value
    out["kolmogorov_range"] = kol.certificate["dimension_range"]
    ident = case["identity"]
    f = psi_integral(_lattice_spectrum(ident["g"], psi.d), psi)
    r1 = direct_identity_check(f, psi, ident["n"], p=ident["p"])
    r2 = inverse_identity_check(f, psi, ident["n"], p=ident["p"])
    out["identity"] = [r1.lhs, r1.rhs, r2.lhs, r2.rhs]
    gr = case["greedy"]
    g_spec = _real_spectrum(gr["f"])
    g_n = int(gr["n_frac"] * (len(g_spec) + 1))
    out["greedy"] = [g_n, greedy_select(g_spec, g_n, gr["p"]).value]
    return out


# ---------------------------------------------------------------------------
# dispatch

_RUNNERS = {
    "inverse": _run_inverse, "omega": _run_omega,
    "sweep": _run_sweep, "slack": _run_slack, "witness": _run_witness, "series": _run_series,
    "bundle": _run_bundle,
}
_CASES = {"modulus": _modulus_case, "jackson": _jackson_case, "lattice": _lattice_case}


def make_cases(workload: str, seed: int, start: int = 0, count: int | None = None) -> list:
    """Cases start .. start+count-1 (default count: one segment's chunk)."""
    seeds = _Seeds(seed, WORKLOADS.index(workload) + 1)
    count = CHUNK[workload] if count is None else count
    return [{"id": i, **_CASES[workload](seeds, i)} for i in range(start, start + count)]


def run_case(case: dict) -> dict:
    return _RUNNERS[case["kind"]](case)


# ---------------------------------------------------------------------------
# output checks (untimed)


def _ring_sup(psi, R: int) -> float:
    """Largest |psi| on the sup-norm sphere of radius R: for the systems
    here |psi| is nonincreasing in every |k_j|, so this bounds every index
    outside the box of radius R - 1."""
    if psi.d == 1:
        return max(psi.magnitude((R,)), psi.magnitude((-R,)))
    best = 0.0
    for j in range(-R, R + 1):
        for k in ((R, j), (-R, j), (j, R), (j, -R)):
            best = max(best, psi.magnitude(k))
    return best


def _harmonic_sigma(n: int) -> float:
    """Class n-term value of the harmonic system at p = q = 1 by direct
    maximization of (s - n) / sum_{k <= s} k over s."""
    return max(2.0 * (s - n) / (s * (s + 1.0)) for s in range(n + 1, 50 * n + 50))


def _rel_close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(b))


def _finite(*xs) -> bool:
    return all(isinstance(x, (int, float)) and math.isfinite(x) for x in xs)


class Checker:
    """Verifies computed case values; oracle results shared by many cases
    (one full-sort charseq per psi system) are computed once per run."""

    # a subsample of the direct modulus calls is checked against the
    # 100001-point dense-grid oracle (about 0.1 s per call)
    ORACLE_EVERY = 16
    ORACLE_BOX = {1: 600, 2: 48}

    def __init__(self):
        self._charseq: dict = {}
        self._omega_seen = 0

    def check(self, case: dict, out: dict) -> list:
        """List of failure descriptions (empty when every check passes)."""
        return getattr(self, "_check_" + case["kind"])(case, out)

    # modulus ---------------------------------------------------------------
    def _check_inverse(self, case, out):
        bad = [f"{name} bound violated: lhs {v[0]!r} > rhs {v[1]!r}"
               for name, v in out.items() if not v[2]]
        if out["improved"][1] > out["classic"][1] * (1.0 + IMPROVED_REL):
            bad.append(f"improved rhs {out['improved'][1]!r} above classic {out['classic'][1]!r}")
        return bad

    def _check_omega(self, case, out):
        w = out["omega"]
        if not (_finite(w) and w >= 0.0):
            return [f"modulus not a finite nonnegative number: {w!r}"]
        self._omega_seen += 1
        if (self._omega_seen - 1) % self.ORACLE_EVERY:
            return []
        ref = oracle_modulus(_real_spectrum(case["f"]), _make_phi(case["gen"]),
                             case["delta"], case["p"])
        if abs(w - ref) > ORACLE_MODULUS_TOL:
            return [f"modulus {w!r} differs from the dense-grid oracle {ref!r}"]
        return []

    # jackson ---------------------------------------------------------------
    def _check_sweep(self, case, out):
        n, gamma = case["n"], case["alpha"] * case["p"]
        # the k = n integral has the closed form 2^{gamma+2} / (gamma+2)
        closed = 2.0 ** (gamma + 2.0) / (gamma + 2.0)
        value, k_star = out["I"], out["k_star"]
        if case["integer_s"] is not None:
            s = case["integer_s"]
            target = 2.0 ** (s + 1) / (s + 1)
            if k_star != n or abs(value / 2.0 ** s - target) > SCAN_CLOSED_FORM_TOL:
                return [f"scan at natural s={s}: k*={k_star}, value {value!r} vs {target * 2.0 ** s!r}"]
            return []
        if not n <= k_star <= 64 * n:
            return [f"k* = {k_star} outside the scan range for n = {n}"]
        if k_star == n and not _rel_close(value, closed, SCAN_CLOSED_FORM_TOL):
            return [f"scan minimum at k = n is {value!r}, closed form {closed!r}"]
        if value > closed * (1.0 + SCAN_CLOSED_FORM_TOL):
            return [f"scan minimum {value!r} above the k = n value {closed!r}"]
        return []

    def _check_slack(self, case, out):
        if not (_finite(out["slack"]) and out["slack"] >= SLACK_TOL):
            return [f"negative slack {out['slack']!r}"]
        return []

    def _check_witness(self, case, out):
        bad = []
        for form in ("integral", "averaged"):
            got, want = out["ratio_" + form], out["closed_" + form]
            if not abs(got - want) <= WITNESS_TOL:
                bad.append(f"witness {form} ratio {got!r} vs closed form {want!r}")
        return bad

    def _check_series(self, case, out):
        if not (_finite(out["value"], out["tail_bound"]) and out["tail_bound"] <= case["tol"]):
            return [f"series tail bound {out['tail_bound']!r} above tol {case['tol']!r}"]
        return []

    # lattice ---------------------------------------------------------------
    def _oracle_charseq(self, name: str):
        hit = self._charseq.get(name)
        if hit is None:
            psi = make_psi(name)
            box = self.ORACLE_BOX[psi.d]
            ocs = oracle_charseq(psi, box)
            sup_out = _ring_sup(psi, box + 1)
            certified = sum(1 for e in ocs.eps if e > sup_out)
            flat = []
            for e, d_prev, d in zip(ocs.eps[:certified], (0,) + ocs.delta, ocs.delta):
                flat.extend([e] * (d - d_prev))
            hit = self._charseq[name] = (ocs, certified, flat)
        return hit

    def _check_bundle(self, case, out):
        name, n = case["system"], case["n"]
        ocs, m, flat = self._oracle_charseq(name)
        bad = []
        L = min(len(out["eps"]), m)
        if L < 1:
            bad.append("no certified oracle level to compare")
        elif out["eps"][:L] != list(ocs.eps[:L]) or out["delta"][:L] != list(ocs.delta[:L]):
            bad.append(f"charseq differs from the full-sort oracle on {L} certified levels")
        head = min(len(out["rr_head"]), len(flat))
        if out["rr_head"][:head] != flat[:head]:
            bad.append("rearrangement head differs from the full-sort oracle")
        if n <= m:
            if out["kolmogorov"] != ocs.eps[n - 1]:
                bad.append(f"Kolmogorov width {out['kolmogorov']!r} vs oracle level {ocs.eps[n - 1]!r}")
            if out["best_le"] != ocs.eps[n - 1]:
                bad.append(f"level best approximation {out['best_le']!r} vs {ocs.eps[n - 1]!r}")
        if n < len(flat) and out["width_le"] != flat[n]:
            bad.append(f"width {out['width_le']!r} vs oracle rearrangement value {flat[n]!r}")
        for key in ("sigma_le", "sigma_gt", "width_gt", "best_gt"):
            if not (_finite(out[key]) and out[key] > 0.0):
                bad.append(f"{key} not a finite positive number: {out[key]!r}")
        if name == "harmonic":
            want = _harmonic_sigma(n)
            if not _rel_close(out["sigma_le"], want, 1e-12):
                bad.append(f"harmonic sigma {out['sigma_le']!r} vs closed form {want!r}")
        d_lhs, d_rhs, i_lhs, i_rhs = out["identity"]
        if not (abs(d_lhs - d_rhs) < IDENTITY_TOL and abs(i_lhs - i_rhs) < IDENTITY_TOL):
            bad.append(f"identity residuals {abs(d_lhs - d_rhs):.3e}, {abs(i_lhs - i_rhs):.3e}")
        g_n, g_val = out["greedy"]
        _, ref = oracle_nterm_exhaustive(_real_spectrum(case["greedy"]["f"]), g_n, case["greedy"]["p"])
        if g_val != ref:
            bad.append(f"greedy value {g_val!r} vs exhaustive oracle {ref!r}")
        return bad
