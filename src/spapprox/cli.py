"""Command-line front end.

Subcommands: ``charseq``, ``class``, ``jackson``, ``modulus``,
``inverse-check``, ``verify``.  JSON is the canonical output format (CSV
rows carry a versioned ``#schema=1`` header).  Exit codes: 0 success,
1 verification failure, 2 usage/parse error, 3 certification/precondition
failure.  Identical arguments, config and seed produce byte-identical
output files.

A key=value config file (path in ``$SPAPPROX_CONFIG`` or ``--config``) can
preset tolerances and budgets; unknown keys are rejected.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from .classes import (
    ClassSpec,
    class_best_approx,
    class_sigma,
    class_widths,
    kolmogorov_ladder,
)
from .errors import (
    BudgetError,
    CertificationError,
    ConvergenceError,
    DegenerateWeightError,
    InputDomainError,
    ParseError,
    PreconditionError,
    SpapproxError,
)
from .inverse import inverse_bound_alpha, inverse_bound_general
from .jackson import JacksonSetup, chernykh_constants, jackson_I, jackson_constant
from .ladder import FrequencyLadder
from .minilang import parse_phi, parse_psi, parse_tau, parse_weight
from .moduli import omega_phi
from .psi import build_charseq
from .reports import ExtremalReport, write_reports
from .spectrum import load_spectrum
from .verify import run_suite

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_CERTIFICATION = 3

CONFIG_KEYS = {
    "seed": int,
    "quad_tol": float,
    "scan_budget": int,
    "k_factor": int,
    "tail_tol": float,
}


def load_config(path: str | None) -> dict:
    path = path or os.environ.get("SPAPPROX_CONFIG")
    if not path:
        return {}
    cfg: dict = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, val = line.partition("=")
            key = key.strip()
            if not sep or key not in CONFIG_KEYS:
                raise ParseError(f"config line {lineno}: unknown key {key!r}")
            try:
                cfg[key] = CONFIG_KEYS[key](val.strip())
            except ValueError:
                raise ParseError(f"config line {lineno}: bad value for {key!r}") from None
    return cfg


def _positive_float(text: str) -> float:
    val = float(text)
    if not 0 < val < math.inf:
        raise argparse.ArgumentTypeError("must be positive and finite")
    return val


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="spapprox",
        description="Approximation-theory quantities of coefficient-space metrics",
    )
    ap.add_argument("--config", help="key=value config file (also $SPAPPROX_CONFIG)")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", help="write the report to this path")
    common.add_argument("--format", choices=("json", "csv"), default="json")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("charseq", parents=[common], help="characteristic sequences of a psi system")
    sp.add_argument("--psi", required=True)
    sp.add_argument("--count", type=int, default=5, help="number of distinct levels")

    sp = sub.add_parser("class", parents=[common], help="class-level extremal quantities")
    sp.add_argument("--quantity", required=True,
                    choices=("sigma", "width", "best", "kolmogorov"))
    sp.add_argument("--psi", required=True)
    sp.add_argument("--p", type=_positive_float, required=True)
    sp.add_argument("--q", type=_positive_float, required=True)
    sp.add_argument("--n", type=int, required=True)

    sp = sub.add_parser("jackson", parents=[common], help="sharp direct-inequality constants")
    sp.add_argument("--phi", required=True)
    sp.add_argument("--p", type=_positive_float, required=True)
    sp.add_argument("--tau", default="pi")
    sp.add_argument("--v", default="cos")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--psi", default=None, help="optional psi system for the class form")

    sp = sub.add_parser("modulus", parents=[common], help="generalized modulus of smoothness")
    sp.add_argument("--input", required=True, help="spectrum JSON file")
    sp.add_argument("--phi", required=True)
    sp.add_argument("--delta", type=_positive_float, required=True)
    sp.add_argument("--p", type=_positive_float, default=1.0)

    sp = sub.add_parser("inverse-check", parents=[common], help="inverse-theorem bounds")
    sp.add_argument("--input", required=True)
    sp.add_argument("--alpha", type=_positive_float, required=True)
    sp.add_argument("--p", type=_positive_float, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--variant", default="improved",
                    choices=("classic", "improved", "gap", "general"))
    sp.add_argument("--tau", default="pi")
    sp.add_argument("--gap-bound", type=_positive_float, default=1.0)

    sp = sub.add_parser("verify", parents=[common], help="run an oracle-backed suite")
    sp.add_argument("suite", choices=("identities", "jackson", "inverse",
                                      "rearrangement", "nterm", "all"))
    sp.add_argument("--seed", type=int, default=None, help="seed of the suite's random cases")
    return ap


def _emit(args, reports, extra=None) -> None:
    text = write_reports(reports, args.out, args.format, extra)
    if not args.out:
        sys.stdout.write(text)


def cmd_charseq(args, cfg) -> int:
    psi = parse_psi(args.psi)
    if args.count < 1:
        raise InputDomainError("--count must be >= 1")
    cs = build_charseq(psi, levels=args.count)
    reports = [
        ExtremalReport("charseq", cs.eps[i], n=i + 1,
                       certificate={"delta": cs.delta[i], "psi": psi.describe()})
        for i in range(cs.n_levels)
    ]
    _emit(args, reports)
    return EXIT_OK


def cmd_class(args, cfg) -> int:
    psi = parse_psi(args.psi)
    spec = ClassSpec(psi, args.p, args.q, tail_tol=cfg.get("tail_tol", 1e-9))
    if args.quantity == "sigma":
        rep = class_sigma(spec, args.n, budget=cfg.get("scan_budget", 1_000_000))
    elif args.quantity == "width":
        rep = class_widths(spec, args.n)
    elif args.quantity == "best":
        rep = class_best_approx(spec, level=args.n)
    else:
        rep = kolmogorov_ladder(spec, args.n)
    _emit(args, [rep])
    return EXIT_OK


def cmd_jackson(args, cfg) -> int:
    tau = parse_tau(args.tau)
    phi = parse_phi(args.phi)
    v = parse_weight(args.v, tau)
    psi = parse_psi(args.psi) if args.psi else None
    setup = JacksonSetup(n=args.n, phi=phi, p=args.p, tau=tau, v=v,
                         ladder=FrequencyLadder.integer(), psi=psi)
    res = jackson_I(setup, k_factor=cfg.get("k_factor", 64),
                    quad_tol=cfg.get("quad_tol", 1e-11))
    const = jackson_constant(setup, res)
    closed = None
    if phi.kind == "alpha" and v.label == "cos" and abs(tau - math.pi) < 1e-12:
        s = phi.param * args.p / 2.0
        if abs(s - round(s)) < 1e-12:
            closed = chernykh_constants(phi.param, args.p)["sharp_ratio_pow_p"] ** (1.0 / args.p)
    nu = psi.nu(args.n) if psi is not None else 1.0
    rep = ExtremalReport(
        "jackson_constant", const * nu, n=args.n, s_star=res.k_star,
        certificate={
            "I": res.value, "closed_form": closed,
            "match": (closed is not None and abs(const - closed) < 1e-8),
            "nu": nu, **res.certificate,
        },
    )
    _emit(args, [rep])
    return EXIT_OK


def cmd_modulus(args, cfg) -> int:
    f = load_spectrum(args.input)
    phi = parse_phi(args.phi)
    val = omega_phi(f, phi, args.delta, args.p)
    rep = ExtremalReport(
        "modulus", val, certificate={"delta": args.delta, "p": args.p,
                                     "phi": phi.label, "input": args.input},
    )
    _emit(args, [rep])
    return EXIT_OK


def cmd_inverse_check(args, cfg) -> int:
    f = load_spectrum(args.input)
    tau = parse_tau(args.tau)
    ladder = FrequencyLadder.integer(args.gap_bound)
    if args.variant == "general":
        from .moduli import phi_alpha

        res = inverse_bound_general(f, phi_alpha(args.alpha), ladder, args.n, tau, args.p)
    else:
        res = inverse_bound_alpha(f, args.alpha, args.p, ladder, args.n, args.variant)
    rep = ExtremalReport(
        "inverse_bound", res.rhs, n=args.n,
        certificate={"lhs": res.lhs, "holds": res.holds, **res.details},
    )
    _emit(args, [rep])
    return EXIT_OK if res.holds else EXIT_VERIFY_FAIL


def cmd_verify(args, cfg) -> int:
    seed = args.seed if args.seed is not None else cfg.get("seed", 20260810)
    summary = run_suite(args.suite, seed=seed)
    text = json.dumps(summary, sort_keys=True, indent=2, default=repr) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK if summary["passed"] else EXIT_VERIFY_FAIL


_COMMANDS = {
    "charseq": cmd_charseq,
    "class": cmd_class,
    "jackson": cmd_jackson,
    "modulus": cmd_modulus,
    "inverse-check": cmd_inverse_check,
    "verify": cmd_verify,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
        return _COMMANDS[args.command](args, cfg)
    except (ParseError, InputDomainError, FileNotFoundError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (CertificationError, PreconditionError, BudgetError,
            ConvergenceError, DegenerateWeightError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CERTIFICATION
    except SpapproxError as e:  # pragma: no cover - safety net
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CERTIFICATION


if __name__ == "__main__":
    sys.exit(main())
