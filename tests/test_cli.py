import json
import math
import os
import subprocess
import sys
import tempfile
import warnings

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spapprox.cli import main
from spapprox.minilang import parse_phi, parse_psi, parse_tau, parse_weight
from spapprox.errors import ParseError
from spapprox import Spectrum, save_spectrum


def run(args):
    return main(args)


def test_parse_tau_tokens():
    assert parse_tau("pi") == math.pi
    assert parse_tau("3pi/4") == pytest.approx(3 * math.pi / 4)
    assert parse_tau("1.5") == 1.5
    with pytest.raises(ParseError):
        parse_tau("two pies")


def test_parse_psi_variants(tmp_path):
    assert parse_psi("product:[pow(-1),pow(-1)]").d == 2
    assert parse_psi("product: axes=[pow(-1), pow(-2)]").d == 2
    r = parse_psi("radial: psi=pow(-2), d=1, norm=inf")
    assert r.magnitude((3,)) == pytest.approx(1 / 9)
    assert parse_psi("explicit:harmonic").magnitude((-1,)) == 0.5
    assert parse_psi("explicit:geom(0.5)").magnitude((0,)) == 1.0
    table = tmp_path / "psi.json"
    table.write_text(json.dumps({"d": 1, "entries": [{"k": [0], "value": 1.0}]}))
    t = parse_psi(f"explicit:file={table}")
    assert t.magnitude((0,)) == 1.0
    for bad in ("product:[pow(1)]", "radial:psi=pow(-2),x=1", "explicit:nope", "zzz:1"):
        with pytest.raises(ParseError):
            parse_psi(bad)


def test_parse_phi_and_weight():
    assert parse_phi("alpha:1.5").param == 1.5
    assert parse_phi("theta:[1,-2,1]").kind == "theta"
    assert parse_phi("steklov:2").param == 2.0
    with pytest.raises(ParseError):
        parse_phi("alpha:x")
    assert parse_weight("cos", math.pi).label == "cos"
    assert parse_weight("t", 1.0).label == "t"
    with pytest.raises(ParseError):
        parse_weight("sin", 1.0)


def test_cli_charseq_and_exit_codes(tmp_path, capsys):
    assert run(["charseq", "--psi", "product:[pow(-1),pow(-1)]", "--count", "3"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert [r["value"] for r in doc["reports"]] == [1.0, 0.5, 1 / 3]
    assert [r["certificate"]["delta"] for r in doc["reports"]] == [9, 21, 33]
    assert run(["charseq", "--psi", "garbage", "--count", "1"]) == 2
    assert run(["charseq", "--psi", "explicit:harmonic", "--count", "0"]) == 2


def test_cli_charseq_overflowing_axis_is_a_certification_error(capsys):
    # 6**400 is past the double range: one typed error line, exit code 3
    assert run(["charseq", "--psi", "product:[pow(-400)]", "--count", "5"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_cli_class_sigma(capsys):
    assert run(["class", "--quantity", "sigma", "--psi", "explicit:harmonic",
                "--p", "1", "--q", "1", "--n", "1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    rep = doc["reports"][0]
    assert rep["value"] == pytest.approx(1 / 3, abs=1e-12)
    assert rep["s_star"] == 2


def test_cli_class_uncertified_exit(capsys):
    # q > p with a divergent summability series -> certification exit code
    assert run(["class", "--quantity", "width", "--psi", "explicit:powseq(0.4)",
                "--p", "1", "--q", "2", "--n", "1"]) == 3


def test_cli_jackson_closed_form(capsys):
    assert run(["jackson", "--phi", "alpha:1", "--p", "2", "--tau", "pi",
                "--v", "cos", "--n", "3"]) == 0
    doc = json.loads(capsys.readouterr().out)
    rep = doc["reports"][0]
    assert rep["certificate"]["I"] == pytest.approx(4.0, abs=1e-9)
    assert rep["value"] == pytest.approx(2 ** -0.5, abs=1e-9)
    assert rep["certificate"]["match"] is True


@pytest.mark.parametrize("phi, v, I, tail_mean, dominated", [
    # unit density on [0, pi]: every integer ratio k gives I(k) = pi times
    # the period mean of phi^p, so the two values tie and differ by rounding
    ("alpha:0.5", "t", 4.0, 4.0, False),
    ("alpha:2", "t", 6 * math.pi, 6 * math.pi, False),
    # cos weight: I(1) = 32/3 lies below the period mean times the mass, 12
    ("alpha:2", "cos", 32 / 3, 12.0, True),
])
def test_cli_jackson_tail_dominated_needs_more_than_a_tie(capsys, phi, v, I, tail_mean, dominated):
    assert run(["jackson", "--phi", phi, "--p", "2", "--v", v, "--n", "1"]) == 0
    cert = _strict_json(capsys.readouterr().out)["reports"][0]["certificate"]
    assert (cert["I"], cert["tail_mean"]) == pytest.approx((I, tail_mean), rel=1e-12)
    assert cert["tail_dominated"] is dominated


def test_cli_jackson_pwl_weight_default_tolerance(tmp_path, capsys):
    # the scanned powers have cusps inside both segments of the weight
    path = tmp_path / "v.json"
    path.write_text(json.dumps({"knots_t": [0.0, 1.0, math.pi], "knots_v": [0.0, 0.5, 2.0]}))
    assert run(["jackson", "--phi", "alpha:1.3", "--p", "1", "--v", f"pwl:{path}",
                "--n", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["reports"][0]["s_star"] == 5


@pytest.mark.parametrize("n", [1, 8])
def test_cli_jackson_pwl_weight_small_fractional_power(tmp_path, capsys, n):
    # alpha p = 0.55 against a piecewise-linear weight takes the Gauss-Jacobi
    # route (the adaptive rule runs out of budget on these cusps); I at
    # k_star against mpmath, split at the knot t = 1 and the sine zeros
    path = tmp_path / "v.json"
    path.write_text(json.dumps({"knots_t": [0.0, 1.0, math.pi], "knots_v": [0.0, 0.5, 2.0]}))
    assert run(["jackson", "--phi", "alpha:0.55", "--p", "1", "--v", f"pwl:{path}",
                "--n", str(n)]) == 0
    rep = _strict_json(capsys.readouterr().out)["reports"][0]
    with mpmath.workdps(30):
        r = mpmath.mpf(rep["s_star"]) / n
        slopes = (mpmath.mpf(0.5), mpmath.mpf(1.5) / (mpmath.pi - 1))

        def f(t):
            return (2 * abs(mpmath.sin(r * t / 2))) ** mpmath.mpf(0.55) * slopes[t > 1]

        zeros = [2 * mpmath.pi * m / r for m in range(1, int(r) + 1)]
        points = sorted([mpmath.mpf(0), mpmath.mpf(1), mpmath.pi] + [z for z in zeros if z < mpmath.pi])
        ref = float(mpmath.quad(f, points))
    assert rep["certificate"]["I"] == pytest.approx(ref, rel=1e-12)


def test_cli_jackson_rejects_a_non_finite_atomic_weight(tmp_path, capsys):
    path = tmp_path / "w.json"
    args = ["jackson", "--phi", "alpha:1", "--p", "2", "--n", "1", "--tau", "2",
            "--v", f"atomic:{path}"]
    path.write_text(json.dumps({"points": [1.0, 1.5], "jumps": [1.0, 0.5], "tau": 2.0}))
    assert run(args) == 0
    assert math.isfinite(_strict_json(capsys.readouterr().out)["reports"][0]["value"])
    # json writes and reads the NaN literal
    path.write_text(json.dumps({"points": [1.0, 1.5], "jumps": [1.0, math.nan], "tau": 2.0}))
    assert run(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_cli_modulus_constant(tmp_path, capsys):
    path = tmp_path / "const.json"
    save_spectrum(Spectrum.real({0.0: 1.0}), str(path))
    assert run(["modulus", "--input", str(path), "--phi", "alpha:2",
                "--delta", "0.5"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["reports"][0]["value"] == 0.0


def test_cli_inverse_check(tmp_path, capsys):
    path = tmp_path / "f.json"
    save_spectrum(Spectrum.real({0.0: 1.0, 2.0: 0.5, -2.0: 0.25, 5.0: 0.125}), str(path))
    assert run(["inverse-check", "--input", str(path), "--alpha", "1", "--p", "2",
                "--n", "4", "--variant", "improved"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["reports"][0]["certificate"]["holds"] is True


def test_cli_inverse_check_gap_bound(tmp_path, capsys):
    # --gap-bound sets the bound of the integer ladder: 1 is its default, the
    # gap variant's bound is linear in it, and a bound below the gaps is refused
    path = tmp_path / "f.json"
    save_spectrum(Spectrum.real({0.0: 1.0, 2.0: 0.5, -2.0: 0.25, 5.0: 0.125}), str(path))
    args = ["inverse-check", "--input", str(path), "--alpha", "1", "--p", "2", "--n", "4",
            "--variant", "gap"]
    outs = []
    for extra in ([], ["--gap-bound", "1"], ["--gap-bound", "1.5"]):
        assert run(args + extra) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    rhs = [json.loads(out)["reports"][0]["value"] for out in outs]
    assert rhs[2] == pytest.approx(1.5 * rhs[0], rel=1e-14)
    assert run(args + ["--gap-bound", "0.5"]) == 3
    assert "gap bound" in capsys.readouterr().err


def _strict_json(text):
    def reject(name):
        raise ValueError(f"{name} is not valid JSON")
    return json.loads(text, parse_constant=reject)


@pytest.mark.parametrize("variant", ["classic", "improved", "gap", "general"])
def test_cli_inverse_check_rejects_infinite_p(tmp_path, capsys, variant):
    path = tmp_path / "f.json"
    save_spectrum(Spectrum.real({0.0: 1.0, 2.0: 0.5, 5.0: 0.125}), str(path))
    args = ["inverse-check", "--input", str(path), "--alpha", "1.3", "--n", "4",
            "--variant", variant]
    assert run(args + ["--p", "2"]) == 0
    assert _strict_json(capsys.readouterr().out)["reports"][0]["certificate"]["holds"] is True
    with pytest.raises(SystemExit) as exc:
        run(args + ["--p", "inf"])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("finite,overflowing", [
    (["modulus", "--phi", "alpha:2", "--delta", "1"],
     ["modulus", "--phi", "alpha:2000", "--delta", "1"]),
    (["inverse-check", "--alpha", "2", "--p", "1", "--n", "2"],
     ["inverse-check", "--alpha", "2000", "--p", "1", "--n", "2"]),
    (["modulus", "--phi", "alpha:100", "--p", "1.5", "--delta", "1"],
     ["modulus", "--phi", "alpha:1000", "--p", "1.5", "--delta", "1"]),
    (["modulus", "--phi", "theta:[1e100,-1e100]", "--p", "1.5", "--delta", "1"],
     ["modulus", "--phi", "theta:[1e300,-1e300]", "--p", "1.5", "--delta", "1"]),
    # a finite objective 2^512.5 whose square root 2^1025 is past the double range
    (["modulus", "--phi", "alpha:500", "--p", "0.5", "--delta", "4"],
     ["modulus", "--phi", "alpha:1023", "--p", "0.5", "--delta", "4"]),
])
def test_cli_overflowing_generator_is_a_usage_error(tmp_path, capsys, finite, overflowing):
    path = tmp_path / "f.json"
    save_spectrum(Spectrum.real({1.0: 1.0, 3.0: 1.0}), str(path))
    assert run(finite + ["--input", str(path)]) == 0
    assert math.isfinite(_strict_json(capsys.readouterr().out)["reports"][0]["value"])
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a warning would reach the user's stderr too
        assert run(overflowing + ["--input", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("weights", ["[1,-1,nan]", "[inf,-inf]", "[1,nan,-1]"])
def test_cli_non_finite_theta_weights_are_a_usage_error(tmp_path, capsys, weights):
    path = tmp_path / "f.json"
    save_spectrum(Spectrum.real({1.0: 1.0, 3.0: 1.0}), str(path))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a warning would reach the user's stderr too
        assert run(["modulus", "--input", str(path), "--phi", f"theta:{weights}", "--delta", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("args", [
    # sup^p = 2^1200: past the double range
    ["jackson", "--phi", "alpha:600", "--p", "2", "--n", "2"],
    # sup^p = 4e600, which the adaptive rule would meet as inf - inf
    ["jackson", "--phi", "theta:[1e300,-1e300]", "--p", "2", "--n", "2"],
    # (2 pi / 2)^511.5 2^510.5 overflows in the classic bound
    ["inverse-check", "--alpha", "1023", "--p", "0.5", "--n", "2", "--variant", "classic"],
])
def test_cli_overflowing_bound_is_a_usage_error(tmp_path, capsys, args):
    path = tmp_path / "f.json"
    save_spectrum(Spectrum.real({1.0: 1.0, 3.0: 1.0}), str(path))
    if args[0] == "inverse-check":
        args = args + ["--input", str(path)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a warning would reach the user's stderr too
        assert run(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_cli_improved_bound_has_no_ratio_to_an_overflowing_classic(tmp_path, capsys):
    path = tmp_path / "f.json"
    save_spectrum(Spectrum.real({1.0: 1.0, 3.0: 1.0}), str(path))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["inverse-check", "--input", str(path), "--alpha", "1023", "--p", "0.5",
                    "--n", "2"]) == 0
    report = _strict_json(capsys.readouterr().out)["reports"][0]
    assert math.isfinite(report["value"])
    assert report["certificate"]["ratio_vs_classic"] is None


def test_cli_deterministic_outputs(tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    args = ["class", "--quantity", "width", "--psi", "explicit:geom(0.5)",
            "--p", "2", "--q", "1", "--n", "2"]
    assert run(args + ["--out", str(out1)]) == 0
    assert run(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_cli_csv_schema_header(tmp_path):
    out = tmp_path / "r.csv"
    assert run(["charseq", "--psi", "explicit:harmonic", "--count", "2",
                "--format", "csv", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "#schema=1"
    assert lines[1].startswith("quantity,n,value")


def test_cli_config_rejects_unknown_keys(tmp_path):
    cfg = tmp_path / "cfg"
    for line in ("whatever = 3", "grid_points = 4096"):
        cfg.write_text(f"quad_tol = 1e-9\n{line}\n")
        assert run(["--config", str(cfg), "charseq", "--psi", "explicit:harmonic",
                    "--count", "1"]) == 2
    good = tmp_path / "good"
    good.write_text("# comment\nquad_tol = 1e-9\nseed = 7\n")
    assert run(["--config", str(good), "charseq", "--psi", "explicit:harmonic",
                "--count", "1"]) == 0


def test_cli_jackson_rejects_a_scan_factor_below_one(tmp_path, capsys):
    args = ["jackson", "--phi", "alpha:1", "--p", "2", "--n", "2"]
    one = tmp_path / "one"
    one.write_text("k_factor = 1\n")
    assert run(["--config", str(one)] + args) == 0
    report = _strict_json(capsys.readouterr().out)["reports"][0]
    assert report["certificate"]["k_range"] == [2, 2]
    assert report["certificate"]["I"] == pytest.approx(4.0, abs=1e-9)
    zero = tmp_path / "zero"
    zero.write_text("k_factor = 0\n")
    assert run(["--config", str(zero)] + args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_cli_verify_unknown_suite_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["verify", "nosuchsuite"])
    assert exc.value.code == 2


def test_cli_verify_small_suite(capsys):
    assert run(["verify", "nterm"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["passed"] is True and doc["suite"] == "nterm"


def test_cli_verify_stdout_is_the_same_with_warm_caches(capsys):
    # the second run reads every process-level cache the first one filled
    outs = []
    for _ in range(2):
        assert run(["verify", "identities"]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1] and json.loads(outs[0])["passed"] is True


def test_run_suite_raises_a_suites_type_error(monkeypatch):
    from spapprox import verify

    def suite(seed=verify.DEFAULT_SEED):
        if seed != verify.DEFAULT_SEED:
            raise TypeError("suite failed on this seed")
        return {"suite": "fake", "passed": True, "checks": [], "seed": seed}

    monkeypatch.setitem(verify.SUITES, "fake", suite)
    with pytest.raises(TypeError, match="suite failed"):
        verify.run_suite("fake", seed=verify.DEFAULT_SEED + 1)
    assert verify.run_suite("fake")["seed"] == verify.DEFAULT_SEED


@pytest.mark.parametrize("doc_name,doc,args", [
    ("f.json", {"kind": "real", "entries": [{"re": 1.0}]},
     ["modulus", "--input", "{path}", "--phi", "alpha:1", "--delta", "1"]),
    ("f.json", {"kind": "real", "entries": [{"lambda": 1.0, "re": "abc"}]},
     ["modulus", "--input", "{path}", "--phi", "alpha:1", "--delta", "1"]),
    ("v.json", {"knots_t": [0.0, math.pi], "knots_v": "ab"},
     ["jackson", "--phi", "alpha:1", "--p", "1", "--n", "2", "--v", "pwl:{path}"]),
    ("v.json", {"knots_t": [], "knots_v": []},
     ["jackson", "--phi", "alpha:1", "--p", "1", "--n", "2", "--v", "pwl:{path}"]),
    (None, None, ["charseq", "--psi", "radial:pow(-2),d=x"]),
    (None, None, ["charseq", "--psi", "radial:pow(-2),d=2,r=2,origin=exact"]),
    ("f.json", {"kind": "lattice", "entries": [{"k": [1.7], "re": 1.0}]},
     ["modulus", "--input", "{path}", "--phi", "alpha:1", "--delta", "1"]),
], ids=["missing-lambda", "string-re", "string-knots-v", "empty-knots", "string-radial-d",
        "radial-pow-exact-origin", "fractional-k"])
def test_malformed_input_is_a_usage_error(tmp_path, capsys, doc_name, doc, args):
    if doc is not None:
        path = tmp_path / doc_name
        path.write_text(json.dumps(doc))
        args = [a.format(path=path) for a in args]
    assert run(args) == 2
    assert capsys.readouterr().err.startswith("error: ")


_FIELD = st.one_of(
    st.none(), st.text(max_size=4), st.lists(st.integers(-3, 3), max_size=3),
    st.integers(-3, 3), st.floats(-3.0, 3.0),
)


@settings(max_examples=50, deadline=None)
@given(
    kind=st.sampled_from(["real", "lattice"]),
    entries=st.lists(
        st.fixed_dictionaries({}, optional={"k": _FIELD, "lambda": _FIELD, "re": _FIELD,
                                            "im": _FIELD}),
        max_size=3,
    ),
)
def test_modulus_of_malformed_spectrum_never_raises(kind, entries):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "f.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"kind": kind, "entries": entries}, fh)
        code = main(["modulus", "--input", path, "--phi", "alpha:1", "--delta", "1"])
    assert code in (0, 2)


def test_cli_import_loads_no_scipy_mpmath_or_sympy():
    # every CLI call and every benchmark segment's set-up pays for what
    # importing the CLI loads; these libraries serve only the tests
    import spapprox

    src = os.path.dirname(os.path.dirname(os.path.abspath(spapprox.__file__)))
    code = ("import sys, spapprox.cli; "
            "print(sorted({m.split('.')[0] for m in sys.modules} & {'scipy', 'mpmath', 'sympy'}))")
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, timeout=120, check=True)
    assert out.stdout.strip() == "[]"
