#!/usr/bin/env python3
"""spapprox benchmark: one command, three workloads, every output checked.

Run from the repository root (no install needed):

    python3 perfbench/run.py --workload modulus --seed 1 --seconds 30 --trace 0

Workloads (why each was chosen is recorded in BENCHMARK.json):

* ``modulus`` -- inverse-theorem bounds on seeded ladder spectra plus direct
  ``omega_phi`` calls over the four generator kinds;
* ``jackson`` -- n-sweeps of the scanned integral, bound slack on random
  spectra, sharpness witnesses and the correction series;
* ``lattice`` -- one bundle of class quantities per (psi system, n).

Each run is a closed loop with one client.  The timed phase runs as five
consecutive segments of the seeded case sequence, each in a fresh
interpreter, so the module caches start cold, as they do on every CLI call,
and the speed of any one process on a shared host weighs only a fifth.

``--trace 0`` prints the end-to-end metrics: ``cases_per_s`` (all cases over
all segments' timed wall time), ``case_p50_ms`` and ``case_p90_ms`` over
the pooled per-case latencies (at least 100 cases, so p90 has at least 10
samples beyond it; the count is ``attempted``), ``setup_s`` (median over
the five segments of interpreter start, ``import spapprox.cli`` and input
generation) and ``peak_rss_mb`` (largest over the segments of the child's
own ``ru_maxrss`` after a fixed number of cases, workloads.RSS_AFTER).  Failed cases (an undeclared
error or a failed check) are ``failed`` out of ``attempted``.

``--trace 1`` prints per-layer metrics from a separate pair of children:
one untraced for half the run time, then one traced over the same cases,
whose spans give the layer numbers; ``trace.overhead_ratio`` is traced over
untraced timed wall time.

The last stdout line is one JSON object; a readable summary and the
machine record go to stderr.  Per-case values, the machine record and the
metrics are saved under ``perfbench/out/`` (see compare.py).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("modulus", "jackson", "lattice")
DEFAULT_SEED = 20260810
MIN_CASES = 100
SEGMENTS = 5
RUN_BUDGET_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class RunError(Exception):
    pass


def _loadavg() -> list:
    try:
        with open("/proc/loadavg", encoding="ascii") as fh:
            return [float(x) for x in fh.read().split()[:3]]
    except OSError:
        return []


def _speed_probe_ms() -> float:
    """Median time of a fixed pure-Python loop: on a shared host the same
    work runs at visibly different speeds from minute to minute, and this
    shows which regime a run fell in."""
    times = []
    for _ in range(5):
        t0 = perf_counter()
        acc = 0
        for i in range(100_000):
            acc += i * i % 7
        times.append((perf_counter() - t0) * 1e3)
    return statistics.median(times)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _child_env(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def machine_record(env: dict) -> dict:
    probe = ("import json, sys, importlib.util as u, numpy, scipy; print(json.dumps({"
             "'python': sys.version.split()[0], 'numpy': numpy.__version__, "
             "'scipy': scipy.__version__, 'numba': u.find_spec('numba') is not None}))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, timeout=60)
    versions = json.loads(out.stdout) if out.returncode == 0 else {"probe_error": out.stderr[-500:]}
    return {
        "nproc": os.cpu_count(), "cpu_model": _cpu_model(), "platform": platform.platform(),
        **versions, "threads": {var: env[var] for var in THREAD_VARS},
        "loadavg_start": _loadavg(), "speed_probe_ms_start": _speed_probe_ms(),
    }


class Child:
    """A child interpreter; ``setup_s`` is spawn-to-READY wall time."""

    def __init__(self, args: list, env: dict, deadline: float):
        self.deadline = deadline
        t0 = perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "child.py"), *args], env=env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        ready, _, _ = select.select([self.proc.stdout], [], [], max(1.0, deadline - t0))
        line = self.proc.stdout.readline() if ready else ""
        self.setup_s = perf_counter() - t0
        if line.strip() != "READY":
            self.proc.kill()
            _, err = self.proc.communicate()
            raise RunError("child failed during set-up:\n" + err[-3000:])

    def finish(self):
        try:
            out, self.stderr = self.proc.communicate(
                timeout=max(1.0, self.deadline - perf_counter()))
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
            raise RunError("child exceeded the run time budget") from None
        if self.proc.returncode != 0 or "DONE" not in out.split():
            raise RunError(f"child exited {self.proc.returncode}:\n" + self.stderr[-3000:])
        return self


def _p90(xs: list) -> float:
    return statistics.quantiles(xs, n=10, method="inclusive")[-1] if len(xs) > 1 else xs[0]


def _failed(records: list) -> int:
    return sum(1 for r in records if r["status"] == "error" or r.get("failures"))


def run(args) -> dict:
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "spapprox", "__init__.py")):
        raise RunError("run from the repository root: src/spapprox not found")
    env = _child_env(root)
    deadline = perf_counter() + RUN_BUDGET_S
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}" + ("-trace" if args.trace else "")
    out_path = os.path.join(out_dir, tag + ".json")
    machine = machine_record(env)
    base = ["--workload", args.workload, "--seed", str(args.seed)]
    cap = [] if args.cases is None else ["--cases", str(args.cases)]

    if not args.trace:
        # the timed phase runs as consecutive segments of the case sequence,
        # one fresh interpreter each: a single process's speed on a shared
        # host varies by up to a third, and pooling several evens that out
        setup, records, timed_s, peak_rss_mb, start = [], [], 0.0, 0.0, 0
        seg_path = os.path.join(out_dir, tag + "-segment.json")
        seg_cap = [] if args.cases is None else ["--cases", str(-(-args.cases // SEGMENTS))]
        for _ in range(SEGMENTS):
            child = Child(base + ["--mode", "run", "--start", str(start),
                                  "--seconds", str(args.seconds / SEGMENTS),
                                  "--min-cases", str(-(-MIN_CASES // SEGMENTS)),
                                  "--out", seg_path] + seg_cap, env, deadline)
            setup.append(child.setup_s)
            child.finish()
            with open(seg_path, encoding="utf-8") as fh:
                segment = json.load(fh)
            records += segment["cases"]
            timed_s += segment["timed_s"]
            peak_rss_mb = max(peak_rss_mb, segment["peak_rss_mb"])
            start = records[-1]["id"] + 1
        os.remove(seg_path)
        result = {**segment, "cases": records, "timed_s": timed_s, "peak_rss_mb": peak_rss_mb,
                  "setup_samples_s": setup}
        lat_ms = [r["latency_s"] * 1e3 for r in records]
        metrics = {
            "cases_per_s": (len(lat_ms) / timed_s, "1/s"),
            "case_p50_ms": (statistics.median(lat_ms), "ms"),
            "case_p90_ms": (_p90(lat_ms), "ms"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        # untraced reference over half the run time, then the traced child
        # over exactly the same cases
        ref_path = os.path.join(out_dir, tag + "-untraced.json")
        Child(base + ["--mode", "run", "--seconds", str(args.seconds / 2.0),
                      "--min-cases", str(MIN_CASES // 2), "--no-check",
                      "--out", ref_path] + cap, env, deadline).finish()
        with open(ref_path, encoding="utf-8") as fh:
            reference = json.load(fh)
        n_cases = len(reference["cases"])
        Child(base + ["--mode", "trace", "--cases", str(n_cases), "--out", out_path,
                      "--spans", os.path.join(out_dir, tag + "-spans.jsonl.gz")],
              env, deadline).finish()
        with open(out_path, encoding="utf-8") as fh:
            result = json.load(fh)
        layer = result["per_layer"]
        layer["trace.overhead_ratio"] = result["timed_s"] / reference["timed_s"]
        units = {"calls": "count", "items": "count", "points": "count", "errors": "count",
                 "ratio": "ratio", "us": "us"}
        metrics = {name: (value, units.get(name.rsplit(".", 1)[1].rsplit("_", 1)[-1], "s"))
                   for name, value in layer.items()}

    machine["loadavg_end"] = _loadavg()
    machine["speed_probe_ms_end"] = _speed_probe_ms()
    records = result["cases"]
    summary = {
        "correct": _failed(records) == 0,
        "attempted": len(records),
        "failed": _failed(records),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    result.update(machine=machine, summary=summary)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, default=float)
    _report(args, result, out_path)
    return summary


def _report(args, result: dict, out_path: str):
    m = result["machine"]
    err = sys.stderr
    print(f"[{args.workload} seed={args.seed} trace={args.trace}] nproc={m['nproc']} "
          f"cpu={m['cpu_model']!r} python={m.get('python')} numpy={m.get('numpy')} "
          f"scipy={m.get('scipy')} numba={m.get('numba')} threads=1 "
          f"loadavg {m['loadavg_start']} -> {m['loadavg_end']} speed probe "
          f"{m['speed_probe_ms_start']:.1f} -> {m['speed_probe_ms_end']:.1f} ms", file=err)
    for name, mv in result["summary"]["metrics"].items():
        print(f"  {name:<32} {mv['value']:.6g} {mv['unit']}", file=err)
    by_status: dict = {}
    for r in result["cases"]:
        by_status[r["status"]] = by_status.get(r["status"], 0) + 1
    print(f"  cases {by_status}; failed {result['summary']['failed']}", file=err)
    for r in result["cases"]:
        if r["status"] == "declared":
            print(f"  declared error in case {r['id']} ({r['kind']}): {r['error']}", file=err)
        for f in r.get("failures") or ():
            print(f"  FAILED case {r['id']} ({r['kind']}): {f.splitlines()[0]}", file=err)
    print(f"  results: {os.path.relpath(out_path)}", file=err)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--cases", type=int, default=None,
                    help="run exactly this many cases (for quick smoke runs)")
    args = ap.parse_args(argv)
    try:
        summary = run(args)
    except RunError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(summary), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
