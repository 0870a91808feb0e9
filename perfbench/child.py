"""One fresh interpreter of a benchmark run (started by run.py).

Phases: set-up (import spapprox.cli, generate this segment's seeded cases),
then "READY" on stdout; then the timed phase, a closed loop with one client
over the cases; then the untimed check phase; then the results file and
"DONE".

Modes: ``run`` times untraced; ``trace`` installs the span tracer before
anything imports spapprox names.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import traceback
from time import perf_counter


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("run", "trace"), required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--min-cases", type=int, default=0)
    ap.add_argument("--start", type=int, default=0, help="index of the first case")
    ap.add_argument("--cases", type=int, default=None,
                    help="run exactly this many cases, ignoring --seconds")
    ap.add_argument("--no-check", action="store_true")
    ap.add_argument("--out", default=None)
    ap.add_argument("--spans", default=None)
    args = ap.parse_args(argv)

    tracer = None
    if args.mode == "trace":
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    else:
        import spapprox.cli  # noqa: F401  (the import cost users pay)
    import spapprox.errors as errors
    import workloads

    cases = workloads.make_cases(args.workload, args.seed, args.start, args.cases)
    print("READY", flush=True)

    records = []
    rss_mb = None
    start = perf_counter()
    deadline = start + args.seconds
    for case in cases:
        if args.cases is None and len(records) >= args.min_cases and perf_counter() >= deadline:
            break
        t0 = perf_counter()
        try:
            values = workloads.run_case(case)
            status, error = "ok", None
        except Exception as exc:  # a failed case is recorded, the run goes on
            declared = case.get("declared", ())
            if type(exc).__name__ in declared and isinstance(exc, errors.SpapproxError):
                status = "declared"
            else:
                status = "error"
            values, error = None, f"{type(exc).__name__}: {exc}"
            if status == "error":
                error += "\n" + traceback.format_exc(limit=6)
        records.append({"id": case["id"], "kind": case["kind"], "latency_s": perf_counter() - t0,
                        "status": status, "error": error, "values": values})
        if len(records) == workloads.RSS_AFTER[args.workload]:
            rss_mb = _maxrss_mb()
    timed_s = perf_counter() - start
    peak_rss_mb = rss_mb if rss_mb is not None else _maxrss_mb()

    if tracer is not None:
        tracer.phase = "check"
    if not args.no_check:
        checker = workloads.Checker()
        for rec in records:
            if rec["status"] != "ok":
                rec["failures"] = [rec["error"]] if rec["status"] == "error" else []
                continue
            try:
                rec["failures"] = checker.check(cases[rec["id"] - args.start], rec["values"])
            except Exception as exc:  # a crashing check is a failed check
                rec["failures"] = [f"check raised {type(exc).__name__}: {exc}"]

    result = {
        "workload": args.workload, "seed": args.seed, "mode": args.mode,
        "checked": not args.no_check, "timed_s": timed_s, "peak_rss_mb": peak_rss_mb,
        "cases": records,
    }
    if tracer is not None:
        result["per_layer"] = tracer.metrics(timed_s)
        if args.spans:
            tracer.dump(args.spans)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, default=float)
    print("DONE", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
