"""One fresh sweep process of the benchmark.

    child.py --config JSON --seed N --mode setup|sweep|trace --report PATH

Imports ``orthopara.cli`` (from PYTHONPATH, set by run.py), builds the case
list and prints ``READY``; the parent times process start to that line as
set-up.  It then prints ``GUARD {json}`` with the case-list digest and, in
mode ``setup``, exits.  Modes ``sweep`` and ``trace`` go on to drive
``orthopara.cli.run_sweep`` over the same config, timing and classifying every
case at ``cli.run_case`` from outside, and print ``RESULT {json}``.  Mode
``trace`` installs the layer tracer first.

GUARD carries the host-speed scale (hostspeed.py) of probes run right after
READY, for the set-up time.  During a sweep the probe runs before a case once
PROBE_EVERY_S has passed; RESULT times leave the probes out and are scaled:
each case by the probes around it, the rest of the sweep by all of them.
Per-layer times stay unscaled, except that the probes' own time is taken out
of the ``cli`` layer, in whose span they run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import sys
import time

import hostspeed
import workloads

GROUPS = ("ORT", "FOURIER", "PARSEVAL", "CONTIG", "FORM_EQUIV")
SETUP_PROBES = 5


def group_of(identity_id):
    return next(g for g in GROUPS if identity_id.startswith(g + "_"))


def machine_info():
    import numpy
    import scipy

    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), model)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}: {blas.get('openblas configuration', '')}",
        "blas_threads_env": {v: os.environ.get(v) for v in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


class CaseLog:
    """Wraps ``cli.run_case``: per-case latency and outcome, in call order.

    An outcome is the VerificationReport, or ("error", name) for one of the
    library's own exception types (a case it could not certify), or
    ("crash", name) for any other exception.  Before a case, once
    PROBE_EVERY_S has passed, it runs the host-speed probe; no case time
    includes a probe.
    """

    def __init__(self, cli, errors_module):
        self.starts = []
        self.seconds = []
        self.cases = []
        self.outcomes = []
        self.probes = []  # (start, probe time)
        self.first_start = self.last_end = None
        probed_at = -math.inf
        inner = cli.run_case

        def run_case(case):
            nonlocal probed_at
            t0 = time.perf_counter()
            if self.first_start is None:
                self.first_start = t0
            if t0 - probed_at >= hostspeed.PROBE_EVERY_S:
                self.probes.append((t0, hostspeed.probe()))
                t0 = probed_at = time.perf_counter()
            try:
                report = inner(case)
            except Exception as exc:
                kind = "error" if type(exc).__module__ == errors_module.__name__ else "crash"
                self._record(case, t0, (kind, type(exc).__name__))
                raise
            self._record(case, t0, report)
            return report

        cli.run_case = run_case

    def _record(self, case, t0, outcome):
        self.last_end = time.perf_counter()
        self.starts.append(t0)
        self.seconds.append(self.last_end - t0)
        self.cases.append(case)
        self.outcomes.append(outcome)


def verdict_problems(report):
    """Re-derive a report's verdict from the values it carries."""
    case = report.case
    if report.skipped_reason is not None:
        return [] if report.passed else [f"{case.identity_id}: failed report with a skip reason"]
    lhs, rhs = complex(report.lhs), complex(report.rhs)
    diff = abs(lhs - rhs)
    problems = []
    if math.isfinite(diff):
        if not math.isclose(report.abs_residual, diff, rel_tol=1e-12):
            problems.append(f"{case.identity_id}: abs_residual is not |lhs - rhs|")
        if rhs != 0 and not math.isclose(report.rel_residual, diff / max(abs(lhs), abs(rhs)),
                                         rel_tol=1e-12):
            problems.append(f"{case.identity_id}: rel_residual is not relative to "
                            "max(|lhs|, |rhs|)")
    if report.passed != (report.rel_residual <= case.tolerance):
        problems.append(f"{case.identity_id}: verdict {report.passed} but residual "
                        f"{report.rel_residual!r} vs tolerance {case.tolerance!r}")
    return problems


def sweep(cli, errors, cfg, cases, digest, tracer):
    generated = []
    inner_generate = cli.generate_cases

    def generate_cases(c):
        t0 = time.perf_counter()
        generated.append((inner_generate(c), time.perf_counter() - t0))
        return generated[-1][0]

    cli.generate_cases = generate_cases
    log = CaseLog(cli, errors)
    summary = cli.run_sweep(cfg)
    t_end = time.perf_counter()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    problems = []
    run_cases, generate_s = generated[0] if len(generated) == 1 else ([], math.nan)
    if workloads.case_digest(run_cases) != digest:
        problems.append("run_sweep ran another case list than the one generated at set-up")
    if log.cases != list(run_cases):
        problems.append("run_case was not called once per case in order")

    counts = dict.fromkeys(("passed", "skipped", "residual_failures", "errors", "crashed"), 0)
    group_s = dict.fromkeys(GROUPS, 0.0)
    group_n = dict.fromkeys(GROUPS, 0)
    verdicts = hashlib.sha256()
    for case, outcome, sec in zip(log.cases, log.outcomes, log.seconds):
        g = group_of(case.identity_id)
        group_s[g] += sec
        group_n[g] += 1
        if isinstance(outcome, tuple):
            counts["errors" if outcome[0] == "error" else "crashed"] += 1
            verdicts.update(f"raised {outcome[1]}\n".encode())
            continue
        problems += verdict_problems(outcome)
        if outcome.skipped_reason is not None:
            counts["skipped"] += 1
        else:
            counts["passed" if outcome.passed else "residual_failures"] += 1
        verdicts.update(f"{outcome.passed} {outcome.skipped_reason is not None} "
                        f"{complex(outcome.lhs)!r} {complex(outcome.rhs)!r}\n".encode())

    not_passed = counts["residual_failures"] + counts["errors"] + counts["crashed"]
    if (summary.total, summary.passed, summary.failed, summary.skipped) != (
            len(log.cases), counts["passed"], not_passed, counts["skipped"]):
        problems.append(f"run summary {summary} disagrees with the cases run {counts}")
    with open(cfg.out_path) as fh:
        doc = json.load(fh)
    if [rec["passed"] for rec in doc["cases"]] != [
            not isinstance(o, tuple) and o.passed for o in log.outcomes]:
        problems.append("the written report disagrees with the verdicts returned")

    probe_s = sum(p for _, p in log.probes)
    wall_s = t_end - log.first_start - probe_s if log.cases else math.nan
    scale = hostspeed.scale([p for _, p in log.probes]) if log.probes else math.nan
    case_s = [s * k for s, k in zip(log.seconds, hostspeed.scales_at(log.probes, log.starts))]
    result = {
        "cases": len(log.cases),
        "wall_s": wall_s,
        "scale": scale,
        # cases at their local scale, the rest of the sweep at the sweep's
        "sweep_s": sum(case_s) + (wall_s - sum(log.seconds)) * scale,
        "case_ms": [s * 1e3 for s in case_s],
        "peak_rss_mb": peak_rss_mb,
        "counts": counts,
        "verdict_digest": verdicts.hexdigest()[:16],
        "problems": problems[:20],
    }
    if tracer is not None:
        tracer.self_s["cli"] -= probe_s
        layers = {name: list(v) for name, v in tracer.layer_metrics().items()}
        for g in GROUPS:
            layers[f"verifier.{g}.s"] = [group_s[g], "s"]
            layers[f"verifier.{g}.cases"] = [group_n[g], "count"]
        layers["verifier.errors"] = [counts["errors"] + counts["crashed"], "count"]
        layers["verifier.residual_failures"] = [counts["residual_failures"], "count"]
        layers["cli.generate_cases_s"] = [generate_s, "s"]
        layers["cli.report_s"] = [t_end - (log.last_end or t_end), "s"]
        result["layers"] = layers
    return result


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--mode", choices=("setup", "sweep", "trace"), required=True)
    p.add_argument("--report", required=True)
    args = p.parse_args()

    import orthopara.cli as cli
    from orthopara import errors

    cfg = cli.SweepConfig(**json.loads(args.config), seed=args.seed, out_path=args.report)
    cases = cli.generate_cases(cfg)
    print("READY", flush=True)
    hostspeed.probe()  # first run: cold
    setup_scale = hostspeed.scale([hostspeed.probe() for _ in range(SETUP_PROBES)])

    digest = workloads.case_digest(cases)
    print("GUARD " + json.dumps({
        "scale": setup_scale, "digest": digest, "shape": workloads.case_shape(cases),
        "package": cli.__file__, "machine": machine_info(),
    }), flush=True)
    if args.mode == "setup":
        return 0

    tracer = None
    if args.mode == "trace":
        from tracer import Tracer
        tracer = Tracer().install()
    print("RESULT " + json.dumps(sweep(cli, errors, cfg, cases, digest, tracer)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
