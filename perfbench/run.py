"""Benchmark of ``orthopara sweep``: time to a machine-checked verdict.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
``src/`` directory.  A closed loop: one sequential client, one fresh Python
process per sweep, one case at a time.  The seed selects the sweep's case
draws (``SweepConfig.seed``); every sweep of a run uses the same case list.

``--trace 0`` (end-to-end metrics): after a warm-up process, SETUP_SAMPLES
processes time set-up alone, then whole sweeps run while the next one is
expected to end within ``--seconds`` (at least two).  Every process gives a
set-up sample.  A case's latency is its median over the run's sweeps, and
the percentiles are over the cases.  Times are on the host-speed scale of
hostspeed.py.

``--trace 1`` (per-layer metrics): one plain sweep, then one sweep with the
layer tracer installed; both must give the same case list and verdicts.

Every child's case list must match ``recorded.json`` (see workloads.py); if
it does not, the run prints an error, no result, and exits 1.  The last line
of standard output is the result as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parents[1]
CHILD = Path(__file__).resolve().with_name("child.py")
SETUP_SAMPLES = 3
DEADLINE_S = 170  # the whole run, children included

END_TO_END_UNITS = {
    "sweep_s": "s", "setup_s": "s", "case_p50_ms": "ms", "case_p99_ms": "ms",
    "pass_share": "ratio", "peak_rss_mb": "MB",
}


class BenchError(Exception):
    """The run cannot give a trustworthy number."""


class Child:
    """One child process; ``ready_s`` is process start to its READY line."""

    def __init__(self, config, seed, mode, report, deadline):
        cmd = [sys.executable, str(CHILD), "--config", json.dumps(config),
               "--seed", str(seed), "--mode", mode, "--report", str(report)]
        src = str(ROOT / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        self.guard = self.result = self.ready_s = None
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
        killer = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
        killer.start()
        try:
            for line in proc.stdout:
                tag, _, payload = line.rstrip("\n").partition(" ")
                if tag == "READY":
                    self.ready_s = time.perf_counter() - t0
                elif tag == "GUARD":
                    self.guard = json.loads(payload)
                elif tag == "RESULT":
                    self.result = json.loads(payload)
            code = proc.wait()
        finally:
            killer.cancel()
            proc.kill()
            proc.wait()
        self.wall_s = time.perf_counter() - t0
        if code != 0 or self.guard is None or (mode != "setup" and self.result is None):
            raise BenchError(f"{mode} process exited with code {code} before reporting")


def check_guard(child, record, seed):
    """The case-list guard, and the package must come from this checkout."""
    package = Path(child.guard["package"]).resolve()
    if ROOT / "src" not in package.parents:
        raise BenchError(f"imported orthopara from {package}, not from {ROOT / 'src'}")
    problems = workloads.guard_problems(record, seed, child.guard["shape"],
                                        child.guard["digest"])
    if problems:
        raise BenchError("case-list guard: " + "; ".join(problems))


def percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def measure(config, record, seed, seconds, trace, workdir):
    """Run the children; return (result dict, machine info)."""
    deadline = time.monotonic() + DEADLINE_S
    report = Path(workdir) / "report.json"

    def spawn(mode):
        child = Child(config, seed, mode, report, deadline)
        check_guard(child, record, seed)
        return child

    warm = spawn("setup")  # warm-up: page cache, bytecode
    checked = ("matches the recorded digest" if str(seed) in record["digests"] else
               "has no recorded digest; its per-family counts and tolerances match")
    print(f"case list {warm.guard['digest']} of seed {seed} {checked}")
    if trace:
        sweeps = [spawn("sweep"), spawn("trace")]
    else:
        start = time.monotonic()
        setups = [spawn("setup") for _ in range(SETUP_SAMPLES)]
        sweeps = [spawn("sweep"), spawn("sweep")]
        while time.monotonic() - start + sweeps[-1].wall_s <= seconds:
            sweeps.append(spawn("sweep"))

    results = [c.result for c in sweeps]
    problems = [p for r in results for p in r["problems"]]
    if len({(r["verdict_digest"], json.dumps(r["counts"])) for r in results}) != 1:
        problems.append("sweeps of one case list gave different verdicts")
    attempted = sum(r["cases"] for r in results)
    failed = sum(r["counts"]["crashed"] for r in results)

    if trace:
        plain, traced = results
        metrics = {name: (value, unit) for name, (value, unit) in traced["layers"].items()}
        metrics["trace.overhead"] = (traced["sweep_s"] / plain["sweep_s"] - 1.0, "ratio")
    else:
        # every sweep runs the same cases: a case's latency is its median
        case_ms = [statistics.median(ms) for ms in zip(*(r["case_ms"] for r in results))]
        counts = results[0]["counts"]
        metrics = {
            "sweep_s": statistics.median(r["sweep_s"] for r in results),
            "setup_s": statistics.median(c.ready_s * c.guard["scale"] for c in setups + sweeps),
            "case_p50_ms": statistics.median(case_ms),
            "case_p99_ms": percentile(case_ms, 99),
            "pass_share": (counts["passed"] + counts["skipped"]) / results[0]["cases"],
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in results),
        }
        metrics = {name: (value, END_TO_END_UNITS[name]) for name, value in metrics.items()}
        walls = ", ".join(f"{r['wall_s']:.2f} s x {r['scale']:.3f}" for r in results)
        print(f"{len(sweeps)} sweeps of {len(case_ms)} cases (unscaled wall time x "
              f"host-speed scale: {walls}), {len(setups) + len(sweeps)} set-up samples")
    result = {
        "correct": not problems, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    for problem in problems[:20]:
        print(f"incorrect: {problem}", file=sys.stderr)
    return result, warm.guard["machine"]


def main(argv=None):
    # on SIGTERM, unwind so that Child stops its process and the work
    # directory is removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "orthopara" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'orthopara'}", file=sys.stderr)
        return 2
    config = workloads.WORKLOADS[args.workload]
    record = workloads.load_recorded()[args.workload]
    try:
        with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
            result, machine = measure(config, record, args.seed, args.seconds,
                                      bool(args.trace), workdir)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print("machine " + json.dumps(machine, sort_keys=True))
    for name, m in result["metrics"].items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
