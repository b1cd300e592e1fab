#!/usr/bin/env python3
"""Check that the source tree of this checkout keeps every sweep verdict of a
base revision.

Usage: python scripts/compare_revisions.py [--base REV|DIR] [--seeds 42,1,7]
                                           [--config PATH] [--times N]

For each config and seed, runs `orthopara sweep --no-timestamp` on the base
tree and on this checkout's `src/`, and compares the two reports with
`diff_reports.compare`.  The base is a git revision (default HEAD), whose
`src/` is extracted with `git archive`, or a directory holding a `src/` tree.
The configs are the default sweep and perfbench's series-scalar and
gram-highdeg workloads (read from `perfbench/workloads.py`), or the one JSON
config given with --config.  It first prints the non-blank line count of
`src/orthopara/*.py` in the base and in this checkout, and their difference
(the net lines a change reports), then one line per module whose count
changed, as `verifier.py 549 → 541 (-8)`.  After the comparison of each seed it
prints each tree's row of the high-degree table in ROADMAP.md's Baseline:
the case count, the failing cases, how many of them raised, and the sweep's
process wall time.  `scripts/configs/` holds that table's configs (hdt-8,
hdt-14, hdt-20, hdf-30 and ball-28), so

    python scripts/compare_revisions.py --config scripts/configs/ball-28.json --seeds 1

reproduces the BALL-28 row for the base and for this checkout.  Every child
process of a tree (its sweeps and its timing processes) runs with that
tree's own fresh PYTHONPYCACHEPREFIX, filled by one import before the first
sweep (PYTHONDONTWRITEBYTECODE is dropped for them), so no `__pycache__`
directory in either checkout is read and both trees import from cached
bytecode alike.  Without it, under PYTHONDONTWRITEBYTECODE=1 a checkout that
held `__pycache__` would skip the compile that the other pays in every
process.

With --times N it then times each config's cases in process, at the first
seed, in N rounds.  Each round starts a fresh process per tree, one after
the other, alternating which tree goes first; each process imports the
package, runs the whole case list once untimed and once timed (each run on
an empty draw memo), and exits, so an offset that lasts a whole process is
drawn again each round.  For each family group it prints the median over the
rounds of the group's summed case time, of its median case time and of its
p99 case time, base and this checkout, and in parentheses the median over
the rounds of this checkout's time over the base's time of the same round,
e.g.

    ORT (892 cases): summed base 41.10 ms, this checkout 29.10 ms (-29.2%);
    median case base 30.00 µs, this checkout 20.00 µs (-33.3%);
    p99 case base 210.00 µs, this checkout 190.00 µs (-9.5%)

on one line.  The summed time carries the rule builds of a draw's first
cases; the median and p99 cases are the in-process counterparts of
perfbench's case_p50_ms and case_p99_ms (the same inclusive percentile,
over the group's cases of one round).  Two A/A comparisons of two copies of
one tree, 21 rounds each on a shared 2-CPU host, read from -5.2% to +3.6%
over their 16 group percentages each, so a difference under about 5% is not
resolved by it there.

Exits 0 when every pair of reports has the same case list and verdicts, 1 when
any pair differs, 2 when the base or a config cannot be read or a sweep writes
no report.
"""

import argparse
import importlib.util
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from diff_reports import compare  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("series-scalar", "gram-highdeg")

# The timing process of --times: argv is the config path ("" for the
# default) and the seed.  After one untimed run, it runs every case once
# more and prints {group: [seconds of each case]} as one JSON line.
TIMER = """
import json, sys, time
from orthopara import verifier
from orthopara.cli import SweepConfig, load_config
cfg = load_config(sys.argv[1]) if sys.argv[1] else SweepConfig()
cfg.seed = int(sys.argv[2])
cfg.validate()
cases = verifier.generate_cases(cfg)
groups = [verifier.FAMILIES[case.identity_id].group for case in cases]

def run():
    if hasattr(verifier, "_memo"):
        verifier._memo = verifier._DrawMemo()
    times = {}
    for case, group in zip(cases, groups):
        t0 = time.perf_counter()
        try:
            verifier.run_case(case)
        except Exception:  # timed as a sweep runs it; the reports show the error
            pass
        times.setdefault(group, []).append(time.perf_counter() - t0)
    return times

run()
print(json.dumps(run()))
"""


def workload_configs():
    """The perfbench workload configs, loaded from their file as it stands."""
    spec = importlib.util.spec_from_file_location(
        "workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return {name: module.WORKLOADS[name] for name in WORKLOADS}


def base_tree(base, scratch):
    """The `src/` directory of a base directory or git revision."""
    if Path(base).is_dir():
        src = Path(base).resolve() / "src"
        if not src.is_dir():
            raise ValueError(f"{base} holds no src/ directory")
        return src
    res = subprocess.run(["git", "-C", str(ROOT), "archive", base, "src"],
                         capture_output=True)
    if res.returncode != 0:
        raise ValueError(f"git archive {base}: {res.stderr.decode().strip()}")
    with tarfile.open(fileobj=io.BytesIO(res.stdout)) as archive:
        archive.extractall(scratch, filter="data")
    return scratch / "src"


def module_lines(src):
    """The non-blank line count of each package module `orthopara/*.py` under ``src``."""
    return {path.name: sum(bool(line.strip()) for line in path.read_text().splitlines())
            for path in (src / "orthopara").glob("*.py")}


def line_counts(base_src, src):
    """The report of net lines: both totals and their difference, then each
    module whose count changed (0 where a tree lacks it), by name."""
    base, this = module_lines(base_src), module_lines(src)
    total, base_total = sum(this.values()), sum(base.values())
    lines = [f"non-blank lines of src/orthopara/*.py: base {base_total}, "
             f"this checkout {total}, difference {total - base_total:+d}"]
    for name in sorted(base.keys() | this.keys()):
        old, new = base.get(name, 0), this.get(name, 0)
        if old != new:
            lines.append(f"  {name} {old} → {new} ({new - old:+d})")
    return lines


def child_envs(trees, scratch):
    """The environment of every child process of each tree in ``trees``:
    the package imported from that `src/`, and bytecode read and written
    only under the tree's own fresh directory in ``scratch``, which one
    import of `orthopara.cli` fills before any timed process starts."""
    envs = []
    for i, src in enumerate(trees):
        prefix = scratch / f"pycache-{i}"
        prefix.mkdir()
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONPYCACHEPREFIX=str(prefix))
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        res = subprocess.run([sys.executable, "-c", "import orthopara.cli"], env=env,
                             capture_output=True, text=True)
        if res.returncode != 0:
            raise ValueError(f"import orthopara.cli from {src} exited {res.returncode}: "
                             f"{res.stderr.strip()}")
        envs.append(env)
    return envs


def sweep(env, config, seed, out):
    """The `--no-timestamp` report of one sweep in the child environment
    ``env``, and the sweep's process wall time in seconds."""
    cmd = [sys.executable, "-m", "orthopara", "sweep", "--no-timestamp",
           "--seed", str(seed), "--out", str(out)]
    if config is not None:
        cmd += ["--config", str(config)]
    t0 = time.perf_counter()
    res = subprocess.run(cmd, env=env, cwd=out.parent,
                         stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    seconds = time.perf_counter() - t0
    if res.returncode not in (0, 1) or not out.exists():
        raise ValueError(f"sweep on {env['PYTHONPATH']} exited {res.returncode}: "
                         f"{res.stderr.strip()}")
    raw = out.read_bytes()
    out.unlink()
    return raw, seconds


def baseline_row(raw, seconds):
    """Cases, failing cases, how many of them raised, and the wall time of
    one report, as in the Baseline's high-degree table."""
    doc = json.loads(raw)
    raised = sum(case.get("error") is not None for case in doc["cases"])
    summary = doc["summary"]
    return (f"{summary['total']} cases, {summary['failed']} failing ({raised} raise), "
            f"{seconds:.1f} s")


def p99(times):
    """perfbench's case_p99_ms percentile (inclusive), of one or more times."""
    if len(times) == 1:
        return times[0]
    return statistics.quantiles(times, n=100, method="inclusive")[98]


def case_times(envs, config, seed, runs):
    """The in-process case times of ``runs`` rounds of each tree, as
    [base rounds, this checkout's rounds], each round {group: [seconds of
    each case]}.  Each round starts a fresh timing process per tree, one
    after the other, alternating which tree goes first, so an offset that
    lasts a whole process is drawn again each round."""
    samples = [[], []]
    for run in range(runs):
        for i in (0, 1) if run % 2 == 0 else (1, 0):
            res = subprocess.run([sys.executable, "-c", TIMER, str(config or ""), str(seed)],
                                 env=envs[i], capture_output=True, text=True)
            if res.returncode != 0:
                raise ValueError(f"the timing process on {envs[i]['PYTHONPATH']} exited "
                                 f"{res.returncode}: {res.stderr.strip()}")
            samples[i].append(json.loads(res.stdout))
    return samples


def times_table(samples):
    """Per family group of ``samples`` (as ``case_times`` returns them), the
    row of --times: its case count, then the median over the rounds of each
    tree of its summed, median and p99 case time, and the median over the
    rounds of their ratio."""
    lines = []
    for group, first in samples[0][0].items():
        row = []
        for what, stat, unit, scale in (("summed", sum, "ms", 1e3),
                                        ("median case", statistics.median, "µs", 1e6),
                                        ("p99 case", p99, "µs", 1e6)):
            base, this = (statistics.median(stat(run[group]) for run in runs_of) * scale
                          for runs_of in samples)
            # the two runs of a round are adjacent in time, so their ratio
            # cancels the host's drift between rounds
            ratio = statistics.median(stat(t[group]) / stat(b[group]) for b, t in zip(*samples))
            row.append(f"{what} base {base:.2f} {unit}, this checkout {this:.2f} {unit} "
                       f"({100 * (ratio - 1):+.1f}%)")
        lines.append(f"{group} ({len(first)} cases): " + "; ".join(row))
    return lines


def main():
    ap = argparse.ArgumentParser(description="compare the sweep reports of two source trees")
    ap.add_argument("--base", default="HEAD", help="git revision or directory (default HEAD)")
    ap.add_argument("--seeds", default="42,1,7", help="comma-separated seeds (default 42,1,7)")
    ap.add_argument("--config", help="one JSON sweep config instead of the default three")
    ap.add_argument("--times", type=int, default=0, metavar="N",
                    help="also time each config's cases in process, N alternating runs per tree")
    args = ap.parse_args()
    if args.times < 0:
        ap.error(f"--times needs a count >= 0, got {args.times}")
    try:
        seeds = [int(s) for s in args.seeds.split(",")]
    except ValueError:
        ap.error(f"--seeds needs comma-separated integers, got {args.seeds!r}")

    same = True
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        try:
            if args.config:
                configs = {args.config: Path(args.config).resolve()}
            else:
                configs = {"default": None}
                for name, cfg in workload_configs().items():
                    configs[name] = tmp / f"{name}.json"
                    configs[name].write_text(json.dumps(cfg))
            trees = (base_tree(args.base, tmp / "base"), ROOT / "src")
            envs = child_envs(trees, tmp)
            print("\n".join(line_counts(*trees)))
            for name, config in configs.items():
                for seed in seeds:
                    runs = [sweep(env, config, seed, tmp / "report.json") for env in envs]
                    lines, ok = compare(*(raw for raw, _ in runs))
                    lines += [f"{tree}: {baseline_row(*run)}"
                              for tree, run in zip(("base", "this checkout"), runs)]
                    print(f"{name} seed {seed}: {'same' if ok else 'DIFFERS'}")
                    print("\n".join(f"  {line}" for line in lines))
                    same = same and ok
                if args.times:
                    print(f"{name} in-process case time, seed {seeds[0]}, "
                          f"median of {args.times} alternating runs:")
                    samples = case_times(envs, config, seeds[0], args.times)
                    print("\n".join(f"  {line}" for line in times_table(samples)))
        except (OSError, ValueError, KeyError) as exc:
            print(f"compare_revisions: {exc}", file=sys.stderr)
            return 2
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
