#!/usr/bin/env python3
"""Check that the source tree of this checkout keeps every sweep verdict of a
base revision.

Usage: python scripts/compare_revisions.py [--base REV|DIR] [--seeds 42,1,7]
                                           [--config PATH] [--times N] [--json PATH]

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
process (the sweeps and the timing processes of both trees) runs with one
fresh PYTHONPYCACHEPREFIX, filled by one import per tree before the first
sweep (PYTHONDONTWRITEBYTECODE is dropped for them).  The prefix mirrors
each source file's absolute path, so each tree's package gets bytecode of
its own while numpy and scipy are compiled once for both, no `__pycache__`
directory in either checkout is read or written, and both trees import
from cached bytecode alike.  Without it, under PYTHONDONTWRITEBYTECODE=1 a
checkout that held `__pycache__` would skip the compile that the other
pays in every process.

With --times N it then times each config's cases in process, at the first
seed, in N rounds.  Each round starts a fresh process per tree, one after
the other, alternating which tree goes first; each process imports the
package, runs the case list once untimed and once timed (each run on a
freshly generated case list, whose draws hold nothing yet), and exits, so an
offset that lasts a whole process is drawn again each round.  For each
family group it prints the median over the rounds of the group's summed case
time, of its median case time and of its p99 case time, base and this
checkout, and in parentheses the median over the rounds of this checkout's
time over the base's time of the same round, e.g.

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

With --json PATH it also writes what it prints as one JSON document: "base"
and "seeds"; "line_counts", each tree's non-blank lines per module and their
total difference; "comparisons", one entry per config and seed with its
"config", "seed", "same" (case list and verdicts) and printed "lines"; and
"times", per config timed, its "seed", "rounds" and one row per family
group with its "cases" and, for "summed" (ms), "median_case" and
"p99_case" (µs), the "base" and "this_checkout" medians and the median
"change_pct".  A performance change commits such a file as its
`BENCH_*.json`.  The file is written when the comparison completes (exit
0 or 1).

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
# more and prints {group: [seconds of each case]} as one JSON line.  Each
# run generates its case list afresh, so the timed run's cases carry empty
# draws, not those the untimed run filled; a base tree that keeps its draws
# in the module-global memo `_memo` gets an empty one.
TIMER = """
import json, sys, time
from orthopara import verifier
from orthopara.cli import SweepConfig, load_config
cfg = load_config(sys.argv[1]) if sys.argv[1] else SweepConfig()
cfg.seed = int(sys.argv[2])
cfg.validate()

def run():
    if hasattr(verifier, "_memo"):
        verifier._memo = verifier._DrawMemo()
    cases = verifier.generate_cases(cfg)
    groups = [verifier.FAMILIES[case.identity_id].group for case in cases]
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


def line_counts(base, this):
    """The report of net lines from the ``module_lines`` of both trees: both
    totals and their difference, then each module whose count changed (0
    where a tree lacks it), by name."""
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
    only under one fresh directory in ``scratch``, shared by the trees,
    which one import of `orthopara.cli` per tree fills before any timed
    process starts."""
    prefix = scratch / "pycache"
    prefix.mkdir()
    envs = []
    for src in trees:
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


# the statistics of --times: JSON key, printed label, statistic, unit, scale
TIME_STATS = (("summed", "summed", sum, "ms", 1e3),
              ("median_case", "median case", statistics.median, "µs", 1e6),
              ("p99_case", "p99 case", p99, "µs", 1e6))


def times_rows(samples):
    """Per family group of ``samples`` (as ``case_times`` returns them), its
    case count, then per statistic the median over the rounds of each tree,
    in its unit, and the median over the rounds of their ratio, as a change
    in percent."""
    rows = []
    for group, first in samples[0][0].items():
        row = {"group": group, "cases": len(first)}
        for key, _, stat, unit, scale in TIME_STATS:
            base, this = (statistics.median(stat(run[group]) for run in runs_of) * scale
                          for runs_of in samples)
            # the two runs of a round are adjacent in time, so their ratio
            # cancels the host's drift between rounds
            ratio = statistics.median(stat(t[group]) / stat(b[group]) for b, t in zip(*samples))
            row[key] = {"unit": unit, "base": base, "this_checkout": this,
                        "change_pct": 100 * (ratio - 1)}
        rows.append(row)
    return rows


def times_table(samples):
    """The rows of ``times_rows``, one printed line per family group."""
    lines = []
    for row in times_rows(samples):
        cells = [f"{label} base {row[key]['base']:.2f} {unit}, this checkout "
                 f"{row[key]['this_checkout']:.2f} {unit} ({row[key]['change_pct']:+.1f}%)"
                 for key, label, _, unit, _ in TIME_STATS]
        lines.append(f"{row['group']} ({row['cases']} cases): " + "; ".join(cells))
    return lines


def main():
    ap = argparse.ArgumentParser(description="compare the sweep reports of two source trees")
    ap.add_argument("--base", default="HEAD", help="git revision or directory (default HEAD)")
    ap.add_argument("--seeds", default="42,1,7", help="comma-separated seeds (default 42,1,7)")
    ap.add_argument("--config", help="one JSON sweep config instead of the default three")
    ap.add_argument("--times", type=int, default=0, metavar="N",
                    help="also time each config's cases in process, N alternating runs per tree")
    ap.add_argument("--json", metavar="PATH", help="also write what is printed as JSON to PATH")
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
            base_lines, lines_here = (module_lines(tree) for tree in trees)
            print("\n".join(line_counts(base_lines, lines_here)))
            doc = {"base": args.base, "seeds": seeds,
                   "line_counts": {"base": base_lines, "this_checkout": lines_here,
                                   "difference": sum(lines_here.values()) - sum(base_lines.values())},
                   "comparisons": [], "times": {}}
            for name, config in configs.items():
                for seed in seeds:
                    runs = [sweep(env, config, seed, tmp / "report.json") for env in envs]
                    lines, ok = compare(*(raw for raw, _ in runs))
                    lines += [f"{tree}: {baseline_row(*run)}"
                              for tree, run in zip(("base", "this checkout"), runs)]
                    print(f"{name} seed {seed}: {'same' if ok else 'DIFFERS'}")
                    print("\n".join(f"  {line}" for line in lines))
                    doc["comparisons"].append(
                        {"config": name, "seed": seed, "same": ok, "lines": lines})
                    same = same and ok
                if args.times:
                    print(f"{name} in-process case time, seed {seeds[0]}, "
                          f"median of {args.times} alternating runs:")
                    samples = case_times(envs, config, seeds[0], args.times)
                    print("\n".join(f"  {line}" for line in times_table(samples)))
                    doc["times"][name] = {"seed": seeds[0], "rounds": args.times,
                                          "groups": times_rows(samples)}
            if args.json:
                Path(args.json).write_text(json.dumps(doc, indent=1, ensure_ascii=False) + "\n")
        except (OSError, ValueError, KeyError) as exc:
            print(f"compare_revisions: {exc}", file=sys.stderr)
            return 2
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
