"""Tests of the benchmark itself, at tiny workload sizes:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

# Each workload shrunk to a few seconds; every family and layer it reaches stays.
TINY = {
    "sweep-default": dict(dims=[1], max_degree_1d=2, max_degree_multi=1,
                          fourier_max_degree=1, parseval_max_degree=1, ort_param_draws=1,
                          fourier_xi_draws=1, contig_draws=2, form_draws=2),
    "series-scalar": dict(contig_draws=3, form_draws=5),
    "gram-highdeg": dict(max_degree_1d=8, ort_param_draws=1),
}


def tiny(name, **changes):
    return dict(workloads.WORKLOADS[name], **TINY[name], **changes)


def measure(config, trace, tmp_path, seed=0):
    return run.measure(config, workloads.record(config, [seed]), seed, 0, trace, tmp_path)


def test_every_workload_has_a_tiny_size():
    assert set(TINY) == set(workloads.WORKLOADS) == {w["name"] for w in BENCHMARK["workloads"]}


@pytest.mark.parametrize("trace", [False, True], ids=["end_to_end", "per_layer"])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_run_prints_every_metric_with_its_unit(name, trace, tmp_path):
    result, machine = measure(tiny(name), trace, tmp_path)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    want = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in want}
    assert {"nproc", "cpu_model", "python", "numpy", "scipy", "blas",
            "blas_threads_env"} <= set(machine)


def test_trace_reaches_defaults_and_repeats_its_counts(tmp_path):
    # a_relation_pair / b_relation_pair reach eval_A / eval_B only through
    # their eval_fn default arguments
    config = tiny("series-scalar", families=workloads.CONTIG)
    counts = []
    for _ in range(2):
        result, _ = measure(config, True, tmp_path)
        assert result["correct"]
        counts.append({n: m["value"] for n, m in result["metrics"].items()
                       if m["unit"] == "count"})
    assert counts[0] == counts[1]
    assert counts[0]["transforms.eval_AB.calls"] > 0
    assert counts[0]["hyper.term_elements"] > 0


def test_recorded_guard_matches_the_library():
    recorded = workloads.load_recorded()
    assert set(recorded) == set(workloads.WORKLOADS)
    for name, config in workloads.WORKLOADS.items():
        fresh = workloads.record(config, [0, workloads.RECORDED_SEEDS - 1])
        assert fresh["families"] == recorded[name]["families"]
        assert fresh["digests"].items() <= recorded[name]["digests"].items()


def test_guard_trips_on_tampered_tolerance_or_case_list():
    from orthopara.cli import SweepConfig
    from orthopara.verifier import generate_cases

    config = tiny("gram-highdeg")
    record = workloads.record(config, [0])
    cases = generate_cases(SweepConfig(**config, seed=0))

    def problems(cs, seed=0):
        return workloads.guard_problems(record, seed, workloads.case_shape(cs),
                                        workloads.case_digest(cs))

    unrecorded = workloads.RECORDED_SEEDS + 1
    looser = [dataclasses.replace(cases[0], tolerance=10 * cases[0].tolerance)] + cases[1:]
    moved = [dataclasses.replace(cases[0], params={"mu": 1.0})] + cases[1:]
    assert problems(cases) == [] and problems(cases, unrecorded) == []
    assert problems(looser) and problems(looser, unrecorded)
    assert problems(cases[:-1]) and problems(cases[:-1], unrecorded)
    assert problems(moved)


def copy_checkout(dst, with_src=True):
    skip = shutil.ignore_patterns("__pycache__", ".pytest_cache")
    shutil.copytree(ROOT / "perfbench", dst / "perfbench", ignore=skip)
    shutil.copy(ROOT / "BENCHMARK.json", dst)
    if with_src:
        shutil.copytree(ROOT / "src", dst / "src", ignore=skip)


def bench(cwd):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "gram-highdeg", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def test_loosened_tolerance_fails_the_command(tmp_path):
    copy_checkout(tmp_path)
    verifier = tmp_path / "src" / "orthopara" / "verifier.py"
    text = verifier.read_text()
    assert '"ORT_GEGEN": 1e-10,' in text
    verifier.write_text(text.replace('"ORT_GEGEN": 1e-10,', '"ORT_GEGEN": 1e-9,'))
    res = bench(tmp_path)
    assert res.returncode != 0 and "case-list guard" in res.stderr
    assert "metrics" not in res.stdout


def test_benchmark_without_the_package_fails(tmp_path):
    copy_checkout(tmp_path, with_src=False)
    res = bench(tmp_path)
    assert res.returncode != 0 and res.stdout == ""
