import csv
import dataclasses
import importlib.util
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import mpmath as mp
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from orthopara import cli
from orthopara.ball import ball_eval
from orthopara.cli import (
    EVAL_FUNCTIONS, EVAL_TABLE, MAX_EVAL_SIZE, SweepConfig, expand_families, load_config, main,
    run_sweep,
)
from orthopara.errors import ConfigError
from orthopara.gammafn import beta as betafn
from orthopara.gammafn import gamma
from orthopara.paraboloid import jacobi_paraboloid, laguerre_paraboloid
from orthopara.transforms import (
    SplitParams, WrapParamsJacobi, WrapParamsLaguerre, eval_A, eval_B, eval_D, eval_g,
    eval_h_jacobi, eval_h_laguerre, fourier_h_jacobi_closed, fourier_h_laguerre_closed,
    lambda_factor, phi_factor, theta_factor,
)
from orthopara.verifier import ALL_FAMILIES, IdentityCase, VerificationReport, generate_cases
from references import case_record, csv_row, write_csv_report, write_json_report


def test_empty_family_list(tmp_path):
    cfg = SweepConfig(families=[], out_path=str(tmp_path / "r.json"))
    summary = run_sweep(cfg)
    assert summary.total == 0 and summary.failed == 0


def test_zero_tolerance_rejected():
    # zero, NaN and infinite tolerances pass nothing or everything
    for tol in (0.0, math.nan, math.inf):
        with pytest.raises(ConfigError):
            SweepConfig(tolerances={"ORT_GEGEN": tol}).validate()


def test_unknown_family_rejected():
    with pytest.raises(ConfigError):
        SweepConfig(families=["NOT_A_FAMILY"]).validate()
    with pytest.raises(ConfigError):
        expand_families(["bogus"])


def test_group_expansion():
    fams = expand_families(["PARSEVAL"])
    assert fams == ["PARSEVAL_A", "PARSEVAL_B"]
    assert len(expand_families(["all"])) == len(expand_families(["ORT", "FOURIER", "PARSEVAL", "CONTIG", "FORM_EQUIV"]))


def test_config_file_roundtrip(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"families": ["ORT_GEGEN"], "seed": 9, "max_degree_1d": 3}))
    cfg = load_config(str(path))
    assert cfg.seed == 9 and cfg.families == ["ORT_GEGEN"] and cfg.max_degree_1d == 3
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"not_a_field": 1}))
    with pytest.raises(ConfigError):
        load_config(str(bad))


@pytest.mark.parametrize("raw", [
    {"max_degree_multi": "3"}, {"seed": "x"}, {"tolerances": {"ORT_GEGEN": "1e-3"}},
    {"max_degree_1d": 2.5}, [1, 2], {"dims": []}, {"tolerances": {"ORT_GEGEN": math.inf}},
    {"dims": [4]}, {"dims": [2, 2]},
], ids=["str_degree", "str_seed", "str_tolerance", "float_degree", "not_an_object",
        "empty_dims", "inf_tolerance", "dims_4", "dims_repeated"])
def test_config_field_types_rejected(raw, tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    assert main(["sweep", "--config", str(path)]) == 2
    assert "config error" in capsys.readouterr().err


def test_repeated_dims_rejected(capsys):
    # a repeated dimension would draw and run its cases twice
    for dims in ([2, 2], [1, 2, 1]):
        with pytest.raises(ConfigError, match="repeats"):
            SweepConfig(dims=dims).validate()
    assert main(["sweep", "--d", "2,2", "--families", "ORT_PARA_L"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "config error" in captured.err


def test_dims_3_sweep_passes_every_family(tmp_path):
    # d = 3 reaches the paraboloid Gram, Fourier, contiguous and form
    # families; ORT_BALL stays at d = 2 and Parseval at d = 1
    cfg = SweepConfig(dims=[3], max_degree_1d=2, max_degree_multi=2, fourier_max_degree=1,
                      parseval_max_degree=1, ort_param_draws=1, fourier_xi_draws=1,
                      contig_draws=28, form_draws=12, seed=3, out_path=str(tmp_path / "r.json"))
    summary = run_sweep(cfg)
    assert summary.total > 0 and summary.failed == 0
    cases = json.loads((tmp_path / "r.json").read_text())["cases"]
    assert {c["identity_id"] for c in cases} == set(ALL_FAMILIES)
    d3 = {c["identity_id"] for c in cases if c["d"] == 3}
    assert d3 == set(ALL_FAMILIES) - {"ORT_GEGEN", "ORT_JACOBI", "ORT_LAGUERRE", "ORT_BALL",
                                       "PARSEVAL_A", "PARSEVAL_B"}


def test_raised_case_reports_error_not_skip(tmp_path):
    # no two refinement levels agree at 1e-30: the cases raise, and the
    # exception goes to `error` of a failed record, never to `skipped_reason`
    out = tmp_path / "rep.json"
    cfg = SweepConfig(families=["ORT_GEGEN"], max_degree_1d=2, ort_param_draws=1,
                      tolerances={"ORT_GEGEN": 1e-30}, out_path=str(out), no_timestamp=True)
    summary = run_sweep(cfg)
    records = json.loads(out.read_text())["cases"]
    assert summary.failed == summary.total == len(records) and summary.skipped == 0
    errored = [rec for rec in records if "error" in rec]
    assert errored and all(rec["error"].startswith("QuadratureNonConvergence: ")
                           for rec in errored)
    assert not any("skipped_reason" in rec for rec in records)
    csv_out = tmp_path / "rep.csv"
    run_sweep(dataclasses.replace(cfg, out_path=str(csv_out), out_format="csv"))
    lines = csv_out.read_text().splitlines()
    assert "error" in lines[0].split(",")
    assert sum("QuadratureNonConvergence" in line for line in lines) == len(errored)


def test_sweep_writes_report_and_summary(tmp_path):
    out = tmp_path / "rep.json"
    cfg = SweepConfig(families=["ORT_GEGEN"], max_degree_1d=3, ort_param_draws=1,
                      out_path=str(out), no_timestamp=True)
    summary = run_sweep(cfg)
    doc = json.loads(out.read_text())
    assert doc["summary"]["total"] == summary.total == len(doc["cases"])
    assert summary.total == summary.passed + summary.failed + summary.skipped
    rec = doc["cases"][0]
    for field in ("identity_id", "d", "m", "m2", "k", "k2", "params", "lhs", "rhs",
                  "abs_residual", "rel_residual", "passed", "nodes", "seconds"):
        assert field in rec
    assert set(rec["lhs"]) == {"re", "im"}
    assert "timestamp" not in doc


def test_run_sweep_releases_each_draw_past_its_last_case(monkeypatch):
    # when a case starts, every draw the sweep has moved past holds no
    # columns, stacks, rows or norms, while the case's own draw keeps what its
    # earlier cases filled; after the sweep no draw of its case list holds
    # any, the errored cases' draws included
    generated, seen = [], []
    generate, run_case = cli.generate_cases, cli.run_case

    def held(draw):
        return bool(draw.columns or draw.stacks or draw.rows or draw.norms)

    def checked_run_case(case):
        assert not any(held(draw) for draw in seen[:-1])
        if case.draw is not None and (not seen or case.draw is not seen[-1]):
            assert not held(case.draw)
            seen.append(case.draw)
        return run_case(case)

    monkeypatch.setattr(cli, "generate_cases", lambda cfg: generated.append(generate(cfg))
                        or generated[-1])
    monkeypatch.setattr(cli, "run_case", checked_run_case)
    summary = run_sweep(SweepConfig(
        families=["ORT", "FOURIER", "PARSEVAL", "CONTIG_A_i"], dims=[1, 2], max_degree_1d=3,
        max_degree_multi=1, fourier_max_degree=1, parseval_max_degree=1, ort_param_draws=2,
        fourier_xi_draws=1, contig_draws=2, tolerances={"ORT_LAGUERRE": 1e-30}))
    (cases,) = generated
    draws = list(dict.fromkeys(case.draw for case in cases if case.draw is not None))
    assert summary.failed > 0 and draws == seen and len(draws) == 20
    assert not any(held(draw) for draw in draws)


def test_report_config_block_is_the_sweep_config_and_reruns_byte_for_byte(tmp_path):
    # the config block holds every SweepConfig field but the three output
    # ones, in field order, the tolerances by family; loaded back as a config
    # file it reproduces the report byte for byte
    first, second, config = (tmp_path / name for name in ("a.json", "b.json", "cfg.json"))
    run_sweep(SweepConfig(families=["PARSEVAL_B", "ORT_GEGEN", "CONTIG_B_i"], dims=[1, 3],
                          seed=5, max_degree_1d=2, ort_param_draws=1, parseval_max_degree=1,
                          contig_draws=3, tolerances={"ORT_GEGEN": 1e-9, "CONTIG_B_i": 1e-11},
                          out_path=str(first), no_timestamp=True))
    block = json.loads(first.read_text())["config"]
    assert list(block) == [f.name for f in dataclasses.fields(SweepConfig)
                           if f.name not in ("out_format", "out_path", "no_timestamp")]
    assert block["dims"] == [1, 3] and list(block["tolerances"]) == ["CONTIG_B_i", "ORT_GEGEN"]
    config.write_text(json.dumps(block))
    cfg = load_config(str(config))
    cfg.out_path, cfg.no_timestamp = str(second), True
    run_sweep(cfg)
    assert second.read_bytes() == first.read_bytes()


def test_cli_eval_base_point(capsys):
    # the closed transform at the base point is 2^zeta Gamma(zeta) 2^{2a-1} B(a,a)
    rc = main(["eval", "--fn", "fourierL", "--d", "1", "--m", "0", "--k", "0",
               "--params", "alpha=0.8,zeta=1.1,beta=0.3,mu=0.7", "--xi", "0,0"])
    assert rc == 0
    out = capsys.readouterr().out
    got = float(out.split("(")[1].split(")")[0])
    want = 2**1.1 * gamma(1.1).real * 2 ** (2 * 0.8 - 1) * betafn(0.8, 0.8).real
    assert got == pytest.approx(want, rel=1e-12)


def test_cli_eval_A_collapse(capsys):
    rc = main(["eval", "--fn", "A", "--d", "1", "--m", "1", "--k", "1",
               "--params", "alpha1=0.7,alpha2=0.9,zeta1=0.8,zeta2=1.2,eta1=0.6,eta2=1.1",
               "--t", "0.3+0.2j", "--x=-0.4+0.1j"])
    assert rc == 0


def test_cli_eval_more_functions(capsys):
    # trivial values through the CLI surface
    assert main(["eval", "--fn", "g", "--d", "1", "--k", "0",
                 "--params", "alpha=0.5,mu=0.7", "--x", "0"]) == 0
    out = capsys.readouterr().out
    assert float(out.split("(")[1].split(")")[0]) == pytest.approx(1.0)
    # mu = 0 on the last axis (k_2 = 0): g_2 = (1 - tanh^2 x_1)^(alpha + 1/4)
    # C_1^(1/2)(tanh x_1) (1 - tanh^2 x_2)^alpha C_0^(0)(tanh x_2), with
    # C_1^(1/2)(y) = y and C_0^(0) = 1; the CLI passes the points as real
    assert main(["eval", "--fn", "g", "--d", "2", "--k", "1,0",
                 "--params", "alpha=0.8,mu=0", "--x", "0.3,0.1"]) == 0
    out = capsys.readouterr().out
    want = (math.cosh(0.3) ** -2) ** 1.05 * math.tanh(0.3) * (math.cosh(0.1) ** -2) ** 0.8
    assert float(out.split("(")[1].split(")")[0]) == pytest.approx(want, rel=1e-14)
    assert main(["eval", "--fn", "ball", "--d", "2", "--k", "1,0",
                 "--params", "mu=0.5", "--x", "0.25,0.1"]) == 0
    out = capsys.readouterr().out
    assert float(out.split("(")[1].split(")")[0]) == pytest.approx(0.5)
    assert main(["eval", "--fn", "R", "--d", "1", "--m", "1", "--k", "0",
                 "--params", "beta=0,mu=0.5", "--t", "0.37", "--x", "0.1"]) == 0
    out = capsys.readouterr().out
    assert float(out.split("(")[1].split(")")[0]) == pytest.approx(1.5 - 0.37)
    assert main(["eval", "--fn", "Q", "--d", "1", "--m", "1", "--k", "0",
                 "--params", "beta=0,gamma=0,mu=0.5", "--t", "0.29", "--x", "0.1"]) == 0
    out = capsys.readouterr().out
    assert float(out.split("(")[1].split(")")[0]) == pytest.approx(1.5 - 2.5 * 0.29)
    assert main(["eval", "--fn", "theta", "--d", "1", "--m", "2", "--k", "0",
                 "--params", "zeta=1.1,eta=0.9,beta=0.3,gamma=0.4,mu=0.7",
                 "--xi", "0.6"]) == 0
    out = capsys.readouterr().out
    assert float(out.split("(")[1].split(")")[0]) == pytest.approx(0.0452, rel=1e-10)
    # missing parameter reports a parse error
    assert main(["eval", "--fn", "theta", "--d", "1", "--m", "2", "--k", "0",
                 "--params", "zeta=1.1", "--xi", "0.6"]) == 2
    capsys.readouterr()


def test_cli_eval_g_at_a_real_point_to_degree_30(capsys):
    # g takes a real x, so the Gegenbauer factor runs on real points: at a
    # complex-typed x, scipy's series gave 0.665 here (1.3e15 at degree 60)
    assert main(["eval", "--fn", "g", "--d", "1", "--k", "30", "--params", "alpha=0.8,mu=0.7",
                 "--x", "0.1"]) == 0
    got = float(capsys.readouterr().out.split("(")[1].split(")")[0])
    with mp.workdps(40):
        want = mp.sech(0.1) ** 1.6 * mp.gegenbauer(30, 0.7, mp.tanh(0.1))
    assert abs(got - float(want)) <= 1e-12


@pytest.mark.parametrize("axis, rc", [("0", 4), ("3", 4), ("1.5", 2)])
def test_cli_eval_phi_axis_checked(axis, rc, capsys):
    # d = 1 has only axis 1: other integers are a domain error, a fraction
    # does not parse
    assert main(["eval", "--fn", "phi", "--d", "1", "--k", "1",
                 "--params", f"alpha=1,mu=1,axis={axis}", "--xi", "0.5"]) == rc
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("params, x", [("alpha1=1,alpha2=1", "nan"),
                                       ("alpha1=1,alpha2=inf", "0.3")],
                         ids=["x_nan", "param_inf"])
def test_cli_eval_non_finite_rejected(params, x, capsys):
    # a non-finite input is a parse error (exit 2), never a traceback
    assert main(["eval", "--fn", "D", "--d", "1", "--k", "1",
                 "--params", params, "--x", x]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "non-finite" in captured.err


@pytest.mark.parametrize("argv", [
    ["--fn", "D", "--d", "1", "--k", "1", "--params", "alpha1=1e308,alpha2=1e308", "--x", "0.2"],
    ["--fn", "A", "--d", "1", "--k", "1", "--m", str(MAX_EVAL_SIZE),
     "--params", "alpha1=0.7,alpha2=0.9,zeta1=0.8,zeta2=1.2,eta1=0.6,eta2=1.1",
     "--t", "-3000", "--x", "0.2"],
], ids=["D_huge_alpha", "A_huge_degree"])
def test_cli_eval_non_finite_result_is_evaluation_error(argv, capsys):
    # finite input whose true value overflows (A at the eval size bound:
    # its Gamma factor alone is about 4.3e4115 at t = -3000): exit 4, no
    # numpy warning text
    assert main(["eval", *argv]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("evaluation error:") and "not finite" in captured.err
    assert "Warning" not in captured.err


@pytest.mark.parametrize("argv, message", [
    (["--fn", "theta", "--d", "-1", "--m", "0",
      "--params", "zeta=1.1,eta=0.9,beta=0.3,gamma=0.4,mu=0.7", "--xi", "0.6"], "at least 1"),
    (["--fn", "g", "--d", "0", "--params", "alpha=0.8,mu=0.7", "--x", "0.1"], "at least 1"),
    (["--fn", "phi", "--d", "2", "--k", "1,1", "--params", "alpha=1,mu=1,axs=2",
      "--xi", "0.5"], "axs"),
    (["--fn", "D", "--d", "1", "--k", "1", "--params", "alpha1=1,alpha2=1,axis=1",
      "--x", "0.3"], "axis"),
    (["--fn", "g", "--d", "1", "--k", "1", "--params", "alpha=0.8,mu=0.7,alpha=5",
      "--x", "0.1"], "'alpha' given twice"),
    (["--fn", "g", "--d", "1", "--k", "99999999", "--params", "alpha=0.8,mu=0.7",
      "--x", "0.1"], "--k entry 99999999 is above the eval size bound 10000"),
    (["--fn", "theta", "--d", "1", "--m", "10001", "--k", "0",
      "--params", "zeta=1.1,eta=0.9,beta=0.3,gamma=0.4,mu=0.7", "--xi", "0.6"],
     "--m 10001 is above the eval size bound 10000"),
    (["--fn", "g", "--d", "10001", "--params", "alpha=0.8,mu=0.7", "--x", "0.1"],
     "--d 10001 is above the eval size bound 10000"),
    (["--fn", "ball", "--d", "10000000", "--params", "mu=0.5", "--x", "0.1"],
     "--d 10000000 is above the eval size bound 10000"),
], ids=["d_negative", "d_zero", "unknown_name", "axis_not_a_parameter_of_D", "repeated_name",
        "k_above_degree_bound", "m_above_degree_bound", "d_above_size_bound", "d_huge"])
def test_cli_eval_bad_d_or_parameter_name(argv, message, capsys):
    # no silent dimension-zero evaluation, no silently ignored or overridden
    # parameter, no degree that would run for minutes, no --d whose zero
    # multi-index would be allocated before the points are parsed
    assert main(["eval", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "parse error" in captured.err and message in captured.err


def test_diff_reports_script_flags_a_changed_verdict(tmp_path):
    # two runs of one config are byte-identical (exit 0); one tampered
    # `passed` is a verdict change (exit 1)
    script = Path(__file__).resolve().parents[1] / "scripts" / "diff_reports.py"
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path in paths:
        run_sweep(SweepConfig(families=["ORT_LAGUERRE", "CONTIG_B_i"], max_degree_1d=2,
                              ort_param_draws=1, contig_draws=2, out_path=str(path),
                              no_timestamp=True))

    def diff():
        return subprocess.run([sys.executable, str(script), *map(str, paths)],
                              capture_output=True, text=True)

    res = diff()
    assert res.returncode == 0 and "byte-identical: yes" in res.stdout
    report = json.loads(paths[1].read_text())
    report["cases"][0]["passed"] = not report["cases"][0]["passed"]
    paths[1].write_text(json.dumps(report, indent=2))
    res = diff()
    assert res.returncode == 1 and "same document: no" in res.stdout
    assert "case list: same" in res.stdout and "verdict changes: 1" in res.stdout


def test_diff_reports_script_counts_changes_per_verdict_field(tmp_path):
    # two rule-size changes and one flipped verdict: the total counts all
    # three, and each field's count says which kind they were
    script = Path(__file__).resolve().parents[1] / "scripts" / "diff_reports.py"
    case = {"identity_id": "ORT_JACOBI", "d": 1, "m": 0, "m2": 0, "k": None, "k2": None,
            "params": {"alpha": 0.5, "beta": 0.5}, "rel_residual": 1e-15, "passed": True,
            "error": None, "skipped_reason": None, "nodes": 48}
    a = {"cases": [dict(case, m=m) for m in range(3)]}
    b = json.loads(json.dumps(a))
    b["cases"][0]["nodes"] = b["cases"][1]["nodes"] = 96
    b["cases"][2]["passed"] = False
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path, doc in zip(paths, (a, b)):
        path.write_text(json.dumps(doc))
    res = subprocess.run([sys.executable, str(script), *map(str, paths)],
                         capture_output=True, text=True)
    assert res.returncode == 1
    lines = res.stdout.splitlines()
    i = lines.index("verdict changes: 3")
    assert lines[i + 1:i + 5] == ["  passed: 1", "  error: 0", "  skipped_reason: 0",
                                  "  nodes: 2"]
    assert "  case 0 ORT_JACOBI: nodes 48 -> 96" in lines


def test_diff_reports_script_lists_the_first_20_changed_cases(tmp_path):
    # 30 changed cases (one with two changed fields): 20 are listed and 10
    # counted; the per-field counts, residual table and exit status are whole
    script = Path(__file__).resolve().parents[1] / "scripts" / "diff_reports.py"
    case = {"identity_id": "ORT_JACOBI", "d": 1, "m": 0, "m2": 0, "k": None, "k2": None,
            "params": {"alpha": 0.5, "beta": 0.5}, "rel_residual": 1e-15, "passed": True,
            "error": None, "skipped_reason": None, "nodes": 48}
    a = {"cases": [dict(case, m=m) for m in range(35)]}
    b = json.loads(json.dumps(a))
    for c in b["cases"][5:]:
        c["nodes"] = 96
    b["cases"][34]["passed"] = False
    b["cases"][34]["rel_residual"] = 1e-3
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path, doc in zip(paths, (a, b)):
        path.write_text(json.dumps(doc))
    res = subprocess.run([sys.executable, str(script), *map(str, paths)],
                         capture_output=True, text=True)
    assert res.returncode == 1
    lines = res.stdout.splitlines()
    listed = [line for line in lines if line.startswith("  case ")]
    assert listed == [f"  case {i} ORT_JACOBI: nodes 48 -> 96" for i in range(5, 25)]
    i = lines.index("verdict changes: 31")
    assert lines[i - 1] == "  … and 10 more changed cases"
    assert lines[i + 1:i + 5] == ["  passed: 1", "  error: 0", "  skipped_reason: 0",
                                  "  nodes: 30"]
    assert lines[-2:] == ["largest |change of rel_residual| per family:",
                          "  ORT_JACOBI       0.001"]


def test_diff_reports_script_sees_a_reindented_report_as_the_same_document(tmp_path):
    # the same document written with another layout, NaN residuals of
    # errored cases included: bytes differ, document, cases and verdicts do not
    script = Path(__file__).resolve().parents[1] / "scripts" / "diff_reports.py"
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run_sweep(SweepConfig(families=["ORT_GEGEN", "CONTIG_B_i"], max_degree_1d=2,
                          ort_param_draws=1, contig_draws=2, tolerances={"ORT_GEGEN": 1e-30},
                          out_path=str(a), no_timestamp=True))
    assert "NaN" in a.read_text()
    b.write_text(json.dumps(json.loads(a.read_text()), indent=1) + "\n")
    res = subprocess.run([sys.executable, str(script), str(a), str(b)],
                         capture_output=True, text=True)
    assert res.returncode == 0
    assert "byte-identical: no" in res.stdout and "same document: yes" in res.stdout
    assert "verdict changes: 0" in res.stdout


def test_compare_revisions_script_flags_a_wrong_constant(tmp_path):
    # the checkout against itself keeps every verdict (exit 0) and every
    # line count, and --times prints one row per family group, its summed,
    # median and p99 case times; a base copy
    # whose Parseval constant is doubled, in one line more of verifier.py,
    # fails its three diagonal cases (exit 1), and the line counts name that
    # one module
    root = Path(__file__).resolve().parents[1]
    config = tmp_path / "tiny.json"
    config.write_text(json.dumps({"families": ["PARSEVAL_A"], "dims": [1],
                                  "parseval_max_degree": 1}))

    def compare(base, *flags):
        return subprocess.run([sys.executable, str(root / "scripts" / "compare_revisions.py"),
                               "--base", str(base), "--seeds", "1", "--config", str(config),
                               *flags], capture_output=True, text=True)

    bench = tmp_path / "bench.json"
    res = compare(root, "--times", "1", "--json", str(bench))
    assert res.returncode == 0 and "byte-identical: yes" in res.stdout
    assert "difference +0\n" in res.stdout
    table = res.stdout.split(" in-process case time, seed 1, median of 1 alternating runs:\n")[1]
    ms, us = (rf"base \d+\.\d\d {unit}, this checkout \d+\.\d\d {unit} \([+-]\d+\.\d%\)"
              for unit in ("ms", "µs"))
    assert re.fullmatch(rf"  PARSEVAL \(9 cases\): summed {ms}; median case {us}; p99 case {us}\n",
                        table)
    # --json writes the same: line counts, one comparison, the times table
    doc = json.loads(bench.read_text())
    assert set(doc) == {"base", "seeds", "line_counts", "comparisons", "times"}
    assert doc["seeds"] == [1] and doc["line_counts"]["difference"] == 0
    assert doc["line_counts"]["base"] == doc["line_counts"]["this_checkout"]
    [comparison] = doc["comparisons"]
    assert set(comparison) == {"config", "seed", "same", "lines"}
    assert comparison["seed"] == 1 and comparison["same"] is True
    assert comparison["lines"][0] == "byte-identical: yes"
    [(name, timed)] = doc["times"].items()
    assert name == str(config) and timed["seed"] == 1 and timed["rounds"] == 1
    [row] = timed["groups"]
    assert set(row) == {"group", "cases", "summed", "median_case", "p99_case"}
    assert row["group"] == "PARSEVAL" and row["cases"] == 9
    for key, unit in (("summed", "ms"), ("median_case", "µs"), ("p99_case", "µs")):
        assert set(row[key]) == {"unit", "base", "this_checkout", "change_pct"}
        assert row[key]["unit"] == unit and row[key]["base"] > 0
    copy = tmp_path / "base"
    shutil.copytree(root / "src", copy / "src", ignore=shutil.ignore_patterns("__pycache__"))
    verifier_py = copy / "src" / "orthopara" / "verifier.py"
    source = verifier_py.read_text()
    assert source.count("    return float(val)\n") == 1
    verifier_py.write_text(source.replace("    return float(val)\n",
                                          "    val *= 2\n    return float(val)\n"))
    res = compare(copy)
    assert res.returncode == 1 and "DIFFERS" in res.stdout and "verdict changes: 3" in res.stdout
    # its children imported a clean copy of it without writing bytecode, so
    # none appears in the checkout
    assert not list(copy.rglob("__pycache__"))
    lines = sum(bool(line.strip()) for line in source.splitlines())
    assert "difference -1\n" in res.stdout and res.stdout.count("→") == 1
    assert f"\n  verifier.py {lines + 1} → {lines} (-1)\n" in res.stdout


def _script_module(name):
    path = Path(__file__).resolve().parents[1] / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_compare_revisions_times_table_of_synthetic_rounds():
    # three rounds per tree of two groups; each column is the median over the
    # rounds, each percentage the median of the rounds' ratios (here not the
    # ratio of the medians), and the p99 is perfbench's inclusive percentile
    cr = _script_module("compare_revisions")
    us = 1e-6
    ort = ([10, 20, 30, 40], [20, 40, 60, 80], [40, 80, 120, 160])
    ort_this = ([10, 20, 30, 40], [10, 20, 30, 40], [30, 60, 90, 120])
    contig, contig_this = ([100], [200], [300]), ([100], [100], [150])
    samples = [[{"ORT": [t * us for t in o], "CONTIG": [t * us for t in c]}
                for o, c in zip(ort_b, contig_b)]
               for ort_b, contig_b in ((ort, contig), (ort_this, contig_this))]
    assert cr.times_table(samples) == [
        "ORT (4 cases): summed base 0.20 ms, this checkout 0.10 ms (-25.0%); "
        "median case base 50.00 µs, this checkout 25.00 µs (-25.0%); "
        "p99 case base 79.40 µs, this checkout 39.70 µs (-25.0%)",
        "CONTIG (1 cases): summed base 0.20 ms, this checkout 0.10 ms (-50.0%); "
        "median case base 200.00 µs, this checkout 100.00 µs (-50.0%); "
        "p99 case base 200.00 µs, this checkout 100.00 µs (-50.0%)",
    ]
    assert cr.p99([float(i) for i in range(101)]) == 99.0


def test_compare_revisions_children_import_clean_copies(tmp_path, monkeypatch):
    # every child process of both trees, sweeps and --times timers, imports
    # the package from a copy of that tree's src/ outside its checkout that
    # holds no __pycache__, with PYTHONDONTWRITEBYTECODE=1 and no
    # PYTHONPYCACHEPREFIX (not even the caller's), so both trees compile their
    # package alike and numpy and scipy read their installed bytecode
    cr = _script_module("compare_revisions")
    base = tmp_path / "base"
    shutil.copytree(cr.ROOT / "src", base / "src")
    (base / "src" / "orthopara" / "__pycache__").mkdir(exist_ok=True)
    (base / "src" / "orthopara" / "__pycache__" / "stale.pyc").touch()
    (base / "src" / "base-tree-only").touch()
    config = tmp_path / "tiny.json"
    config.write_text(json.dumps({"families": ["PARSEVAL_A"], "dims": [1],
                                  "parseval_max_degree": 1}))
    monkeypatch.setenv("PYTHONPYCACHEPREFIX", str(tmp_path / "prefix"))
    children = []

    def run(cmd, env, **kwargs):
        src = Path(env["PYTHONPATH"])
        children.append((cmd[3] if cmd[1] == "-m" else "timer", env, src,
                         sorted(p.relative_to(src) for p in src.rglob("*"))))
        if cmd[1] == "-m":
            Path(cmd[cmd.index("--out") + 1]).write_text(
                json.dumps({"summary": {"total": 0, "failed": 0}, "cases": []}))
        return subprocess.CompletedProcess(cmd, 0, json.dumps({"PARSEVAL": [1e-6]}), "")

    monkeypatch.setattr(cr.subprocess, "run", run)
    monkeypatch.setattr(sys, "argv", ["compare_revisions.py", "--base", str(base), "--seeds", "1",
                                      "--config", str(config), "--times", "1"])
    assert cr.main() == 0
    assert [kind for kind, *_ in children] == ["sweep", "sweep", "timer", "timer"]
    for tree, (_, env, src, listing) in zip((base, cr.ROOT) * 2, children):
        assert env["PYTHONDONTWRITEBYTECODE"] == "1" and "PYTHONPYCACHEPREFIX" not in env
        assert src.name == "src" and not src.is_relative_to(tree)
        assert listing == sorted(p.relative_to(tree / "src") for p in (tree / "src").rglob("*")
                                 if "__pycache__" not in p.parts)
    # a tree that cannot import stops the script at its first sweep, with a
    # message that names its copy and gives the import error
    broken = tmp_path / "broken" / "src" / "orthopara"
    broken.mkdir(parents=True)
    (broken / "__init__.py").write_text('raise ImportError("this tree cannot import")\n')
    monkeypatch.undo()
    res = subprocess.run([sys.executable, str(cr.ROOT / "scripts" / "compare_revisions.py"),
                          "--base", str(broken.parents[1]), "--seeds", "1",
                          "--config", str(config)], capture_output=True, text=True)
    assert res.returncode == 2
    assert re.search(r"compare_revisions: sweep on \S+/base/src exited 1: ", res.stderr)
    assert "ImportError: this tree cannot import" in res.stderr
    assert not list(broken.rglob("__pycache__"))


def test_high_degree_configs_hold_the_baseline_case_lists():
    # scripts/configs/ holds the high-degree configs of ROADMAP.md's
    # Baseline; each must load as a valid config and give that table's
    # case count
    counts = {"hdt-8": 4146, "hdt-14": 28968, "hdt-20": 106962, "hdf-30": 360,
              "ball-28": 189660}
    configs = Path(__file__).resolve().parents[1] / "scripts" / "configs"
    assert sorted(p.stem for p in configs.glob("*.json")) == sorted(counts)
    for name, count in counts.items():
        cfg = load_config(configs / f"{name}.json")
        cfg.validate()
        assert len(generate_cases(cfg)) == count, name


def test_cli_eval_malformed_multi_index(capsys):
    rc = main(["eval", "--fn", "g", "--d", "2", "--k", "1,x",
               "--params", "alpha=0.8,mu=0.7", "--x", "0.1,0.2"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "usage" in err


def test_json_report_writes_one_record_per_line(tmp_path, monkeypatch):
    # a passing, a skipped (gamma pole), an errored (no two refinement levels
    # agree at 1e-30) and a Fourier case: each record is one line of the one
    # JSON document, and lhs, rhs and the NaN residuals read back exactly
    contig = {"alpha1": 0.7, "alpha2": 0.9, "zeta1": 0.8, "zeta2": 1.2,
              "t_re": 0.3, "t_im": 0.2, "x1_re": -0.4, "x1_im": 0.1}
    cases = [
        IdentityCase("CONTIG_A_iv", 1, 1e-10, m=2, k=(0,),
                     params=dict(contig, eta1=0.6, eta2=1.1)),
        IdentityCase("CONTIG_B_ii", 1, 1e-10, m=2, k=(1,),
                     params=dict(contig, t_re=contig["zeta1"] + 0.5, t_im=0.0)),
        IdentityCase("ORT_GEGEN", 1, 1e-30, m=1, m2=2, params={"mu": 0.8}),
        IdentityCase("FOURIER_L", 1, 1e-6, m=1, k=(1,),
                     params={"alpha": 0.8, "zeta": 1.1, "beta": 0.3, "mu": 0.7},
                     xi=(0.3, -0.7)),
    ]
    monkeypatch.setattr(cli, "generate_cases", lambda cfg: cases)
    out = tmp_path / "rep.json"
    summary = run_sweep(SweepConfig(out_path=str(out), no_timestamp=True))
    assert (summary.passed, summary.skipped, summary.failed) == (2, 1, 1)
    text = out.read_text()
    doc = json.loads(text)
    assert list(doc) == ["config", "summary", "cases"] and len(doc["cases"]) == len(cases)
    lines = text.splitlines()
    first = lines.index(' "cases": [') + 1
    assert lines[first + len(cases)] == " ]"
    for line, rec in zip(lines[first:first + len(cases)], doc["cases"]):
        assert line.removesuffix(",") == json.dumps(rec)

    def bits(*zs):
        return [v.hex() for z in zs for v in (complex(z).real, complex(z).imag)]

    passed, skipped, errored, fourier = doc["cases"]
    assert "skipped_reason" in skipped and "error" not in skipped
    assert errored["error"].startswith("QuadratureNonConvergence: ")
    assert math.isnan(errored["abs_residual"]) and math.isnan(errored["rel_residual"])
    assert fourier["params"]["xi1"] == 0.3 and fourier["params"]["xi2"] == -0.7
    for case, rec in zip(cases[:2] + cases[3:], (passed, skipped, fourier)):
        rep = cli.run_case(case)
        assert bits(complex(rec["lhs"]["re"], rec["lhs"]["im"]),
                    complex(rec["rhs"]["re"], rec["rhs"]["im"])) == bits(rep.lhs, rep.rhs)
        assert rec["rel_residual"] == rep.rel_residual

    # the JSON and CSV files equal the reference writer's documents, which
    # write json.dumps of each record dict, byte for byte
    reports = [cli.run_case(case) for case in cases[:2] + cases[3:]]
    reports.insert(2, VerificationReport(
        case=cases[2], lhs=0j, rhs=0j, abs_residual=math.nan, rel_residual=math.nan,
        passed=False, nodes=0, seconds=0.0, error=errored["error"]))
    records = [case_record(rep, True) for rep in reports]
    expected = io.StringIO()
    write_json_report({key: doc[key] for key in ("config", "summary")}, records, None, expected)
    assert out.read_bytes() == expected.getvalue().encode()
    run_sweep(SweepConfig(out_path=str(tmp_path / "rep.csv"), out_format="csv",
                          no_timestamp=True))
    expected = io.StringIO()
    write_csv_report(records, expected)
    assert (tmp_path / "rep.csv").read_bytes() == expected.getvalue().encode()


# floats json and repr write in every form: NaN, the infinities, -0.0, the
# smallest subnormal, the largest double and its neighbourhood
_FLOATS = st.one_of(
    st.floats(), st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e308,
                                  -1.7976931348623157e308, 2.2250738585072014e-308]))
# names that collide with the xi1, xi2, ... appended for a Fourier case, too
_NAMES = st.one_of(st.sampled_from(["alpha", "mu", "xi", "xi1", "xi2", "zeta"]),
                   st.text(max_size=4))
# quotes, backslashes, control characters and non-ASCII text
_TEXTS = st.one_of(st.text(max_size=12),
                   st.sampled_from(['bad "x", y\n\\z\t\x00', "é€😀\u2028"]))
_PARAMS = st.dictionaries(
    _NAMES, st.one_of(_FLOATS, st.integers(), st.booleans(), st.none()), max_size=5)
_INDEX = st.one_of(st.none(), st.tuples(), st.lists(st.integers(0, 40), max_size=3).map(tuple))


def _report(case, floats, passed=False, nodes=0, skipped_reason=None, error=None):
    lhs_re, lhs_im, rhs_re, rhs_im, abs_res, rel_res, seconds = floats
    return VerificationReport(
        case=case, lhs=complex(lhs_re, lhs_im), rhs=complex(rhs_re, rhs_im),
        abs_residual=abs_res, rel_residual=rel_res, passed=passed, nodes=nodes,
        seconds=seconds, skipped_reason=skipped_reason, error=error)


@st.composite
def _reports(draw):
    """Runs of reports: each run shares one params dict, as a draw does."""
    reports = []
    for _ in range(draw(st.integers(1, 2))):
        params = draw(_PARAMS)
        for _ in range(draw(st.integers(1, 3))):
            case = IdentityCase(
                draw(st.sampled_from(ALL_FAMILIES)), draw(st.integers(1, 3)), 1e-10,
                m=draw(st.one_of(st.none(), st.integers(0, 40))),
                m2=draw(st.one_of(st.none(), st.integers(0, 40))),
                k=draw(_INDEX), k2=draw(_INDEX), params=params,
                xi=draw(st.one_of(st.none(), st.lists(_FLOATS, min_size=1, max_size=4).map(tuple))))
            reports.append(_report(
                case, draw(st.lists(_FLOATS, min_size=7, max_size=7)), draw(st.booleans()),
                draw(st.integers(0, 10**6)), draw(st.one_of(st.none(), _TEXTS)),
                draw(st.one_of(st.none(), _TEXTS))))
    return reports


# every special float in every float field, params of every value type, a
# Fourier case whose xi1 takes the place of a param, a skipped and an
# errored report
_SPECIALS = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e308, 0.1]
_SHARED = {"zeta": 1.5, "xi1": 7, "alpha": math.nan, "flag": True, "none": None, "é": -0.0}
_EDGES = [
    _report(IdentityCase("FOURIER_J", 2, 1e-10, m=1, k=(1, 0), params=_SHARED,
                         xi=(0.3, -2.0, 1e308)),
            _SPECIALS[i:] + _SPECIALS[:i], passed=True, nodes=i)
    for i in range(7)
] + [
    _report(IdentityCase("ORT_BALL", 2, 1e-10, k=(), k2=(2, 1), params=_SHARED), [0.0] * 7,
            passed=True, skipped_reason='pole at "b" \\ \x01'),
    _report(IdentityCase("CONTIG_A_i", 1, 1e-10, m=0, k=(0,)), [math.nan] * 7,
            error='ValueError: bad "x", y\né\U0001f600'),
]


@given(_reports(), st.booleans())
@example(_EDGES, True)
@example(_EDGES, False)
@settings(max_examples=25, deadline=None)
def test_report_lines_match_json_dumps_of_the_record_dict(reports, no_timestamp):
    records = [case_record(rep, no_timestamp) for rep in reports]
    assert list(cli._json_records(reports, no_timestamp)) == list(map(json.dumps, records))
    assert list(map(list, cli._csv_rows(reports, no_timestamp))) == list(map(csv_row, records))


def test_csv_report_quotes_commas_quotes_and_newlines(tmp_path, monkeypatch):
    # an error message with a quote, a comma and a newline, a bare carriage
    # return, or a CRLF reads back through csv.reader as one field of a
    # 16-column row
    monkeypatch.setattr(cli, "generate_cases",
                        lambda cfg: [IdentityCase("ORT_GEGEN", 1, 1e-10, m=1, m2=2,
                                                  params={"mu": 0.8})])
    out = tmp_path / "rep.csv"
    for message in ('bad "x", y\nz', "a\rb", "a\r\nb"):
        def raises(case):
            raise ValueError(message)

        monkeypatch.setattr(cli, "run_case", raises)
        run_sweep(SweepConfig(out_path=str(out), out_format="csv", no_timestamp=True))
        with open(out, newline="") as fh:
            header, row = csv.reader(fh)
        assert len(header) == len(row) == 16
        assert row[header.index("error")] == f"ValueError: {message}"
        assert row[header.index("params")] == "mu=0.8"


_REPORT_TYPES = {"lhs": complex, "rhs": complex, "abs_residual": float, "rel_residual": float,
                 "passed": bool, "nodes": int, "seconds": float}


def test_every_report_field_has_its_exact_python_type(tmp_path, monkeypatch):
    # cli._json_value dispatches on a value's exact type (a numpy bool would
    # fall through to json.dumps, which raises), and perfbench's case log
    # takes a tuple outcome for a raise: the report of the first default
    # case of each family, of a CONTIG case at a Gamma pole (a skip) and
    # run_sweep's record of a raised case are plain records of Python values
    first = {}
    for case in generate_cases(SweepConfig(seed=1)):
        first.setdefault(case.identity_id, case)
    assert list(first) == ALL_FAMILIES and len(first) == 27
    pole = IdentityCase("CONTIG_B_ii", 1, 1e-10, m=2, k=(1,), params={
        "alpha1": 0.7, "alpha2": 0.9, "zeta1": 0.8, "zeta2": 1.2,
        "t_re": 1.3, "t_im": 0.0, "x1_re": -0.4, "x1_im": 0.1})
    raised = IdentityCase("ORT_GEGEN", 1, 1e-30, m=1, m2=2, params={"mu": 0.8})
    cases = [*first.values(), pole, raised]
    reports = []
    records = cli._json_records

    def kept_records(reps, no_timestamp):
        reports.extend(reps)
        return records(reps, no_timestamp)

    monkeypatch.setattr(cli, "_json_records", kept_records)
    monkeypatch.setattr(cli, "generate_cases", lambda cfg: cases)
    run_sweep(SweepConfig(out_path=str(tmp_path / "rep.json"), no_timestamp=True))
    assert [rep.case for rep in reports] == cases
    assert reports[-2].skipped_reason.startswith("pole: ")
    assert reports[-1].error.startswith("QuadratureNonConvergence: ")
    for rep in reports:
        assert type(rep) is VerificationReport and not isinstance(rep, tuple)
        assert not hasattr(rep.case, "__dict__")  # a slotted record, as the report is
        assert {name: type(getattr(rep, name)) for name in _REPORT_TYPES} == _REPORT_TYPES
        assert {type(rep.skipped_reason), type(rep.error)} <= {str, type(None)}


def test_summary_leaves_non_finite_residuals_out_of_the_worst(monkeypatch):
    # NaN and infinite residuals (a raised case, an overflow) count as failed
    # and never become a family's worst residual; skipped cases count as
    # skipped and stay out of it too
    cases = [IdentityCase("ORT_GEGEN", 1, 1e-10, m=m, params={"mu": 0.8}) for m in range(7)]
    outcomes = [(1e-12, True, None), (math.nan, False, None), (math.inf, False, None),
                (3e-11, True, None), (0.5, True, "gamma pole"), (None, False, None),
                (-math.inf, True, None)]

    def run_case(case):
        rel, passed, skipped = outcomes[case.m]
        if rel is None:
            raise ValueError("no verdict")
        return VerificationReport(case=case, lhs=1j, rhs=1j, abs_residual=rel,
                                  rel_residual=rel, passed=passed, nodes=1, seconds=0.0,
                                  skipped_reason=skipped)

    monkeypatch.setattr(cli, "generate_cases", lambda cfg: cases)
    monkeypatch.setattr(cli, "run_case", run_case)
    summary = run_sweep(SweepConfig(no_timestamp=True))
    assert (summary.total, summary.passed, summary.failed, summary.skipped) == (7, 3, 3, 1)
    assert summary.worst_residual == {"ORT_GEGEN": 3e-11}


def test_cli_list_identities(capsys):
    assert main(["list-identities"]) == 0
    out = capsys.readouterr().out
    assert "PARSEVAL_A" in out and "CONTIG_B_vii" in out


def test_cli_sweep_exit_codes(tmp_path, capsys):
    # main copies each flag onto the SweepConfig field its dest names, so a
    # renamed field cannot quietly detach its flag
    sweep = cli.build_parser()._subparsers._group_actions[0].choices["sweep"]
    dests = {a.dest for a in sweep._actions if a.option_strings} - {"help", "config", "tol"}
    assert len(dests) == 7 and dests <= {f.name for f in dataclasses.fields(SweepConfig)}
    rc = main(["sweep", "--families", "ORT_LAGUERRE", "--out", str(tmp_path / "a.json")])
    assert rc == 0
    # an impossible tolerance forces failures and a nonzero exit
    rc = main(["sweep", "--families", "ORT_LAGUERRE", "--tol", "1e-30",
               "--out", str(tmp_path / "b.json")])
    assert rc == 1
    rc = main(["sweep", "--families", "nope"])
    assert rc == 2
    for tol in ("0", "inf", "nan"):  # every finite residual would pass at inf
        assert main(["sweep", "--families", "ORT_LAGUERRE", "--tol", tol]) == 2
    capsys.readouterr()
    for flag in ("--families", "--d", "--out"):  # an empty value is not the default
        assert main(["sweep", flag, ""]) == 2
        assert "config error" in capsys.readouterr().err


def test_csv_projection(tmp_path):
    out = tmp_path / "rep.csv"
    cfg = SweepConfig(families=["ORT_LAGUERRE"], max_degree_1d=2, ort_param_draws=1,
                      out_path=str(out), out_format="csv", no_timestamp=True)
    summary = run_sweep(cfg)
    lines = out.read_text().strip().splitlines()
    assert len(lines) == summary.total + 1
    header = lines[0].split(",")
    assert header[0] == "identity_id" and "rel_residual" in header
    # complex values are flattened to re+imi strings
    assert "+0.0i" in lines[1]


def test_sweep_status_does_not_depend_on_its_stdout_reader(tmp_path):
    # the read end of the sweep's stdout is closed before it starts, so its
    # summary print fails; the report is written all the same, so the status
    # follows the verdicts (1: no case meets a 1e-30 tolerance), not the pipe
    # (3), and neither the print nor the flush at exit writes to stderr
    out = tmp_path / "report.json"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        res = subprocess.run(
            [sys.executable, "-m", "orthopara", "sweep", "--families", "ORT_GEGEN",
             "--tol", "1e-30", "--out", str(out)],
            stdout=write_end, stderr=subprocess.PIPE, text=True,
        )
    finally:
        os.close(write_end)
    assert (res.returncode, res.stderr) == (1, "")
    assert json.loads(out.read_text())["summary"]["failed"] > 0


@pytest.mark.parametrize("argv", [
    ["list-identities"],
    ["eval", "--fn", "ball", "--d", "2", "--k", "1,1", "--params", "mu=0.5", "--x", "0.25,0.1"],
])
def test_printing_commands_exit_0_without_a_stdout_reader(argv):
    # as for a sweep: the read end of stdout is closed before the start, so
    # the print fails, yet the command exits 0 with nothing on stderr
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        res = subprocess.run([sys.executable, "-m", "orthopara", *argv], stdout=write_end,
                             stderr=subprocess.PIPE, text=True)
    finally:
        os.close(write_end)
    assert (res.returncode, res.stderr) == (0, "")


J6 = dict(alpha=0.8, zeta=1.1, eta=0.9, beta=0.3, gamma=0.4, mu=0.7)
L4 = dict(alpha=0.8, zeta=1.1, beta=0.3, mu=0.7)
SPLIT = dict(alpha1=0.7, alpha2=0.9, zeta1=0.8, zeta2=1.2, eta1=0.6, eta2=1.1)


def _kv(params):
    return ",".join(f"{key}={val!r}" for key, val in params.items())


# fn -> (CLI arguments after --fn, the same evaluation as a direct library call)
EVAL_CASES = {
    "g": (["--d", "2", "--k", "1,0", "--params", "alpha=0.8,mu=0.7", "--x", "0.3,-0.2"],
          lambda: eval_g((1, 0), 0.8, 0.7, [0.3, -0.2])),
    "ball": (["--d", "2", "--k", "1,1", "--params", "mu=0.5", "--x", "0.25,0.1"],
             lambda: ball_eval((1, 1), 0.5, [0.25, 0.1])),
    "Q": (["--d", "1", "--m", "2", "--k", "1", "--params", "beta=0.3,gamma=0.4,mu=0.7",
           "--t", "0.4", "--x", "0.2"],
          lambda: jacobi_paraboloid(2, (1,), 0.3, 0.4, 0.7, 0.4, [0.2])),
    "R": (["--d", "2", "--m", "2", "--k", "0,1", "--params", "beta=0.3,mu=0.7",
           "--t", "1.3", "--x=0.5,-0.3"],
          lambda: laguerre_paraboloid(2, (0, 1), 0.3, 0.7, 1.3, [0.5, -0.3])),
    "hJ": (["--d", "1", "--m", "2", "--k", "1", "--params", _kv(J6), "--t", "0.3",
            "--x=-0.4"],
           lambda: eval_h_jacobi(2, (1,), WrapParamsJacobi(**J6), 0.3, [-0.4])),
    "hL": (["--d", "2", "--m", "3", "--k", "1,1", "--params", _kv(L4), "--t=-0.6",
            "--x", "0.2,0.5"],
           lambda: eval_h_laguerre(3, (1, 1), WrapParamsLaguerre(**L4), -0.6, [0.2, 0.5])),
    "phi": (["--d", "2", "--k", "1,1", "--params", "alpha=0.9,mu=0.6,axis=2", "--xi", "0.7"],
            lambda: phi_factor(2, 0.9, 0.6, (1, 1), 0.7)),
    "theta": (["--d", "1", "--m", "2", "--k", "1",
               "--params", "zeta=1.1,eta=0.9,beta=0.3,gamma=0.4,mu=0.7", "--xi", "0.6"],
              lambda: theta_factor(2, (1,), 1.1, 0.9, 0.3, 0.4, 0.7, 0.6)),
    "lambda": (["--d", "2", "--m", "3", "--k", "1,0", "--params", "zeta=1.1,mu=0.7,beta=0.3",
                "--xi=-0.5"],
               lambda: lambda_factor(3, (1, 0), 1.1, 0.7, 0.3, -0.5)),
    "fourierJ": (["--d", "1", "--m", "2", "--k", "1", "--params", _kv(J6), "--xi", "0.3,-0.7"],
                 lambda: fourier_h_jacobi_closed(2, (1,), WrapParamsJacobi(**J6), [0.3, -0.7])),
    "fourierL": (["--d", "2", "--m", "1", "--k", "0,1", "--params", _kv(L4),
                  "--xi", "0.3,-0.7,1.2"],
                 lambda: fourier_h_laguerre_closed(1, (0, 1), WrapParamsLaguerre(**L4),
                                                   [0.3, -0.7, 1.2])),
    "D": (["--d", "2", "--k", "1,2", "--params", "alpha1=0.7,alpha2=0.9",
           "--x", "0.3+0.2j,-0.1-0.4j"],
          lambda: eval_D((1, 2), 0.7, 0.9, [0.3 + 0.2j, -0.1 - 0.4j])),
    "A": (["--d", "1", "--m", "2", "--k", "1", "--params", _kv(SPLIT), "--t", "0.3+0.2j",
           "--x=-0.4+0.1j"],
          lambda: eval_A(2, (1,), SplitParams(**SPLIT), 0.3 + 0.2j, [-0.4 + 0.1j])),
    "B": (["--d", "2", "--m", "3", "--k", "1,1",
           "--params", "alpha1=0.7,alpha2=0.9,zeta1=0.8,zeta2=1.2", "--t", "0.1-0.3j",
           "--x", "0.2+0.1j,0.5"],
          lambda: eval_B(3, (1, 1), SplitParams(0.7, 0.9, 0.8, 1.2), 0.1 - 0.3j,
                         [0.2 + 0.1j, 0.5 + 0j])),
}


def test_eval_cases_cover_every_function():
    assert sorted(EVAL_CASES) == sorted(EVAL_FUNCTIONS)


@pytest.mark.parametrize("fn", list(EVAL_CASES))
def test_cli_eval_matches_library_call(fn, capsys):
    # every eval function prints exactly the value of the direct library call
    argv, call = EVAL_CASES[fn]
    assert main(["eval", "--fn", fn, *argv]) == 0
    want = complex(call())
    assert capsys.readouterr().out == f"{fn} = ({want.real!r}) + ({want.imag!r})j\n"


# (fn, flag) of every eval argument that is a real point
REAL_POINTS = [(fn, flag) for fn, (_, _, kinds) in EVAL_TABLE.items()
               for kind, flag in (("real t", "--t"), ("real x", "--x"), ("xi", "--xi"),
                                  ("xi vector", "--xi")) if kind in kinds]


@pytest.mark.parametrize("fn, flag", REAL_POINTS, ids=[f"{fn}{flag}" for fn, flag in REAL_POINTS])
def test_cli_eval_imaginary_real_point_rejected(fn, flag, capsys):
    # a real point with a nonzero imaginary part is a parse error (exit 2),
    # never an evaluation at its real part
    real = EVAL_CASES[fn][0]
    argv = [arg + "+0.5j" if arg.startswith(flag + "=") or (i and real[i - 1] == flag) else arg
            for i, arg in enumerate(real)]
    assert argv != real
    assert main(["eval", "--fn", fn, *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "must be real" in captured.err
