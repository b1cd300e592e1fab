"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every tolerance and runtime budget is pinned here; the quadrature and
brute-force oracles live behind the verifier's case runner, which certifies
two-level refinement agreement before any verdict.
"""

import itertools
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from orthopara.cli import SweepConfig, run_sweep
from orthopara.contiguous import (
    N_RELATIONS, a_relation_pair, b_relation_pair, rec1_pair, rec2_pair,
)
from orthopara.gammafn import beta as betafn
from orthopara.gammafn import gamma
from orthopara.hyper import hyp_terminating
from orthopara.transforms import SplitParams
from orthopara.verifier import (
    IdentityCase, degree_index_pairs, multi_indices, run_case, share_draws,
)
from references import hyp_nonterminating, tanh_sinh


def _announce(n, label, ok, worst=None, elapsed=None):
    status = "PASS" if ok else "FAIL"
    extra = ""
    if worst is not None:
        extra += f" worst={worst:.3e}"
    if elapsed is not None:
        extra += f" time={elapsed:.2f}s"
    print(f"acceptance criterion {n} [{label}]: {status}{extra}")
    assert ok, f"criterion {n} ({label}) failed{extra}"


def test_criterion_1_scalar_kernel():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1001)
    worst = 0.0

    z = rng.uniform(0.5, 8, 1000) + 1j * rng.uniform(-20, 20, 1000)
    rec = np.abs(gamma(z + 1) - z * gamma(z)) / np.abs(gamma(z + 1))
    worst = max(worst, rec.max())

    z2 = rng.uniform(-4, 4, 1000) + 1j * rng.uniform(0.05, 10, 1000)
    refl = np.abs(gamma(z2) * gamma(1 - z2) * np.sin(np.pi * z2) / np.pi - 1)
    worst = max(worst, refl.max())

    a = rng.uniform(0.2, 4, 1000)
    b = rng.uniform(0.2, 4, 1000)
    rule = tanh_sinh(4)
    u, w = rule.nodes / 2, rule.weights / 2
    quad = (w * u ** (a[:, None] - 1) * (1 - u) ** (b[:, None] - 1)).sum(axis=1)
    quad += (w * (1 - u) ** (a[:, None] - 1) * u ** (b[:, None] - 1)).sum(axis=1)
    bet = np.abs(betafn(a, b) - quad) / np.abs(quad)
    worst = max(worst, bet.max())

    elapsed = time.perf_counter() - t0
    _announce(1, "scalar kernel", worst <= 1e-10 and elapsed < 1.0, worst, elapsed)


def test_criterion_2_orthogonality_1d():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1002)
    worst = 0.0
    for fam in ("ORT_GEGEN", "ORT_JACOBI", "ORT_LAGUERRE"):
        for _ in range(3):
            if fam == "ORT_GEGEN":
                params = {"mu": float(rng.uniform(0.3, 2.5))}
            elif fam == "ORT_JACOBI":
                params = {"alpha": float(rng.uniform(-0.6, 2.0)),
                          "beta": float(rng.uniform(-0.6, 2.0))}
            else:
                params = {"alpha": float(rng.uniform(-0.6, 2.5))}
            for m in range(7):
                for m2 in range(m, 7):
                    rep = run_case(IdentityCase(fam, 1, 1e-10, m=m, m2=m2, params=params))
                    worst = max(worst, rep.rel_residual)
                    assert rep.passed
    elapsed = time.perf_counter() - t0
    _announce(2, "1-D orthogonality", worst <= 1e-10 and elapsed < 5.0, worst, elapsed)


def test_criterion_3_ball_and_paraboloid_orthogonality():
    t0 = time.perf_counter()
    worst = 0.0
    cases = []
    for mu in (0.5, 1.5):
        ks = multi_indices(2, 3)
        for i, k in enumerate(ks):
            for k2 in ks[i:]:
                cases.append(IdentityCase("ORT_BALL", 2, 1e-8, k=k, k2=k2,
                                          params={"mu": mu}))
    pairs = degree_index_pairs(2, 3)
    paraj = {"beta": 0.3, "gamma": 0.4, "mu": 0.6}
    paral = {"beta": 0.2, "mu": 0.7}
    for fam, params in (("ORT_PARA_J", paraj), ("ORT_PARA_L", paral)):
        for (m, k), (m2, k2) in itertools.combinations_with_replacement(pairs, 2):
            cases.append(IdentityCase(fam, 2, 1e-8, m=m, m2=m2, k=k, k2=k2,
                                      params=params))
    for case in share_draws(cases):
        rep = run_case(case)
        worst = max(worst, rep.rel_residual)
        assert rep.passed
    elapsed = time.perf_counter() - t0
    _announce(3, "ball/paraboloid orthogonality", worst <= 1e-8 and elapsed < 120.0,
              worst, elapsed)


def test_criterion_4_fourier_closed_forms():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1004)
    worst = 0.0
    pj = {"alpha": 0.8, "zeta": 1.1, "eta": 0.9, "beta": 0.3, "gamma": 0.4, "mu": 0.7}
    pl = {"alpha": 0.8, "zeta": 1.1, "beta": 0.3, "mu": 0.7}
    for d in (1, 2):
        pairs = [(m, k) for (m, k) in degree_index_pairs(d, 2) if sum(k) <= 2]
        for fam, params in (("FOURIER_J", pj), ("FOURIER_L", pl)):
            for (m, k) in pairs:
                for _ in range(5):
                    xi = tuple(float(v) for v in rng.uniform(-2, 2, d + 1))
                    rep = run_case(IdentityCase(fam, d, 1e-6, m=m, k=k,
                                                params=params, xi=xi))
                    worst = max(worst, rep.rel_residual)
                    assert rep.passed, (fam, d, m, k, xi, rep.rel_residual)
    elapsed = time.perf_counter() - t0
    _announce(4, "Fourier closed forms", worst <= 1e-6 and elapsed < 300.0, worst, elapsed)


def test_criterion_5_form_equivalences():
    t0 = time.perf_counter()
    cfg = SweepConfig(families=["FORM_EQUIV_PHI", "FORM_EQUIV_D", "FORM_EQUIV_A"],
                      form_draws=200, seed=1005)
    summary = run_sweep(cfg)
    worst = max(summary.worst_residual.values())
    elapsed = time.perf_counter() - t0
    ok = summary.failed == 0 and summary.total == 600 and worst <= 1e-10 and elapsed < 10
    _announce(5, "form equivalences", ok, worst, elapsed)


def test_criterion_6_parseval_constants():
    t0 = time.perf_counter()
    worst = 0.0
    pa = {"alpha1": 0.7, "alpha2": 0.9, "zeta1": 0.8, "zeta2": 1.2,
          "eta1": 0.6, "eta2": 1.1}
    pb = {name: pa[name] for name in ("alpha1", "alpha2", "zeta1", "zeta2")}
    pairs = degree_index_pairs(1, 2)
    for fam, params in (("PARSEVAL_A", pa), ("PARSEVAL_B", pb)):
        for (m, k) in pairs:
            for (m2, k2) in pairs:
                rep = run_case(IdentityCase(fam, 1, 1e-6, m=m, m2=m2, k=k, k2=k2,
                                            params=params))
                worst = max(worst, rep.rel_residual)
                assert rep.passed, (fam, m, k, m2, k2, rep.rel_residual)
        rep = run_case(IdentityCase(fam, 2, 1e-6, m=0, m2=0, k=(0, 0), k2=(0, 0),
                                    params=params))
        worst = max(worst, rep.rel_residual)
        assert rep.passed, (fam, "d=2 spot", rep.rel_residual)
    elapsed = time.perf_counter() - t0
    _announce(6, "Parseval constants", worst <= 1e-6 and elapsed < 900.0, worst, elapsed)


def test_criterion_7_contiguous_relations():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1007)
    worst = 0.0

    def rel(lhs, rhs):
        return abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-30)

    F32 = lambda a, b, c, d, e, z: hyp_terminating([a, b, c], [d, e], z)
    F21 = lambda a, b, c, z: hyp_terminating([a, b], [c], z)
    F21n = lambda a, b, c, z: hyp_nonterminating([a, b], [c], z)
    for i in range(1, N_RELATIONS + 1):
        for _ in range(100):
            N = int(rng.integers(1, 6))
            b, c, d, e = (complex(rng.uniform(0.3, 2.5), rng.uniform(-0.5, 0.5))
                          for _ in range(4))
            worst = max(worst, rel(*rec2_pair(i, F32, -float(N), b, c, d, e, 1.0)))
        for _ in range(100):
            N = int(rng.integers(2, 6))
            b = complex(rng.uniform(0.3, 2.5), rng.uniform(-0.5, 0.5))
            c = rng.uniform(0.3, 2.5)
            worst = max(worst, rel(*rec1_pair(i, F21, -float(N), b, c, 2.0)))
            a2, b2, c2 = rng.uniform(0.3, 2.5, 3)
            worst = max(worst, rel(*rec1_pair(i, F21n, a2, b2, c2, rng.uniform(-0.8, 0.8))))
        for _ in range(100):
            dd = int(rng.integers(1, 3))
            k = tuple(int(v) for v in rng.integers(0, 3, dd))
            m = sum(k) + int(rng.integers(1, 3))
            spa = SplitParams(*rng.uniform(0.3, 2.5, 6), check=False)
            spb = SplitParams(*rng.uniform(0.3, 2.5, 4), check=False)
            t = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            x = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(dd)]
            worst = max(worst, rel(*a_relation_pair(i, m, k, spa, t, x)))
            worst = max(worst, rel(*b_relation_pair(i, m, k, spb, t, x)))
    elapsed = time.perf_counter() - t0
    _announce(7, "contiguous relations", worst <= 1e-10 and elapsed < 10.0, worst, elapsed)


def test_criterion_8_end_to_end(tmp_path):
    t0 = time.perf_counter()
    payloads = []
    for name in ("sweep1.json", "sweep2.json"):
        out = tmp_path / name
        res = subprocess.run(
            [sys.executable, "-m", "orthopara", "sweep",
             "--out", str(out), "--no-timestamp"],
            capture_output=True, text=True,
        )
        assert res.returncode == 0, res.stderr or res.stdout
        payloads.append(out.read_bytes())
    identical = payloads[0] == payloads[1]
    elapsed = time.perf_counter() - t0
    _announce(8, "end-to-end sweep", identical, None, elapsed)
