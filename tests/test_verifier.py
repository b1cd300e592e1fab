import dataclasses
import hashlib
import importlib.util
import itertools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import orthopara
from orthopara import ball, hyper, verifier
from orthopara.ball import ball_eval, ball_norm
from orthopara.classical import gegenbauer, jacobi, laguerre
from orthopara.cli import SweepConfig, load_config
from orthopara.errors import QuadratureNonConvergence
from orthopara.gammafn import gamma, log_gamma
from orthopara.paraboloid import (
    jacobi_paraboloid, jacobi_paraboloid_norm, laguerre_paraboloid, laguerre_paraboloid_norm,
)
from orthopara.quadrature import QuadratureRule, gauss_jacobi, gauss_laguerre
from orthopara.transforms import (
    SplitParams, WrapParamsJacobi, WrapParamsLaguerre, eval_A, eval_B,
    eval_h_jacobi, eval_h_laguerre,
)
from orthopara.verifier import (
    ALL_FAMILIES, IdentityCase, _fourier_direct, _gram_level, degree_index_pairs,
    generate_cases, multi_indices, parseval_rhs, run_case, share_draws,
)
from references import legendre_panels, tensor_integrate
from slice_tensor import slice_tensor


def _case(fam, **kw):
    kw.setdefault("d", 1)
    kw.setdefault("tolerance", 1e-8)
    return IdentityCase(identity_id=fam, **kw)


def test_multi_index_enumeration():
    assert multi_indices(2, 1) == [(0, 0), (0, 1), (1, 0)]
    assert len(multi_indices(2, 3)) == 10
    pairs = degree_index_pairs(1, 2)
    assert pairs == [(0, (0,)), (1, (0,)), (1, (1,)), (2, (0,)), (2, (1,)), (2, (2,))]


def test_orthogonality_cases():
    rep = run_case(_case("ORT_GEGEN", m=2, m2=3, params={"mu": 1.0}, tolerance=1e-10))
    assert rep.passed and rep.rhs == 0
    rep = run_case(_case("ORT_GEGEN", m=3, m2=3, params={"mu": 1.0}, tolerance=1e-10))
    assert rep.passed and rep.rhs != 0
    rep = run_case(_case("ORT_BALL", d=2, k=(1, 0), k2=(1, 0), params={"mu": 0.5}))
    assert rep.passed
    rep = run_case(_case("ORT_PARA_L", d=2, m=2, m2=1, k=(1, 0), k2=(1, 0),
                         params={"beta": 0.2, "mu": 0.7}))
    assert rep.passed and rep.rhs == 0


def test_fourier_case_jacobi():
    params = {"alpha": 0.8, "zeta": 1.1, "eta": 0.9, "beta": 0.3, "gamma": 0.4, "mu": 0.7}
    rep = run_case(_case("FOURIER_J", m=2, k=(1,), params=params, xi=(0.7, -0.4),
                         tolerance=1e-6))
    assert rep.passed
    assert rep.rel_residual < 1e-8
    rep2 = run_case(_case("FOURIER_J", d=2, m=2, k=(1, 1), params=params,
                          xi=(0.5, -0.9, 0.3), tolerance=1e-6))
    assert rep2.passed


def test_fourier_case_laguerre():
    params = {"alpha": 0.8, "zeta": 1.1, "beta": 0.3, "mu": 0.7}
    rep = run_case(_case("FOURIER_L", m=1, k=(1,), params=params, xi=(-1.2, 0.8),
                         tolerance=1e-6))
    assert rep.passed


PARSEVAL_PARAMS = {"alpha1": 0.7, "alpha2": 0.9, "zeta1": 0.8, "zeta2": 1.2,
                   "eta1": 0.6, "eta2": 1.1}


def _draw(fam, k, params, **index):
    # a fresh state of a draw of ``fam`` at dimension len(k), bound by the
    # family's binder to a run of the one case of ``index``
    case = IdentityCase(fam, len(k), 1e-8, k=k, params=params, **index)
    return verifier._Draw(*verifier.FAMILIES[fam].bind([case]))


def _level_product(terms, draw, n, **index):
    # the Gram runner's value of a level: the product of the draw's entries
    # that ``terms`` names for the case of ``index``, on the n-point level
    _, _, _, entries = terms(IdentityCase("", 0, 1e-8, **index))
    return _gram_level(draw, entries, n)[0]


def test_parseval_diagonal_and_offdiagonal():
    rep = run_case(_case("PARSEVAL_A", m=1, m2=1, k=(0,), k2=(0,),
                         params=PARSEVAL_PARAMS, tolerance=1e-6))
    assert rep.passed and rep.rhs != 0
    rep0 = run_case(_case("PARSEVAL_A", m=1, m2=0, k=(0,), k2=(0,),
                          params=PARSEVAL_PARAMS, tolerance=1e-6))
    assert rep0.passed and rep0.rhs == 0
    pb = {name: PARSEVAL_PARAMS[name] for name in ("alpha1", "alpha2", "zeta1", "zeta2")}
    repb = run_case(_case("PARSEVAL_B", m=2, m2=2, k=(1,), k2=(1,), params=pb,
                          tolerance=1e-6))
    assert repb.passed


def test_parseval_d2_nonzero_index_diagonals():
    # exercises the per-axis product blocks with their (d-j)/2 shifts, which
    # no d=1 case reaches
    rep = run_case(_case("PARSEVAL_A", d=2, m=2, m2=2, k=(1, 1), k2=(1, 1),
                         params=PARSEVAL_PARAMS, tolerance=1e-6))
    assert rep.passed
    pb = {name: PARSEVAL_PARAMS[name] for name in ("alpha1", "alpha2", "zeta1", "zeta2")}
    repb = run_case(_case("PARSEVAL_B", d=2, m=1, m2=1, k=(1, 0), k2=(1, 0),
                          params=pb, tolerance=1e-6))
    assert repb.passed


@pytest.mark.parametrize("fam", ["PARSEVAL_A", "PARSEVAL_B"])
@pytest.mark.parametrize("d", [3, 4])
def test_parseval_every_index_pair_at_d3_and_d4(fam, d):
    # the constant's power of 2 carries -(d-1)(d-2)/2, which vanishes at the
    # d <= 2 of the sweep; without it every diagonal entry here reads
    # lhs/rhs = 2^(-(d-1)(d-2)/2)
    names = ["alpha1", "alpha2", "zeta1", "zeta2"] + (["eta1", "eta2"] if fam == "PARSEVAL_A"
                                                      else [])
    params = {name: PARSEVAL_PARAMS[name] for name in names}
    pairs = degree_index_pairs(d, 2)
    cases = share_draws([_case(fam, d=d, m=m, m2=m2, k=k, k2=k2, params=params, tolerance=1e-6)
                         for (m, k) in pairs for (m2, k2) in pairs])
    failed = [(c.m, c.k, c.m2, c.k2) for c in cases if not run_case(c).passed]
    assert failed == []


# The oracles sum per-axis factors; these full tensors sum the composed
# evaluators over the same rules, so a factorisation the oracle adopts is
# itself checked.
@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("fam", ["FOURIER_J", "FOURIER_L"])
def test_separated_fourier_oracle_matches_full_tensor(fam, d):
    # damping 7 keeps the d = 2 grid near 1e6 points
    p = {"alpha": 7.0, "zeta": 7.0, "eta": 7.0, "beta": 0.3, "gamma": 0.4, "mu": 0.7}
    m, k, xi = 3, (1,) * d, (0.7, -0.4, 0.3)[:d + 1]
    if fam == "FOURIER_J":
        wp = WrapParamsJacobi(p["alpha"], p["zeta"], p["eta"], p["beta"], p["gamma"], p["mu"])
        h = lambda t, *x: eval_h_jacobi(m, k, wp, t, list(x))
    else:
        wp = WrapParamsLaguerre(p["alpha"], p["zeta"], p["beta"], p["mu"])
        h = lambda t, *x: eval_h_laguerre(m, k, wp, t, list(x))
    draw = _draw(fam, k, p, m=m)
    rules = [draw.rule_of(d), *(draw.rule_of(None),) * d]
    f = lambda t, *x: np.exp(-1j * (xi[d] * t + sum(v * xv for v, xv in zip(xi, x)))) * h(t, *x)
    full = tensor_integrate(rules, f)
    separated = _fourier_direct(fam, m, k, wp, xi, draw)(0)[0]
    assert separated == pytest.approx(full, rel=1e-12)
    if d == 1:  # the finer level: each rule and its midpoints, at half the weight
        fine = [QuadratureRule(np.append(r.nodes, r.nodes + 0.5 * r.weights[0]),
                               np.append(r.weights, r.weights) / 2) for r in rules]
        assert _fourier_direct(fam, m, k, wp, xi, draw)(1)[0] == pytest.approx(
            tensor_integrate(fine, f), rel=1e-12)


FOURIER_WP = {"FOURIER_J": WrapParamsJacobi(0.8, 1.1, 0.9, 0.3, 0.4, 0.7),
              "FOURIER_L": WrapParamsLaguerre(0.8, 1.1, 0.3, 0.7)}


@pytest.mark.parametrize("xi", [0.0, 0.7, -0.7, 2.0, -2.0])
@pytest.mark.parametrize("fam", ["FOURIER_J", "FOURIER_L"])
def test_panel_line_sum_matches_per_node_sum(fam, xi):
    # sum_p e^{-i xi c_p} sum_q (w f)_pq e^{-i xi o_q} is the plain per-node
    # sum of w f e^{-i xi t}: on the t line of either family, on each row of
    # a stack of x lines (one xi per row), and on a one-panel rule
    wp, k = FOURIER_WP[fam], ball.validate_multi_index((1, 2))
    h_t = verifier.h_jacobi_t if fam == "FOURIER_J" else verifier.h_laguerre_t

    def check(rule, factors, xis):
        lines = np.stack([(rule.weights * f).reshape(-1, 12) for f in factors])
        got = verifier._line_sums(verifier._panel_phases(rule), lines, np.array(xis)[:, None])
        for f, x, v in zip(factors, xis, got):
            want = (rule.weights * f * np.exp(-1j * x * rule.nodes)).sum()
            assert v == pytest.approx(want, rel=1e-13)
        one = verifier._line_sums(verifier._panel_phases(rule), lines[0], xis[0])
        assert one == pytest.approx(got[0], rel=1e-15)

    rule_of = _draw(fam, k, dataclasses.asdict(wp), m=3).rule_of
    t_rule, x_rule = rule_of(3), rule_of(None)
    check(t_rule, [h_t(3, k, wp, t_rule.nodes)], [xi])
    check(x_rule, [verifier.g_axis(j, wp.alpha, wp.mu, k, x_rule.nodes) for j in (1, 2)],
          [xi, -0.5 * xi])
    one = legendre_panels(-1.5, 2.0, 1, 12)
    check(one, [np.cos(one.nodes) + one.nodes ** 2], [xi])


@pytest.mark.parametrize("fam", ["FOURIER_J", "FOURIER_L"])
def test_fourier_draw_builds_each_line_once(fam, monkeypatch):
    # a draw builds its x rule once, its t rule once per |k|, its t lines
    # (at the rule's nodes and at their midpoints) once per (m, |k|) and the
    # x lines of axis j once per (j, k_j, |k^{j+1}|), though cases share
    # them; every line it holds is, bit for bit, the line of each case's own
    # (m, k)
    builds = {}

    def counted(name, fn):
        def wrapper(*args):
            builds[name] = builds.get(name, 0) + 1
            return fn(*args)
        return wrapper

    def bind(run):
        rule_of, = verifier._bind_fourier(run)
        x_rule, t_rule = counted("x rule", rule_of), counted("t rule", rule_of)
        return (lambda n: x_rule(n) if n is None else t_rule(n)),

    monkeypatch.setitem(verifier.FAMILIES, fam, dataclasses.replace(verifier.FAMILIES[fam],
                                                                    bind=bind))
    h_name = "h_jacobi_t" if fam == "FOURIER_J" else "h_laguerre_t"
    for name in (h_name, "g_axis"):
        monkeypatch.setattr(verifier, name, counted(name, getattr(verifier, name)))
    cases = generate_cases(SweepConfig(families=[fam], seed=3, dims=[2], fourier_max_degree=3))
    assert all(c.draw is cases[0].draw for c in cases)
    for c in cases:
        assert run_case(c).passed
    mks = {(c.m, c.k) for c in cases}
    ns = {sum(k) for _, k in mks}
    g_keys = {(j, k[j - 1], sum(k[j:])) for _, k in mks for j in (1, 2)}
    # the cases share lines: fewer dependency keys than (m, k) pairs
    assert len({(m, sum(k)) for m, k in mks}) < len(mks) and len(g_keys) < 2 * len(mks)
    assert builds == {"x rule": 1, "t rule": len(ns),
                      h_name: len({(m, sum(k)) for m, k in mks}), "g_axis": len(g_keys)}
    wp = (WrapParamsJacobi if fam == "FOURIER_J" else WrapParamsLaguerre)(**cases[0].params)
    h_t, columns = getattr(verifier, h_name), cases[0].draw.columns
    rule_of, = verifier._bind_fourier(cases)

    def lines(rule, f):  # f at the rule's nodes and midpoints, times its weight
        h = rule.weights[0]
        return (h * f(np.append(rule.nodes, rule.nodes + 0.5 * h))).reshape(2, -1, 12)

    for m, k in mks:
        k, n = ball.validate_multi_index(k), sum(k)
        t_rule, x_rule = rule_of(n), rule_of(None)
        assert np.array_equal(columns["t", n].nodes, t_rule.nodes)
        assert np.array_equal(columns["x",].nodes, x_rule.nodes)
        assert np.array_equal(columns["h", m, n], lines(t_rule, lambda t: h_t(m, k, wp, t)))
        for j in (1, 2):
            gj = lines(x_rule, lambda x: verifier.g_axis(j, wp.alpha, wp.mu, k, x))
            assert np.array_equal(columns["gs", k][:, j - 1], gj)


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("fam", ["PARSEVAL_A", "PARSEVAL_B"])
def test_separated_parseval_oracle_matches_full_tensor(fam, d):
    m, k = 2, (1,) * d
    if fam == "PARSEVAL_A":
        params = PARSEVAL_PARAMS
        weight = lambda t: np.exp(log_gamma(sp.eta1 + 0.5j * t) + log_gamma(sp.eta2 - 0.5j * t))
        family = eval_A
    else:
        params = {n: PARSEVAL_PARAMS[n] for n in ("alpha1", "alpha2", "zeta1", "zeta2")}
        weight = lambda t: 1.0
        family = eval_B
    sp = SplitParams(**params)
    sw = sp.swapped()

    def f(t, *x):
        return (weight(t) * family(m, k, sp, 1j * t, [1j * v for v in x])
                * family(m, k, sw, -1j * t, [-1j * v for v in x]))

    draw = _draw(fam, k, params, m=m, m2=m)
    full = tensor_integrate([draw.rule_of(0)[0]] * (d + 1), f)
    separated = _level_product(verifier._terms_parseval, draw, 0, m=m, m2=m, k=k, k2=k)
    assert separated == pytest.approx(full, rel=1e-12)


@pytest.mark.parametrize("fam, d", [("ORT_BALL", 2), ("ORT_BALL", 3), ("ORT_PARA_J", 1),
                                    ("ORT_PARA_J", 2), ("ORT_PARA_L", 1), ("ORT_PARA_L", 2)])
def test_separated_gram_oracle_matches_full_tensor(fam, d):
    # every Gram entry of |k| <= 3 (m <= 3), relative to sqrt(norm norm2) as
    # in the verifier; the 2-point rules are exact only to degree 3, so there
    # off-diagonal entries are far from 0 too
    mu, beta, gamma_ = 0.7, 0.3, 0.4
    if fam == "ORT_BALL":
        index = multi_indices(d, 3)
        norm = lambda k: ball_norm(k, mu)
        draw = _draw(fam, index[0], {"mu": mu})

        def entries(k, k2, n):
            f = lambda y: ball_eval(k, mu, y) * ball_eval(k2, mu, y)
            return (_level_product(verifier._terms_ball, draw, n, k=k, k2=k2),
                    slice_tensor(f, d, mu, n))
    else:
        index = degree_index_pairs(d, 3)
        if fam == "ORT_PARA_J":
            kind, g = "jacobi", gamma_
            norm = lambda mk: jacobi_paraboloid_norm(*mk, beta, g, mu)
            basis = lambda m, k, t, x: jacobi_paraboloid(m, k, beta, g, mu, t, x)
        else:
            kind, g = "laguerre", 0.0
            norm = lambda mk: laguerre_paraboloid_norm(*mk, beta, mu)
            basis = lambda m, k, t, x: laguerre_paraboloid(m, k, beta, mu, t, x)
        draw = _draw(fam, index[0][1], {"beta": beta, "gamma": g, "mu": mu})

        def entries(mk, mk2, n):
            f = lambda t, x: basis(*mk, t, x) * basis(*mk2, t, x)
            return (_level_product(verifier._terms_para, draw, n,
                                   m=mk[0], k=mk[1], m2=mk2[0], k2=mk2[1]),
                    slice_tensor(f, d, mu, n, (kind, beta, g)))
    pairs = list(itertools.combinations_with_replacement(index, 2))
    scale = np.array([math.sqrt(norm(i) * norm(i2)) for i, i2 in pairs])
    off = np.array([i != i2 for i, i2 in pairs])
    for n in (2, 12):
        separated, full = np.array([entries(i, i2, n) for i, i2 in pairs]).T
        assert np.all(np.abs(separated - full) <= 1e-12 * scale)
        assert np.any(np.abs(full[off]) > 1e-3 * scale[off]) == (n == 2)


def test_D_family_line_integral_d2():
    # the x-part backbone of both Parseval identities: the D product
    # integrates along imaginary-argument lines to the same block constant
    from orthopara.transforms import eval_D
    from orthopara.ball import tail_sum
    from orthopara.gammafn import log_gamma, pochhammer
    import numpy as _np

    a1, a2, d, k = 0.7, 0.9, 2, (1, 1)
    T = 1.1 * math.log(1e14) / math.pi
    rule = legendre_panels(-T, T, 30, 12)

    def f(x1, x2):
        return eval_D(k, a1, a2, [1j * x1, 1j * x2]) * eval_D(
            k, a2, a1, [-1j * x1, -1j * x2]
        )

    lhs = tensor_integrate([rule, rule], f)
    absa = a1 + a2
    rhs = (2 * math.pi) ** d * 2.0 ** (-2 * d * absa + d + 1) * ball_norm(k, absa - 0.5)
    for j in range(1, d + 1):
        K = tail_sum(k, j + 1)
        kj = k[j - 1]
        rhs *= math.factorial(kj) ** 2 * _np.exp(
            log_gamma(K + 2 * a1 + 0.5 * (d - j)) + log_gamma(K + 2 * a2 + 0.5 * (d - j))
        ).real
        rhs /= 2.0 ** (2 * K) * pochhammer(2 * K + 2 * absa + d - j - 1, kj) ** 2
    assert lhs.real == pytest.approx(rhs, rel=1e-6)
    assert abs(lhs.imag) < 1e-12 * rhs


def test_parseval_rhs_base_case_closed_form():
    # d=1, m=k=0 reduces to a pure Gamma expression via the Barnes-type line
    # integrals; cross-check the printed constant against the worked d=1 display
    sp = SplitParams(**PARSEVAL_PARAMS)
    got = parseval_rhs("PARSEVAL_A", 0, (0,), sp)
    Z, E = sp.abs_zeta, sp.abs_eta
    want = (
        math.pi**2 * 2 ** (-2 * sp.abs_alpha + 5) * ball_norm((0,), sp.mu)
        * gamma(Z).real * gamma(E).real
        * gamma(sp.zeta1 + sp.eta1).real * gamma(sp.zeta2 + sp.eta2).real
        * gamma(2 * sp.alpha1).real * gamma(2 * sp.alpha2).real
        / ((Z + E - 1) * gamma(Z + E - 1).real)
    )
    assert got == pytest.approx(want, rel=1e-12)

    spb = SplitParams(sp.alpha1, sp.alpha2, sp.zeta1, sp.zeta2)
    gotb = parseval_rhs("PARSEVAL_B", 2, (1,), spb)
    m, k1 = 2, 1
    from orthopara.gammafn import pochhammer

    wantb = (
        math.pi**2 * 2 ** (-(2 * spb.abs_alpha + spb.abs_zeta + k1) + 4)
        * ball_norm((k1,), spb.mu) * math.factorial(k1) ** 2 * math.factorial(m - k1)
        * gamma(spb.abs_zeta + m).real * gamma(2 * spb.alpha1).real * gamma(2 * spb.alpha2).real
        / (pochhammer(k1 + spb.abs_zeta, m - k1) ** 2
           * pochhammer(2 * spb.abs_alpha - 1, k1) ** 2)
    )
    assert gotb == pytest.approx(wantb, rel=1e-12)


def test_contig_case_and_pole_skip():
    params = {"alpha1": 0.7, "alpha2": 0.9, "zeta1": 0.8, "zeta2": 1.2,
              "eta1": 0.6, "eta2": 1.1, "t_re": 0.3, "t_im": 0.2,
              "x1_re": -0.4, "x1_im": 0.1}
    rep = run_case(_case("CONTIG_A_iv", m=2, k=(0,), params=params, tolerance=1e-10))
    assert rep.passed and rep.skipped_reason is None
    # an argument parked on a Gamma pole is a skip, not a failure: relation ii
    # evaluates at t+1, where zeta1 + 1/2 - (t+1) lands on -1 exactly
    pole = dict(params, t_re=params["zeta1"] + 0.5, t_im=0.0)
    repp = run_case(_case("CONTIG_B_ii", m=2, k=(1,),
                          params={k: v for k, v in pole.items() if not k.startswith("eta")},
                          tolerance=1e-10))
    assert repp.skipped_reason is not None and repp.passed


@pytest.mark.parametrize("fam", ["FORM_EQUIV_A", "FORM_EQUIV_D", "FORM_EQUIV_PHI", "FOURIER_J",
                                 "FOURIER_L"])
def test_one_multi_index_check_per_case(fam, monkeypatch):
    # a case checks its k once and hands the MultiIndex to every function it
    # calls, the direct transform's columns included (4, 2, 2 and 3 + d
    # checks before MultiIndex)
    built = []

    class Counted(ball.MultiIndex):
        __slots__ = ()

        def __new__(cls, entries):
            built.append(entries)
            return super().__new__(cls, entries)

    case = next(c for c in generate_cases(SweepConfig(families=[fam], seed=1))
                if c.d == 2 and sum(c.k) > 0)
    monkeypatch.setattr(ball, "MultiIndex", Counted)
    assert run_case(case).passed
    assert len(built) == 1


def test_form_equiv_case():
    rep = run_case(_case("FORM_EQUIV_PHI", k=(2,),
                         params={"alpha": 0.8, "mu": 0.6, "xi": 1.1, "axis": 1.0},
                         tolerance=1e-10))
    assert rep.passed


def _stub_report(monkeypatch, runner, tolerance):
    # run_case on a registered family whose runner is ``runner``
    monkeypatch.setitem(verifier.FAMILIES, "STUB",
                        verifier.Family("STUB", "STUB", tolerance, runner, None, "stub"))
    return run_case(IdentityCase("STUB", 1, tolerance))


@pytest.mark.parametrize("sides, tolerance, want", [
    # an off-diagonal Gram entry: absolute residual over the Gram scale
    ((1e-12, 0.0, 4.0, 32), 1e-10, (1e-12, 2.5e-13, True, 32)),
    # rhs == 0 at scale 0: the relative residual is the absolute one
    ((3e-11, 0.0, 0.0, 5), 1e-10, (3e-11, 3e-11, True, 5)),
    ((3e-10, 0.0, 0.0, 5), 1e-10, (3e-10, 3e-10, False, 5)),
    # two closed forms (scale None): over the larger side, 0 when both are 0
    ((0.5, 0.0, None, 0), 1e-10, (0.5, 1.0, False, 0)),
    ((0.0, 0.0, None, 0), 1e-10, (0.0, 0.0, True, 0)),
    # rhs != 0: over the larger side, whatever the scale
    ((2.0, 1.0, None, 0), 0.5, (1.0, 0.5, True, 0)),
    ((2.0, 1.0, 1e-30, 0), 0.5, (1.0, 0.5, True, 0)),
    ((2.0, 1.0, 0.0, 0), 0.4999, (1.0, 0.5, False, 0)),
    ((1j, -3j, 1e30, 7), 1.0, (4.0, 4 / 3, False, 7)),
], ids=["gram_off_diagonal", "rhs0_scale0", "rhs0_scale0_fails", "closed_forms_rhs0",
        "closed_forms_both0", "scale_none", "tiny_scale", "zero_scale_fails", "complex_sides"])
def test_run_case_judges_the_runner_sides(monkeypatch, sides, tolerance, want):
    rep = _stub_report(monkeypatch, lambda case: sides, tolerance)
    assert (rep.abs_residual, rep.rel_residual, rep.passed, rep.nodes) == want
    assert (rep.lhs, rep.rhs) == (complex(sides[0]), complex(sides[1]))
    assert rep.passed == (rep.rel_residual <= tolerance) and rep.seconds >= 0
    assert rep.skipped_reason is None and rep.error is None


def test_run_case_reports_a_runner_skip(monkeypatch):
    def runner(case):
        raise verifier._Skip("pole: at -1")

    rep = _stub_report(monkeypatch, runner, 1e-10)
    assert rep.passed and rep.skipped_reason == "pole: at -1" and rep.error is None
    assert (rep.lhs, rep.rhs, rep.abs_residual, rep.rel_residual, rep.nodes) == (0j, 0j, 0, 0, 0)
    assert rep.seconds >= 0


def test_report_invariants():
    rep = run_case(_case("ORT_JACOBI", m=1, m2=1,
                         params={"alpha": 0.4, "beta": 1.3}, tolerance=1e-10))
    assert rep.passed == (rep.rel_residual <= rep.case.tolerance)
    assert rep.nodes > 0 and rep.seconds >= 0
    # an off-diagonal Gram entry and a Parseval diagonal pass as well
    assert run_case(_case("ORT_LAGUERRE", m=1, m2=2, params={"alpha": 0.3},
                          tolerance=1e-10)).passed
    assert run_case(_case("PARSEVAL_B", m=0, m2=0, k=(0,), k2=(0,),
                          params={"alpha1": 1.0, "alpha2": 1.0, "zeta1": 1.0, "zeta2": 1.0},
                          tolerance=1e-6)).passed


def test_nonconvergence_raises():
    # an impossibly tight tolerance cannot produce a certificate
    with pytest.raises(QuadratureNonConvergence):
        run_case(_case("ORT_GEGEN", m=6, m2=6, params={"mu": 0.77}, tolerance=1e-16))


def test_certificate_needs_two_agreeing_levels():
    from orthopara.verifier import _certified

    vals = {0: 1.0, 1: 1.5, 2: 1.5 + 1e-12}
    level = lambda lv: (vals[lv], 0.0, 10)
    # stops at the first agreeing pair; nodes of every level used add up
    assert _certified((0, 1, 2), level, 1e-8, 1.0) == (vals[2], 30)
    with pytest.raises(QuadratureNonConvergence):
        _certified((0, 1), level, 1e-8, 1.0)
    with pytest.raises(QuadratureNonConvergence):  # a NaN delta never certifies
        _certified((0, 1), lambda lv: (float("nan"), 0.0, 10), 1e-8, 1.0)
    # agreeing levels do not certify a tail past the cuts above the threshold
    # max(tol |value|, 0.1 tol scale) = 1.5e-8, nor a NaN tail
    for tail in (1.6e-8, float("nan")):
        with pytest.raises(QuadratureNonConvergence, match="tail"):
            _certified((1, 2), lambda lv: (vals[lv], tail, 10), 1e-8, 1.0)
    assert _certified((1, 2), lambda lv: (vals[lv], 1.4e-8, 10), 1e-8, 1.0) == (vals[2], 20)
    for levels in ((), (0,)):  # one level has nothing to agree with
        with pytest.raises(ValueError, match="at least two levels"):
            _certified(levels, level, 1e-8, 1.0)


def test_case_determinism():
    # identical IdentityCase inputs give identical numeric content
    case = _case("PARSEVAL_B", m=1, m2=1, k=(1,), k2=(1,),
                 params={"alpha1": 0.7, "alpha2": 0.9, "zeta1": 0.8, "zeta2": 1.2},
                 tolerance=1e-6)
    r1, r2 = run_case(case), run_case(case)
    assert (r1.lhs, r1.rhs, r1.abs_residual, r1.rel_residual, r1.passed, r1.nodes) == (
        r2.lhs, r2.rhs, r2.abs_residual, r2.rel_residual, r2.passed, r2.nodes
    )


def test_generate_cases_deterministic():
    cfg = SweepConfig(seed=7, contig_draws=5, form_draws=5)
    c1 = generate_cases(cfg)
    c2 = generate_cases(SweepConfig(seed=7, contig_draws=5, form_draws=5))
    assert c1 == c2
    c3 = generate_cases(SweepConfig(seed=8, contig_draws=5, form_draws=5))
    assert c1 != c3
    assert {c.identity_id for c in c1} == set(ALL_FAMILIES)


def test_generated_cases_respect_preconditions():
    cfg = SweepConfig(seed=3, contig_draws=10, form_draws=10)
    for case in generate_cases(cfg):
        if case.k is not None and case.m is not None:
            assert sum(case.k) <= case.m
        assert case.tolerance > 0


def _case_list_digest(cases):
    h = hashlib.sha256()
    for c in cases:
        h.update(json.dumps([c.identity_id, c.d, c.tolerance, c.m, c.m2, c.k, c.k2,
                             sorted(c.params.items()), c.xi]).encode() + b"\n")
    return h.hexdigest()


def test_default_case_list_pinned():
    # the default sweep's case list, every draw at full precision; a change
    # here changes what the default sweep verifies
    cases = generate_cases(SweepConfig())
    assert len(cases) == 3030
    assert _case_list_digest(cases) == (
        "8b745704077edcd2e426b9db44fac0a90d58b5c0e4388eab135daa40ee1235f7")


@pytest.mark.parametrize("dims, count, digest", [
    ([3], 3754, "8bbb2a56f3ad323ccb1b84ecddffcba051614b17c979f0a9198232839f8a56f2"),
    ([1, 2, 3], 4350, "a7fe4eba69a397125d4e4e43615304c698a521234f313f8feadb31c1c4a4eb9e"),
], ids=["dims_3", "dims_1_2_3"])
def test_dims_case_lists_pinned(dims, count, digest):
    # default-size sweeps at seed 42 that draw d = 3 points and indices; a
    # change of how the draws are made must not move one of them
    cases = generate_cases(SweepConfig(dims=dims))
    assert len(cases) == count
    assert _case_list_digest(cases) == digest


def test_series_layer_values_pinned():
    # a small seeded CONTIG + FORM_EQUIV sweep (d = 1 and 2), pinned twice:
    # the verdicts, which a rounding-level change must not move, and every
    # value at full precision, which a faster path through the transform
    # factors, log_gamma or pochhammer must not move unless it means to
    cfg = SweepConfig(families=["CONTIG", "FORM_EQUIV"], contig_draws=10, form_draws=20,
                      seed=0, dims=[1, 2])
    cfg.validate()
    cases = generate_cases(cfg)
    verdicts, values = hashlib.sha256(), hashlib.sha256()
    for c in cases:
        rep = run_case(c)
        verdicts.update(repr((c.identity_id, rep.passed)).encode() + b"\n")
        values.update(repr((c.identity_id, rep.passed, rep.lhs, rep.rhs)).encode() + b"\n")
    assert len(cases) == 200
    assert verdicts.hexdigest() == "263c44e57a69118d96662d5fdb54e60a8a4e0449d214fbcd756a58bbc8c60657"
    assert values.hexdigest() == "4426e379ae8f81b6940e2b9412c4d96a48afbddc257e65ceaf36c87afedad02a"


def _workload_config(name, seed):
    # a perfbench workload's sweep config, read from its file as it stands
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    cfg = SweepConfig(**module.WORKLOADS[name], seed=seed)
    cfg.validate()
    return cfg


def test_form_equiv_phi_residuals_of_series_scalar_seed_7():
    # the 3F2 series that continuous_hahn used to sum left FORM_EQUIV_PHI
    # residuals up to 2.99e-11 here (of the 1e-10 tolerance); the recurrence
    # in x holds them under 1e-11
    cases = [c for c in generate_cases(_workload_config("series-scalar", 7))
             if c.identity_id == "FORM_EQUIV_PHI"]
    assert len(cases) == 320
    worst = max(run_case(c).rel_residual for c in cases)
    assert worst <= 1e-11, worst


def test_no_sweep_case_sums_a_series(monkeypatch):
    # every binding of hyp_terminating in the package raises: the CONTIG and
    # FORM_EQUIV cases run on recurrences only and pass every case
    def raising(*args, **kwargs):
        raise AssertionError("a sweep case summed a hypergeometric series")

    bound = [module for name, module in list(sys.modules.items())
             if name.split(".")[0] == "orthopara"
             and getattr(module, "hyp_terminating", None) is hyper.hyp_terminating]
    assert hyper in bound
    for module in bound:
        monkeypatch.setattr(module, "hyp_terminating", raising)
    cfg = SweepConfig(families=["CONTIG", "FORM_EQUIV"], contig_draws=10, form_draws=20,
                      seed=0, dims=[1, 2])
    cfg.validate()
    cases = generate_cases(cfg)
    assert len(cases) == 200
    assert [c.identity_id for c in cases if not run_case(c).passed] == []


def test_sweeps_leave_the_series_unimported():
    # a reduced CONTIG + FORM_EQUIV sweep and a reduced sweep of every
    # default family, in a fresh interpreter: every case passes without
    # the package's series module ever being imported
    code = (
        "import sys\n"
        "from orthopara.cli import SweepConfig\n"
        "from orthopara.verifier import generate_cases, run_case\n"
        "ran = set()\n"
        "for kw in ({'families': ['CONTIG', 'FORM_EQUIV'], 'contig_draws': 10,\n"
        "            'form_draws': 20, 'seed': 0},\n"
        "           {'max_degree_1d': 2, 'max_degree_multi': 1, 'fourier_max_degree': 1,\n"
        "            'parseval_max_degree': 1, 'ort_param_draws': 1, 'fourier_xi_draws': 1,\n"
        "            'contig_draws': 2, 'form_draws': 2}):\n"
        "    cfg = SweepConfig(**kw)\n"
        "    cfg.validate()\n"
        "    cases = generate_cases(cfg)\n"
        "    assert all(run_case(c).passed for c in cases)\n"
        "    ran |= {c.identity_id for c in cases}\n"
        "print(sorted(ran), 'orthopara.hyper' in sys.modules)\n"
    )
    src = str(Path(orthopara.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == f"{sorted(ALL_FAMILIES)!r} False"


def test_high_degree_fourier_j_passes_every_case():
    # FOURIER_J to degree 14 at d = 1 (seed 1): the terminating series of
    # theta_factor lost up to 3.6e-6 at m = 14 and failed 5 of these cases
    cfg = SweepConfig(families=["FOURIER_J"], dims=[1], fourier_max_degree=14, seed=1)
    cfg.validate()
    cases = generate_cases(cfg)
    assert len(cases) == 84 and max(c.m for c in cases) == 14
    assert [(c.m, c.k) for c in cases if not run_case(c).passed] == []


CONFIGS = Path(__file__).resolve().parents[1] / "scripts" / "configs"


def test_reduced_hdt_8_parseval_passes_every_case():
    # the PARSEVAL families of the HDT-8 config (scripts/configs/hdt-8.json:
    # d = 1, m and m2 to 8) at seed 1: Gauss-Legendre lines cut at a fixed
    # T = 11.3 failed 343 cases of the config, every one PARSEVAL, and about
    # 8% of these
    cfg = load_config(CONFIGS / "hdt-8.json")
    cfg.families, cfg.seed = ["PARSEVAL_A", "PARSEVAL_B"], 1
    cfg.validate()
    cases = generate_cases(cfg)
    assert len(cases) == 4050
    assert [(c.identity_id, c.m, c.m2, c.k, c.k2) for c in cases if not run_case(c).passed] == []


def test_reduced_hdf_30_fourier_l_passes_every_case():
    # the FOURIER_L cases of the HDF-30 config (scripts/configs/hdf-30.json)
    # at seed 1 with m = 18 and 19, in a draw of their own: lines cut at
    # fixed points failed the 4 cases of m = 19 and |k| <= 1 by their
    # residual, none by a raise
    cfg = load_config(CONFIGS / "hdf-30.json")
    cfg.seed = 1
    cfg.validate()
    cases = share_draws([dataclasses.replace(c) for c in generate_cases(cfg)
                         if c.identity_id == "FOURIER_L" and 18 <= c.m <= 19])
    assert len(cases) == 12
    assert [(c.m, c.k) for c in cases if not run_case(c).passed] == []


def test_halved_cuts_raise_wherever_they_move_a_value(monkeypatch):
    # with every line cut at half the sizer's cut, a case whose value moves
    # by more than its tolerance (relative to the larger of the value and
    # its scale) raises QuadratureNonConvergence through the tail check;
    # none returns a verdict.  The PARSEVAL lines of degree 6 and the
    # Laguerre t lines lose digits there, so some cases of both raise
    cfg = SweepConfig(families=["FOURIER", "PARSEVAL"], seed=1, dims=[1, 2],
                      fourier_max_degree=6, parseval_max_degree=6)
    cfg.validate()

    def values():
        out = []
        for c in generate_cases(cfg):
            try:
                lhs, rhs, scale, _ = verifier.FAMILIES[c.identity_id].run(c)
            except QuadratureNonConvergence:
                lhs = scale = None
            out.append((c, lhs, abs(rhs) if scale is None else scale))
        return out

    full = values()
    assert all(lhs is not None for _, lhs, _ in full)
    size = verifier._line_size
    monkeypatch.setattr(verifier, "_line_size",
                        lambda *a: ([cut / 2 for cut in size(*a)[0]], size(*a)[1]))
    raised = set()
    for (c, lhs, scale), (_, cut_lhs, _) in zip(full, values()):
        if cut_lhs is None:
            raised.add(c.identity_id)
        else:
            assert abs(cut_lhs - lhs) <= c.tolerance * max(abs(lhs), scale), (c.identity_id, c.m)
    assert {"FOURIER_L", "PARSEVAL_A", "PARSEVAL_B"} <= raised


def test_high_degree_ball_diagonal_passes_every_case():
    # every diagonal ORT_BALL entry k = k2 with |k| <= 28 at d = 2, the
    # diagonal of the BALL-28 config (scripts/configs/ball-28.json): the
    # explicit sum of the homogenized Gegenbauer factor failed 12 of these
    # cases, 11 of them by raising QuadratureNonConvergence
    tol = verifier.FAMILIES["ORT_BALL"].tolerance
    cases = share_draws([IdentityCase("ORT_BALL", 2, tol, k=k, k2=k, params={"mu": mu})
                         for mu in (0.5, 1.5) for k in multi_indices(2, 28)])
    assert len(cases) == 870
    assert [(c.params["mu"], c.k) for c in cases if not run_case(c).passed] == []


def test_quadrature_oracle_values_pinned():
    # a small seeded ORT + FOURIER + PARSEVAL sweep (d = 1 and 2), pinned
    # twice: the verdicts, which a rounding-level change must not move, and
    # every value at full precision, which changes with any evaluator's bits
    cfg = SweepConfig(families=["ORT", "FOURIER", "PARSEVAL"], seed=0, dims=[1, 2],
                      max_degree_1d=3, max_degree_multi=2, fourier_max_degree=1,
                      parseval_max_degree=1, ort_param_draws=1, fourier_xi_draws=2)
    cfg.validate()
    cases = generate_cases(cfg)
    verdicts, values = hashlib.sha256(), hashlib.sha256()
    for c in cases:
        rep = run_case(c)
        verdicts.update(repr((c.identity_id, rep.passed)).encode() + b"\n")
        values.update(repr((c.identity_id, rep.passed, rep.lhs, rep.rhs)).encode() + b"\n")
    assert len(cases) == 272
    assert verdicts.hexdigest() == "0a1d1a6f408000b96d635af8e442869748dbbb7808a5f827a3032a7d4461cc5a"
    assert values.hexdigest() == "6719e915c92e1869e84e6781088f1f5b46e937e17cdf382da747280395356a27"


# small sweeps of two parameter draws each (ORT_PARA_J: d = 1 and d = 2)
DRAW_SWEEPS = {
    "ORT_GEGEN": dict(dims=[1], max_degree_1d=3, ort_param_draws=2),
    "ORT_BALL": dict(dims=[2], max_degree_multi=2),
    "ORT_PARA_J": dict(dims=[1, 2], max_degree_multi=2),
    "FOURIER_L": dict(dims=[1, 2], fourier_max_degree=1),
    "PARSEVAL_A": dict(dims=[1, 2], parseval_max_degree=1),
}


def _draw_sweep(fam):
    return generate_cases(SweepConfig(families=[fam], seed=0, **DRAW_SWEEPS[fam]))


def _values(rep):
    return repr((rep.lhs, rep.rhs, rep.passed, rep.nodes))


@pytest.mark.parametrize("fam", list(DRAW_SWEEPS))
def test_draw_memo_order_independent(fam):
    # a case's values do not depend on which cases of its draw ran before
    # it: in order, in reverse on a fresh case list, or each case alone, the
    # only case run in its draw on a fresh case list.  A line draw sizes its
    # rules from its run's largest degree, so a case in a draw of its own (a
    # replaced case carries none until it runs) may get other rules; it
    # still passes
    in_order = [_values(run_case(c)) for c in _draw_sweep(fam)]
    reverse = [_values(run_case(c)) for c in reversed(_draw_sweep(fam))][::-1]
    alone = [_values(run_case(_draw_sweep(fam)[i])) for i in range(len(in_order))]
    assert in_order == reverse == alone
    replaced = [run_case(dataclasses.replace(c)) for c in _draw_sweep(fam)]
    assert all(rep.passed for rep in replaced)
    if fam.startswith("ORT"):  # a Gauss rule's size is the entry's own
        assert [_values(rep) for rep in replaced] == in_order


def test_draws_group_cases_by_value(monkeypatch):
    # generation gives each run of consecutive cases with equal identity id,
    # d and params one draw, whichever dict holds the params: the generators
    # hand a draw's cases one dict, and here the ball generator is wrapped to
    # hand each case an equal copy; other params, d or family never share a
    # draw.  A hand-built case has no draw until it runs, nor has a replaced
    # one, whatever field is replaced
    cfg = SweepConfig(families=["ORT_BALL", "ORT_PARA_J", "ORT_PARA_L"], dims=[1, 2],
                      max_degree_multi=1)
    shared = [c for c in generate_cases(cfg) if c.identity_id == "ORT_BALL"]
    assert len({id(c.params) for c in shared}) == 2
    ball = verifier.FAMILIES["ORT_BALL"]

    def copies(*args):
        for c in ball.cases(*args):
            yield dataclasses.replace(c, params=dict(c.params))

    monkeypatch.setitem(verifier.FAMILIES, "ORT_BALL", dataclasses.replace(ball, cases=copies))
    cases = generate_cases(cfg)
    runs = [list(run) for _, run in itertools.groupby(
        cases, lambda c: (c.identity_id, c.d, c.params))]
    assert [(run[0].identity_id, run[0].d) for run in runs] == [
        ("ORT_BALL", 2), ("ORT_BALL", 2), ("ORT_PARA_J", 1), ("ORT_PARA_J", 2),
        ("ORT_PARA_L", 1), ("ORT_PARA_L", 2)]
    assert runs[0][0].params is not runs[0][1].params
    assert all(run[0].draw is not None and all(c.draw is run[0].draw for c in run)
               for run in runs)
    assert len({id(run[0].draw) for run in runs}) == len(runs)
    case = runs[0][0]
    for other in (dataclasses.replace(case), dataclasses.replace(case, params=dict(case.params)),
                  dataclasses.replace(case, k=(0, 1)),
                  IdentityCase("ORT_BALL", 2, 1e-8, k=(0, 0), k2=(0, 0), params=case.params)):
        assert other == dataclasses.replace(other) and other.draw is None
    with pytest.raises(TypeError):
        IdentityCase("ORT_BALL", 2, 1e-8, k=(0, 0), k2=(0, 0), params={"mu": 0.5},
                     draw=case.draw)
    with pytest.raises(ValueError):
        dataclasses.replace(case, draw=case.draw)


def test_share_draws_gives_a_hand_built_list_the_generated_rule_builds(monkeypatch):
    # the same cases built by hand, each with its own equal params dict and
    # no draw, make as many rule builds after share_draws as generate_cases'
    # list does: one per rule size of each draw, not one per case
    builds = []
    init = verifier._Draw.__init__

    def counting(self, rule_of=None, basis=None, norm_of=None):
        def counted(n):
            builds.append(n)
            return rule_of(n)
        init(self, rule_of and counted, basis, norm_of)

    monkeypatch.setattr(verifier._Draw, "__init__", counting)
    cfg = SweepConfig(families=["ORT_JACOBI", "ORT_BALL", "ORT_PARA_L", "PARSEVAL_B"],
                      dims=[1, 2], seed=3, max_degree_1d=4, max_degree_multi=2,
                      parseval_max_degree=1, ort_param_draws=2)
    generated = generate_cases(cfg)
    hand = [dataclasses.replace(c, params=dict(c.params)) for c in generated]
    for c in generated:
        run_case(c)
    want, builds[:] = len(builds), []
    assert share_draws(hand) is hand
    assert all(c.draw is not None for c in hand)
    for c in hand:
        run_case(c)
    assert 0 < want == len(builds) < len(hand)


def test_only_families_with_shared_columns_carry_draws():
    # the default sweep's 23 draws: every ORT, FOURIER and PARSEVAL case
    # carries one, no CONTIG or FORM_EQUIV case does, not even once it ran
    cases = generate_cases(SweepConfig())
    no_draw = {"CONTIG", "FORM_EQUIV"}
    assert all((c.draw is None) == (verifier.FAMILIES[c.identity_id].group in no_draw)
               for c in cases)
    assert len({id(c.draw) for c in cases if c.draw is not None}) == 23
    for group in no_draw:
        case = next(c for c in cases if verifier.FAMILIES[c.identity_id].group == group)
        assert run_case(case).passed and case.draw is None


def test_replaced_and_hand_built_cases_read_no_other_draw():
    # a case of the first ORT_GEGEN draw moved to the second draw's params
    # by dataclasses.replace, and the same case built by hand, give the
    # values of the second draw's case run alone, although the first draw's
    # columns are all filled: run_case gives each a draw of its own
    cases = _draw_sweep("ORT_GEGEN")
    for c in cases:
        run_case(c)
    half = len(cases) // 2
    first, second = cases[:half], cases[half:]
    assert first[0].draw is not second[0].draw and first[0].params != second[0].params
    fresh = _draw_sweep("ORT_GEGEN")[half:]
    for c, want in zip(first, fresh):
        moved = dataclasses.replace(c, params=second[0].params)
        hand = IdentityCase("ORT_GEGEN", 1, c.tolerance, m=c.m, m2=c.m2,
                            params=dict(second[0].params))
        alone = _values(run_case(want))
        assert _values(run_case(moved)) == _values(run_case(hand)) == alone
        own = moved.draw
        assert own not in (None, hand.draw, c.draw, want.draw)
        assert _values(run_case(moved)) == alone and moved.draw is own


def test_interleaved_draws_build_each_rule_once(monkeypatch):
    # the cases of two draws run interleaved keep their own columns: an
    # ORT_GEGEN and an ORT_JACOBI draw to degree 12 (91 cases each) build
    # their rules 16, 32 and 64 once each, as when run one after the
    # other, and give the same values
    builds = 0
    gauss_jacobi_ = verifier.gauss_jacobi

    def counted(*args):
        nonlocal builds
        builds += 1
        return gauss_jacobi_(*args)

    monkeypatch.setattr(verifier, "gauss_jacobi", counted)

    def draws():
        return [generate_cases(SweepConfig(families=[fam], max_degree_1d=12, ort_param_draws=1))
                for fam in ("ORT_GEGEN", "ORT_JACOBI")]

    a, b = draws()
    assert len(a) == len(b) == 91
    interleaved = [_values(run_case(c)) for pair in zip(a, b) for c in pair]
    assert builds == 6
    a, b = draws()
    serial = [_values(run_case(c)) for c in a + b]
    assert builds == 12
    assert interleaved == [v for pair in zip(serial[:91], serial[91:]) for v in pair]


def _rule_arrays(col):
    """The node and weight arrays of a rule-valued column (a rule, or a tuple
    of rules and tuples of rules), or None for any other column."""
    if isinstance(col, QuadratureRule):
        return [col.nodes, col.weights]
    if isinstance(col, tuple) and col:
        parts = [_rule_arrays(c) for c in col]
        if None not in parts:
            return [a for part in parts for a in part]
    return None


@pytest.mark.parametrize("fam", list(DRAW_SWEEPS))
def test_draw_memo_holds_one_draw_read_only(fam):
    cases = _draw_sweep(fam)
    last = cases[-1]
    first_draw = [c for c in cases if c.draw is cases[0].draw]
    assert last.draw is not cases[0].draw
    for c in first_draw + [last]:
        run_case(c)
    # the second draw holds exactly what its case computes alone, on a fresh
    # case list, and the first draw keeps its own columns
    alone = _draw_sweep(fam)[-1]
    run_case(alone)
    draw, alone_draw = last.draw, alone.draw
    assert cases[0].draw.columns and cases[0].draw.columns.keys() != draw.columns.keys()
    columns, alone_columns = draw.columns, alone_draw.columns
    assert columns and columns.keys() == alone_columns.keys()
    # a Gram draw caches a weighted column beside each column it weights
    weighted = [key for key in columns if key[0] == "wcol"]
    assert bool(weighted) == (fam != "FOURIER_L")
    assert all(("col", *key[1:]) in columns for key in weighted)
    arrays = rules = 0
    for key, col in columns.items():
        rule_arrays = _rule_arrays(col)
        if rule_arrays is not None:  # the draw's Gauss rules
            rules += 1
            alone_arrays = _rule_arrays(alone_columns[key])
            assert len(rule_arrays) == len(alone_arrays)
            for a, b in zip(rule_arrays, alone_arrays):
                assert np.array_equal(a, b) and not a.flags.writeable
                with pytest.raises(ValueError):
                    a[...] = 0
            continue
        assert np.array_equal(col, alone_columns[key])
        assert isinstance(col, np.ndarray) and not col.flags.writeable
        arrays += 1
        with pytest.raises(ValueError):
            col[...] = 0
    assert arrays and rules
    # and a Gram draw its norms, per index, beside its columns
    assert draw.norms == alone_draw.norms and bool(draw.norms) == (fam != "FOURIER_L")


@pytest.mark.parametrize("region", ["append", "row"])
def test_draw_lock_keeps_one_thread_in_its_stacks(region, monkeypatch):
    # two threads each read one entry of a draw that enters ``region``: a
    # column stack's append, or a row fill.  Inside it the first thread
    # waits until the other comes in too or finds the draw's lock held,
    # which the lock, instrumented, reports; the lock keeps the other out
    # until the first has left, so one thread at a time is inside, and each
    # reads the serial value
    import threading

    n, entries = 16, [(1, 1), (2, 2)] if region == "append" else [(1, 0), (2, 0)]
    want = [_draw("ORT_GEGEN", (0,), {"mu": 0.8}).entry(n, 0, *e) for e in entries]
    draw = _draw("ORT_GEGEN", (0,), {"mu": 0.8})
    draw.entry(n, 0, 0, 0)  # stacks column 0, so an entry of column 0 fills a row
    for i, i2 in entries:  # only the sums and the region are left to the threads
        draw.weighted(n, 0, i), draw.column(n, 0, i2)
    inside = most = entered = 0
    guard, met = threading.Lock(), threading.Event()
    original = getattr(verifier._Stack, region)

    class Watched:
        # the draw's lock, which sets ``met`` when a thread finds it held
        def __init__(self, lock):
            self.lock = lock

        def __enter__(self):
            if not self.lock.acquire(blocking=False):
                met.set()
                self.lock.acquire()

        def __exit__(self, *exc):
            self.lock.release()

    draw.lock = Watched(draw.lock)

    def waiting(*args):
        nonlocal inside, most, entered
        with guard:
            inside, entered = inside + 1, entered + 1
            most = max(most, inside)
            if inside > 1:
                met.set()
            last = entered == len(entries)
        if not last:
            met.wait(timeout=10)
        try:
            return original(*args)
        finally:
            with guard:
                inside -= 1

    monkeypatch.setattr(verifier._Stack, region, waiting)
    start, got = threading.Barrier(len(entries)), [None] * len(entries)

    def work(j):
        start.wait(timeout=10)
        got[j] = draw.entry(n, 0, *entries[j])

    threads = [threading.Thread(target=work, args=(j,)) for j in range(len(entries))]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
    assert not any(t.is_alive() for t in threads)
    assert (entered, most) == (len(entries), 1)
    assert got == want


@pytest.mark.parametrize("fam", ["ORT_GEGEN", "ORT_BALL", "PARSEVAL_A"])
def test_draw_memo_threads_do_not_mix_draws(fam):
    # threads alternating between two draws, switching every few bytecodes,
    # get the serial values: a getter keeps its own draw's columns, and no
    # thread reads a half-appended column stack or a partly filled row
    import sys
    import threading

    want = [_values(run_case(c)) for c in _draw_sweep(fam)]
    cases = _draw_sweep(fam)  # shared by the threads, its draws empty
    got = {i: [] for i in range(6)}

    def work(i):
        for _ in range(5):
            order = cases if i % 2 else cases[::-1]
            got[i].append([_values(run_case(c)) for c in order][::1 if i % 2 else -1])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert all(rounds == [want] * 5 for rounds in got.values())


def test_gram_highdeg_builds_each_rule_and_column_once_per_draw(monkeypatch):
    # perfbench's gram-highdeg case list at seed 1 (18 draws to degree 20)
    # builds each draw's rules 16, 32, 64 and 128 and each of its basis
    # columns once: 72 rule builds and 1206 column evaluations
    counts = dict.fromkeys(("gauss_jacobi", "gauss_laguerre", "gegenbauer", "jacobi",
                            "laguerre"), 0)

    def counted(name, f):
        def g(*args):
            counts[name] += 1
            return f(*args)
        return g

    for name in counts:
        monkeypatch.setattr(verifier, name, counted(name, getattr(verifier, name)))
    cfg = SweepConfig(families=["ORT_GEGEN", "ORT_JACOBI", "ORT_LAGUERRE"], max_degree_1d=20,
                      ort_param_draws=6, seed=1)
    cases = generate_cases(cfg)
    assert len(cases) == 4158
    assert all(run_case(c).passed for c in cases)
    assert counts["gauss_jacobi"] + counts["gauss_laguerre"] == 72
    assert counts["gegenbauer"] + counts["jacobi"] + counts["laguerre"] == 1206


def test_gram_highdeg_fills_each_row_once_per_draw(monkeypatch):
    # the same case list reads 8316 entries: 972 computed alone, each
    # stacking its column, and 918 row fills, one per (rule size, axis, i)
    # a draw reads; every other entry is read from a kept row
    counts = {"append": 0, "row": 0}

    def counted(name):
        f = getattr(verifier._Stack, name)

        def g(*args):
            counts[name] += 1
            return f(*args)
        return g

    for name in counts:
        monkeypatch.setattr(verifier._Stack, name, counted(name))
    cfg = SweepConfig(families=["ORT_GEGEN", "ORT_JACOBI", "ORT_LAGUERRE"], max_degree_1d=20,
                      ort_param_draws=6, seed=1)
    cases = generate_cases(cfg)
    for c in cases:
        run_case(c)
    draws = list(dict.fromkeys(c.draw for c in cases))
    assert len(draws) == 18
    assert (counts["append"], counts["row"]) == (972, 918)
    assert sum(len(draw.rows) for draw in draws) == 918


@pytest.mark.parametrize("fam", ["ORT_BALL", "PARSEVAL_A"])
def test_gram_rows_hold_the_oracle_sums_bit_for_bit(fam):
    # after the first draw's cases, every kept row entry is the weighted
    # column of i times the column of i2, summed, to the last bit, and the
    # draw reads it back; the PARSEVAL_A rows are complex
    cases = _draw_sweep(fam)
    draw = cases[0].draw
    for c in cases:
        if c.draw is draw:
            run_case(c)
    entries = [(key, i2, values[pos]) for key, (index, values) in draw.rows.items()
               for i2, pos in index.items() if pos < len(values)]
    assert entries
    assert all(isinstance(val, complex) == (fam == "PARSEVAL_A") for _, _, val in entries)
    for (n, axis, i), i2, val in entries:
        assert val == (draw.weighted(n, axis, i) * draw.column(n, axis, i2)).sum()
        assert draw.entry(n, axis, i, i2) == val


@pytest.mark.parametrize("fam, params, rule, poly", [
    ("ORT_GEGEN", {"mu": 0.8}, lambda n: gauss_jacobi(n, 0.3, 0.3),
     lambda m, x: gegenbauer(m, 0.8, x)),
    ("ORT_JACOBI", {"alpha": 1.3, "beta": -0.4}, lambda n: gauss_jacobi(n, 1.3, -0.4),
     lambda m, x: jacobi(m, 1.3, -0.4, x)),
    ("ORT_LAGUERRE", {"alpha": 0.6}, lambda n: gauss_laguerre(n, 0.6),
     lambda m, x: laguerre(m, 0.6, x)),
])
def test_weighted_gram_entry_is_the_oracle_sum_bit_for_bit(fam, params, rule, poly):
    # the cached weighted column of m times the column of m2, summed, is
    # (w P_m P_m2).sum() on a freshly built rule, to the last bit, on every
    # level; a case certified at levels (16, 32) reports the level-32 sum
    m, m2 = 3, 5
    case = IdentityCase(fam, 1, 1e-10, m=m, m2=m2, params=params)
    rep = run_case(case)
    draw = case.draw
    for n in (16, 32, 64):
        r = rule(n)
        want = (r.weights * poly(m, r.nodes) * poly(m2, r.nodes)).sum()
        assert draw.entry(n, 0, m, m2) == want
        assert np.array_equal(draw.weighted(n, 0, m), r.weights * poly(m, r.nodes))
    r = rule(32)
    assert rep.lhs == (r.weights * poly(m, r.nodes) * poly(m2, r.nodes)).sum()


def _ladder_n0(floor, degree):
    # the smallest floor 2^j >= degree + 4
    return floor * 2 ** max(0, math.ceil(math.log2((degree + 4) / floor)))


def test_gram_1d_rules_on_one_ladder(monkeypatch):
    # a reduced gram-highdeg (one draw per family, degree 20): each draw
    # builds at most the four rules 16, 32, 64 and 128 and every entry
    # certifies on the ladder size of its degree
    from orthopara import quadrature

    builds = 0
    golub_welsch = quadrature._golub_welsch

    def counted(*args):
        nonlocal builds
        builds += 1
        return golub_welsch(*args)

    monkeypatch.setattr(quadrature, "_golub_welsch", counted)
    cfg = SweepConfig(families=["ORT_GEGEN", "ORT_JACOBI", "ORT_LAGUERRE"], max_degree_1d=20,
                      ort_param_draws=1)
    cfg.validate()
    draws = itertools.groupby(generate_cases(cfg), lambda c: c.draw)
    n_draws = 0
    for _, cases in draws:
        n_draws += 1
        builds = 0
        for c in cases:
            rep = run_case(c)
            assert rep.passed and rep.error is None, c
            assert rep.nodes == 3 * _ladder_n0(16, c.m + c.m2), c
            assert rep.nodes // 3 in (16, 32, 64)
        assert 0 < builds <= 4
    assert n_draws == 3


@pytest.mark.parametrize("fam, per_level", [
    ("ORT_BALL", 2), ("ORT_PARA_J", 3), ("ORT_PARA_L", 3),
])
def test_gram_multi_rules_on_one_ladder(fam, per_level):
    # d = 2 to degree 5: every entry passes on the 12 2^j ladder size of its
    # degree (|k| + |k2| on the ball, m + m2 on the paraboloid); a level of
    # n points costs per_level n nodes (one axis each, plus the radial one)
    cases = generate_cases(SweepConfig(families=[fam], dims=[2], max_degree_multi=5))
    assert cases
    for c in cases:
        rep = run_case(c)
        degree = sum(c.k) + sum(c.k2) if fam == "ORT_BALL" else c.m + c.m2
        assert rep.passed and rep.error is None, c
        assert rep.nodes == 3 * per_level * _ladder_n0(12, degree), c
