import hashlib
import itertools
import json
import math

import numpy as np
import pytest

from orthopara import verifier
from orthopara.ball import ball_eval, ball_norm
from orthopara.cli import SweepConfig
from orthopara.errors import QuadratureNonConvergence
from orthopara.gammafn import gamma, log_gamma
from orthopara.paraboloid import (
    jacobi_paraboloid, jacobi_paraboloid_norm, laguerre_paraboloid, laguerre_paraboloid_norm,
)
from orthopara.quadrature import QuadratureRule
from orthopara.transforms import (
    SplitParams, WrapParamsJacobi, WrapParamsLaguerre, eval_A, eval_B,
    eval_h_jacobi, eval_h_laguerre,
)
from orthopara.verifier import (
    _PARSEVAL_LEVELS, ALL_FAMILIES, IdentityCase, _fourier_direct, _fourier_rules,
    _parseval_lhs, _parseval_rule, degree_index_pairs, generate_cases,
    multi_indices, parseval_rhs, run_case,
)
from references import tensor_integrate
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
    failed = [(m, k, m2, k2) for (m, k) in pairs for (m2, k2) in pairs
              if not run_case(_case(fam, d=d, m=m, m2=m2, k=k, k2=k2, params=params,
                                    tolerance=1e-6)).passed]
    assert failed == []


# The oracles sum per-axis factors; these full tensors sum the composed
# evaluators over the same rules, so a factorisation the oracle adopts is
# itself checked.
@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("fam", ["FOURIER_J", "FOURIER_L"])
def test_separated_fourier_oracle_matches_full_tensor(fam, d):
    # damping 3.5 keeps the d = 2 grid near 1e6 points
    p = {"alpha": 3.5, "zeta": 3.5, "eta": 3.5, "beta": 0.3, "gamma": 0.4, "mu": 0.7}
    m, k, xi = 3, (1,) * d, (0.7, -0.4, 0.3)[:d + 1]
    if fam == "FOURIER_J":
        wp = WrapParamsJacobi(p["alpha"], p["zeta"], p["eta"], p["beta"], p["gamma"], p["mu"])
        h = lambda t, *x: eval_h_jacobi(m, k, wp, t, list(x))
    else:
        wp = WrapParamsLaguerre(p["alpha"], p["zeta"], p["beta"], p["mu"])
        h = lambda t, *x: eval_h_laguerre(m, k, wp, t, list(x))
    t_rule, x_rules = _fourier_rules(fam, k, wp, 0)
    full = tensor_integrate(
        [t_rule, *x_rules],
        lambda t, *x: np.exp(-1j * (xi[d] * t + sum(v * xv for v, xv in zip(xi, x)))) * h(t, *x),
    )
    separated, _ = _fourier_direct(fam, m, k, wp, xi, 0, lambda key, compute: compute())
    assert separated == pytest.approx(full, rel=1e-12)


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("fam", ["PARSEVAL_A", "PARSEVAL_B"])
def test_separated_parseval_oracle_matches_full_tensor(fam, d):
    m, k = 2, (1,) * d
    if fam == "PARSEVAL_A":
        sp = SplitParams(**PARSEVAL_PARAMS)
        weight = lambda t: np.exp(log_gamma(sp.eta1 + 0.5j * t) + log_gamma(sp.eta2 - 0.5j * t))
        family = eval_A
    else:
        sp = SplitParams(*(PARSEVAL_PARAMS[n] for n in ("alpha1", "alpha2", "zeta1", "zeta2")))
        weight = lambda t: 1.0
        family = eval_B
    sw = sp.swapped()

    def f(t, *x):
        return (weight(t) * family(m, k, sp, 1j * t, [1j * v for v in x])
                * family(m, k, sw, -1j * t, [-1j * v for v in x]))

    panels = _PARSEVAL_LEVELS[0]
    full = tensor_integrate([_parseval_rule(panels)] * (d + 1), f)
    separated, _ = _parseval_lhs(fam, m, k, m, k, sp, panels,
                                 lambda key, compute: compute())
    assert separated == pytest.approx(full, rel=1e-12)


@pytest.mark.parametrize("fam, d", [("ORT_BALL", 2), ("ORT_BALL", 3), ("ORT_PARA_J", 1),
                                    ("ORT_PARA_J", 2), ("ORT_PARA_L", 1), ("ORT_PARA_L", 2)])
def test_separated_gram_oracle_matches_full_tensor(fam, d):
    # every Gram entry of |k| <= 3 (m <= 3), relative to sqrt(norm norm2) as
    # in the verifier; the 2-point rules are exact only to degree 3, so there
    # off-diagonal entries are far from 0 too
    mu, beta, gamma_ = 0.7, 0.3, 0.4
    no_memo = lambda key, compute: compute()
    if fam == "ORT_BALL":
        index = multi_indices(d, 3)
        norm = lambda k: ball_norm(k, mu)

        def entries(k, k2, n):
            f = lambda y: ball_eval(k, mu, y) * ball_eval(k2, mu, y)
            return verifier._ball_gram(no_memo, mu, k, k2, n), slice_tensor(f, d, mu, n)
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

        def entries(mk, mk2, n):
            f = lambda t, x: basis(*mk, t, x) * basis(*mk2, t, x)
            return (verifier._para_gram(no_memo, kind, beta, g, mu, mk, mk2, n),
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
    from orthopara.quadrature import composite_legendre
    from orthopara.transforms import eval_D
    from orthopara.ball import tail_sum
    from orthopara.gammafn import log_gamma, pochhammer
    import numpy as _np

    a1, a2, d, k = 0.7, 0.9, 2, (1, 1)
    T = 1.1 * math.log(1e14) / math.pi
    rule = composite_legendre(-T, T, 30, 12)

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


def test_form_equiv_case():
    rep = run_case(_case("FORM_EQUIV_PHI", k=(2,),
                         params={"alpha": 0.8, "mu": 0.6, "xi": 1.1, "axis": 1.0},
                         tolerance=1e-10))
    assert rep.passed


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
    level = lambda lv: (vals[lv], 10)
    # stops at the first agreeing pair; nodes of every level used add up
    assert _certified((0, 1, 2), level, 1e-8, 1.0) == (vals[2], 30)
    with pytest.raises(QuadratureNonConvergence):
        _certified((0, 1), level, 1e-8, 1.0)
    with pytest.raises(QuadratureNonConvergence):  # a NaN delta never certifies
        _certified((0, 1), lambda lv: (float("nan"), 10), 1e-8, 1.0)
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
    assert values.hexdigest() == "3d42ae58ad871300f735b2946c4026e6f73b40e07fcc9344bc84530af9f3fae5"


def test_high_degree_fourier_j_passes_every_case():
    # FOURIER_J to degree 14 at d = 1 (seed 1): the terminating series of
    # theta_factor lost up to 3.6e-6 at m = 14 and failed 5 of these cases
    cfg = SweepConfig(families=["FOURIER_J"], dims=[1], fourier_max_degree=14, seed=1)
    cfg.validate()
    cases = generate_cases(cfg)
    assert len(cases) == 84 and max(c.m for c in cases) == 14
    assert [(c.m, c.k) for c in cases if not run_case(c).passed] == []


def test_high_degree_ball_diagonal_passes_every_case():
    # every diagonal ORT_BALL entry k = k2 with |k| <= 28 at d = 2, the
    # diagonal of the BALL-28 config (scripts/configs/ball-28.json): the
    # explicit sum of the homogenized Gegenbauer factor failed 12 of these
    # cases, 11 of them by raising QuadratureNonConvergence
    tol = verifier.FAMILIES["ORT_BALL"].tolerance
    cases = [IdentityCase("ORT_BALL", 2, tol, k=k, k2=k, params={"mu": mu})
             for mu in (0.5, 1.5) for k in multi_indices(2, 28)]
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
    assert values.hexdigest() == "28cb16ce6f70fda24d4a6ac983a4013306f907101749d270a2567d6652456310"


# small sweeps of two parameter draws each (ORT_PARA_J: d = 1 and d = 2)
MEMO_SWEEPS = {
    "ORT_GEGEN": dict(dims=[1], max_degree_1d=3, ort_param_draws=2),
    "ORT_BALL": dict(dims=[2], max_degree_multi=2),
    "ORT_PARA_J": dict(dims=[1, 2], max_degree_multi=2),
    "FOURIER_L": dict(dims=[1, 2], fourier_max_degree=1),
    "PARSEVAL_A": dict(dims=[1, 2], parseval_max_degree=1),
}


def _memo_sweep(fam):
    return generate_cases(SweepConfig(families=[fam], seed=0, **MEMO_SWEEPS[fam]))


def _values(rep):
    return repr((rep.lhs, rep.rhs, rep.passed, rep.nodes))


@pytest.mark.parametrize("fam", list(MEMO_SWEEPS))
def test_draw_memo_order_independent(fam, monkeypatch):
    # a case's values do not depend on which cases of its draw ran before it
    cases = _memo_sweep(fam)
    monkeypatch.setattr(verifier, "_memo", verifier._DrawMemo())
    in_order = [_values(run_case(c)) for c in cases]
    reverse = [_values(run_case(c)) for c in reversed(cases)][::-1]
    alone = []
    for c in cases:
        monkeypatch.setattr(verifier, "_memo", verifier._DrawMemo())
        alone.append(_values(run_case(c)))
    assert in_order == reverse == alone


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


@pytest.mark.parametrize("fam", list(MEMO_SWEEPS))
def test_draw_memo_holds_one_draw_read_only(fam, monkeypatch):
    cases = _memo_sweep(fam)
    last = cases[-1]
    first_draw = [c for c in cases if (c.d, c.params) == (cases[0].d, cases[0].params)]
    assert (last.d, last.params) != (cases[0].d, cases[0].params)
    memo = verifier._DrawMemo()
    monkeypatch.setattr(verifier, "_memo", memo)
    for c in first_draw + [last]:
        run_case(c)
    # the second draw's case emptied the memo: what is left is exactly what
    # that case computes alone
    alone = verifier._DrawMemo()
    monkeypatch.setattr(verifier, "_memo", alone)
    run_case(last)
    (draw, columns), (alone_draw, alone_columns) = memo.current, alone.current
    assert draw == alone_draw and columns
    assert columns.keys() == alone_columns.keys()
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
        if isinstance(col, np.ndarray):  # else an immutable scalar (a norm)
            arrays += 1
            assert not col.flags.writeable
            with pytest.raises(ValueError):
                col[...] = 0
        else:
            assert isinstance(col, (float, complex, np.number))
    assert arrays and rules


def test_draw_memo_threads_do_not_mix_draws():
    # threads alternating between two draws, switching every few bytecodes,
    # get the serial values: a getter keeps its own draw's columns
    import sys
    import threading

    cases = _memo_sweep("ORT_GEGEN")
    want = [_values(run_case(c)) for c in cases]
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
    monkeypatch.setattr(verifier, "_memo", verifier._DrawMemo())
    draws = itertools.groupby(generate_cases(cfg), lambda c: (c.identity_id, c.params))
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
