"""Identity verification engine.

Turns every identity of the library into an executable case: orthogonality
Gram entries against norm formulas, closed-form Fourier transforms against
direct numeric transforms, the two Parseval constants, the 14 lifted
contiguous relations, and the Hahn-form equivalences.  Each case produces a
VerificationReport with a convergence certificate (two quadrature refinement
levels in agreement) behind every pass/fail verdict.
"""

from __future__ import annotations

import itertools
import math
import time
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .ball import ball_axis, ball_norm, ball_rules, tail_sum
from .classical import (
    gegenbauer, gegenbauer_norm, jacobi, jacobi_norm, laguerre, laguerre_norm,
)
from .contiguous import a_relation_pair, b_relation_pair
from .errors import DomainError, PoleError, QuadratureNonConvergence
from .gammafn import log_gamma, pochhammer
from .paraboloid import jacobi_paraboloid_norm, laguerre_paraboloid_norm, radial_factor, t_rule
from .quadrature import composite_legendre, gauss_jacobi, gauss_laguerre
from .transforms import (
    SPLIT_NAMES, A_t, B_t, D_axis, SplitParams, WrapParamsJacobi, WrapParamsLaguerre, eval_A,
    eval_A_hahn, eval_D, eval_D_hahn, fourier_h_jacobi_closed, fourier_h_laguerre_closed,
    g_axis, h_jacobi_t, h_laguerre_t, phi_factor, phi_factor_hahn,
)

ROMAN = ("i", "ii", "iii", "iv", "v", "vi", "vii")


@dataclass(frozen=True)
class IdentityCase:
    identity_id: str
    d: int
    tolerance: float
    m: int | None = None
    m2: int | None = None
    k: tuple | None = None
    k2: tuple | None = None
    params: dict = field(default_factory=dict)
    xi: tuple | None = None


@dataclass(frozen=True)
class VerificationReport:
    case: IdentityCase
    lhs: complex
    rhs: complex
    abs_residual: float
    rel_residual: float
    passed: bool
    nodes: int
    seconds: float
    skipped_reason: str | None = None
    error: str | None = None


def _finish(case, lhs, rhs, scale, nodes, t0):
    """Residuals per the reporting convention: relative against the larger
    side on the diagonal, absolute against ``scale`` when rhs == 0."""
    lhs = complex(lhs)
    rhs = complex(rhs)
    abs_res = abs(lhs - rhs)
    if rhs == 0:
        rel = abs_res / scale if scale > 0 else abs_res
    else:
        rel = abs_res / max(abs(lhs), abs(rhs))
    return VerificationReport(
        case=case, lhs=lhs, rhs=rhs, abs_residual=abs_res, rel_residual=rel,
        passed=bool(rel <= case.tolerance), nodes=nodes,
        seconds=time.perf_counter() - t0,
    )


def _skip(case, reason, t0):
    return VerificationReport(
        case=case, lhs=0j, rhs=0j, abs_residual=0.0, rel_residual=0.0,
        passed=True, nodes=0, seconds=time.perf_counter() - t0,
        skipped_reason=reason,
    )


def _certified(levels, integral, tol, scale):
    """Refine through ``levels`` until two successive ones agree.

    ``integral(level)`` returns (value, nodes).  Agreement within
    max(tol |value|, 0.1 tol scale) is the convergence certificate behind the
    verdict; returns the finer value and the nodes of every level used.
    """
    if len(levels) < 2:
        raise ValueError(f"_certified: a certificate needs at least two levels, got {levels!r}")
    prev = None
    nodes = 0
    for level in levels:
        val, n = integral(level)
        nodes += n
        if prev is not None:
            delta = abs(val - prev)
            threshold = max(tol * abs(val), 0.1 * tol * scale)
            if delta <= threshold:
                return val, nodes
        prev = val
    raise QuadratureNonConvergence(
        f"refinement levels {levels} did not agree: "
        f"last delta {delta:.3e} > threshold {threshold:.3e}"
    )


def _gram_levels(floor, degree):
    """The two Gauss levels (n0, 2 n0) of a Gram entry of polynomial degree
    ``degree``: n0 = floor 2^j, the smallest such value >= degree + 4, so
    both rules are exact for the entry.  On one power-of-two ladder the
    entries of a draw need a few rule sizes, and share their rules and
    columns."""
    n0 = floor
    while n0 < degree + 4:
        n0 *= 2
    return n0, 2 * n0


# ---------------------------------------------------------------------------
# per-draw memo: the cases of one parameter draw share their columns


class _DrawMemo:
    """The columns (Gauss rules, basis values on a rule, factor lines, line
    weights, norms) of the current parameter draw only: identity id, d and
    params.  It is the verifier's only cache of draw-dependent data: the
    quadrature functions build a rule on each call, and a draw's cases fetch
    their rules here.

    ``open(case)`` drops the held columns when ``case`` belongs to another
    draw and returns the getter ``column(key, compute)`` of the case's draw,
    which evaluates ``compute()`` once per key; an array comes back as a
    read-only view, and a rule (or a tuple of rules) has read-only arrays
    already.  The key names the column within the draw, so an entry is the
    same arithmetic over cached arrays.  A getter keeps its own draw's
    columns, so callers on other threads cannot mix draws.
    """

    def __init__(self):
        self.current = (None, {})  # (draw, its columns), replaced as one

    def open(self, case):
        draw = (case.identity_id, case.d, tuple(sorted(case.params.items())))
        current = self.current
        if current[0] != draw:
            current = self.current = (draw, {})
        columns = current[1]

        def column(key, compute):
            col = columns.get(key)
            if col is None:
                col = compute()
                if isinstance(col, np.ndarray):
                    col = col.view()
                    col.flags.writeable = False
                columns[key] = col
            return col

        return column


_memo = _DrawMemo()


def _gram(case, t0, column, norm, i, i2, levels, entry):
    """The certified inner product <i, i2> (``entry(level)`` returns value and
    nodes) against the diagonal value ``norm(i)``, or 0 off the diagonal."""
    diag, diag2 = (column(("norm", j), lambda: norm(j)) for j in (i, i2))
    scale = math.sqrt(diag * diag2)
    val, nodes = _certified(levels, entry, case.tolerance, scale)
    return _finish(case, val, diag if i == i2 else 0.0, scale, nodes, t0)


# ---------------------------------------------------------------------------
# orthogonality


def _ort_1d(case):
    t0 = time.perf_counter()
    column = _memo.open(case)
    p = case.params
    m, m2 = case.m, case.m2
    fam = case.identity_id
    if fam == "ORT_GEGEN":
        mu = p["mu"]
        rule_of = lambda n: gauss_jacobi(n, mu - 0.5, mu - 0.5)
        poly = lambda x, mm: gegenbauer(mm, mu, x)
        norm = lambda mm: gegenbauer_norm(mm, mu)
    elif fam == "ORT_JACOBI":
        a, b = p["alpha"], p["beta"]
        rule_of = lambda n: gauss_jacobi(n, a, b)
        poly = lambda x, mm: jacobi(mm, a, b, x)
        norm = lambda mm: jacobi_norm(mm, a, b)
    else:
        a = p["alpha"]
        rule_of = lambda n: gauss_laguerre(n, a)
        poly = lambda x, mm: laguerre(mm, a, x)
        norm = lambda mm: laguerre_norm(mm, a)

    def gram_entry(n):
        r = column(("rule", n), lambda: rule_of(n))
        values = lambda mm: column((n, mm), lambda: poly(r.nodes, mm))  # P_mm on the rule
        return (r.weights * values(m) * values(m2)).sum(), n

    return _gram(case, t0, column, norm, m, m2, _gram_levels(16, m + m2), gram_entry)


def _ball_gram(column, mu, k, k2, n):
    """<P_k, P_k2> on the n-point ``ball_rules``: in the slice coordinates
    both are products of ``ball_axis`` factors, so it is one sum per axis.
    The rules and the axis lines come from ``column``."""
    val = 1.0
    for j, r in enumerate(column(("ball_rules", n), lambda: ball_rules(len(k), mu, n)), start=1):
        axis = lambda kk: column(("axis", n, j, kk), lambda: ball_axis(j, mu, kk, r.nodes))
        val = val * (r.weights * axis(k) * axis(k2)).sum()
    return val


def _ort_ball(case):
    t0 = time.perf_counter()
    column = _memo.open(case)
    mu = case.params["mu"]
    k, k2, d = case.k, case.k2, case.d
    levels = _gram_levels(12, tail_sum(k, 1) + tail_sum(k2, 1))
    return _gram(case, t0, column, lambda kk: ball_norm(kk, mu), k, k2, levels,
                 lambda n: (_ball_gram(column, mu, k, k2, n), d * n))


def _para_gram(column, kind, beta, gamma, mu, mk, mk2, n):
    """<basis(m, k), basis(m2, k2)> on the n-point radial and ball rules: a
    basis function is its ``radial_factor`` times t^{|k|/2} P_k(y) with
    x = sqrt(t) y, so it is one ``t_rule`` sum times the ball Gram entry of
    (k, k2).  The rule and the lines come from ``column``."""
    (m, k), (m2, k2) = mk, mk2
    d = len(k)
    rule = column(("t", n), lambda: t_rule(kind, n, beta, gamma, mu, d))
    t, w = rule.nodes, rule.weights
    radial = lambda mm, kk: column(("rad", n, mm, kk), lambda: radial_factor(
        kind, mm, tail_sum(kk, 1), beta, gamma, mu, d, t))
    val = (w * radial(m, k) * radial(m2, k2) * t ** ((tail_sum(k, 1) + tail_sum(k2, 1)) / 2)).sum()
    return val * _ball_gram(column, mu, k, k2, n)


def _ort_para(case):
    t0 = time.perf_counter()
    column = _memo.open(case)
    p = case.params
    d, mu, beta = case.d, p["mu"], p["beta"]
    if case.identity_id == "ORT_PARA_J":
        kind, gamma = "jacobi", p["gamma"]
        norm = lambda mk: jacobi_paraboloid_norm(*mk, beta, gamma, mu)
    else:
        kind, gamma = "laguerre", 0.0
        norm = lambda mk: laguerre_paraboloid_norm(*mk, beta, mu)
    mk, mk2 = (case.m, case.k), (case.m2, case.k2)
    return _gram(case, t0, column, norm, mk, mk2, _gram_levels(12, case.m + case.m2),
                 lambda n: (_para_gram(column, kind, beta, gamma, mu, mk, mk2, n), (d + 1) * n))


# ---------------------------------------------------------------------------
# Fourier closed forms vs direct transforms

_TRUNC_LOG = math.log(1e13)


def _line_rule(left, right, level):
    """The 12-point composite Gauss-Legendre rule on [-left, right]: about
    one panel per unit length (at least 6) at level 0, doubled per level."""
    panels = max(6, int(math.ceil(left + right))) * 2**level
    return composite_legendre(-left, right, panels, 12)


def _fourier_rules(fam, k, wp, level):
    """The t rule and the len(k) x rules of the direct transform at ``level``:
    each side is cut where its exp(-rate |s|) decay falls below 1e-13 (with
    a 15% margin), except the right side of the Laguerre t-factor, which
    decays like exp(-e^t / 2) and is cut at t = 4.8."""
    cut = lambda rate: 1.15 * _TRUNC_LOG / rate
    n = tail_sum(k, 1)
    if fam == "FOURIER_J":
        t_rule = _line_rule(cut(2 * (wp.zeta + 0.5 * n)), cut(2 * wp.eta), level)
    else:
        t_rule = _line_rule(cut(wp.zeta + 0.5 * n), 4.8, level)
    x = cut(2 * wp.alpha)
    return t_rule, tuple(_line_rule(x, x, level) for _ in k)


def _fourier_direct(fam, m, k, wp, xi, level, column):
    """Direct numeric transform of h = h_t(t) prod_j g_axis(x_j): the 1-D
    transform of the t-factor times one 1-D transform per x axis.  The rules
    and the factor lines do not depend on xi and come from ``column``."""
    t_rule, x_rules = column(("rules", tail_sum(k, 1), level),
                             lambda: _fourier_rules(fam, k, wp, level))
    h_t = h_jacobi_t if fam == "FOURIER_J" else h_laguerre_t
    t = t_rule.nodes
    ht = column(("h", m, k, level), lambda: h_t(m, k, wp, t))
    val = (t_rule.weights * np.exp(-1j * xi[len(k)] * t) * ht).sum()
    for j, r in enumerate(x_rules, start=1):
        fx = column(("g", j, k, level), lambda: g_axis(j, wp.alpha, wp.mu, k, r.nodes))
        val = val * (r.weights * np.exp(-1j * xi[j - 1] * r.nodes) * fx).sum()
    return val, len(t_rule) + sum(len(r) for r in x_rules)


def _fourier(case):
    t0 = time.perf_counter()
    column = _memo.open(case)
    if case.identity_id == "FOURIER_J":
        wp = WrapParamsJacobi(**case.params)
        closed = fourier_h_jacobi_closed(case.m, case.k, wp, case.xi)
    else:
        wp = WrapParamsLaguerre(**case.params)
        closed = fourier_h_laguerre_closed(case.m, case.k, wp, case.xi)
    val, nodes = _certified(
        (0, 1),
        lambda level: _fourier_direct(case.identity_id, case.m, case.k, wp, case.xi, level, column),
        case.tolerance, abs(closed),
    )
    return _finish(case, val, closed, abs(closed), nodes, t0)


# ---------------------------------------------------------------------------
# Parseval

_PARSEVAL_LEVELS = (16, 24, 36)  # panels per (two-sided) axis, 1.5x refinement


def parseval_rhs(fam, m, k, sp):
    """The Parseval constant (diagonal value) in log space, d = len(k).  Its
    power of 2 carries -(d-1)(d-2)/2, which is 0 at d <= 2; without that
    term the value is 2^((d-1)(d-2)/2) times too large at every d >= 3."""
    d = len(k)
    n = tail_sum(k, 1)
    M = m - n
    absa, absz = sp.abs_alpha, sp.abs_zeta
    if fam == "PARSEVAL_A":
        abse = sp.abs_eta
        lg = (
            (d + 1) * math.log(math.pi)
            + (-2 * d * absa + 2 * d + 3 - (d - 1) * (d - 2) // 2) * math.log(2)
            + log_gamma(m + absz) + log_gamma(M + abse)
            + log_gamma(0.5 * n + sp.zeta1 + sp.eta1)
            + log_gamma(0.5 * n + sp.zeta2 + sp.eta2)
            - log_gamma(m + absz + abse - 1.0)
        )
        val = np.exp(lg).real * math.factorial(M) * ball_norm(k, sp.mu)
        val /= pochhammer(n + absz, M) ** 2 * (2 * m - n + absz + abse - 1)
    else:
        lg = (
            (d + 1) * math.log(2 * math.pi)
            + (-2 * d * absa - n - absz + d + 1 - (d - 1) * (d - 2) // 2) * math.log(2)
            + log_gamma(absz + m)
        )
        val = np.exp(lg).real * math.factorial(M) * ball_norm(k, sp.mu)
        val /= pochhammer(n + absz, M) ** 2
    for j in range(1, d + 1):
        K = tail_sum(k, j + 1)
        kj = k[j - 1]
        lgj = log_gamma(K + 2 * sp.alpha1 + 0.5 * (d - j)) + log_gamma(
            K + 2 * sp.alpha2 + 0.5 * (d - j)
        )
        val *= math.factorial(kj) ** 2 * np.exp(lgj).real
        val /= 2.0 ** (2 * K) * pochhammer(2 * K + 2 * absa + d - j - 1, kj) ** 2
    return float(val)


def _parseval_rule(panels):
    """The line rule used on each of the d + 1 axes of the Parseval integral."""
    T = 1.1 * math.log(100.0 / 1e-12) / math.pi
    return composite_legendre(-T, T, panels, 12)


def _parseval_lhs(fam, m, k, m2, k2, sp, panels, column):
    """The Parseval integral of F(it, ix) G(-it, -ix), F and G the A (with
    its Gamma weight in t) or B family: a t-factor times prod_j D_axis, so the
    integral is the weighted t-sum times one D-line sum per x axis.  The
    rule, the factor lines (side +1 for F, -1 for G) and the weight come from
    ``column``."""
    rule = column(("rule", panels), lambda: _parseval_rule(panels))
    s, w = rule.nodes, rule.weights
    if fam == "PARSEVAL_A":
        w = column(("w", panels), lambda: rule.weights * np.exp(
            log_gamma(sp.eta1 + 0.5j * s) + log_gamma(sp.eta2 - 0.5j * s)))
        f_t = A_t
    else:
        f_t = B_t
    f = column(("t", m, k, panels, 1), lambda: f_t(m, k, sp, 1j * s))
    g = column(("t", m2, k2, panels, -1), lambda: f_t(m2, k2, sp.swapped(), -1j * s))
    val = (w * f * g).sum()
    for j in range(1, len(k) + 1):
        f = column(("D", j, k, panels, 1), lambda: D_axis(j, sp.alpha1, sp.alpha2, k, 1j * s))
        g = column(("D", j, k2, panels, -1), lambda: D_axis(j, sp.alpha2, sp.alpha1, k2, -1j * s))
        val = val * (rule.weights * f * g).sum()
    return val, (len(k) + 1) * len(rule)


def _parseval(case):
    t0 = time.perf_counter()
    column = _memo.open(case)
    sp = SplitParams(**case.params)
    return _gram(
        case, t0, column, lambda mk: parseval_rhs(case.identity_id, *mk, sp),
        (case.m, case.k), (case.m2, case.k2), _PARSEVAL_LEVELS,
        lambda panels: _parseval_lhs(case.identity_id, case.m, case.k, case.m2, case.k2,
                                     sp, panels, column),
    )


# ---------------------------------------------------------------------------
# contiguous relations and form equivalences


def _complex_point(params, d):
    t = complex(params["t_re"], params["t_im"])
    x = [complex(params[f"x{j}_re"], params[f"x{j}_im"]) for j in range(1, d + 1)]
    return t, x


def _contiguous(case):
    t0 = time.perf_counter()
    p = case.params
    fam, roman = case.identity_id.rsplit("_", 1)
    idx = ROMAN.index(roman) + 1
    t, x = _complex_point(p, case.d)
    try:
        if fam == "CONTIG_A":
            sp = SplitParams(p["alpha1"], p["alpha2"], p["zeta1"], p["zeta2"],
                             p["eta1"], p["eta2"], check=False)
            lhs, rhs = a_relation_pair(idx, case.m, case.k, sp, t, x)
        else:
            sp = SplitParams(p["alpha1"], p["alpha2"], p["zeta1"], p["zeta2"], check=False)
            lhs, rhs = b_relation_pair(idx, case.m, case.k, sp, t, x)
    except PoleError as exc:
        return _skip(case, f"pole: {exc}", t0)
    scale = max(abs(lhs), abs(rhs))
    return _finish(case, lhs, rhs, scale if scale > 0 else 1.0, 0, t0)


def _form_equiv(case):
    t0 = time.perf_counter()
    p = case.params
    if case.identity_id == "FORM_EQUIV_PHI":
        j = int(p["axis"])
        lhs = phi_factor(j, p["alpha"], p["mu"], case.k, p["xi"])
        rhs = phi_factor_hahn(j, p["alpha"], p["mu"], case.k, p["xi"])
    elif case.identity_id == "FORM_EQUIV_D":
        t, x = _complex_point(p, case.d)
        lhs = eval_D(case.k, p["alpha1"], p["alpha2"], x)
        rhs = eval_D_hahn(case.k, p["alpha1"], p["alpha2"], x)
    else:
        sp = SplitParams(p["alpha1"], p["alpha2"], p["zeta1"], p["zeta2"], p["eta1"], p["eta2"])
        t, x = _complex_point(p, case.d)
        lhs = eval_A(case.m, case.k, sp, t, x)
        rhs = eval_A_hahn(case.m, case.k, sp, t, x)
    scale = max(abs(lhs), abs(rhs))
    return _finish(case, lhs, rhs, scale if scale > 0 else 1.0, 0, t0)


def run_case(case: IdentityCase) -> VerificationReport:
    fam = FAMILIES.get(case.identity_id)
    if fam is None:
        raise DomainError(f"unknown identity id {case.identity_id!r}")
    return fam.run(case)


# ---------------------------------------------------------------------------
# case generation: one generator per family kind, called as
# gen(identity_id, cfg, rng, tolerance) in registry order


def multi_indices(d, total_max):
    """All multi-indices of length d with |k| <= total_max, by |k|, then
    lexicographic."""
    return sorted((k for k in itertools.product(range(total_max + 1), repeat=d)
                   if sum(k) <= total_max), key=sum)


def degree_index_pairs(d, m_max):
    """(m, k) with |k| <= m <= m_max."""
    return [(m, k) for m in range(m_max + 1) for k in multi_indices(d, m)]


def _ort_1d_cases(fam, cfg, rng, tol):
    for _ in range(cfg.ort_param_draws):
        if fam == "ORT_GEGEN":
            params = {"mu": float(rng.uniform(0.3, 2.5))}
        elif fam == "ORT_JACOBI":
            params = {"alpha": float(rng.uniform(-0.6, 2.0)), "beta": float(rng.uniform(-0.6, 2.0))}
        else:
            params = {"alpha": float(rng.uniform(-0.6, 2.5))}
        for m, m2 in itertools.combinations_with_replacement(range(cfg.max_degree_1d + 1), 2):
            yield IdentityCase(fam, 1, tol, m=m, m2=m2, params=params)


def _ball_cases(fam, cfg, rng, tol):
    d = 2
    ks = multi_indices(d, cfg.max_degree_multi)
    for mu in (0.5, 1.5):
        for k, k2 in itertools.combinations_with_replacement(ks, 2):
            yield IdentityCase(fam, d, tol, k=k, k2=k2, params={"mu": mu})


def _para_cases(fam, cfg, rng, tol):
    for d in cfg.dims:
        params = {"beta": float(rng.uniform(-0.4, 1.2)), "mu": float(rng.uniform(0.3, 1.5))}
        if fam == "ORT_PARA_J":
            params["gamma"] = float(rng.uniform(-0.4, 1.2))
        pairs = degree_index_pairs(d, cfg.max_degree_multi)
        for (m, k), (m2, k2) in itertools.combinations_with_replacement(pairs, 2):
            yield IdentityCase(fam, d, tol, m=m, m2=m2, k=k, k2=k2, params=params)


def _fourier_cases(fam, cfg, rng, tol):
    for d in cfg.dims:
        params = {
            "alpha": float(rng.uniform(0.5, 1.2)),
            "zeta": float(rng.uniform(0.5, 1.2)),
            "beta": float(rng.uniform(-0.3, 0.8)),
            "mu": float(rng.uniform(0.3, 1.2)),
        }
        if fam == "FOURIER_J":
            params["eta"] = float(rng.uniform(0.5, 1.2))
            params["gamma"] = float(rng.uniform(-0.3, 0.8))
        pairs = [(m, k) for (m, k) in degree_index_pairs(d, cfg.fourier_max_degree)
                 if sum(k) <= 2]
        for (m, k) in pairs:
            for _ in range(cfg.fourier_xi_draws):
                xi = tuple(float(v) for v in rng.uniform(-2.0, 2.0, d + 1))
                yield IdentityCase(fam, d, tol, m=m, k=k, params=params, xi=xi)


def _parseval_cases(fam, cfg, rng, tol):
    params = _uniforms(rng, SPLIT_NAMES if fam == "PARSEVAL_A" else SPLIT_NAMES[:4], 0.4, 1.6)
    pairs = degree_index_pairs(1, cfg.parseval_max_degree)
    for (m, k), (m2, k2) in itertools.product(pairs, repeat=2):
        yield IdentityCase(fam, 1, tol, m=m, m2=m2, k=k, k2=k2, params=params)
    if 2 in cfg.dims:
        yield IdentityCase(fam, 2, tol, m=0, m2=0, k=(0, 0), k2=(0, 0), params=params)


def _uniforms(rng, names, low, high):
    """One uniform draw per name, in order, from one call: PCG64 gives the
    same values as one scalar call per name."""
    return dict(zip(names, rng.uniform(low, high, len(names)).tolist()))


def _draw_point(rng, d, params):
    names = ["t_re", "t_im"] + [f"x{j}_{part}" for j in range(1, d + 1) for part in ("re", "im")]
    params.update(_uniforms(rng, names, -1, 1))


def _draw_d_k(rng, dims):
    """A dimension from ``dims`` and a multi-index with entries in {0, 1, 2}."""
    d = dims[int(rng.integers(len(dims)))]
    return d, tuple(rng.integers(0, 3, d).tolist())


def _contig_cases(fam, cfg, rng, tol):
    names = SPLIT_NAMES if fam.startswith("CONTIG_A") else SPLIT_NAMES[:4]
    for _ in range(cfg.contig_draws):
        d, k = _draw_d_k(rng, cfg.dims)
        # m >= |k|+1 keeps the lower-degree terms well defined and the
        # two sides generically nonzero
        m = sum(k) + int(rng.integers(1, 3))
        params = _uniforms(rng, names, 0.3, 2.5)
        _draw_point(rng, d, params)
        yield IdentityCase(fam, d, tol, m=m, k=k, params=params)


def _form_equiv_cases(fam, cfg, rng, tol):
    for _ in range(cfg.form_draws):
        d, k = _draw_d_k(rng, cfg.dims)
        m = None
        if fam == "FORM_EQUIV_PHI":
            params = {"alpha": float(rng.uniform(0.2, 3.0)),
                      "mu": float(rng.uniform(0.2, 3.0)),
                      "xi": float(rng.uniform(-3.0, 3.0)),
                      "axis": float(rng.integers(1, d + 1))}
        else:
            params = _uniforms(rng, SPLIT_NAMES if fam == "FORM_EQUIV_A" else SPLIT_NAMES[:2],
                               0.2, 3.0)
            if fam == "FORM_EQUIV_A":
                m = sum(k) + int(rng.integers(0, 3))
            _draw_point(rng, d, params)
        yield IdentityCase(fam, d, tol, m=m, k=k, params=params)


def generate_cases(cfg) -> list[IdentityCase]:
    """Deterministic case list: registry family order, all draws from one
    seeded PCG64 generator."""
    rng = np.random.default_rng(cfg.seed)
    cases = []
    for fam in FAMILIES.values():
        if fam.id in cfg.families:
            cases.extend(fam.cases(fam.id, cfg, rng, cfg.tolerances.get(fam.id, fam.tolerance)))
    return cases


# ---------------------------------------------------------------------------
# the family registry: one entry per identity id, in case-list order


@dataclass(frozen=True)
class Family:
    """One identity family: its group, its default tolerance, the oracle
    that runs one of its cases, the generator that draws its cases, and a
    one-line description."""
    id: str
    group: str
    tolerance: float
    run: Callable[[IdentityCase], VerificationReport]
    cases: Callable  # (id, cfg, rng, tolerance) -> IdentityCases, drawing from rng
    description: str


FAMILIES = {fam.id: fam for fam in [
    Family("ORT_GEGEN", "ORT", 1e-10, _ort_1d, _ort_1d_cases,
           "1-D Gegenbauer Gram matrix vs norm formula"),
    Family("ORT_JACOBI", "ORT", 1e-10, _ort_1d, _ort_1d_cases,
           "1-D Jacobi Gram matrix vs norm formula"),
    Family("ORT_LAGUERRE", "ORT", 1e-10, _ort_1d, _ort_1d_cases,
           "1-D Laguerre Gram matrix vs norm formula"),
    Family("ORT_BALL", "ORT", 1e-8, _ort_ball, _ball_cases,
           "unit-ball basis Gram matrix vs product norm formula"),
    Family("ORT_PARA_J", "ORT", 1e-8, _ort_para, _para_cases,
           "height-1 paraboloid basis Gram matrix vs product norms"),
    Family("ORT_PARA_L", "ORT", 1e-8, _ort_para, _para_cases,
           "infinite-height paraboloid basis Gram matrix vs product norms"),
    Family("FOURIER_J", "FOURIER", 1e-6, _fourier, _fourier_cases,
           "closed-form height-1 Fourier transform vs direct quadrature"),
    Family("FOURIER_L", "FOURIER", 1e-6, _fourier, _fourier_cases,
           "closed-form infinite-height Fourier transform vs direct quadrature"),
    Family("PARSEVAL_A", "PARSEVAL", 1e-6, _parseval, _parseval_cases,
           "height-1 Parseval integral vs printed constant"),
    Family("PARSEVAL_B", "PARSEVAL", 1e-6, _parseval, _parseval_cases,
           "infinite-height Parseval integral vs printed constant"),
    *(Family(f"CONTIG_{side}_{r}", "CONTIG", 1e-10, _contiguous, _contig_cases,
             f"lifted contiguous relation ({r}) of the {height} family")
      for side, height in (("A", "height-1"), ("B", "infinite-height")) for r in ROMAN),
    Family("FORM_EQUIV_PHI", "FORM_EQUIV", 1e-10, _form_equiv, _form_equiv_cases,
           "per-axis transform factor: series form vs Hahn form"),
    Family("FORM_EQUIV_D", "FORM_EQUIV", 1e-10, _form_equiv, _form_equiv_cases,
           "Gamma-hypergeometric product: series form vs Hahn form"),
    Family("FORM_EQUIV_A", "FORM_EQUIV", 1e-10, _form_equiv, _form_equiv_cases,
           "height-1 Parseval family: series form vs Hahn form"),
]}
ALL_FAMILIES = list(FAMILIES)
FAMILY_GROUPS = {}
for _fam in FAMILIES.values():
    FAMILY_GROUPS.setdefault(_fam.group, []).append(_fam.id)
