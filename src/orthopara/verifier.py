"""Identity verification engine.

Turns every identity of the library into an executable case: orthogonality
Gram entries against norm formulas, closed-form Fourier transforms against
direct numeric transforms, the two Parseval constants, the 14 lifted
contiguous relations, and the Hahn-form equivalences.  ``run_case`` judges
the two sides a family's runner returns into a VerificationReport, with a
convergence certificate (two quadrature refinement levels in agreement)
behind every oracle side.
"""

from __future__ import annotations

import itertools
import math
import operator
import threading
import time
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .ball import ball_axis, ball_norm, ball_rules, tail_sum, validate_multi_index
from .classical import (
    gegenbauer, gegenbauer_norm, jacobi, jacobi_norm, laguerre, laguerre_norm,
)
from .contiguous import a_relation_pair, b_relation_pair
from .errors import DomainError, PoleError, QuadratureNonConvergence
from .gammafn import cexp, log_gamma, pochhammer
from .paraboloid import jacobi_paraboloid_norm, laguerre_paraboloid_norm, radial_factor, t_rule
from .quadrature import QuadratureRule, composite_legendre, gauss_jacobi, gauss_laguerre
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


class _Skip(Exception):
    """A case with no value to judge; the message is its skipped_reason."""


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
# per-draw Gram state: the cases of one parameter draw share their columns


class _Stack:
    """The columns of one rule size and axis that Gram entries have read as
    their right factor, in the order of first use: ``index`` maps each column
    index to its row of ``array``, whose capacity doubles as it fills."""

    def __init__(self, col):
        self.index = {}
        self.array = np.empty((8, len(col)), col.dtype)

    def append(self, i2, col):
        size = len(self.index)
        if size == len(self.array) or col.dtype != self.array.dtype:
            grown = np.empty((2 * len(self.array), col.size),
                             np.result_type(self.array, col))
            grown[:size] = self.array[:size]
            self.array = grown
        self.array[size] = col
        self.index[i2] = size

    def row(self, weighted):
        """The Gram entries of ``weighted`` with every stacked column, in
        stack order: the weighted column is the left factor, so each entry
        is (weighted * column).sum() to the last bit."""
        return (weighted * self.array[:len(self.index)]).sum(axis=1)


class _Draw:
    """The Gram state of one parameter draw (identity id, d and params).

    ``bind(case)``, called on the draw's first case, binds the draw's params
    into the family's rule builder ``rule_of(n)`` (the n-point level's
    rules, one per axis), basis ``basis(axis, i, nodes)`` (the factor of
    index i on an axis) and norm ``norm_of(i)``.  The draw caches, per key,
    each level's rules, each basis or factor column, beside it that column
    times its axis weights (the weighted column), and each norm.
    ``get(key, compute, *args)`` evaluates ``compute(*args)`` once per key;
    an array is cached as a read-only view, and a rule has read-only arrays
    already.

    A Gram entry on an axis is ``entry(n, axis, i, i2)``: the weighted
    column of i times the column of i2, summed, which is the product order
    of (w P_i P_i2).sum().  Per rule size and axis, the draw stacks each
    column i2 an entry has read, in the order of first use.  An entry whose
    column i2 is not stacked yet is computed alone, and i2 is stacked.  An
    entry whose column is stacked fills the row of i: the entries of i with
    every stacked column, one array kept per (n, axis, i) beside the stack's
    index, so the draw's later entries of i read it.  A row is filled again
    only when a column stacked after it is read.  Stacking and filling hold
    the draw's lock, a column is indexed only after it is written, and a row
    is stored whole, so a thread never reads a half-appended stack or a
    partial row.
    """

    def __init__(self, case, bind):
        self.identity_id, self.d, self.params = case.identity_id, case.d, dict(case.params)
        self.columns = {}
        self.stacks = {}
        self.rows = {}
        self.lock = threading.Lock()
        self.rule_of, self.basis, self.norm_of = bind(case) if bind else (None, None, None)

    def get(self, key, compute, *args):
        col = self.columns.get(key)
        if col is None:
            col = compute(*args)
            if isinstance(col, np.ndarray):
                col = col.view()
                col.flags.writeable = False
            self.columns[key] = col
        return col

    def rule(self, n):
        return self.get(("rule", n), self.rule_of, n)

    def norm(self, i):
        return self.get(("norm", i), self.norm_of, i)

    def column(self, n, axis, i):
        col = self.columns.get(("col", n, axis, i))
        if col is None:  # the rule is looked up on a miss only
            col = self.get(("col", n, axis, i), self.basis, axis, i, self.rule(n)[axis].nodes)
        return col

    def weighted(self, n, axis, i):
        col = self.columns.get(("wcol", n, axis, i))
        if col is None:
            col = self.get(("wcol", n, axis, i), operator.mul,
                           self.rule(n)[axis].weights, self.column(n, axis, i))
        return col

    def entry(self, n, axis, i, i2):
        row = self.rows.get((n, axis, i))
        if row is not None:
            index, values = row
            pos = index.get(i2)
            if pos is not None and pos < len(values):
                return values[pos]
        with self.lock:
            stack = self.stacks.get((n, axis))
            if stack is not None and i2 in stack.index:
                values = stack.row(self.weighted(n, axis, i))
                self.rows[n, axis, i] = stack.index, values
                return values[stack.index[i2]]
            weighted, col = self.weighted(n, axis, i), self.column(n, axis, i2)
            val = (weighted * col).sum()
            if stack is None:
                stack = self.stacks[n, axis] = _Stack(col)
            stack.append(i2, col)
            return val


class _DrawMemo:
    """The verifier's only cache of draw-dependent data: the ``_Draw`` of the
    current parameter draw.  The quadrature functions build a rule on each
    call, and a draw's cases fetch their rules here.

    ``open(case, bind)`` returns the current draw if ``case`` belongs to it,
    else a new draw bound by ``bind``, which replaces it.  A case belongs to
    a draw by value: equal identity id and d, and params equal to the draw's
    copy of them, so a case built by hand or by ``dataclasses.replace``, or
    with a params dict of its own, finds its draw as a generated one does.
    A runner keeps the draw it opened, so callers on other threads cannot
    mix draws.
    """

    def __init__(self):
        self.current = None

    def open(self, case, bind=None):
        draw = self.current
        if (draw is None or case.identity_id != draw.identity_id or case.d != draw.d
                or case.params != draw.params):
            draw = self.current = _Draw(case, bind)
        return draw


_memo = _DrawMemo()


def _gram(case, draw, i, i2, levels, entry):
    """The sides of a Gram case: the certified <i, i2> against the draw's
    norm of i, or 0 off the diagonal, at scale sqrt(norm(i) norm(i2)).
    ``entry(level)`` returns the value and nodes of a level, read from the
    draw's weighted columns of i and columns of i2."""
    diag, diag2 = draw.norm(i), draw.norm(i2)
    scale = math.sqrt(diag * diag2)
    val, nodes = _certified(levels, entry, case.tolerance, scale)
    return val, diag if i == i2 else 0.0, scale, nodes


# ---------------------------------------------------------------------------
# orthogonality


def _bind_1d(case):
    """A 1-D draw: one axis, the Gauss rule of the family's weight, its
    polynomials and their norms."""
    p = case.params
    if case.identity_id == "ORT_GEGEN":
        mu = p["mu"]
        return (lambda n: (gauss_jacobi(n, mu - 0.5, mu - 0.5),),
                lambda axis, mm, x: gegenbauer(mm, mu, x), lambda mm: gegenbauer_norm(mm, mu))
    if case.identity_id == "ORT_JACOBI":
        a, b = p["alpha"], p["beta"]
        return (lambda n: (gauss_jacobi(n, a, b),), lambda axis, mm, x: jacobi(mm, a, b, x),
                lambda mm: jacobi_norm(mm, a, b))
    a = p["alpha"]
    return (lambda n: (gauss_laguerre(n, a),), lambda axis, mm, x: laguerre(mm, a, x),
            lambda mm: laguerre_norm(mm, a))


def _ort_1d(case):
    """<P_m, P_m2>: the entry (w P_m P_m2).sum() on the draw's Gauss rule."""
    draw = _memo.open(case, _bind_1d)
    m, m2 = case.m, case.m2
    return _gram(case, draw, m, m2, _gram_levels(16, m + m2),
                 lambda n: (draw.entry(n, 0, m, m2), n))


def _bind_ball(case):
    """A ball draw: axis j - 1 carries ``ball_rules``' rule j and
    ``ball_axis`` factor j, j = 1 .. len(k)."""
    d, mu = len(case.k), case.params["mu"]
    return (lambda n: ball_rules(d, mu, n), lambda axis, kk, v: ball_axis(axis + 1, mu, kk, v),
            lambda kk: ball_norm(kk, mu))


def _ball_gram(draw, k, k2, n):
    """<P_k, P_k2> on the n-point ball rules: in the slice coordinates both
    are products of ``ball_axis`` factors, so it is one Gram sum per axis,
    on the draw's axes 0 .. len(k) - 1."""
    val = 1.0
    for axis in range(len(k)):
        val = val * draw.entry(n, axis, k, k2)
    return val


def _ort_ball(case):
    """<P_k, P_k2>: the product of the draw's per-axis entries."""
    draw = _memo.open(case, _bind_ball)
    k, k2 = case.k, case.k2
    levels = _gram_levels(12, tail_sum(k, 1) + tail_sum(k2, 1))
    return _gram(case, draw, k, k2, levels, lambda n: (_ball_gram(draw, k, k2, n), len(k) * n))


def _bind_para(case):
    """A paraboloid draw: the ball axes of ``_bind_ball``, then axis d = len(k)
    with the radial ``t_rule`` and the ``radial_factor`` of index (m, k)."""
    p = case.params
    d, mu, beta = len(case.k), p["mu"], p["beta"]
    if case.identity_id == "ORT_PARA_J":
        kind, gamma = "jacobi", p["gamma"]
        norm = lambda mk: jacobi_paraboloid_norm(*mk, beta, gamma, mu)
    else:
        kind, gamma = "laguerre", 0.0
        norm = lambda mk: laguerre_paraboloid_norm(*mk, beta, mu)

    def basis(axis, i, v):
        if axis < d:
            return ball_axis(axis + 1, mu, i, v)
        m, k = i
        return radial_factor(kind, m, tail_sum(k, 1), beta, gamma, mu, d, v)

    return lambda n: (*ball_rules(d, mu, n), t_rule(kind, n, beta, gamma, mu, d)), basis, norm


def _para_gram(draw, mk, mk2, n):
    """<basis(m, k), basis(m2, k2)> on the n-point radial and ball rules: a
    basis function is its ``radial_factor`` times t^{|k|/2} P_k(y) with
    x = sqrt(t) y, so it is one radial sum, weighted by t^{(|k|+|k2|)/2}
    (cached per rule and exponent), times the ball Gram entry of (k, k2)."""
    k, k2 = mk[1], mk2[1]
    d = len(k)
    e = (tail_sum(k, 1) + tail_sum(k2, 1)) / 2
    power = draw.get(("pow", n, e), operator.pow, draw.rule(n)[d].nodes, e)
    val = (draw.weighted(n, d, mk) * draw.column(n, d, mk2) * power).sum()
    return val * _ball_gram(draw, k, k2, n)


def _ort_para(case):
    """<basis(m, k), basis(m2, k2)>: the radial sum times the ball entries."""
    draw = _memo.open(case, _bind_para)
    mk, mk2 = (case.m, case.k), (case.m2, case.k2)
    return _gram(case, draw, mk, mk2, _gram_levels(12, case.m + case.m2),
                 lambda n: (_para_gram(draw, mk, mk2, n), (len(case.k) + 1) * n))


# ---------------------------------------------------------------------------
# Fourier closed forms vs direct transforms

_TRUNC_LOG = math.log(1e13)


def _line_rule(left, right, level):
    """The 12-point composite Gauss-Legendre rule on [-left, right]: about
    one panel per unit length (at least 6) at level 0, doubled per level."""
    panels = max(6, int(math.ceil(left + right))) * 2**level
    return composite_legendre(-left, right, panels, 12)


def _fourier_rules(fam, k, wp, level):
    """The t rule and the len(k) x rules, one shared rule, of the direct
    transform at ``level``: each side is cut where its exp(-rate |s|) decay
    falls below 1e-13 (15% margin), except the right side of the Laguerre
    t-factor, which decays like exp(-e^t / 2) and is cut at t = 4.8."""
    cut = lambda rate: 1.15 * _TRUNC_LOG / rate
    n = tail_sum(k, 1)
    if fam == "FOURIER_J":
        t_rule = _line_rule(cut(2 * (wp.zeta + 0.5 * n)), cut(2 * wp.eta), level)
    else:
        t_rule = _line_rule(cut(wp.zeta + 0.5 * n), 4.8, level)
    x = cut(2 * wp.alpha)
    return t_rule, (_line_rule(x, x, level),) * len(k)


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
    column = _memo.open(case).get
    k = validate_multi_index(case.k)
    if case.identity_id == "FOURIER_J":
        wp = WrapParamsJacobi(**case.params)
        closed = fourier_h_jacobi_closed(case.m, k, wp, case.xi)
    else:
        wp = WrapParamsLaguerre(**case.params)
        closed = fourier_h_laguerre_closed(case.m, k, wp, case.xi)
    val, nodes = _certified(
        (0, 1),
        lambda level: _fourier_direct(case.identity_id, case.m, k, wp, case.xi, level, column),
        case.tolerance, abs(closed),
    )
    return val, closed, abs(closed), nodes


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
        val = cexp(lg).real * math.factorial(M) * ball_norm(k, sp.mu)
        val /= pochhammer(n + absz, M) ** 2 * (2 * m - n + absz + abse - 1)
    else:
        lg = (
            (d + 1) * math.log(2 * math.pi)
            + (-2 * d * absa - n - absz + d + 1 - (d - 1) * (d - 2) // 2) * math.log(2)
            + log_gamma(absz + m)
        )
        val = cexp(lg).real * math.factorial(M) * ball_norm(k, sp.mu)
        val /= pochhammer(n + absz, M) ** 2
    for j in range(1, d + 1):
        K = tail_sum(k, j + 1)
        kj = k[j - 1]
        lgj = log_gamma(K + 2 * sp.alpha1 + 0.5 * (d - j)) + log_gamma(
            K + 2 * sp.alpha2 + 0.5 * (d - j)
        )
        val *= math.factorial(kj) ** 2 * cexp(lgj).real
        val /= 2.0 ** (2 * K) * pochhammer(2 * K + 2 * absa + d - j - 1, kj) ** 2
    return float(val)


def _parseval_rule(panels):
    """The line rule used on each of the d + 1 axes of the Parseval integral."""
    T = 1.1 * math.log(100.0 / 1e-12) / math.pi
    return composite_legendre(-T, T, panels, 12)


def _bind_parseval(case):
    """A Parseval draw: x axes 0 .. d - 1 and the t axis d = len(k) all carry
    ``_parseval_rule``, the t axis with the A family's Gamma weight.  F's
    factors have index (1, k) on an x axis (its ``D_axis`` line) and
    (1, m, k) on the t axis (its A_t or B_t line), G's (-1, ...); the norm of
    (m, k) is ``parseval_rhs``."""
    fam, d = case.identity_id, len(case.k)
    sp = SplitParams(**case.params)
    f_t = A_t if fam == "PARSEVAL_A" else B_t
    sides = {1: (sp, 1j), -1: (sp.swapped(), -1j)}  # F at (it, ix), G at (-it, -ix)

    def rules(panels):
        rule = _parseval_rule(panels)
        s = rule.nodes
        rule_t = rule if fam == "PARSEVAL_B" else QuadratureRule(s, rule.weights * np.exp(
            log_gamma(sp.eta1 + 0.5j * s) + log_gamma(sp.eta2 - 0.5j * s)))
        return (rule,) * d + (rule_t,)

    def basis(axis, i, s):
        p, unit = sides[i[0]]
        if axis < d:
            return D_axis(axis + 1, p.alpha1, p.alpha2, i[1], unit * s)
        return f_t(i[1], i[2], p, unit * s)

    return rules, basis, lambda mk: parseval_rhs(fam, *mk, sp)


def _parseval_lhs(draw, m, k, m2, k2, panels):
    """The Parseval integral of F(it, ix) G(-it, -ix), F and G the A (with
    its Gamma weight in t) or B family: a t-factor times prod_j D_axis, so the
    integral is the Gram sum of the t-lines times one Gram sum of the D-lines
    per x axis, F's lines weighted."""
    d = len(k)
    val = draw.entry(panels, d, (1, m, k), (-1, m2, k2))
    for axis in range(d):
        val = val * draw.entry(panels, axis, (1, k), (-1, k2))
    return val, (d + 1) * len(draw.rule(panels)[d])


def _parseval(case):
    """The Parseval integral of (m, k) and (m2, k2) against ``parseval_rhs``."""
    draw = _memo.open(case, _bind_parseval)
    mk, mk2 = (case.m, case.k), (case.m2, case.k2)
    return _gram(case, draw, mk, mk2, _PARSEVAL_LEVELS,
                 lambda panels: _parseval_lhs(draw, *mk, *mk2, panels))


# ---------------------------------------------------------------------------
# contiguous relations and form equivalences


def _complex_point(params, d):
    t = complex(params["t_re"], params["t_im"])
    x = [complex(params[f"x{j}_re"], params[f"x{j}_im"]) for j in range(1, d + 1)]
    return t, x


def _contiguous(case):
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
        raise _Skip(f"pole: {exc}") from exc
    return lhs, rhs, None, 0


def _form_equiv(case):
    p = case.params
    k = validate_multi_index(case.k)
    if case.identity_id == "FORM_EQUIV_PHI":
        j = int(p["axis"])
        lhs = phi_factor(j, p["alpha"], p["mu"], k, p["xi"])
        rhs = phi_factor_hahn(j, p["alpha"], p["mu"], k, p["xi"])
    elif case.identity_id == "FORM_EQUIV_D":
        t, x = _complex_point(p, case.d)
        lhs = eval_D(k, p["alpha1"], p["alpha2"], x)
        rhs = eval_D_hahn(k, p["alpha1"], p["alpha2"], x)
    else:
        sp = SplitParams(p["alpha1"], p["alpha2"], p["zeta1"], p["zeta2"], p["eta1"], p["eta2"])
        t, x = _complex_point(p, case.d)
        lhs = eval_A(case.m, k, sp, t, x)
        rhs = eval_A_hahn(case.m, k, sp, t, x)
    return lhs, rhs, None, 0


def run_case(case: IdentityCase) -> VerificationReport:
    """Run ``case``'s family runner and judge the two sides it returns: the
    residual is relative to the larger side, or to the runner's scale when
    rhs == 0.  A skip passes with zero residuals; other raises propagate."""
    fam = FAMILIES.get(case.identity_id)
    if fam is None:
        raise DomainError(f"unknown identity id {case.identity_id!r}")
    t0 = time.perf_counter()
    try:
        lhs, rhs, scale, nodes = fam.run(case)
    except _Skip as skip:
        return VerificationReport(
            case=case, lhs=0j, rhs=0j, abs_residual=0.0, rel_residual=0.0, passed=True,
            nodes=0, seconds=time.perf_counter() - t0, skipped_reason=str(skip))
    lhs, rhs = complex(lhs), complex(rhs)
    abs_res = abs(lhs - rhs)
    if rhs != 0 or scale is None:
        scale = max(abs(lhs), abs(rhs))
    rel = abs_res / scale if scale > 0 else abs_res
    return VerificationReport(
        case=case, lhs=lhs, rhs=rhs, abs_residual=abs_res, rel_residual=rel,
        passed=bool(rel <= case.tolerance), nodes=nodes, seconds=time.perf_counter() - t0)


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
    """One identity family: its group, its default tolerance, the runner
    that returns a case's sides (lhs, rhs, scale, nodes) for ``run_case`` to
    judge (a scale of None means the larger side), the generator that draws
    its cases, and a one-line description."""
    id: str
    group: str
    tolerance: float
    run: Callable[[IdentityCase], tuple[complex, complex, float | None, int]]
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
