"""Identity verification engine.

Turns every identity of the library into an executable case: orthogonality
Gram entries against norm formulas, closed-form Fourier transforms against
direct numeric transforms, the two Parseval constants, the 14 lifted
contiguous relations, and the Hahn-form equivalences.  ``run_case`` judges
the two sides a family's runner returns into a VerificationReport, with a
convergence certificate (two refinement levels in agreement, and a line's
tail past its cuts within it) behind every oracle side.

Most Gram cases read their entries from rows their draw already holds,
so such a case costs little more than its bookkeeping: its report is one
slotted record (``VerificationReport``), and a kept row holds Python
numbers, on which the level products, the certificate and the residual
run by the IEEE operations numpy scalars would use, bit for bit.
Per-case code calls no BLAS (``@``, ``np.dot``): a row is an elementwise
product and a row sum, a Fourier line sum an ``einsum`` (numpy's own loop)
and a row sum, and line sums by ``@`` raised the default sweep's median
case time by about 10% through OpenBLAS's threads.
"""

from __future__ import annotations

import functools
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
from .quadrature import QuadratureRule, gauss_jacobi, gauss_laguerre, trapezoid
from .transforms import (
    SPLIT_NAMES, A_t, B_t, D_axis, SplitParams, WrapParamsJacobi, WrapParamsLaguerre, eval_A,
    eval_A_hahn, eval_D, eval_D_hahn, fourier_h_jacobi_closed, fourier_h_laguerre_closed,
    g_axis, h_jacobi_t, h_laguerre_t, phi_factor, phi_factor_hahn,
)

ROMAN = ("i", "ii", "iii", "iv", "v", "vi", "vii")


@dataclass(slots=True)
class IdentityCase:
    """One identity to check, a plain slotted record: after generation only
    its draw is ever set, by ``share_draws``, and ``dataclasses.replace``
    never copies it, so a replaced case gets a fresh draw."""
    identity_id: str
    d: int
    tolerance: float
    m: int | None = None
    m2: int | None = None
    k: tuple | None = None
    k2: tuple | None = None
    params: dict = field(default_factory=dict)
    xi: tuple | None = None
    draw: _Draw | None = field(default=None, init=False, repr=False, compare=False)


@dataclass(slots=True)
class VerificationReport:
    """The verdict on one case: its sides, residuals, verdict, quadrature
    nodes and time, and a skip reason or an error when set.  A plain slotted
    record like ``IdentityCase``, built positionally by ``run_case``: a
    frozen ``__init__`` cost more than judging a case whose entries its draw
    already holds.  Never a tuple: perfbench's case log takes a tuple
    outcome for a raise.  Each field has its exact Python type (bool, float,
    complex, int), since ``cli._json_value`` dispatches on it."""
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

    ``integral(level)`` returns (value, tail past a line's cuts, nodes).
    Agreement within max(tol |value|, 0.1 tol scale), and a tail within it, is
    the certificate behind the verdict; returns the finer value and nodes used.
    """
    if len(levels) < 2:
        raise ValueError(f"_certified: a certificate needs at least two levels, got {levels!r}")
    prev = None
    nodes = 0
    for level in levels:
        val, tail, n = integral(level)
        nodes += n
        if prev is not None:
            delta = abs(val - prev)
            threshold = max(tol * abs(val), 0.1 * tol * scale)
            if delta <= threshold and tail <= threshold:
                return val, nodes
        prev = val
    raise QuadratureNonConvergence(f"refinement levels {levels} did not agree: last delta "
                                   f"{delta:.3e} or tail {tail:.3e} > threshold {threshold:.3e}")


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
    """The Gram state of one parameter draw: a run of consecutive cases with
    equal identity id, d and params (``share_draws``), or one case run
    without a draw.

    Its family's ``bind(run)`` binds the params of its run into the rule
    builder ``rule_of(n)`` (level n's rules, one per axis), basis
    ``basis(axis, i, nodes)`` (the factor of index i on an axis) and norm
    ``norm_of(i)``; a Fourier draw binds only line rules.  The draw caches,
    per key, each level's rules, each basis or factor column and beside it
    that column times its axis weights (the weighted column), each line
    entry's tail, and per index i its norm.  ``get(key, compute, *args)``
    evaluates ``compute(*args)`` once per key; an array is cached as a
    read-only view (a tail too), and a rule has read-only arrays already.
    ``release()`` drops the caches, which a later case of the draw computes
    again.

    A Gram entry on an axis is ``entry(n, axis, i, i2)``: the weighted
    column of i times the column of i2, summed, which is the product order
    of (w P_i P_i2).sum().  Per rule size and axis, the draw stacks each
    column i2 an entry has read, in the order of first use.  An entry whose
    column i2 is not stacked yet is computed alone, and i2 is stacked.  An
    entry whose column is stacked fills the row of i: the entries of i with
    every stacked column, kept per (n, axis, i) as a list of Python numbers
    (``tolist``, exact) beside the stack's index, so the draw's later
    entries of i read it, and the runner multiplies and compares Python
    numbers, not numpy scalars.  An entry computed alone is a Python number
    too.  A row is filled again only when a column stacked after it is
    read.  Threads may share a case list and so a draw: stacking and filling
    hold the draw's lock, a column is indexed only after it is written, and
    a row is stored whole, so a thread never reads a half-appended stack or
    a partial row.
    """

    def __init__(self, rule_of=None, basis=None, norm_of=None):
        self.rule_of, self.basis, self.norm_of = rule_of, basis, norm_of
        self.lock = threading.Lock()
        self.release()

    def release(self):
        self.columns, self.stacks, self.rows, self.norms = {}, {}, {}, {}

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
        val = self.norms.get(i)
        if val is None:
            val = self.norms[i] = self.norm_of(i)
        return val

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
                values = stack.row(self.weighted(n, axis, i)).tolist()
                self.rows[n, axis, i] = stack.index, values
                return values[stack.index[i2]]
            weighted, col = self.weighted(n, axis, i), self.column(n, axis, i2)
            val = (weighted * col).sum().item()
            if stack is None:
                stack = self.stacks[n, axis] = _Stack(col)
            stack.append(i2, col)
            return val


def _gram_level(draw, terms, n):
    """The product of the draw's entries ((axis, i, i2), ...) on the n-point
    level, in that order from the first entry (a one-entry level is its
    entry), its tail, 0 on a Gauss rule, and its nodes (n per entry)."""
    val = None
    for axis, i, i2 in terms:
        entry = draw.entry(n, axis, i, i2)
        val = entry if val is None else val * entry
    return val, 0.0, n * len(terms)


def _gram(terms, integral=functools.partial(functools.partial, _gram_level)):
    """The runner of a Gram family whose ``terms(case)`` is (levels, i, i2,
    entries): ``integral(draw, entries)`` certified against the draw's norm of
    i, or 0 off the diagonal, at scale sqrt(norm(i) norm(i2))."""
    def run(case):
        draw = case.draw
        levels, i, i2, entries = terms(case)
        diag, diag2 = draw.norm(i), draw.norm(i2)
        scale = math.sqrt(diag * diag2)
        val, nodes = _certified(levels, integral(draw, entries), case.tolerance, scale)
        return val, diag if i == i2 else 0.0, scale, nodes
    return run


# ---------------------------------------------------------------------------
# orthogonality


def _bind_1d(run):
    """A 1-D draw: one axis, the Gauss rule of the family's weight, its
    polynomials and their norms."""
    p = run[0].params
    if run[0].identity_id == "ORT_GEGEN":
        mu = p["mu"]
        return (lambda n: (gauss_jacobi(n, mu - 0.5, mu - 0.5),),
                lambda axis, mm, x: gegenbauer(mm, mu, x), lambda mm: gegenbauer_norm(mm, mu))
    if run[0].identity_id == "ORT_JACOBI":
        a, b = p["alpha"], p["beta"]
        return (lambda n: (gauss_jacobi(n, a, b),), lambda axis, mm, x: jacobi(mm, a, b, x),
                lambda mm: jacobi_norm(mm, a, b))
    a = p["alpha"]
    return (lambda n: (gauss_laguerre(n, a),), lambda axis, mm, x: laguerre(mm, a, x),
            lambda mm: laguerre_norm(mm, a))


def _terms_1d(case):
    """<P_m, P_m2>: the entry (w P_m P_m2).sum() on the draw's Gauss rule."""
    m, m2 = case.m, case.m2
    return _gram_levels(16, m + m2), m, m2, ((0, m, m2),)


def _bind_ball(run):
    """A ball draw: axis j - 1 carries ``ball_rules``' rule j and
    ``ball_axis`` factor j, j = 1 .. len(k)."""
    d, mu = len(run[0].k), run[0].params["mu"]
    return (lambda n: ball_rules(d, mu, n), lambda axis, kk, v: ball_axis(axis + 1, mu, kk, v),
            lambda kk: ball_norm(kk, mu))


def _terms_ball(case):
    """<P_k, P_k2>: in the slice coordinates both are products of
    ``ball_axis`` factors, so it is one entry per axis 0 .. len(k) - 1."""
    k, k2 = case.k, case.k2
    levels = _gram_levels(12, tail_sum(k, 1) + tail_sum(k2, 1))
    return levels, k, k2, tuple((axis, k, k2) for axis in range(len(k)))


def _bind_para(run):
    """A paraboloid draw: the ball axes of ``_bind_ball``, then axis d = len(k)
    with the radial ``t_rule`` and the t-factor of index (m, k): with
    x = sqrt(t) y a basis function is its ``radial_factor`` times t^{|k|/2}
    times the ball factors of y."""
    p = run[0].params
    d, mu, beta = len(run[0].k), p["mu"], p["beta"]
    if run[0].identity_id == "ORT_PARA_J":
        kind, gamma = "jacobi", p["gamma"]
        norm = lambda mk: jacobi_paraboloid_norm(*mk, beta, gamma, mu)
    else:
        kind, gamma = "laguerre", 0.0
        norm = lambda mk: laguerre_paraboloid_norm(*mk, beta, mu)

    def basis(axis, i, v):
        if axis < d:
            return ball_axis(axis + 1, mu, i, v)
        m, k = i
        n = tail_sum(k, 1)
        return radial_factor(kind, m, n, beta, gamma, mu, d, v) * v ** (0.5 * n)

    return lambda n: (*ball_rules(d, mu, n), t_rule(kind, n, beta, gamma, mu, d)), basis, norm


def _terms_para(case):
    """<basis(m, k), basis(m2, k2)>: the ball entries, then the radial one."""
    k, k2 = case.k, case.k2
    mk, mk2 = (case.m, k), (case.m2, k2)
    levels = _gram_levels(12, case.m + case.m2)
    return levels, mk, mk2, (*((axis, k, k2) for axis in range(len(k))), (len(k), mk, mk2))


# ---------------------------------------------------------------------------
# line rules (Fourier and Parseval); Fourier closed forms vs direct transforms

_PANEL = 12  # nodes per panel of a line rule
_LOG_TOL = math.log(1e14)
"""Each line aims at 1e-14: on an integrand analytic in |Im| < w and at most
e^g times its integral there, a trapezoid step h errs by about
e^{g - 2 pi w / h} (Trefethen-Weideman, SIAM Review 56, 2014, Thm 5.1)."""

_FOURIER_WIDTH = math.pi / 8
"""w of a Fourier line, a quarter of the way to tanh's poles at +-i pi/2:
tanh maps |Im| < pi/8 into the Bernstein ellipse of [-1, 1] through
i tan(pi/8), where a polynomial in tanh of degree M grows by rho^M."""
_LOG_RHO = math.log(math.tan(_FOURIER_WIDTH) + 1 / math.cos(_FOURIER_WIDTH))  # ln rho


def _line_size(sides, width, growth):
    """The sizer: a line's cuts, each the first T = 1.1^j >= 1 at which its side's
    log bound ``side(T)`` is below -ln 1e14, and its step for an integrand
    analytic in |Im| < ``width`` and at most e^growth times its integral there."""
    cuts = [next(1.1 ** j for j in range(218) if j == 217 or side(1.1 ** j) <= -_LOG_TOL)
            for side in sides]  # 1.1^217 = 1e9: past it the rule is oversized
    return cuts, 2 * math.pi * width / (_LOG_TOL + growth)


def _line(sides, width, growth, shift):
    """The sized line's trapezoid rule from the left cut, on a multiple of 12
    nodes, moved by ``shift`` half steps (shifts 0 and 1 make the rule of half
    the step); past a cut T a side decays by the length 0.1 T over its bound's
    fall to 1.1 T, at most T."""
    (left, right), h = _line_size(sides, width, growth)
    lengths = [0.1 * T / max(side(T) - side(1.1 * T), 0.1) for side, T in zip(sides, (left, right))]
    n = _PANEL * math.ceil(((left + right) / h + 1) / _PANEL)
    return trapezoid(0.5 * shift * h - left, h, n, lengths)


def _tail(rule, line):
    """The integral past its rule's cuts of a weighted line (..., nodes)."""
    return rule.tails[0] * abs(line[..., 0]) + rule.tails[1] * abs(line[..., -1])


def _line_product(shifts, nodes, level):
    """The value, first-order tail and nodes of a product of lines at ``level``
    (shift 0, or shifts 0 and 1) from each shift's (value, tail) per line."""
    lines = shifts[0] if level == 0 else [((v + w) / 2, (t + u) / 2)
                                          for (v, t), (w, u) in zip(*shifts)]
    return math.prod(v for v, _ in lines), sum(
        t * math.prod(abs(v) for v, _ in lines[:j] + lines[j + 1:])
        for j, (_, t) in enumerate(lines)), nodes * (level + 1)


def _panel_phases(rule):
    """-i c_p for the P panels, then -i o_q for the 12 offsets, of a line rule
    of equal panels: node (p, q) is c_p + o_q to rounding, c_p its panel's first."""
    t = rule.nodes.reshape(-1, _PANEL)
    return -1j * np.concatenate((t[:, 0], t[0] - t[0, 0]))


def _weighted_lines(rule, factor, *args):
    """``factor(*args, nodes)`` times the weight h of a trapezoid rule, at its
    nodes and at their midpoints (shift 1), as a (2, P, 12) panel view."""
    h = rule.weights[0]
    return (h * factor(*args, np.append(rule.nodes, rule.nodes + 0.5 * h))).reshape(2, -1, _PANEL)


def _line_sums(phases, lines, xi):
    """The sums sum_t w f e^{-i xi t} of weighted lines ``lines`` (..., P, 12)
    on one rule of ``_panel_phases`` ``phases``, as
    sum_p e^{-i xi c_p} sum_q (w f)_pq e^{-i xi o_q}: P + 12 exps per line
    instead of 12 P.  ``xi`` is a number, or a column (d, 1) of one xi per
    line of a stack (..., d, P, 12).  ``einsum`` (numpy's own loop, no BLAS)
    sums each panel's 12 products, and a pairwise ``sum`` the P panels."""
    panels = lines.shape[-2]
    phase = np.exp(xi * phases)
    inner = np.einsum("...pq,...q->...p", lines, phase[..., panels:])
    return (inner * phase[..., :panels]).sum(axis=-1)


def _fourier_direct(fam, m, k, wp, xi, draw):
    """Direct numeric transform of h = h_t(t) prod_j g_axis(x_j): the 1-D
    transform of the t-factor and one per x axis, each a ``_line_sums`` on the
    draw's rule (shift 0) and its midpoints (shift 1: its panels moved by
    h / 2).  What does not depend on xi comes from the draw's ``get(key,
    compute, *args)``, keyed by what it depends on in a draw of fixed d and
    params: the t rule and its phases by |k|, the x rule and its phases once,
    the weighted t lines by (m, |k|), the x lines of axis j by
    (j, k_j, |k^{j+1}|), and a case's stack of d x lines by k.  Returns each
    shift's (value, tail) per line as a level function (``_line_product``)."""
    n, d, get = tail_sum(k, 1), len(k), draw.get
    t_rule, x_rule = get(("t", n), draw.rule_of, n), get(("x",), draw.rule_of, None)
    h_t = h_jacobi_t if fam == "FOURIER_J" else h_laguerre_t
    ht = get(("h", m, n), _weighted_lines, t_rule, h_t, m, k, wp)
    gx = get(("gs", k), lambda: np.stack([
        get(("g", j, k[j - 1], tail_sum(k, j + 1)), _weighted_lines,
            x_rule, g_axis, j, wp.alpha, wp.mu, k) for j in range(1, d + 1)], axis=1))
    xs = np.array(xi[:d])
    t = _line_sums(get(("tp", n), _panel_phases, t_rule), ht, xi[d]) * np.exp(
        [0, -0.5j * xi[d] * t_rule.weights[0]])
    x = _line_sums(get(("xp",), _panel_phases, x_rule), gx, xs[:, None]) * np.exp(
        np.outer([0, -0.5j], xs * x_rule.weights[0]))
    tt, tx = _tail(t_rule, ht.reshape(2, -1)).tolist(), _tail(x_rule, gx.reshape(2, d, -1))
    return functools.partial(_line_product, [[(v, u), *zip(vx, ux)] for v, u, vx, ux in zip(
        t.tolist(), tt, x.tolist(), tx.tolist())], len(t_rule) + d * len(x_rule))


def _bind_fourier(run):
    """A Fourier draw binds ``rule_of(n)``, the t line's rule of |k| = n or the x
    lines' (n None), sized by the run's largest M = m - |k| and K = max k: each
    side's decay times e^{6 + deg ln 4} is cut at 1e-14, its step absorbs e^{6 + deg ln rho}."""
    fam, p = run[0].identity_id, run[0].params
    M, K = max(c.m - sum(c.k) for c in run), max(max(c.k) for c in run)
    decay = lambda rate, deg: lambda T: 6 + deg * math.log(4) - rate * T

    def rule_of(n):
        z = p["zeta"] + 0.5 * (n or 0)
        sides = ((decay(2 * p["alpha"], K),) * 2 if n is None else  # every g_axis
                 (decay(2 * z, M), decay(2 * p["eta"], M)) if fam == "FOURIER_J" else
                 (decay(z, M), lambda T: 6 + (z + M + 1) * T - 0.5 * math.exp(T)))
        return _line(sides, _FOURIER_WIDTH, 6 + (K if n is None else M) * _LOG_RHO, 0)
    return (rule_of,)


def _fourier(case):
    k, jacobi_h = validate_multi_index(case.k), case.identity_id == "FOURIER_J"
    wp = (WrapParamsJacobi if jacobi_h else WrapParamsLaguerre)(**case.params)
    closed = (fourier_h_jacobi_closed if jacobi_h else fourier_h_laguerre_closed)(
        case.m, k, wp, case.xi)
    val, nodes = _certified((0, 1), _fourier_direct(case.identity_id, case.m, k, wp, case.xi,
                                                    case.draw), case.tolerance, abs(closed))
    return val, closed, abs(closed), nodes


# ---------------------------------------------------------------------------
# Parseval

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


def _bind_parseval(run):
    """A Parseval draw: every axis carries one line rule (the t axis d = len(k)
    with the A family's Gamma weight) for e^{-pi |s|} (four Gammas) times a
    polynomial of degree <= D + 2, D the run's largest m + m2, analytic up to
    the nearest Gamma pole.  F's factors have index (1, k) on an x axis
    (``D_axis``) and (1, m, k) on the t axis (A_t or B_t), G's (-1, ...)."""
    fam, d = run[0].identity_id, len(run[0].k)
    sp = SplitParams(**run[0].params)
    f_t = A_t if fam == "PARSEVAL_A" else B_t
    sides = {1: (sp, 1j), -1: (sp.swapped(), -1j)}  # F at (it, ix), G at (-it, -ix)
    D = max(c.m + c.m2 for c in run)
    bound = lambda T: 2 + (D + 2) * math.log1p(T) - math.pi * T
    width = min(2 * sp.alpha1, 2 * sp.alpha2, *((2 * sp.zeta1, 2 * sp.zeta2, 2 * sp.eta1,
                2 * sp.eta2) if fam == "PARSEVAL_A" else (sp.zeta1, sp.zeta2)))  # Gamma poles

    def rules(shift):
        rule = _line((bound, bound), width, 4, shift)
        s = rule.nodes
        rule_t = rule if fam == "PARSEVAL_B" else QuadratureRule(s, rule.weights * np.exp(
            log_gamma(sp.eta1 + 0.5j * s) + log_gamma(sp.eta2 - 0.5j * s)), rule.tails)
        return (rule,) * d + (rule_t,)

    def basis(axis, i, s):
        p, unit = sides[i[0]]
        if axis < d:
            return D_axis(axis + 1, p.alpha1, p.alpha2, i[1], unit * s)
        return f_t(i[1], i[2], p, unit * s)

    return rules, basis, lambda mk: parseval_rhs(fam, *mk, sp)


def _line_level(draw, terms):
    """The levels (``_line_product``) of a line draw's entries ``terms``."""
    def tail(s, a, i, i2):  # kept by the draw, as a read-only 0-d array
        return np.asarray(_tail(draw.rule(s)[a], draw.weighted(s, a, i) * draw.column(s, a, i2)))
    shifts = [[(draw.entry(s, *e), float(draw.get(("tail", s, *e), tail, s, *e))) for e in terms]
              for s in (0, 1)]
    return functools.partial(_line_product, shifts, len(draw.rule(0)[0]) * len(terms))


def _terms_parseval(case):
    """The Parseval integral of F(it, ix) G(-it, -ix), F of (m, k) and G of
    (m2, k2) in the A (Gamma weight in t) or B family: a t-factor times
    prod_j D_axis, so the entry of the t-lines, then one per x axis."""
    m, m2, k, k2 = case.m, case.m2, case.k, case.k2
    return (0, 1), (m, k), (m2, k2), (
        (len(k), (1, m, k), (-1, m2, k2)), *((axis, (1, k), (-1, k2)) for axis in range(len(k))))


# ---------------------------------------------------------------------------
# contiguous relations and form equivalences


@functools.cache
def _point_names(d):
    """The params names of the real and imaginary parts of x_1 .. x_d."""
    return tuple((f"x{j}_re", f"x{j}_im") for j in range(1, d + 1))


def _complex_point(params, d):
    t = complex(params["t_re"], params["t_im"])
    x = [complex(params[re], params[im]) for re, im in _point_names(d)]
    return t, x


def _contiguous(side, idx):
    """The runner of lifted contiguous relation ``idx`` (1 .. 7) of the A
    (height-1) or B (infinite-height) family: its two sides at the case's
    complex point, or a skip at a Gamma pole."""
    def run(case):
        p = case.params
        t, x = _complex_point(p, case.d)
        try:
            if side == "A":
                sp = SplitParams(p["alpha1"], p["alpha2"], p["zeta1"], p["zeta2"],
                                 p["eta1"], p["eta2"], check=False)
                lhs, rhs = a_relation_pair(idx, case.m, case.k, sp, t, x)
            else:
                sp = SplitParams(p["alpha1"], p["alpha2"], p["zeta1"], p["zeta2"], check=False)
                lhs, rhs = b_relation_pair(idx, case.m, case.k, sp, t, x)
        except PoleError as exc:
            raise _Skip(f"pole: {exc}") from exc
        return lhs, rhs, None, 0
    return run


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
    rhs == 0.  A skip passes with zero residuals; other raises propagate.  A
    case of a family with draws that carries none gets a draw of its own."""
    fam = FAMILIES.get(case.identity_id)
    if fam is None:
        raise DomainError(f"unknown identity id {case.identity_id!r}")
    t0 = time.perf_counter()
    if case.draw is None and fam.bind is not None:
        share_draws((case,))
    try:
        lhs, rhs, scale, nodes = fam.run(case)
    except _Skip as skip:
        return VerificationReport(case, 0j, 0j, 0.0, 0.0, True, 0,
                                  time.perf_counter() - t0, str(skip))
    lhs, rhs = complex(lhs), complex(rhs)
    abs_res = abs(lhs - rhs)
    if rhs != 0 or scale is None:
        scale = max(abs(lhs), abs(rhs))
    rel = abs_res / scale if scale > 0 else abs_res
    return VerificationReport(case, lhs, rhs, abs_res, rel, bool(rel <= case.tolerance), nodes,
                              time.perf_counter() - t0)


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
        params = {"mu": mu}
        for k, k2 in itertools.combinations_with_replacement(ks, 2):
            yield IdentityCase(fam, d, tol, k=k, k2=k2, params=params)


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
    params.update(_uniforms(rng, ["t_re", "t_im", *itertools.chain(*_point_names(d))], -1, 1))


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


def share_draws(cases):
    """Give one ``_Draw`` to each run of consecutive cases of ``cases`` with
    equal identity id, d and params whose family has draws, so the run's
    Gram entries share their rules and columns.  Any case list run with
    ``run_case`` may be grouped so; ``generate_cases`` groups its own."""
    runs = itertools.groupby(cases, lambda c: (c.identity_id, c.d, c.params))
    for (identity_id, _, _), run in runs:
        fam = FAMILIES.get(identity_id)
        if fam is not None and fam.bind is not None:
            run = list(run)
            draw = _Draw(*fam.bind(run))
            for case in run:
                case.draw = draw
    return cases


def generate_cases(cfg) -> list[IdentityCase]:
    """Deterministic case list: registry family order, all draws from one
    seeded PCG64 generator.  The cases of a family with draws carry them
    (``share_draws``)."""
    rng = np.random.default_rng(cfg.seed)
    cases = []
    for fam in FAMILIES.values():
        if fam.id in cfg.families:
            cases.extend(fam.cases(fam.id, cfg, rng, cfg.tolerances.get(fam.id, fam.tolerance)))
    return share_draws(cases)


# ---------------------------------------------------------------------------
# the family registry: one entry per identity id, in case-list order


@dataclass(frozen=True)
class Family:
    """One identity family: its group, its default tolerance, the runner
    that returns a case's sides (lhs, rhs, scale, nodes) for ``run_case`` to
    judge (a scale of None means the larger side), the generator that draws
    its cases, a one-line description, and the binder of its draws' ``_Draw``
    arguments (None: its cases share nothing and carry no draw)."""
    id: str
    group: str
    tolerance: float
    run: Callable[[IdentityCase], tuple[complex, complex, float | None, int]]
    cases: Callable  # (id, cfg, rng, tolerance) -> IdentityCases, drawing from rng
    description: str
    bind: Callable[[IdentityCase], tuple] | None = None


FAMILIES = {fam.id: fam for fam in [
    Family("ORT_GEGEN", "ORT", 1e-10, _gram(_terms_1d), _ort_1d_cases,
           "1-D Gegenbauer Gram matrix vs norm formula", _bind_1d),
    Family("ORT_JACOBI", "ORT", 1e-10, _gram(_terms_1d), _ort_1d_cases,
           "1-D Jacobi Gram matrix vs norm formula", _bind_1d),
    Family("ORT_LAGUERRE", "ORT", 1e-10, _gram(_terms_1d), _ort_1d_cases,
           "1-D Laguerre Gram matrix vs norm formula", _bind_1d),
    Family("ORT_BALL", "ORT", 1e-8, _gram(_terms_ball), _ball_cases,
           "unit-ball basis Gram matrix vs product norm formula", _bind_ball),
    Family("ORT_PARA_J", "ORT", 1e-8, _gram(_terms_para), _para_cases,
           "height-1 paraboloid basis Gram matrix vs product norms", _bind_para),
    Family("ORT_PARA_L", "ORT", 1e-8, _gram(_terms_para), _para_cases,
           "infinite-height paraboloid basis Gram matrix vs product norms", _bind_para),
    Family("FOURIER_J", "FOURIER", 1e-6, _fourier, _fourier_cases,
           "closed-form height-1 Fourier transform vs direct quadrature", _bind_fourier),
    Family("FOURIER_L", "FOURIER", 1e-6, _fourier, _fourier_cases,
           "closed-form infinite-height Fourier transform vs direct quadrature", _bind_fourier),
    Family("PARSEVAL_A", "PARSEVAL", 1e-6, _gram(_terms_parseval, _line_level), _parseval_cases,
           "height-1 Parseval integral vs printed constant", _bind_parseval),
    Family("PARSEVAL_B", "PARSEVAL", 1e-6, _gram(_terms_parseval, _line_level), _parseval_cases,
           "infinite-height Parseval integral vs printed constant", _bind_parseval),
    *(Family(f"CONTIG_{side}_{r}", "CONTIG", 1e-10, _contiguous(side, idx), _contig_cases,
             f"lifted contiguous relation ({r}) of the {height} family")
      for side, height in (("A", "height-1"), ("B", "infinite-height"))
      for idx, r in enumerate(ROMAN, 1)),
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
