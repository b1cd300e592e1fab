"""Contiguous-relation registries.

Four families of parameter-shift identities, each returning (lhs, rhs):

  * rec2_pair:  seven relations for 3F2(a, b, c; d, e; z);
  * rec1_pair:  seven relations for 2F1(a, b; c; z);
  * a_relation_pair:  the seven lifted relations of the height-1 Parseval
    family (degree and zeta/eta shifts);
  * b_relation_pair:  the seven lifted relations of the infinite-height
    family (degree, zeta and argument shifts).

The lifted relations read the dimension d as len(k).  They shift only the
degree, zeta/eta and t, so every term of one relation shares D_k(x; a1, a2):
it is evaluated once, and each term is its t-factor times it, the product
eval_A / eval_B form.  That eval_D validates the multi-index once per
relation, into the ``MultiIndex`` its axis factors take unchecked, and
checks len(x) = len(k).  Each term runs the t-factor's body
(``transforms._A_t`` / ``_B_t``) on its shifted parameters, summed in the
order of ``SplitParams.shifted`` and ``abs_zeta`` / ``abs_eta``, so a term
equals A_t / B_t of the shifted SplitParams bit for bit without building
one.  A term of degree below |k| raises DomainError, as A_t and B_t do.

Terms whose printed coefficient is exactly zero are never evaluated, so the
degenerate degree m = |k| works wherever the relation allows it.
"""

from __future__ import annotations

from .ball import tail_sum, validate_multi_index
from .classical import _check_degree
from .errors import DomainError
from .transforms import SplitParams, _A_t, _B_t, eval_D

N_RELATIONS = 7


def _t(coef, fn):
    return 0.0 if coef == 0 else coef * fn()


def _degree_above(mm, n):
    """M = mm - |k| of a term of degree mm, which must be at least |k| = n."""
    if mm < n:
        raise DomainError("requires |k| <= m")
    return mm - n


def rec2_pair(i, F, a, b, c, d, e, z):
    """Relation i (1-based) for F = 3F2 evaluated as F(a, b, c, d, e, z)."""
    if i == 1:
        return b * F(a, b + 1, c, d, e, z) - a * F(a + 1, b, c, d, e, z), \
            (b - a) * F(a, b, c, d, e, z)
    if i == 2:
        return d * F(a, b, c, d, e + 1, z) - e * F(a, b, c, d + 1, e, z), \
            (d - e) * F(a, b, c, d + 1, e + 1, z)
    if i == 3:
        return e * (d - a) * F(a, b, c, d + 1, e, z) - d * (e - a) * F(a, b, c, d, e + 1, z), \
            a * (d - e) * F(a + 1, b, c, d + 1, e + 1, z)
    if i == 4:
        return c * (a - b) * z * F(a + 1, b + 1, c + 1, d + 1, e + 1, z), \
            d * e * (F(a, b + 1, c, d, e, z) - F(a + 1, b, c, d, e, z))
    if i == 5:
        return a * (d - b) * F(a + 1, b, c, d + 1, e, z) - b * (d - a) * F(a, b + 1, c, d + 1, e, z), \
            d * (a - b) * F(a, b, c, d, e, z)
    if i == 6:
        return d * F(a, b, c, d, e, z) + (a - d) * F(a, b, c, d + 1, e, z), \
            a * F(a + 1, b, c, d + 1, e, z)
    if i == 7:
        return (a * b * z / (d * e)) * F(a + 1, b + 1, c + 1, d + 1, e + 1, z), \
            F(a, b, c + 1, d, e, z) - F(a, b, c, d, e, z)
    raise ValueError(f"rec2 relation index {i} not in 1..7")


def rec1_pair(i, F, a, b, c, z):
    """Relation i (1-based) for F = 2F1 evaluated as F(a, b, c, z)."""
    if i == 1:
        return (1 - z) * F(a, b, c, z), \
            F(a - 1, b, c, z) - (c - b) * z / c * F(a, b, c + 1, z)
    if i == 2:
        return (1 - z) * F(a, b, c, z), \
            F(a, b - 1, c, z) - (c - a) * z / c * F(a, b, c + 1, z)
    if i == 3:
        return (a - b) * F(a, b, c, z), \
            a * F(a + 1, b, c, z) - b * F(a, b + 1, c, z)
    if i == 4:
        return (a - c + 1) * F(a, b, c, z), \
            a * F(a + 1, b, c, z) - (c - 1) * F(a, b, c - 1, z)
    if i == 5:
        return (b - c + 1) * F(a, b, c, z), \
            b * F(a, b + 1, c, z) - (c - 1) * F(a, b, c - 1, z)
    if i == 6:
        return (2 * a - c + z * (b - a)) * F(a, b, c, z), \
            a * (1 - z) * F(a + 1, b, c, z) + (a - c) * F(a - 1, b, c, z)
    if i == 7:
        return ((c - b) * z - a) * F(a + 1, b, c + 1, z), \
            c * (z - 1) * F(a + 1, b, c, z) + (c - a) * F(a, b, c + 1, z)
    raise ValueError(f"rec1 relation index {i} not in 1..7")


# relations that evaluate the family at degree m-1 with a coefficient that
# does not vanish at m = |k|, so they require m >= |k| + 1
A_NEEDS_LOWER_DEGREE = frozenset({4})
B_NEEDS_LOWER_DEGREE = frozenset({7})


def a_relation_pair(i, m, k, sp: SplitParams, t, x):
    """Relation i (1-based) of the height-1 family at fixed (t, x)."""
    _check_degree(m)
    k = validate_multi_index(k)
    D = eval_D(k, sp.alpha1, sp.alpha2, x)
    n = tail_sum(k, 1)
    Z = sp.abs_zeta
    E = sp.abs_eta

    def A(mm, dz1=0, dz2=0, de1=0, de2=0, dt=0):
        z1, e1 = sp.zeta1 + dz1, sp.eta1 + de1
        return _A_t(_degree_above(mm, n), n, z1, z1 + (sp.zeta2 + dz2),
                    e1, e1 + (sp.eta2 + de2), t + dt) * D

    if i == 1:
        lhs = _t(m + Z + E - 1, lambda: A(m, de2=1)) + _t(m - n, lambda: A(m - 1, de2=1))
        rhs = _t(2 * m - n + Z + E - 1, lambda: A(m))
        return lhs, rhs
    if i == 2:
        lhs = _t(0.5 * n + sp.zeta2 - sp.eta1, lambda: A(m, dz2=1, de1=1, de2=-2)) \
            + _t(0.5 * n + sp.zeta1 + sp.eta1, lambda: A(m, dz2=1, de2=-1))
        rhs = _t(n + Z, lambda: A(m, de1=1, de2=-1))
        return lhs, rhs
    if i == 3:
        lhs = _t((m - n) * (0.5 * n + sp.zeta2 - sp.eta1), lambda: A(m - 1, dz2=1, de1=1, de2=-1)) \
            + _t((0.5 * n + sp.zeta1 + sp.eta1) * (m + Z), lambda: A(m, dz2=1, de2=-1))
        rhs = _t((n + Z) * (-0.5 * n + sp.zeta1 + sp.eta1 + m), lambda: A(m, de1=1, de2=-1))
        return lhs, rhs
    if i == 4:
        lhs = _t(n - 2 * m - Z - E + 1, lambda: A(m - 1, dz1=1, de2=1))
        rhs = (n + Z) * (0.5 * n + sp.zeta1 + sp.eta1) * (A(m, de2=1) - A(m - 1, de2=1))
        return lhs, rhs
    if i == 5:
        lhs = _t((m + Z + E - 1) * (m + Z), lambda: A(m, dz2=1))
        rhs = _t((-m + n) * (n - m - E + 1), lambda: A(m - 1, dz2=1)) \
            + _t((2 * m - n + Z + E - 1) * (n + Z), lambda: A(m))
        return lhs, rhs
    if i == 6:
        lhs = _t(m + Z, lambda: A(m, dz2=1, de2=-1)) + _t(-m + n, lambda: A(m - 1, dz2=1))
        rhs = _t(n + Z, lambda: A(m))
        return lhs, rhs
    if i == 7:
        lhs = A(m, dt=-2)
        rhs = (0.5 * n + sp.zeta1 - 0.5 * t) * A(m) \
            + _t((-m + n) * (m + Z + E - 1) / ((n + Z) * (0.5 * n + sp.zeta1 + sp.eta1)),
                 lambda: A(m - 1, dz1=1, de2=1))
        return lhs, rhs
    raise ValueError(f"A relation index {i} not in 1..7")


def b_relation_pair(i, m, k, sp: SplitParams, t, x):
    """Relation i (1-based) of the infinite-height family at fixed (t, x)."""
    _check_degree(m)
    k = validate_multi_index(k)
    D = eval_D(k, sp.alpha1, sp.alpha2, x)
    n = tail_sum(k, 1)
    Z = sp.abs_zeta

    def B(mm, dz1=0, dz2=0, dt=0):
        z1 = sp.zeta1 + dz1
        return _B_t(_degree_above(mm, n), n, z1, z1 + (sp.zeta2 + dz2), t + dt) * D

    if i == 1:
        lhs = (n + 2 * sp.zeta2 + 2 * t) * B(m, dz1=1, dt=1)
        rhs = (n + Z) * (B(m) + B(m + 1))
        return lhs, rhs
    if i == 2:
        lhs = 2 * (Z + m) * B(m, dz2=1) - (n + Z) * B(m)
        rhs = (n + Z) * (0.5 * n + sp.zeta1 - t - 1) * B(m, dt=1)
        return lhs, rhs
    if i == 3:
        lhs = _t(m - n, lambda: B(m - 1)) + B(m, dz1=1, dz2=-1)
        rhs = (m - 0.5 * n + sp.zeta1 - t) * B(m)
        return lhs, rhs
    if i == 4:
        lhs = (m + Z - 1) * B(m) + _t(-m + n, lambda: B(m - 1))
        rhs = (n + Z - 1) * B(m, dz2=-1)
        return lhs, rhs
    if i == 5:
        lhs = B(m, dz1=1, dz2=-1) + (0.5 * n + sp.zeta2 + t - 1) * B(m)
        rhs = (n + Z - 1) * B(m, dz2=-1)
        return lhs, rhs
    if i == 6:
        lhs = (sp.zeta1 - sp.zeta2 - 2 * t) * B(m) + (m + Z) * B(m + 1)
        rhs = _t(m - n, lambda: B(m - 1))
        return lhs, rhs
    if i == 7:
        lhs = (2 * sp.zeta2 + 2 * t + m) * B(m - 1, dz2=1) - (m + Z) * B(m, dz2=1)
        rhs = (n + Z) * B(m - 1)
        return lhs, rhs
    raise ValueError(f"B relation index {i} not in 1..7")
