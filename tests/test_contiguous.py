import numpy as np
import pytest

from orthopara import contiguous
from orthopara.contiguous import (
    A_NEEDS_LOWER_DEGREE, B_NEEDS_LOWER_DEGREE, N_RELATIONS, a_relation_pair,
    b_relation_pair, rec1_pair, rec2_pair,
)
from orthopara.errors import DomainError
from orthopara.hyper import hyp_terminating
from orthopara.transforms import SplitParams, eval_A, eval_B, eval_D
from references import hyp_nonterminating


def F32(a, b, c, d, e, z):
    return hyp_terminating([a, b, c], [d, e], z)


def F21(a, b, c, z):
    return hyp_terminating([a, b], [c], z)


def F21n(a, b, c, z):
    return hyp_nonterminating([a, b], [c], z)


def _rel(lhs, rhs):
    return abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-30)


def test_rec2_at_unit_argument():
    rng = np.random.default_rng(17)
    worst = 0.0
    for _ in range(500):
        N = int(rng.integers(1, 6))
        b, c, d, e = (complex(rng.uniform(0.3, 2.5), rng.uniform(-0.5, 0.5)) for _ in range(4))
        for i in range(1, N_RELATIONS + 1):
            lhs, rhs = rec2_pair(i, F32, -float(N), b, c, d, e, 1.0)
            worst = max(worst, _rel(lhs, rhs))
    assert worst <= 1e-10


def test_rec1_terminating_at_2():
    rng = np.random.default_rng(18)
    worst = 0.0
    for _ in range(500):
        N = int(rng.integers(2, 6))
        b = complex(rng.uniform(0.3, 2.5), rng.uniform(-0.5, 0.5))
        c = rng.uniform(0.3, 2.5)
        for i in range(1, N_RELATIONS + 1):
            lhs, rhs = rec1_pair(i, F21, -float(N), b, c, 2.0)
            worst = max(worst, _rel(lhs, rhs))
    assert worst <= 1e-10


def test_rec1_nonterminating_inside_disk():
    rng = np.random.default_rng(19)
    worst = 0.0
    for _ in range(500):
        a, b, c = rng.uniform(0.3, 2.5, 3)
        z = rng.uniform(-0.8, 0.8)
        for i in range(1, N_RELATIONS + 1):
            lhs, rhs = rec1_pair(i, F21n, a, b, c, z)
            worst = max(worst, _rel(lhs, rhs))
    assert worst <= 1e-10


def _draw_case(rng, with_eta):
    d = int(rng.integers(1, 3))
    k = tuple(int(v) for v in rng.integers(0, 3, d))
    m = sum(k) + int(rng.integers(1, 3))
    vals = rng.uniform(0.3, 2.5, 6 if with_eta else 4)
    sp = SplitParams(*vals, check=False)
    t = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    x = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(d)]
    return m, k, sp, d, t, x


@pytest.mark.parametrize("i", range(1, N_RELATIONS + 1))
def test_a_relations(i):
    rng = np.random.default_rng(100 + i)
    worst = 0.0
    for _ in range(100):
        m, k, sp, d, t, x = _draw_case(rng, with_eta=True)
        lhs, rhs = a_relation_pair(i, m, k, sp, d, t, x)
        worst = max(worst, _rel(lhs, rhs))
    assert worst <= 1e-10


@pytest.mark.parametrize("i", range(1, N_RELATIONS + 1))
def test_b_relations(i):
    rng = np.random.default_rng(200 + i)
    worst = 0.0
    for _ in range(100):
        m, k, sp, d, t, x = _draw_case(rng, with_eta=False)
        lhs, rhs = b_relation_pair(i, m, k, sp, d, t, x)
        worst = max(worst, _rel(lhs, rhs))
    assert worst <= 1e-10


def test_a_relation_degenerate_degree_collapse():
    # m = |k|: the lower-degree term carries a zero coefficient and both sides
    # reduce to the same trivial values
    sp = SplitParams(0.7, 0.9, 0.8, 1.2, 0.6, 1.1)
    t, x = 0.3 + 0.2j, [0.1 - 0.4j]
    lhs, rhs = a_relation_pair(1, 2, (2,), sp, 1, t, x)
    assert _rel(lhs, rhs) <= 1e-13
    Z, E = sp.abs_zeta, sp.abs_eta
    want = (2 + Z + E - 1) * eval_A(2, (2,), sp.shifted(eta2=1), 1, t, x)
    assert lhs == pytest.approx(want, rel=1e-13)


def test_relations_requiring_lower_degree():
    # these relations evaluate the family at m-1 with a coefficient that does
    # not vanish at m = |k|, so a degenerate draw must be rejected, not silently
    # mis-evaluated
    spa = SplitParams(0.7, 0.9, 0.8, 1.2, 0.6, 1.1)
    spb = SplitParams(0.7, 0.9, 0.8, 1.2)
    t, x = 0.3 + 0.2j, [0.1 - 0.4j]
    for i in A_NEEDS_LOWER_DEGREE:
        with pytest.raises(DomainError):
            a_relation_pair(i, 1, (1,), spa, 1, t, x)
    for i in B_NEEDS_LOWER_DEGREE:
        with pytest.raises(DomainError):
            b_relation_pair(i, 1, (1,), spb, 1, t, x)


def test_b_relations_reference_higher_degree():
    # relations i and vi use degree m+1; a degenerate m = |k| draw must still
    # hold (vi becomes 0 = 0, judged against the magnitude of its terms)
    sp = SplitParams(0.7, 0.9, 0.8, 1.2)
    t, x = 0.2 - 0.3j, [0.5 + 0.1j]
    scale = abs(eval_B(2, (2,), sp, 1, t, x))
    for i in (1, 6):
        lhs, rhs = b_relation_pair(i, 2, (2,), sp, 1, t, x)
        assert abs(lhs - rhs) <= 1e-12 * scale


@pytest.mark.parametrize("side, i", [("A", 2), ("B", 3), ("B", 4), ("B", 5)])
def test_relation_shifts_a_checked_parameter_set_below_zero(side, i):
    # these relations shift eta2 (A) or zeta2 (B) below 0; the shifted terms
    # are unchecked, so a valid checked parameter set still evaluates
    if side == "A":
        pair, sp = a_relation_pair, SplitParams(0.7, 0.9, 0.8, 1.2, 0.6, 1.1)
    else:
        pair, sp = b_relation_pair, SplitParams(0.7, 0.9, 0.8, 0.6)
    lhs, rhs = pair(i, 2, (1, 0), sp, 2, 0.3 - 0.2j, [0.4 + 0.1j, -0.2 + 0.3j])
    assert _rel(lhs, rhs) <= 1e-10


@pytest.mark.parametrize("i", range(1, N_RELATIONS + 1))
@pytest.mark.parametrize("side", ["A", "B"])
def test_relation_evaluates_its_x_factor_once(side, i, monkeypatch):
    # every term of a lifted relation shares D_k(x): one eval_D per relation
    calls = []

    def counted(*args):
        calls.append(args)
        return eval_D(*args)

    monkeypatch.setattr(contiguous, "eval_D", counted)
    sp = SplitParams(0.7, 0.9, 0.8, 1.2, *((0.6, 1.1) if side == "A" else ()), check=False)
    pair = a_relation_pair if side == "A" else b_relation_pair
    lhs, rhs = pair(i, 3, (1, 0), sp, 2, 0.3 + 0.2j, [0.1 - 0.4j, 0.5 + 0.1j])
    assert len(calls) == 1
    assert _rel(lhs, rhs) <= 1e-12


def test_relation_terms_keep_the_bits_of_the_family_evaluators():
    # a term is its t-factor times the shared D, the product eval_A and
    # eval_B form, so single-term sides equal the evaluators bit for bit
    spa = SplitParams(0.7, 0.9, 0.8, 1.2, 0.6, 1.1)
    spb = SplitParams(0.7, 0.9, 0.8, 1.2)
    m, k, d, t, x = 3, (1, 0), 2, 0.3 + 0.2j, [0.1 - 0.4j, 0.5 + 0.1j]
    assert a_relation_pair(7, m, k, spa, d, t, x)[0] == eval_A(m, k, spa, d, t - 2, x)
    lhs = b_relation_pair(1, m, k, spb, d, t, x)[0]
    assert lhs == (1 + 2 * spb.zeta2 + 2 * t) * eval_B(m, k, spb.shifted(zeta1=1), d, t + 1, x)
