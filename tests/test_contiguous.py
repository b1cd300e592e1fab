import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orthopara import contiguous
from orthopara.contiguous import (
    A_NEEDS_LOWER_DEGREE, B_NEEDS_LOWER_DEGREE, N_RELATIONS, a_relation_pair,
    b_relation_pair, rec1_pair, rec2_pair,
)
from orthopara.errors import DomainError
from orthopara.hyper import hyp_terminating
from orthopara.transforms import A_t, B_t, SplitParams, eval_A, eval_B, eval_D
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
    return m, k, sp, t, x


@pytest.mark.parametrize("i", range(1, N_RELATIONS + 1))
def test_a_relations(i):
    rng = np.random.default_rng(100 + i)
    worst = 0.0
    for _ in range(100):
        m, k, sp, t, x = _draw_case(rng, with_eta=True)
        lhs, rhs = a_relation_pair(i, m, k, sp, t, x)
        worst = max(worst, _rel(lhs, rhs))
    assert worst <= 1e-10


@pytest.mark.parametrize("i", range(1, N_RELATIONS + 1))
def test_b_relations(i):
    rng = np.random.default_rng(200 + i)
    worst = 0.0
    for _ in range(100):
        m, k, sp, t, x = _draw_case(rng, with_eta=False)
        lhs, rhs = b_relation_pair(i, m, k, sp, t, x)
        worst = max(worst, _rel(lhs, rhs))
    assert worst <= 1e-10


def test_a_relation_degenerate_degree_collapse():
    # m = |k|: the lower-degree term carries a zero coefficient and both sides
    # reduce to the same trivial values
    sp = SplitParams(0.7, 0.9, 0.8, 1.2, 0.6, 1.1)
    t, x = 0.3 + 0.2j, [0.1 - 0.4j]
    lhs, rhs = a_relation_pair(1, 2, (2,), sp, t, x)
    assert _rel(lhs, rhs) <= 1e-13
    Z, E = sp.abs_zeta, sp.abs_eta
    want = (2 + Z + E - 1) * eval_A(2, (2,), sp.shifted(eta2=1), t, x)
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
            a_relation_pair(i, 1, (1,), spa, t, x)
    for i in B_NEEDS_LOWER_DEGREE:
        with pytest.raises(DomainError):
            b_relation_pair(i, 1, (1,), spb, t, x)


def test_b_relations_reference_higher_degree():
    # relations i and vi use degree m+1; a degenerate m = |k| draw must still
    # hold (vi becomes 0 = 0, judged against the magnitude of its terms)
    sp = SplitParams(0.7, 0.9, 0.8, 1.2)
    t, x = 0.2 - 0.3j, [0.5 + 0.1j]
    scale = abs(eval_B(2, (2,), sp, t, x))
    for i in (1, 6):
        lhs, rhs = b_relation_pair(i, 2, (2,), sp, t, x)
        assert abs(lhs - rhs) <= 1e-12 * scale


@pytest.mark.parametrize("side, i", [("A", 2), ("B", 3), ("B", 4), ("B", 5)])
def test_relation_shifts_a_checked_parameter_set_below_zero(side, i):
    # these relations shift eta2 (A) or zeta2 (B) below 0; the shifted terms
    # are unchecked, so a valid checked parameter set still evaluates
    if side == "A":
        pair, sp = a_relation_pair, SplitParams(0.7, 0.9, 0.8, 1.2, 0.6, 1.1)
    else:
        pair, sp = b_relation_pair, SplitParams(0.7, 0.9, 0.8, 0.6)
    lhs, rhs = pair(i, 2, (1, 0), sp, 0.3 - 0.2j, [0.4 + 0.1j, -0.2 + 0.3j])
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
    lhs, rhs = pair(i, 3, (1, 0), sp, 0.3 + 0.2j, [0.1 - 0.4j, 0.5 + 0.1j])
    assert len(calls) == 1
    assert _rel(lhs, rhs) <= 1e-12


def test_relation_terms_keep_the_bits_of_the_family_evaluators():
    # a term is its t-factor times the shared D, the product eval_A and
    # eval_B form, so single-term sides equal the evaluators bit for bit
    spa = SplitParams(0.7, 0.9, 0.8, 1.2, 0.6, 1.1)
    spb = SplitParams(0.7, 0.9, 0.8, 1.2)
    m, k, t, x = 3, (1, 0), 0.3 + 0.2j, [0.1 - 0.4j, 0.5 + 0.1j]
    assert a_relation_pair(7, m, k, spa, t, x)[0] == eval_A(m, k, spa, t - 2, x)
    lhs = b_relation_pair(1, m, k, spb, t, x)[0]
    assert lhs == (1 + 2 * spb.zeta2 + 2 * t) * eval_B(m, k, spb.shifted(zeta1=1), t + 1, x)


@st.composite
def contig_draws(draw):
    # a CONTIG draw as the sweep makes it, but with m >= |k| (the sweep draws
    # m >= |k| + 1), so the degenerate degree is reached too; the parameters
    # and the point come from a drawn seed, so they carry full mantissas,
    # whose sums round differently in another order
    d = draw(st.integers(1, 2))
    k = tuple(draw(st.lists(st.integers(0, 2), min_size=d, max_size=d)))
    m = sum(k) + draw(st.integers(0, 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sp = SplitParams(*rng.uniform(0.3, 2.5, 6).tolist(), check=False)
    t, *x = (complex(*xy) for xy in rng.uniform(-1, 1, (d + 1, 2)).tolist())
    return m, k, sp, t, x


def _relation_terms(side, i, m, k, sp, t, x):
    """(arguments, value) of each t-factor body the relation runs."""
    body = contiguous._A_t if side == "A" else contiguous._B_t
    pair = a_relation_pair if side == "A" else b_relation_pair
    terms = []

    def spy(*args):
        terms.append((args, body(*args)))
        return terms[-1][1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(contiguous, body.__name__, spy)
        pair(i, m, k, sp, t, x)
    return terms


@given(contig_draws())
@settings(max_examples=40, deadline=None)
def test_relation_terms_are_the_shifted_t_factors(draw):
    # every term a relation evaluates is A_t (B_t) of the shifted SplitParams
    # at t + dt, times D, bit for bit.  The relation never builds the shifted
    # SplitParams, so each term's shifts are read back from the arguments of
    # the body it runs: the shifts are integers, the parameters in [0.3, 2.5]
    m, k, sp_a, t, x = draw
    n = sum(k)
    D = eval_D(k, sp_a.alpha1, sp_a.alpha2, x)
    sp_b = SplitParams(sp_a.alpha1, sp_a.alpha2, sp_a.zeta1, sp_a.zeta2, check=False)
    for side, sp, needs_lower in (("A", sp_a, A_NEEDS_LOWER_DEGREE),
                                  ("B", sp_b, B_NEEDS_LOWER_DEGREE)):
        for i in range(1, N_RELATIONS + 1):
            if m == n and i in needs_lower:
                # a term of degree m - 1 < |k| whose coefficient does not vanish
                with pytest.raises(DomainError):
                    _relation_terms(side, i, m, k, sp, t, x)
                continue
            terms = _relation_terms(side, i, m, k, sp, t, x)
            assert terms
            for args, value in terms:
                M, tt = args[0], args[-1]
                assert args[1] == n and M >= 0
                dz1 = round(args[2] - sp.zeta1)
                dz2 = round(args[3] - args[2] - sp.zeta2)
                dt = round((tt - t).real)
                assert tt == t + dt
                if side == "A":
                    de1 = round(args[4] - sp.eta1)
                    de2 = round(args[5] - args[4] - sp.eta2)
                    shifted = sp.shifted(zeta1=dz1, zeta2=dz2, eta1=de1, eta2=de2)
                    want = A_t(M + n, k, shifted, t + dt) * D
                else:
                    want = B_t(M + n, k, sp.shifted(zeta1=dz1, zeta2=dz2), t + dt) * D
                assert value * D == want
