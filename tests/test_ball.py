import math

import numpy as np
import pytest
import scipy.integrate as si

from orthopara.ball import (
    MultiIndex, ball_eval, ball_homogeneous, ball_norm, lambda_param, tail_sum,
    validate_multi_index,
)
from orthopara.classical import gegenbauer, gegenbauer_norm
from orthopara.errors import DomainError
from orthopara.transforms import eval_D
from slice_tensor import slice_tensor


def test_tail_sums():
    k = (2, 0, 3)
    assert tail_sum(k, 1) == 5
    assert tail_sum(k, 2) == 3
    assert tail_sum(k, 3) == 3
    assert tail_sum(k, 4) == 0
    assert lambda_param(k, 0.5, 1) == 0.5 + 3 + 1.0


@pytest.mark.parametrize("k", [(), (4,), (2, 0, 3), (0, 1, 0, 2), np.array([3, 1])])
def test_tail_sum_of_both_kinds_is_the_sliced_sum(k):
    # a plain sequence is summed on each call; a MultiIndex reads the tail
    # sums that validate_multi_index stored once, as Python ints
    mi = validate_multi_index(k)
    for j in range(1, len(k) + 2):
        want = int(sum(k[j - 1:]))
        assert tail_sum(k, j) == tail_sum(mi, j) == want
        assert type(tail_sum(mi, j)) is int


def test_constant_index():
    rng = np.random.default_rng(0)
    pts = rng.uniform(-0.4, 0.4, (3, 10))
    assert np.all(ball_eval((0, 0, 0), 0.7, list(pts)) == 1.0)


def test_d1_reduces_to_gegenbauer():
    x = np.linspace(-1, 1, 21)
    for m in range(5):
        got = ball_eval((m,), 0.7, [x])
        want = gegenbauer(m, 0.7, x)
        assert np.abs(got - want).max() < 1e-13 * max(1, np.abs(want).max())


def test_first_degree_formula():
    # d=2, k=(1,0): lambda_1 = mu + 1/2 so the value is (2 mu + 1) x_1
    mu = 0.8
    assert ball_eval((1, 0), mu, [0.3, 0.4]) == pytest.approx((2 * mu + 1) * 0.3, rel=1e-14)


def test_boundary_evaluation():
    # factored form never divides by the vanishing radicand
    val = ball_eval((1, 2), 0.6, [1.0, 0.0])
    assert np.isfinite(val)
    with pytest.raises(DomainError):
        ball_eval((1, 0), 0.6, [1.2, 0.3])


def test_homogeneous_scaling():
    rng = np.random.default_rng(4)
    for _ in range(20):
        k = tuple(rng.integers(0, 3, 2))
        t = rng.uniform(0.1, 2.0)
        y = rng.uniform(-0.5, 0.5, 2)
        x = [math.sqrt(t) * y[0], math.sqrt(t) * y[1]]
        got = ball_homogeneous(k, 0.6, x, t)
        want = t ** (sum(k) / 2) * ball_eval(k, 0.6, list(y))
        assert abs(got - want) < 1e-12 * max(1, abs(want))
    assert np.isfinite(ball_homogeneous((2, 1), 0.6, [0.0, 0.0], 0.0))


def test_ball_norm_d1_matches_gegenbauer_norm():
    for m in range(5):
        assert ball_norm((m,), 0.8) == pytest.approx(gegenbauer_norm(m, 0.8), rel=1e-12)


def test_ball_norm_d2_values():
    # mu = 1/2 volume of the disk
    assert ball_norm((0, 0), 0.5) == pytest.approx(math.pi, rel=1e-13)
    # frozen from the 2-D quadrature oracle of P_{(1,1)}^2 = (4 x y)^2 over the disk
    assert ball_norm((1, 1), 0.5) == pytest.approx(2 * math.pi / 3, rel=1e-12)


def test_ball_norm_quadrature_oracle():
    val, err = si.dblquad(
        lambda y, x: (4 * x * y) ** 2,
        -1, 1,
        lambda x: -math.sqrt(1 - x * x),
        lambda x: math.sqrt(1 - x * x),
    )
    assert ball_norm((1, 1), 0.5) == pytest.approx(val, rel=1e-8)


def test_coordinatewise_parity():
    # the product basis is a basis "with parity": flipping the sign of any
    # coordinate multiplies the value by (-1)^{k_j}, since only squares of the
    # earlier coordinates enter the running radicand
    rng = np.random.default_rng(14)
    for _ in range(40):
        d = int(rng.integers(1, 4))
        k = tuple(int(v) for v in rng.integers(0, 4, d))
        mu = rng.uniform(-0.3, 2.0)
        x = rng.uniform(-0.5, 0.5, d)
        base = ball_eval(k, mu, list(x))
        for j in range(d):
            flipped = x.copy()
            flipped[j] = -flipped[j]
            got = ball_eval(k, mu, list(flipped))
            want = (-1.0) ** k[j] * base
            assert got == pytest.approx(want, rel=1e-12, abs=1e-14)


@pytest.mark.parametrize("mu", [0.5, 1.5])
def test_gram_orthogonality_d2(mu):
    ks = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2), (3, 0), (2, 1), (1, 2), (0, 3)]
    for i, k in enumerate(ks):
        nk = ball_norm(k, mu)
        for k2 in ks[i:]:
            F = lambda y: ball_eval(k, mu, y) * ball_eval(k2, mu, y)
            entry = slice_tensor(F, 2, mu, 24)
            if k == k2:
                assert entry == pytest.approx(nk, rel=1e-8)
            else:
                assert abs(entry) <= 1e-9 * math.sqrt(nk * ball_norm(k2, mu))


def test_ball_integral_volume():
    got = slice_tensor(lambda y: np.ones(np.broadcast_shapes(y[0].shape, y[1].shape)), 2, 0.5, 20)
    assert got == pytest.approx(math.pi, rel=1e-12)


def test_multi_index_entries_must_be_integers():
    # a non-integer entry is refused, not truncated: (1.5, -0.5) once became (1, 0)
    assert validate_multi_index([np.int64(2), 0]) == (2, 0)
    assert all(type(v) is int for v in validate_multi_index(np.array([1, 2])))
    for k in [(1.5, -0.5), (1.0,), (2, 0.0), (-1,), ("1",)]:
        with pytest.raises(DomainError):
            validate_multi_index(k)
    with pytest.raises(DomainError):
        eval_D((1.7,), 0.7, 0.9, [0.3 + 0.1j])


def test_checked_multi_index_is_returned_unchanged():
    # a MultiIndex is never checked again, and it hashes, compares and
    # prints as the plain tuple, so draw keys and reports do not change
    mi = validate_multi_index([np.int64(2), 0])
    assert type(mi) is MultiIndex and validate_multi_index(mi) is mi
    assert mi == (2, 0) and hash(mi) == hash((2, 0)) and repr(mi) == "(2, 0)"
    assert {(2, 0): "column"}[mi] == "column"
