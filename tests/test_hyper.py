import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orthopara.errors import DenominatorPoleError, NonTerminatingError
from orthopara.gammafn import pochhammer
from orthopara.hyper import hyp_terminating
from references import hyp_nonterminating


def naive_sum(num, den, z, n_terms):
    """Independent term-by-term oracle built on pochhammer calls."""
    total = 0.0
    for m in range(n_terms + 1):
        term = z**m / math.factorial(m)
        for a in num:
            term *= pochhammer(a, m)
        for b in den:
            term /= pochhammer(b, m)
        total += term
    return total


def largest_term(num, den, z, n_terms):
    """max_m |z^m / m! * prod (a)_m / prod (b)_m|, the summation's scale."""
    return max(
        abs(z**m / math.factorial(m) * math.prod(pochhammer(a, m) for a in num)
            / math.prod(pochhammer(b, m) for b in den))
        for m in range(n_terms + 1)
    )


def test_trivial_cases():
    assert hyp_terminating([0, 2.2], [1.1], 0.7) == 1.0
    b, c, z = 1.7, 2.9, 0.31
    assert hyp_terminating([-1, b], [c], z) == pytest.approx(1 - b * z / c, rel=1e-15)


def test_three_term_oracle():
    got = hyp_terminating([-2, 1.3, 0.7], [2.1, 0.9], 1.0)
    want = 1 - 2 * (1.3 * 0.7) / (2.1 * 0.9) + (1.3 * 2.3 * 0.7 * 1.7) / (2.1 * 3.1 * 0.9 * 1.9)
    assert got == pytest.approx(want, rel=1e-14)


def test_termination_exactness_vs_naive():
    # agreement is relative to the summation's conditioning scale (the largest
    # term magnitude); the alternating sum itself can cancel many digits
    rng = np.random.default_rng(2)
    for _ in range(100):
        N = int(rng.integers(0, 21))
        num = [-float(N), complex(rng.uniform(0.2, 3), rng.uniform(-1, 1))]
        den = [complex(rng.uniform(0.5, 3), rng.uniform(-1, 1))]
        z = complex(rng.uniform(-2, 2), rng.uniform(-1, 1))
        got = hyp_terminating(num, den, z)
        want = naive_sum(num, den, z, N)
        assert abs(got - want) <= 1e-12 * max(largest_term(num, den, z, N), 1.0)


def test_termination_exactness_benign_draws():
    # away from heavy cancellation the two routes agree to plain relative 1e-12
    rng = np.random.default_rng(21)
    for _ in range(100):
        N = int(rng.integers(0, 7))
        num = [-float(N), rng.uniform(0.2, 2.0)]
        den = [rng.uniform(0.5, 2.5)]
        z = rng.uniform(0.05, 0.5)
        got = hyp_terminating(num, den, z)
        want = naive_sum(num, den, z, N)
        assert abs(got - want) <= 1e-12 * max(abs(want), 1e-6)


@given(st.integers(min_value=0, max_value=8), st.data())
@settings(max_examples=60, deadline=None)
def test_permutation_invariance(N, data):
    draw = lambda: complex(data.draw(st.floats(0.3, 2.5)), data.draw(st.floats(-0.5, 0.5)))
    a2, a3 = draw(), draw()
    b1, b2 = draw(), draw()
    z = data.draw(st.floats(-1.5, 1.5))
    v1 = hyp_terminating([-N, a2, a3], [b1, b2], z)
    v2 = hyp_terminating([a3, -N, a2], [b2, b1], z)
    # the canonical parameter order makes permuted lists sum identically
    assert v1 == v2


def test_snap_tolerance():
    # -3 + 1e-10 snaps to the exact integer, keeping the sum 4 terms long
    v1 = hyp_terminating([-3.0 + 1e-10, 1.2], [0.8], 0.9)
    v2 = hyp_terminating([-3.0, 1.2], [0.8], 0.9)
    assert v1 == v2
    with pytest.raises(NonTerminatingError):
        hyp_terminating([-3.0 + 1e-6, 1.2], [0.8], 2.0)


def test_denominator_pole_rules():
    # degree 3 sums the factors (b + m) for m = 0, 1, 2
    for b in (-1.0, -2.0, -2.0 + 1e-10, 0, np.array(-1.0)):
        with pytest.raises(DenominatorPoleError):
            hyp_terminating([-3, 1.0], [b], 1.0)
    # pole at or after the termination index is harmless
    assert hyp_terminating([-2, 1.0], [-2.0], 1.0) == pytest.approx(3.0, rel=1e-12)
    for b in (-3.0, -3.0 + 1e-10, -4):
        want = naive_sum([-3, 1.0], [b], 1.0, 3)
        assert hyp_terminating([-3, 1.0], [b], 1.0) == pytest.approx(want, rel=1e-14)


def test_nonterminating_2f1():
    # 2F1(1,1;2;z) = -log(1-z)/z
    z = 0.43
    got = hyp_nonterminating([1, 1], [2], z)
    assert got == pytest.approx(-np.log(1 - z) / z, rel=1e-13)
    with pytest.raises(NonTerminatingError):
        hyp_nonterminating([1, 1], [2], 1.2)
    # 1F1 converges for any argument: 1F1(1;1;z) = e^z
    assert hyp_nonterminating([1.0], [1.0], 3.7) == pytest.approx(np.exp(3.7), rel=1e-13)
    # the reference's own pole check: any denominator at a non-positive integer
    for b in (0, -2.0, -2.0 + 1e-10):
        with pytest.raises(DenominatorPoleError):
            hyp_nonterminating([1, 1], [b], 0.5)


def test_2f1_at_2():
    assert hyp_terminating([0, 1.3 + 0.2j], [0.9], 2.0) == 1.0
    b, c = 0.8 + 0.3j, 1.7
    assert hyp_terminating([-1, b], [c], 2.0) == pytest.approx(1 - 2 * b / c, rel=1e-14)
    got = hyp_terminating([-3, 1.1 + 0.4j], [2.5], 2.0)
    want = naive_sum([-3, 1.1 + 0.4j], [2.5], 2.0, 3)
    assert got == pytest.approx(want, rel=1e-13)
    # 2F1 is symmetric in its numerator: either parameter may terminate it
    assert hyp_terminating([1.1 + 0.4j, -3], [2.5], 2.0) == got
    with pytest.raises(NonTerminatingError):
        hyp_terminating([0.5, 1.0], [2.0], 2.0)


def test_array_broadcast():
    xi = np.linspace(-2, 2, 7)
    arr = hyp_terminating([-2, 1.5, 0.3 + 1j * xi], [1.1, 2.2], 1.0)
    for val, x in zip(arr, xi):
        assert val == hyp_terminating([-2, 1.5, 0.3 + 1j * x], [1.1, 2.2], 1.0)


# (p, q) of the series shapes the closed forms use: 1F1, 2F1 and 3F2
SERIES_SHAPES = [(1, 1), (2, 1), (3, 2)]


@given(st.sampled_from(SERIES_SHAPES), st.integers(min_value=0, max_value=8),
       st.booleans(), st.data())
@settings(max_examples=150, deadline=None)
def test_scalar_call_matches_array_element(shape, N, complex_params, data):
    # a scalar call sums on numpy scalars, an array call on arrays of the
    # broadcast shape; both run the one recurrence on the same operands
    p, q = shape

    def draw():
        re = data.draw(st.floats(0.2, 3.0))
        return complex(re, data.draw(st.floats(-1.5, 1.5))) if complex_params else re

    # the certificate is a snapped parameter, placed anywhere in the list
    num = [draw() for _ in range(p - 1)]
    num.insert(data.draw(st.integers(0, p - 1)), -N + 1e-10)
    den = [draw() for _ in range(q)]
    zs = np.array([draw() for _ in range(3)])
    arr = hyp_terminating(num, den, zs)
    kind = np.complex128 if complex_params else np.float64
    for z, want in zip(zs.tolist(), arr):
        val = hyp_terminating(num, den, z)
        # Python and numpy scalar arguments take the same numpy-scalar path
        as_numpy = hyp_terminating([kind(a) for a in num], [kind(b) for b in den], kind(z))
        assert type(val) is type(as_numpy) is kind
        assert val == as_numpy
        if not complex_params:
            assert val == want
        else:
            # numpy's array loop for complex multiplication may fuse the
            # multiply-add where its scalar multiplication does not, so the
            # two agree to rounding of the largest term, not bit for bit
            assert abs(val - want) <= 1e-14 * max(largest_term(num, den, z, N), 1.0)


def test_nan_parameter_propagates():
    # NaN is not a terminating certificate: the other parameter terminates
    # the sum, and the NaN flows through it instead of raising
    assert np.isnan(hyp_terminating([-2, float("nan")], [1.5], 0.5))
    assert np.isnan(hyp_terminating([float("nan"), -1, 0.3 + 1j], [1.5], 0.5))
    assert np.isnan(hyp_terminating([-2, 0.7], [float("inf") * 1j], 0.5))
    for bad in (float("nan"), complex(-2.0, float("nan")), complex(float("nan"), 0.0),
                -float("inf")):
        with pytest.raises(NonTerminatingError):
            hyp_terminating([bad, 0.7], [1.5], 0.5)
        # nor is it a denominator pole (-inf turns every term after the
        # leading 1 into 0)
        val = hyp_terminating([-2, 0.7], [bad], 0.5)
        assert np.isnan(val) or val == 1.0


# the certificate -N as each scalar type a caller may pass; after the snap it
# is the float -N whatever it came as
CERTIFICATES = [int, float, np.int64, np.float64, complex, np.array]


@given(st.sampled_from(SERIES_SHAPES), st.integers(min_value=0, max_value=8), st.data())
@settings(max_examples=150, deadline=None)
def test_real_scalar_call_is_its_one_element_array_call(shape, N, data):
    # the module docstring's contract: a real scalar call sums on float64
    # numpy scalars, bit for bit the element of the array call
    p, q = shape

    def real():
        kind = data.draw(st.sampled_from([float, np.float64]))
        return kind(data.draw(st.floats(0.2, 3.0)))

    num = [real() for _ in range(p - 1)]
    num.insert(data.draw(st.integers(0, p - 1)), data.draw(st.sampled_from(CERTIFICATES))(-N))
    den = [real() for _ in range(q)]
    z = data.draw(st.floats(-2.0, 2.0))
    val = hyp_terminating(num, den, z)
    arr = hyp_terminating(num, den, np.array([z]))
    assert type(val) is np.float64 and arr.shape == (1,)
    assert val == arr[0]


@pytest.mark.parametrize("num", [[-3.0, 1.2, -1.0 + 1e-10], [-1.0 + 1e-10, 1.2, -3.0],
                                 [1.2, -3.0, -1]])
def test_smaller_snapped_degree_wins(num):
    # -1 ends the sum after two terms wherever it stands; the -3 is then an
    # ordinary parameter of those terms
    want = 1 + 3 * 1.2 / 0.8 * 0.9
    assert hyp_terminating(num, [0.8], 0.9) == pytest.approx(want, rel=1e-15)


def test_zero_dimensional_array_parameter_snaps_like_a_scalar():
    want = hyp_terminating([-2.0, 1.3], [0.8], 0.9)
    for cert in (np.array(-2.0), np.array(-2), np.array(-2.0 + 1e-10)):
        val = hyp_terminating([cert, 1.3], [0.8], 0.9)
        assert type(val) is np.float64 and val == want
    # a 0-d non-certificate parameter keeps its canonical place among the
    # scalars, so the array path sums the same operands in the same order
    assert hyp_terminating([1.3, np.array(-2.0), np.array(0.4)], [0.8], 0.9) \
        == hyp_terminating([-2.0, 0.4, 1.3], [0.8], 0.9)
