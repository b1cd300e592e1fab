"""The dimension of a function of a multi-index k is len(k).

No function takes d beside k, so d and len(k) cannot disagree; only a point
or frequency vector is checked against k, and a mismatch is a DomainError.
"""

import inspect

import pytest

from orthopara import contiguous, paraboloid, transforms, verifier
from orthopara.errors import DomainError
from orthopara.transforms import (
    SplitParams, WrapParamsJacobi, WrapParamsLaguerre, eval_A, eval_A_hahn, eval_B,
    eval_B_hahn, eval_D, eval_D_hahn, fourier_g_closed, fourier_h_jacobi_closed,
    fourier_h_laguerre_closed, lambda_factor, theta_factor,
)

VERIFIER_HELPERS = ("_ball_gram", "_para_gram", "_fourier_rules", "_fourier_direct",
                    "_parseval_lhs")


def _functions():
    for module in (transforms, paraboloid, contiguous, verifier):
        for name, f in inspect.getmembers(module, inspect.isfunction):
            if f.__module__ == module.__name__ and not name.startswith("_"):
                yield f"{module.__name__}.{name}", f
    for name in VERIFIER_HELPERS:
        yield f"orthopara.verifier.{name}", getattr(verifier, name)


def test_no_function_takes_both_a_multi_index_and_d():
    both = [name for name, f in _functions()
            if "d" in (params := inspect.signature(f).parameters)
            and ("k" in params or "mk" in params)]
    assert both == []


SP = SplitParams(0.7, 0.9, 0.8, 1.2, 0.6, 1.1)


def test_factors_read_d_from_k():
    # each once returned its value at a d that len(k) did not match; these
    # are the values at d = len(k)
    assert theta_factor(2, (1,), 1.1, 0.9, 0.3, 0.4, 0.7, 0.2) == pytest.approx(
        0.061333333333333184 + 0.05866666666666668j, rel=1e-14)
    assert lambda_factor(2, (1,), 1.1, 0.7, 0.3, 0.2) == pytest.approx(
        -0.06666666666666672 + 0.13333333333333333j, rel=1e-14)
    assert verifier.parseval_rhs("PARSEVAL_A", 2, (1, 0), SP) == pytest.approx(
        0.3106329245912118, rel=1e-14)


SPB = SplitParams(0.7, 0.9, 0.8, 1.2)
PJ = WrapParamsJacobi(0.8, 1.1, 0.9, 0.3, 0.4, 0.7)
PL = WrapParamsLaguerre(0.8, 1.1, 0.3, 0.7)
K = (1, 0)  # d = 2
# each evaluator at a point (or frequency vector) p
POINT_TAKERS = {
    "eval_D": lambda p: eval_D(K, 0.7, 0.9, p),
    "eval_D_hahn": lambda p: eval_D_hahn(K, 0.7, 0.9, p),
    "eval_A": lambda p: eval_A(2, K, SP, 0.3, p),
    "eval_A_hahn": lambda p: eval_A_hahn(2, K, SP, 0.3, p),
    "eval_B": lambda p: eval_B(2, K, SPB, 0.3, p),
    "eval_B_hahn": lambda p: eval_B_hahn(2, K, SPB, 0.3, p),
    "fourier_g_closed": lambda p: fourier_g_closed(K, 0.8, 0.7, p),
    "jacobi_paraboloid": lambda p: paraboloid.jacobi_paraboloid(2, K, 0.3, 0.4, 0.7, 0.5, p),
    "laguerre_paraboloid": lambda p: paraboloid.laguerre_paraboloid(2, K, 0.3, 0.7, 0.5, p),
    "a_relation_pair": lambda p: contiguous.a_relation_pair(1, 2, K, SP, 0.3, p),
    "b_relation_pair": lambda p: contiguous.b_relation_pair(1, 2, K, SPB, 0.3, p),
}
# the closed transforms take (xi_1..xi_d, xi_{d+1})
FREQUENCY_TAKERS = {
    "fourier_h_jacobi_closed": lambda p: fourier_h_jacobi_closed(2, K, PJ, p),
    "fourier_h_laguerre_closed": lambda p: fourier_h_laguerre_closed(2, K, PL, p),
}


@pytest.mark.parametrize("name", list(POINT_TAKERS) + list(FREQUENCY_TAKERS))
def test_point_of_another_length_is_a_domain_error(name):
    f = POINT_TAKERS.get(name) or FREQUENCY_TAKERS[name]
    n = len(K) + (name in FREQUENCY_TAKERS)
    f([0.1] * n)  # the matching length evaluates
    for wrong in (n - 1, n + 1):
        with pytest.raises(DomainError):
            f([0.1] * wrong)
