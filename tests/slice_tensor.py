"""Full-tensor reference for the ball and paraboloid Gram oracles.

The oracles sum one ``ball_axis`` line per axis (and one radial line); this
helper instead evaluates a composed function on the whole tensor grid of the
same rules, through the slice map y_j = v_j prod_{i<j} sqrt(1 - v_i^2) from
(-1, 1)^d onto the ball B^d.
"""

import numpy as np

from orthopara.ball import ball_rules
from orthopara.paraboloid import t_rule
from references import tensor_integrate


def _slice_map(v):
    y, scale = [], 1.0
    for vj in v:
        y.append(vj * np.sqrt(scale))
        scale = scale * (1.0 - vj * vj)
    return y


def slice_tensor(f, d, mu, n, radial=None):
    """Tensor quadrature on the n-point ``ball_rules`` (up to 3 axes in all).

    Without ``radial``: the integral of f(y) (1 - |y|^2)^(mu - 1/2) over B^d,
    y the list of d coordinates.  With ``radial = (kind, beta, gamma)``: the
    integral of f(t, x) over the paraboloid against its weight, the n-point
    ``t_rule`` as a leading axis and x = sqrt(t) y.
    """
    rules = ball_rules(d, mu, n)
    if radial is None:
        return tensor_integrate(rules, lambda *v: f(_slice_map(v)))
    kind, beta, gamma = radial
    return tensor_integrate([t_rule(kind, n, beta, gamma, mu, d), *rules],
                            lambda t, *v: f(t, [np.sqrt(t) * y for y in _slice_map(v)]))
