"""Orthogonal polynomial structures on the unit ball and the paraboloid,
their closed-form Fourier transforms, the Gamma-hypergeometric families they
generate under Parseval's identity, and a verification engine that machine
checks every identity against quadrature and brute-force oracles."""

from .ball import ball_eval, ball_homogeneous, ball_norm
from .classical import (
    continuous_hahn, gegenbauer, gegenbauer_norm, jacobi, jacobi_norm,
    laguerre, laguerre_norm,
)
from .gammafn import beta, gamma, log_gamma, pochhammer
from .hyper import hyp_terminating
from .paraboloid import (
    jacobi_paraboloid, jacobi_paraboloid_norm, laguerre_paraboloid,
    laguerre_paraboloid_norm,
)
from .transforms import (
    SplitParams, WrapParamsJacobi, WrapParamsLaguerre, eval_A, eval_A_hahn,
    eval_B, eval_B_hahn, eval_D, eval_D_hahn, eval_g, eval_h_jacobi,
    eval_h_laguerre, fourier_g_closed, fourier_h_jacobi_closed,
    fourier_h_laguerre_closed, lambda_factor, phi_factor, phi_factor_hahn,
    theta_factor,
)

__version__ = "0.1.0"
