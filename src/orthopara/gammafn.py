"""Complex gamma, log-gamma, beta and Pochhammer primitives.

Everything here is vectorized over numpy arrays and safe for concurrent use
(pure functions, no mutable state).  log_gamma is scipy's loggamma behind a
pole check; exp(log_gamma(z)) matches Gamma(z) to ~1e-13 relative on the
strip 0.5 <= Re z <= 10, |Im z| <= 40, which covers every argument the higher
modules produce.  pochhammer is the exact product at every order.  Scalar
arguments skip the array bookkeeping: log_gamma checks the pole in Python and
calls loggamma once, bit for bit the array result, and pochhammer multiplies
numpy scalars, not 0-d arrays.
"""

from __future__ import annotations

import cmath

import numpy as np
from scipy.special import loggamma

from .errors import DomainError, PoleError

POLE_TOL = 1e-12

# exp overflows above ~709.78 in double precision
_EXP_OVERFLOW = 709.0

_POLE_MESSAGE = "log_gamma: argument within 1e-12 of a non-positive integer pole"


def _as_complex(z):
    z = np.asarray(z, dtype=np.complex128)
    return z


def is_nonpositive_integer(z, tol=POLE_TOL):
    """Elementwise test: within ``tol`` of an integer <= 0.  A NaN or
    infinite entry is no pole, as in log_gamma's scalar path."""
    z = _as_complex(z)
    z = np.where(np.isfinite(z), z, 1.0)
    n = np.round(z.real)
    return (n <= 0) & (np.abs(z - n) <= tol)


def log_gamma(z):
    """Principal-branch log Gamma(z) for complex z (scipy.special.loggamma).

    Raises PoleError if any entry is within 1e-12 of a non-positive integer.
    """
    if isinstance(z, (int, float, complex, np.number)):
        # np.round / np.abs of the array path are round-half-even and hypot,
        # as round / abs are
        z = complex(z)
        if cmath.isfinite(z):
            n = round(z.real)
            if n <= 0 and abs(z - n) <= POLE_TOL:
                raise PoleError(_POLE_MESSAGE)
        return complex(loggamma(z))
    z = _as_complex(z)
    if np.any(is_nonpositive_integer(z)):
        raise PoleError(_POLE_MESSAGE)
    out = loggamma(z)
    return complex(out) if z.ndim == 0 else out


def gamma(z):
    """Gamma(z) = exp(log_gamma(z)).

    Raises OverflowError when |log Gamma| exceeds the representable exponent.
    """
    lg = log_gamma(z)
    if np.any(np.asarray(lg).real > _EXP_OVERFLOW):
        raise OverflowError("gamma: result exceeds double-precision range")
    return np.exp(lg)


def beta(a, b):
    """Beta function B(a, b) = Gamma(a)Gamma(b)/Gamma(a+b), computed in log space.

    Requires Re a > 0 and Re b > 0 (the integral's convergence condition).
    """
    a = _as_complex(a)
    b = _as_complex(b)
    if np.any(a.real <= 0) or np.any(b.real <= 0):
        raise DomainError("beta: requires Re a > 0 and Re b > 0")
    return np.exp(log_gamma(a) + log_gamma(b) - log_gamma(a + b))


def pochhammer(a, m):
    """Rising factorial (a)_m for integer m >= 0.

    The product a (a+1) ... (a+m-1) at every order, so it is 0 when a is a
    non-positive integer > -m and keeps the dtype of ``a``; (a)_0 == 1
    exactly.  Integer ``a`` is taken as float64.
    """
    if m < 0:
        raise DomainError("pochhammer: order must be >= 0")
    a = np.asarray(a)
    if a.dtype.kind in "biu":  # an integer product would wrap silently
        a = a.astype(np.float64)
    if a.ndim == 0:
        a = a[()]  # numpy scalar arithmetic, same dtype and bits as the 0-d array
    if m == 0:
        out = np.ones(a.shape, dtype=np.result_type(a, np.float64))
        return out if a.ndim else out[()]
    out = a + 0
    for i in range(1, m):
        out = out * (a + i)
    return out
