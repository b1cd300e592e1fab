"""Complex gamma, log-gamma, beta and Pochhammer primitives.

Everything here is vectorized over numpy arrays and safe for concurrent use
(pure functions, no mutable state).  log_gamma is scipy's loggamma behind a
pole check; exp(log_gamma(z)) matches Gamma(z) to ~1e-13 relative on the
strip 0.5 <= Re z <= 10, |Im z| <= 40, which covers every argument the higher
modules produce.  pochhammer is the exact product at every order.  Scalar
arguments skip the array bookkeeping: log_gamma checks the pole in Python and
calls loggamma once, bit for bit the array result, as a Python complex;
pochhammer multiplies Python numbers and returns the numpy scalar of the
numpy-scalar product, bit for bit, since CPython and numpy scalars add and
multiply (complex numbers too) by the same IEEE operations; ``cexp`` is
np.exp bit for bit, through cmath.exp on a Python complex.  Complex division
is where the two differ (numpy divides through a reciprocal), so a value
that is later divided stays a numpy scalar.

One rule says when a point is an integer j <= 0: within a tolerance of it,
and never when NaN or infinite.  ``_nonpositive_integer`` is its scalar form,
``is_nonpositive_integer`` its array form; log_gamma's poles use POLE_TOL
(1e-12), the recurrence snaps of ``classical`` its SNAP_TOL (1e-9).
"""

from __future__ import annotations

import cmath

import numpy as np
from scipy.special import loggamma

from .errors import DomainError, PoleError

POLE_TOL = 1e-12

# exp overflows above ~709.78 in double precision
_EXP_OVERFLOW = 709.0

# below this |Re w| cmath.exp(w) and np.exp(w) are one libm exp times one cos
# and sin, bit for bit; above log(DBL_MAX) - 1 ~ 708.3964 cmath.exp rescales
# (and raises OverflowError past ~709.78), so it may round otherwise
_CMATH_EXP_MAX = 708.0

# the scalar types whose Pochhammer product runs on Python numbers, each
# mapped to -0.0 of the numpy scalar type that numpy scalars' product has:
# -0.0 + x is x bit for bit (signed zeros, inf and NaN included), and the
# cheapest way to make a Python number that numpy scalar
_NEG_ZERO = {float: np.float64(-0.0), np.float64: np.float64(-0.0),
             complex: np.complex128(complex(-0.0, -0.0)),
             np.complex128: np.complex128(complex(-0.0, -0.0))}

_POLE_MESSAGE = "log_gamma: argument within 1e-12 of a non-positive integer pole"


def _nonpositive_integer(z, tol):
    """The integer j <= 0 within ``tol`` of the scalar z, else None (also
    for NaN and inf): the scalar form of ``is_nonpositive_integer``."""
    # round(re) <= 0 exactly when re <= 1/2 (ties go to even)
    if z.real > 0.5:  # the usual case, decided without a conversion
        return None
    c = complex(z)
    if not cmath.isfinite(c):
        return None
    # np.round / np.abs of the array form are round-half-even and hypot, as
    # round / abs are
    j = round(c.real)
    return j if abs(c - j) <= tol else None


def is_nonpositive_integer(z, tol=POLE_TOL):
    """Elementwise test: within ``tol`` of an integer <= 0.  A NaN or
    infinite entry is no pole, as in ``_nonpositive_integer``."""
    z = np.asarray(z, dtype=np.complex128)
    z = np.where(np.isfinite(z), z, 1.0)
    n = np.round(z.real)
    return (n <= 0) & (np.abs(z - n) <= tol)


def log_gamma(z):
    """Principal-branch log Gamma(z) for complex z (scipy.special.loggamma).

    Raises PoleError if any entry is within 1e-12 of a non-positive integer.
    """
    if isinstance(z, (int, float, complex, np.number)):
        z = complex(z)
        if _nonpositive_integer(z, POLE_TOL) is not None:
            raise PoleError(_POLE_MESSAGE)
        return complex(loggamma(z))
    z = np.asarray(z, dtype=np.complex128)
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


def cexp(w):
    """exp(w) of a log-gamma sum w, np.exp's value bit for bit.

    A finite Python complex with |Re w| below 708 takes cmath.exp and gives a
    Python complex; any other w (an array, a numpy scalar, a non-finite or
    larger value) takes np.exp, with no overflow or invalid-value warning, so
    it gives np.exp's non-finite value where cmath.exp would raise.
    """
    if type(w) is complex and abs(w.real) < _CMATH_EXP_MAX and cmath.isfinite(w):
        return cmath.exp(w)
    with np.errstate(over="ignore", invalid="ignore"):
        return np.exp(w)


def beta(a, b):
    """Beta function B(a, b) = Gamma(a)Gamma(b)/Gamma(a+b), computed in log space.

    Requires Re a > 0 and Re b > 0 (the integral's convergence condition).
    """
    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    if np.any(a.real <= 0) or np.any(b.real <= 0):
        raise DomainError("beta: requires Re a > 0 and Re b > 0")
    return np.exp(log_gamma(a) + log_gamma(b) - log_gamma(a + b))


def is_index(m):
    """Whether m is a degree, order or multi-index entry: an int (not a bool) or np.integer >= 0."""
    return (type(m) is int or isinstance(m, np.integer)) and m >= 0


def pochhammer(a, m):
    """Rising factorial (a)_m for an index m (``is_index``).

    The product a (a+1) ... (a+m-1) at every order, so it is 0 when a is a
    non-positive integer > -m and keeps the dtype of ``a``; (a)_0 == 1
    exactly.  Integer ``a`` is taken as float64.  A Python or numpy float or
    complex scalar multiplies as a Python number, with no warning on
    overflow, NaN or inf, and comes back as the np.float64 or np.complex128
    that numpy scalars give, with their bits.
    """
    if not is_index(m):
        raise DomainError(f"pochhammer: order must be a nonnegative integer, got {m!r}")
    zero = _NEG_ZERO.get(type(a))
    if zero is None:
        a = np.asarray(a)
        if a.dtype.kind in "biu":  # an integer product would wrap silently
            a = a.astype(np.float64)
        if a.ndim == 0:
            a = a[()]  # numpy scalar arithmetic, same dtype and bits as the 0-d array
        if m == 0:
            out = np.ones(a.shape, dtype=np.result_type(a, np.float64))
            return out if a.ndim else out[()]
    elif m == 0:
        return zero + 1
    else:
        a = complex(a) if isinstance(a, complex) else float(a)
    out = a + 0
    for i in range(1, m):
        out = out * (a + i)
    return out if zero is None else zero + out
