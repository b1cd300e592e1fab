"""Generalized hypergeometric series pFq, specialized to the terminating
2F1 / 3F2 / 1F1 instances used throughout (including argument z = 2 and
complex parameters).

Terminating series are summed with the running-ratio recurrence

    term_{m+1} = term_m * prod(a_i + m) / prod(b_j + m) * z / (m + 1),

which is exact up to rounding for the N+1 terms of a series whose
certificate parameter has been snapped to its integer value.

When z and every parameter are scalars (Python numbers, numpy float64,
complex128 or integer scalars) the same recurrence runs on numpy scalars of
the result dtype, skipping the shape and dtype bookkeeping of arrays.  A real
series then equals the matching element of an array call bit for bit; a
complex one agrees to rounding, because numpy's array loop for complex
multiplication may fuse multiply-adds where its scalar arithmetic does not.
"""

from __future__ import annotations

import cmath

import numpy as np

from .errors import DenominatorPoleError, NonTerminatingError

SNAP_TOL = 1e-9
TAIL_RTOL = 1e-15
MAX_TERMS = 10000

# scalars whose result dtype is float64, or complex128 for a complex
_SCALARS = (int, float, complex, np.integer)


def _is_scalar(a):
    return isinstance(a, _SCALARS) or np.ndim(a) == 0


def _snap_nonpositive_int(a, tol=SNAP_TOL):
    """Integer n <= 0 with |a - n| <= tol, or None.  Scalars only; NaN and
    infinities are not integers."""
    if not _is_scalar(a):
        return None
    a = complex(a)
    if not cmath.isfinite(a):
        return None
    n = round(a.real)
    if n <= 0 and abs(a - n) <= tol:
        return n
    return None


def _termination_degree(numerator, tol=SNAP_TOL):
    """(index, N): position of the snapped parameter and the term count bound."""
    best = None
    for i, a in enumerate(numerator):
        n = _snap_nonpositive_int(a, tol)
        if n is not None and (best is None or -n < best[1]):
            best = (i, -n)
    return best


def _check_denominator(denominator, n_terms):
    # a denominator parameter -j poles the factor (b + m) at m = j, which the
    # sum touches only while m <= n_terms - 2; later poles are harmless
    for b in denominator:
        nb = _snap_nonpositive_int(b)
        if nb is not None and -nb <= n_terms - 2:
            raise DenominatorPoleError(
                f"denominator parameter {b} hits a pole before termination"
            )


def _order_key(p):
    """Scalars first, by (re, im); arrays after, in their given order."""
    if _is_scalar(p):
        p = complex(p)
        return 0, p.real, p.imag
    return (1,)


def _sum_terms(numerator, denominator, z, degree, total):
    """Sum of the first degree+1 terms.  ``total`` is the leading 1 and ``z``
    the argument, both of the result dtype: numpy scalars, or arrays (total
    of the broadcast shape)."""
    term = total
    for m in range(degree):
        ratio = z / (m + 1)
        for a in numerator:
            ratio = ratio * (a + m)
        for b in denominator:
            ratio = ratio / (b + m)
        term = term * ratio
        total = total + term
    return total


def hyp_terminating(numerator, denominator, z, snap_tol=SNAP_TOL):
    """Terminating pFq(numerator; denominator; z).

    At least one numerator parameter must be a scalar within ``snap_tol`` of a
    non-positive integer; it is snapped to that integer and the finite sum of
    N+1 terms is returned.  Parameters and z may be broadcastable arrays.
    """
    numerator = list(numerator)
    denominator = list(denominator)
    cert = _termination_degree(numerator, snap_tol)
    if cert is None:
        raise NonTerminatingError("no terminating numerator parameter found")
    idx, degree = cert
    numerator[idx] = float(-degree)
    _check_denominator(denominator, degree + 1)
    # canonical parameter order: scalar parameters sorted by (re, im), arrays
    # after in given order, so permuted parameter lists produce identical floats
    numerator.sort(key=_order_key)
    denominator.sort(key=_order_key)

    vals = (z, *numerator, *denominator)
    if all(isinstance(v, _SCALARS) for v in vals):
        dtype = np.complex128 if any(isinstance(v, complex) for v in vals) else np.float64
        return _sum_terms(numerator, denominator, dtype(z), degree, dtype(1))
    dtype = np.result_type(np.float64, *(np.asarray(v) for v in vals))
    shape = np.broadcast_shapes(*(np.shape(v) for v in vals))
    total = _sum_terms(numerator, denominator, np.asarray(z, dtype=dtype), degree,
                       np.ones(shape, dtype=dtype))
    if total.ndim == 0:
        return total[()]
    return total


def hyp_nonterminating(numerator, denominator, z, rel_tol=TAIL_RTOL, max_terms=MAX_TERMS):
    """Convergent non-terminating pFq by direct summation.

    Supported when p <= q (all z) or p == q+1 with |z| < 1.  Scalars only;
    this path exists for oracles, not for the closed forms.
    """
    p, q = len(numerator), len(denominator)
    z = complex(z)
    if not (p <= q or (p == q + 1 and abs(z) < 1) or z == 0):
        raise NonTerminatingError(
            f"{p}F{q} at |z| = {abs(z):g} has no termination certificate and diverges"
        )
    for b in denominator:
        if _snap_nonpositive_int(b) is not None:
            raise DenominatorPoleError(f"denominator parameter {b} is a pole")
    term = 1.0 + 0.0j
    total = term
    for m in range(max_terms):
        ratio = z / (m + 1)
        for a in numerator:
            ratio *= a + m
        for b in denominator:
            ratio /= b + m
        term *= ratio
        total += term
        if abs(term) <= rel_tol * abs(total) and m > 2:
            return total
    raise NonTerminatingError(f"series did not converge within {max_terms} terms")


def hyp(numerator, denominator, z):
    """Terminating sum when a certificate exists, direct summation otherwise."""
    if _termination_degree(list(numerator)) is not None:
        return hyp_terminating(numerator, denominator, z)
    return hyp_nonterminating(numerator, denominator, z)


def hyp2f1_at_2(a, b, c):
    """2F1(a, b; c; 2): only meaningful terminating, so ``a`` must be a
    non-positive integer (within the snap tolerance)."""
    if _snap_nonpositive_int(a) is None:
        raise NonTerminatingError("2F1 at z = 2 requires a non-positive integer first parameter")
    return hyp_terminating([a, b], [c], 2.0)
