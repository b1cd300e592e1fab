"""Terminating generalized hypergeometric series pFq, with complex
parameters and any argument.  The package sums one series with it, the
3F2 at 1 of ``classical.continuous_hahn`` (and so the Hahn forms of the
form equivalences); the transform factors evaluate their 3F2 at 1 and 2F1
at 2 by three-term recurrences in the degree (``classical.hahn_3f2``,
``classical.meixner_pollaczek_2f1``), which raise the series'
DenominatorPoleError on the same denominator poles (``_check_poles``).

Terminating series are summed with the running-ratio recurrence

    term_{m+1} = term_m * prod(a_i + m) / prod(b_j + m) * z / (m + 1),

which is exact up to rounding for the N+1 terms of a series whose
certificate parameter has been snapped to its integer value.

The bookkeeping before the sum is one pass over each parameter list, which
yields each parameter's snap (termination degree or denominator pole), its
place in the canonical order and its share of the result dtype.

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

# scalars whose result dtype is float64, or complex128 for a complex
_SCALARS = (int, float, complex, np.integer)


def _snap(p):
    """The integer j <= 0 within SNAP_TOL of the scalar p, else None (also
    for NaN and inf)."""
    # round(re) <= 0 exactly when re <= 1/2 (ties go to even)
    if p.real > 0.5:  # the usual case, decided without a conversion
        return None
    c = complex(p)
    if not cmath.isfinite(c):
        return None
    j = round(c.real)
    return j if abs(c - j) <= SNAP_TOL else None


def _scan(params):
    """One pass over a parameter list, each scalar converted to complex once.

    Returns the sort entries (0, re, im, index, p) of scalars (0-d arrays
    too) and (1, 0, 0, index, p) of arrays, whose tuple order is canonical;
    the (N, index) of each scalar that snaps to an integer -N <= 0; per
    parameter 0 for a real, 1 for a complex ``_SCALARS`` value, 2 for
    anything else (numpy then sets the dtype); and whether every scalar is
    finite."""
    entries, snaps, kinds = [], [], []
    finite = True
    for i, p in enumerate(params):
        plain = isinstance(p, _SCALARS)
        if plain or np.ndim(p) == 0:
            c = complex(p)
            entries.append((0, c.real, c.imag, i, p))
            j = _snap(c)
            if j is not None:
                snaps.append((-j, i))
            finite = finite and cmath.isfinite(c)
        else:
            entries.append((1, 0, 0, i, p))
        kinds.append((1 if isinstance(p, complex) else 0) if plain else 2)
    return entries, snaps, kinds, finite


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


def _sum_nonfinite(numerator, denominator, z, degree, total):
    # _sum_terms with a NaN or infinite scalar parameter, which flows through
    # the sum as NaN; numpy would warn at each invalid operation it meets
    with np.errstate(invalid="ignore"):
        return _sum_terms(numerator, denominator, z, degree, total)


def _pole_error(p):
    return DenominatorPoleError(f"denominator parameter {p} hits a pole before termination")


def _check_poles(denominator, degree):
    """Raise hyp_terminating's DenominatorPoleError if a scalar denominator
    parameter is within SNAP_TOL of -j with j < degree.

    A parameter -j poles the factor (b + m) at m = j, which a sum of degree
    N touches only while m < N; later poles are harmless."""
    for p in denominator:
        j = _snap(p)
        if j is not None and -j < degree:
            raise _pole_error(p)


def hyp_terminating(numerator, denominator, z):
    """Terminating pFq(numerator; denominator; z).

    At least one numerator parameter must be a scalar within SNAP_TOL of a
    non-positive integer; it is snapped to that integer and the finite sum of
    N+1 terms is returned.  Parameters and z may be broadcastable arrays.
    """
    num, snaps, kinds, num_finite = _scan(numerator)
    if not snaps:
        raise NonTerminatingError("no terminating numerator parameter found")
    degree, idx = min(snaps)  # the shortest sum; the first such parameter
    num[idx] = (0, float(-degree), 0.0, idx, float(-degree))
    kinds[idx] = 0
    den, poles, den_kinds, den_finite = _scan(denominator)
    for j, i in poles:  # the rule of _check_poles
        if j < degree:
            raise _pole_error(den[i][4])
    # canonical parameter order, so permuted parameter lists produce
    # identical floats
    num.sort()
    den.sort()
    numerator = [e[4] for e in num]
    denominator = [e[4] for e in den]

    sum_terms = _sum_terms if num_finite and den_finite else _sum_nonfinite
    kind = max(kinds + den_kinds)
    if kind < 2 and isinstance(z, _SCALARS):
        dtype = np.complex128 if kind or isinstance(z, complex) else np.float64
        return sum_terms(numerator, denominator, dtype(z), degree, dtype(1))
    vals = (z, *numerator, *denominator)
    dtype = np.result_type(np.float64, *(np.asarray(v) for v in vals))
    shape = np.broadcast_shapes(*(np.shape(v) for v in vals))
    total = sum_terms(numerator, denominator, np.asarray(z, dtype=dtype), degree,
                      np.ones(shape, dtype=dtype))
    if total.ndim == 0:
        return total[()]
    return total
