"""Terminating generalized hypergeometric series pFq, with complex
parameters and any argument: the reference the tests compare the
recurrences of ``classical`` with.  No module of the package sums a series
with it; it stays in the package for the perfbench tracer's ``hyper`` layer.

Terminating series are summed with the running-ratio recurrence

    term_{m+1} = term_m * prod(a_i + m) / prod(b_j + m) * z / (m + 1),

which is exact up to rounding for the N+1 terms of a series whose
certificate parameter has been snapped to its integer value.  The sum runs
on numpy arrays of at least one dimension, whatever the shapes of z and the
parameters, so a scalar call is bit for bit the matching element of an
array call.
"""

from __future__ import annotations

import numpy as np

from .classical import SNAP_TOL, _check_poles
from .errors import NonTerminatingError
from .gammafn import _nonpositive_integer


def _scan(params):
    """Each parameter's sort entry: (0, re, im, index, p) for a scalar (0-d
    arrays too), (1, 0, 0, index, p) for an array.  The tuple order is the
    canonical order, so permuted parameter lists sum identically."""
    entries = []
    for i, p in enumerate(params):
        if isinstance(p, np.ndarray) and p.ndim:
            entries.append((1, 0.0, 0.0, i, p))
        else:
            c = complex(p)
            entries.append((0, c.real, c.imag, i, p))
    return entries


def hyp_terminating(numerator, denominator, z):
    """Terminating pFq(numerator; denominator; z).

    At least one numerator parameter must be a scalar within SNAP_TOL of a
    non-positive integer; the shortest such sum is taken, its parameter
    snapped to the integer, and the finite sum of N+1 terms is returned.
    Parameters and z may be broadcastable arrays; a 0-d result is a numpy
    scalar.  A scalar denominator parameter on a pole -j, j < N, raises
    DenominatorPoleError; a NaN parameter flows through the sum as NaN.
    """
    num, den = _scan(numerator), _scan(denominator)
    snaps = [(-j, e[3]) for e in num
             if not e[0] and (j := _nonpositive_integer(e[4], SNAP_TOL)) is not None]
    if not snaps:
        raise NonTerminatingError("no terminating numerator parameter found")
    degree, idx = min(snaps)  # the shortest sum; the first such parameter
    _check_poles([e[4] for e in den if not e[0]], degree)
    num[idx] = (0, float(-degree), 0.0, idx, float(-degree))
    numerator = [e[4] for e in sorted(num)]
    denominator = [e[4] for e in sorted(den)]

    vals = [np.asarray(v) for v in (z, *numerator, *denominator)]
    dtype = np.result_type(np.float64, *vals)
    shape = np.broadcast(*vals).shape
    z = np.atleast_1d(vals[0].astype(dtype))
    total = term = np.ones(shape or (1,), dtype=dtype)
    with np.errstate(invalid="ignore"):
        for m in range(degree):
            ratio = z / (m + 1)
            for a in numerator:
                ratio = ratio * (a + m)
            for b in denominator:
                ratio = ratio / (b + m)
            term = term * ratio
            total = total + term
    return total if shape else total[0]
