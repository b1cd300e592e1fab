"""Reference routines the tests check the package against, kept off the
package path: a tanh-sinh rule for endpoint singularities, composite
Gauss-Legendre panels on a line, tensor-product quadrature over up to three
axes, the non-terminating pFq by direct summation, the homogenized
Gegenbauer polynomial as its explicit sum, and the sweep report written
through a dict and ``json.dumps`` per case record.

None of them shares code with what it checks: the Gram and transform
oracles are products of 1-D sums, the closed forms sum terminating
series only, the homogenized Gegenbauer factor runs a recurrence, and the
report writer formats each record value by value.
"""

import cmath
import csv
import json
import math
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

from orthopara.errors import DenominatorPoleError, DomainError, NonTerminatingError
from orthopara.quadrature import QuadratureRule

POLE_TOL = 1e-9
TAIL_RTOL = 1e-15
MAX_TERMS = 10000


@lru_cache(maxsize=64)
def _tanh_sinh_nodes(level):
    # nodes on (0, 1), generated directly through the logistic form
    # u = 1 / (1 + e^{-pi sinh(kh)}) so the left endpoint keeps full
    # relative precision for algebraic singularities at 0
    h = 0.5 / 2**level
    s_cap = 250.0
    k_max = int(np.ceil(np.arcsinh(s_cap / np.pi) / h))
    k = np.arange(-k_max, k_max + 1)
    s = np.pi * np.sinh(k * h)
    keep = np.abs(s) <= s_cap
    s = s[keep]
    kh = k[keep] * h
    sig = 1.0 / (1.0 + np.exp(-s))
    u = sig
    w = h * np.pi * np.cosh(kh) * sig * (1.0 - sig)
    return u, w


def tanh_sinh(level=3):
    """Tanh-sinh rule on (0, 1); integrates u^{a-1} endpoint singularities
    (a > 0) at double-exponential convergence.  Doubling ``level`` halves h."""
    u, w = _tanh_sinh_nodes(int(level))
    return QuadratureRule(u, w)


def legendre_panels(lo, hi, panels, n=12):
    """Composite Gauss-Legendre on [lo, hi]: ``panels`` equal panels of
    numpy's n-point ``leggauss`` rule, a reference independent of the
    package's trapezoid line rules."""
    x, w = leggauss(n)
    edges = np.linspace(lo, hi, panels + 1)
    half = ((edges[1:] - edges[:-1]) / 2.0)[:, None]
    return QuadratureRule((edges[:-1, None] + (x + 1.0) * half).ravel(), (w * half).ravel())


_CHUNK_LIMIT = 2**22


def tensor_integrate(rules, f):
    """Tensor-product quadrature of f(x_1, ..., x_n) for up to 3 axes.

    f must broadcast over its array arguments.  Axis order and summation
    order are fixed, so results are deterministic.
    """
    rules = list(rules)
    n = len(rules)
    if not 1 <= n <= 3:
        raise DomainError("tensor_integrate supports 1 to 3 axes")
    if n == 1:
        return np.sum(rules[0].weights * f(rules[0].nodes))
    sizes = [len(r) for r in rules]
    grids = []
    for i, r in enumerate(rules):
        shape = [1] * (n - 1)
        shape.insert(i, sizes[i])
        grids.append(r.nodes.reshape(shape))
    if int(np.prod(sizes)) <= _CHUNK_LIMIT:
        vals = f(*grids)
        w = rules[0].weights.reshape(grids[0].shape)
        for i in range(1, n):
            w = w * rules[i].weights.reshape(grids[i].shape)
        return np.sum(w * vals)
    # chunk along the first axis to bound memory
    inner_w = rules[1].weights.reshape(grids[1].shape[1:])
    for i in range(2, n):
        inner_w = inner_w * rules[i].weights.reshape(grids[i].shape[1:])
    total = 0.0 + 0.0j
    w0 = rules[0].weights
    x0 = rules[0].nodes
    for j in range(sizes[0]):
        vals = f(x0[j], *(g[0] for g in grids[1:]))
        total += w0[j] * np.sum(inner_w * vals)
    return total


def _is_pole(b):
    """Whether b lies within POLE_TOL of a non-positive integer."""
    b = complex(b)
    if not cmath.isfinite(b):
        return False
    n = round(b.real)
    return n <= 0 and abs(b - n) <= POLE_TOL


def hyp_nonterminating(numerator, denominator, z, rel_tol=TAIL_RTOL, max_terms=MAX_TERMS):
    """Convergent non-terminating pFq by direct summation.

    Supported when p <= q (all z) or p == q+1 with |z| < 1.  Scalars only.
    """
    p, q = len(numerator), len(denominator)
    z = complex(z)
    if not (p <= q or (p == q + 1 and abs(z) < 1) or z == 0):
        raise NonTerminatingError(
            f"{p}F{q} at |z| = {abs(z):g} has no termination certificate and diverges"
        )
    for b in denominator:
        if _is_pole(b):
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


def gegenbauer_homogeneous_sum(m, lam, u, s):
    """s^{m/2} C_m^(lam)(u / sqrt(s)) as the explicit alternating sum

        sum_i (-1)^i (lam)_{m-i} / (i! (m-2i)!) (2u)^{m-2i} s^i,

    which needs no sqrt(s): the one reference at s = 0 and at |u| > sqrt(s),
    where C_m(u / sqrt(s)) is out of reach.  With |u| and -s (lam >= 0) it
    is the sum of the terms' absolute values, the scale of its rounding.
    """
    u, s = np.asarray(u), np.asarray(s)
    total = 0.0
    for i in range(m // 2 + 1):
        coef = (-1) ** i * math.prod(lam + j for j in range(m - i)) / (
            math.factorial(i) * math.factorial(m - 2 * i))
        total = total + coef * (2 * u) ** (m - 2 * i) * s**i
    return total


CSV_COLUMNS = ["identity_id", "d", "m", "m2", "k", "k2", "lhs", "rhs",
               "abs_residual", "rel_residual", "passed", "skipped_reason", "error",
               "nodes", "seconds", "params"]


def case_record(report, no_timestamp):
    """A report's case record as a dict, fields in report order."""
    case = report.case
    rec = {
        "identity_id": case.identity_id,
        "d": case.d,
        "m": case.m,
        "m2": case.m2,
        "k": list(case.k) if case.k is not None else None,
        "k2": list(case.k2) if case.k2 is not None else None,
        "params": {key: case.params[key] for key in sorted(case.params)},
        "lhs": {"re": report.lhs.real, "im": report.lhs.imag},
        "rhs": {"re": report.rhs.real, "im": report.rhs.imag},
        "abs_residual": report.abs_residual,
        "rel_residual": report.rel_residual,
        "passed": report.passed,
        "nodes": report.nodes,
        "seconds": 0.0 if no_timestamp else report.seconds,
    }
    if report.skipped_reason is not None:
        rec["skipped_reason"] = report.skipped_reason
    if report.error is not None:
        rec["error"] = report.error
    if case.xi is not None:
        rec["params"] = dict(rec["params"], **{f"xi{i+1}": v for i, v in enumerate(case.xi)})
    return rec


def csv_row(rec):
    """The CSV columns of a ``case_record``, each as its text."""
    return [
        rec["identity_id"], str(rec["d"]), str(rec["m"]), str(rec["m2"]),
        "|".join(map(str, rec["k"])) if rec["k"] else "",
        "|".join(map(str, rec["k2"])) if rec["k2"] else "",
        f"{rec['lhs']['re']!r}{rec['lhs']['im']:+}i",
        f"{rec['rhs']['re']!r}{rec['rhs']['im']:+}i",
        repr(rec["abs_residual"]), repr(rec["rel_residual"]),
        str(rec["passed"]).lower(), rec.get("skipped_reason", ""), rec.get("error", ""),
        str(rec["nodes"]), repr(rec["seconds"]),
        ";".join(f"{key}={val!r}" for key, val in rec["params"].items()),
    ]


def write_json_report(header, records, timestamp, fh):
    """The JSON report of ``header`` and ``case_record`` dicts: the header
    indented, then ``json.dumps`` of each record on a line of its own."""
    fh.write("{\n")
    for key, value in header.items():
        body = json.dumps(value, indent=1).replace("\n", "\n ")
        fh.write(f" {json.dumps(key)}: {body},\n")
    fh.write(' "cases": [')
    fh.write(",".join("\n" + json.dumps(rec) for rec in records))
    fh.write("\n ]")
    if timestamp is not None:
        fh.write(f',\n "timestamp": {json.dumps(timestamp)}')
    fh.write("\n}\n")


def write_csv_report(records, fh):
    """The CSV report of ``case_record`` dicts, one ``csv_row`` a line."""
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    writer.writerows(csv_row(rec) for rec in records)
