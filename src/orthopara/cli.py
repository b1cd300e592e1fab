"""Command-line front end: case sweeps with machine-readable reports, plus a
single-point evaluator for spot debugging.

Subcommands:
  sweep            generate and run the identity-verification case list
  eval             print one evaluation at full precision
  list-identities  show every identity family and its default tolerance

A JSON sweep report is one document: "config" and "summary" indented, then
"cases", one compact case record per line, then "timestamp" (absent under
--no-timestamp).

Sweep reproducibility contract: a fixed SweepConfig (seed included) yields a
byte-identical JSON report when --no-timestamp is set (which also zeroes the
per-case wall-time fields, the only other run-dependent data).
"""

from __future__ import annotations

import argparse
import cmath
import csv
import dataclasses
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from types import SimpleNamespace

import numpy as np

from . import verifier
from .ball import ball_eval, validate_multi_index
from .errors import ConfigError, DomainError, ParseError, PoleError
from .paraboloid import jacobi_paraboloid, laguerre_paraboloid
from .transforms import (
    SPLIT_NAMES, SplitParams, WrapParamsJacobi, WrapParamsLaguerre, eval_A, eval_B, eval_D,
    eval_g, eval_h_jacobi, eval_h_laguerre, fourier_h_jacobi_closed,
    fourier_h_laguerre_closed, lambda_factor, phi_factor, theta_factor,
)
from .verifier import (
    ALL_FAMILIES, FAMILIES, FAMILY_GROUPS, generate_cases, run_case,
)

# SweepConfig annotation -> accepted types (an int field rejects bools too)
_FIELD_TYPES = {"int": int, "list": list, "dict": dict, "str": str, "bool": bool,
                "str | None": (str, type(None))}


@dataclass
class SweepConfig:
    """Flat sweep configuration; JSON config files carry the same field names
    and CLI flags override file values.  Draws come from a PCG64 generator
    (numpy default_rng) seeded with ``seed``, so the case list is a pure
    function of this object.  A report's "config" block holds every field
    but the ``_OUTPUT_FIELDS``, in field order."""
    families: list = field(default_factory=lambda: list(ALL_FAMILIES))
    dims: list = field(default_factory=lambda: [1, 2])
    seed: int = 42
    max_degree_1d: int = 6
    max_degree_multi: int = 3
    fourier_max_degree: int = 2
    parseval_max_degree: int = 2
    ort_param_draws: int = 3
    fourier_xi_draws: int = 2
    contig_draws: int = 100
    form_draws: int = 200
    tolerances: dict = field(default_factory=dict)
    out_format: str = "json"
    out_path: str | None = None
    no_timestamp: bool = False

    def validate(self):
        """Check every field, expanding family groups and sorting the
        tolerances by family in place; ConfigError on the first bad one."""
        for f in dataclasses.fields(self):
            val = getattr(self, f.name)
            if not isinstance(val, _FIELD_TYPES[f.type]) or (
                    f.type == "int" and isinstance(val, bool)):
                raise ConfigError(f"{f.name} must be {f.type}, got {val!r}")
            if f.type == "int" and val < 0:
                raise ConfigError(f"{f.name} must be nonnegative")
        self.families = expand_families(self.families)
        if (not self.dims or any(type(d) is not int or d not in (1, 2, 3) for d in self.dims)
                or len(set(self.dims)) != len(self.dims)):
            raise ConfigError(f"dims must be a nonempty subset of {{1, 2, 3}} without repeats, "
                              f"got {self.dims!r}")
        for fam, tol in self.tolerances.items():
            if fam not in ALL_FAMILIES:
                raise ConfigError(f"tolerance for unknown family {fam!r}")
            if isinstance(tol, bool) or not isinstance(tol, (int, float)) or not 0 < tol < math.inf:
                raise ConfigError(f"tolerance for {fam} must be a positive finite number, "
                                  f"got {tol!r}")
        self.tolerances = dict(sorted(self.tolerances.items()))
        if self.out_format not in ("json", "csv"):
            raise ConfigError("out_format must be 'json' or 'csv'")
        if self.out_path == "":
            raise ConfigError("out_path must be a path or null, got ''")
        return self


_OUTPUT_FIELDS = ("out_format", "out_path", "no_timestamp")


@dataclass
class RunSummary:
    total: int
    passed: int
    failed: int
    skipped: int
    worst_residual: dict
    wall_time: float


def expand_families(names):
    out = []
    for name in names:
        if name == "all":
            out.extend(ALL_FAMILIES)
        elif isinstance(name, str) and name in FAMILY_GROUPS:
            out.extend(FAMILY_GROUPS[name])
        elif name in ALL_FAMILIES:
            out.append(name)
        else:
            raise ConfigError(f"unknown family or group {name!r}")
    seen = set()
    return [f for f in out if not (f in seen or seen.add(f))]


def load_config(path):
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path} must hold a JSON object")
    cfg = SweepConfig()
    valid = {f.name for f in dataclasses.fields(SweepConfig)}
    for key, val in raw.items():
        if key not in valid:
            raise ConfigError(f"unknown config field {key!r}")
        setattr(cfg, key, val)
    return cfg


_CSV_COLUMNS = ("identity_id", "d", "m", "m2", "k", "k2", "lhs", "rhs", "abs_residual",
                "rel_residual", "passed", "skipped_reason", "error", "nodes", "seconds", "params")

_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_list(values):
    return f"[{', '.join(map(_json_value, values))}]"


# exact type -> the text json.dumps gives a value of that type; a string
# goes through json's own ASCII escaper
_JSON_TEXT = {
    str: encode_basestring_ascii, int: int.__repr__,
    bool: lambda value: "true" if value else "false", type(None): lambda value: "null",
    tuple: _json_list,
}


def _json_value(value):
    """``json.dumps(value)``, without the call for a float (its
    ``float.__repr__``, NaN and the infinities spelled as json spells them)
    or a value of a type in ``_JSON_TEXT``."""
    if type(value) is float:
        text = float.__repr__(value)
        return _NON_FINITE.get(text, text)
    return _JSON_TEXT.get(type(value), json.dumps)(value)


def _params_texts(cases, items, sep):
    """Each case's params as the ``sep``-joined texts ``items(mapping, names)``
    gives for its params by name, then xi1, xi2, ... from ``case.xi`` (a
    name already there keeps its place).  A draw's texts are formatted once
    and reused while consecutive cases share its params dict."""
    params = names = texts = text = None
    for case in cases:
        if case.params is not params:
            params = case.params
            names = sorted(params)
            texts = items(params, names)
            text = sep.join(texts)
        if case.xi is None:
            yield text
        else:
            xi = {f"xi{i}": v for i, v in enumerate(case.xi, 1)}
            merged = dict(zip(names, texts))
            merged.update(zip(xi, items(xi, xi)))
            yield sep.join(merged.values())


def _json_items(mapping, names):
    return [f"{encode_basestring_ascii(name)}: {_json_value(mapping[name])}" for name in names]


def _csv_items(mapping, names):
    return [f"{name}={mapping[name]!r}" for name in names]


def _json_records(reports, no_timestamp):
    """Each report's case record as one line of compact JSON, written value
    by value with no dict: the bytes ``json.dumps`` gives for the record as
    a dict with its fields in the order below, skipped_reason and error last
    when set."""
    params = _params_texts((r.case for r in reports), _json_items, ", ")
    for report, params_text in zip(reports, params):
        case, lhs, rhs = report.case, report.lhs, report.rhs
        line = (
            f'{{"identity_id": {_json_value(case.identity_id)}, "d": {_json_value(case.d)}, '
            f'"m": {_json_value(case.m)}, "m2": {_json_value(case.m2)}, '
            f'"k": {_json_value(case.k)}, "k2": {_json_value(case.k2)}, '
            f'"params": {{{params_text}}}, '
            f'"lhs": {{"re": {_json_value(lhs.real)}, "im": {_json_value(lhs.imag)}}}, '
            f'"rhs": {{"re": {_json_value(rhs.real)}, "im": {_json_value(rhs.imag)}}}, '
            f'"abs_residual": {_json_value(report.abs_residual)}, '
            f'"rel_residual": {_json_value(report.rel_residual)}, '
            f'"passed": {_json_value(report.passed)}, "nodes": {_json_value(report.nodes)}, '
            f'"seconds": {_json_value(0.0 if no_timestamp else report.seconds)}'
        )
        if report.skipped_reason is not None:
            line += f', "skipped_reason": {_json_value(report.skipped_reason)}'
        if report.error is not None:
            line += f', "error": {_json_value(report.error)}'
        yield line + "}"


def _csv_rows(reports, no_timestamp):
    """Each report's CSV row, one text per column of ``_CSV_COLUMNS``: a
    complex value as re+imi, a multi-index joined by "|", params as
    name=value joined by ";", a float by its repr."""
    params = _params_texts((r.case for r in reports), _csv_items, ";")
    for report, params_text in zip(reports, params):
        case, lhs, rhs = report.case, report.lhs, report.rhs
        yield (
            case.identity_id, str(case.d), str(case.m), str(case.m2),
            "|".join(map(str, case.k)) if case.k else "",
            "|".join(map(str, case.k2)) if case.k2 else "",
            f"{lhs.real!r}{lhs.imag:+}i", f"{rhs.real!r}{rhs.imag:+}i",
            repr(report.abs_residual), repr(report.rel_residual),
            str(report.passed).lower(), report.skipped_reason or "", report.error or "",
            str(report.nodes), repr(0.0 if no_timestamp else report.seconds), params_text,
        )


def _write_json(header, lines, timestamp, fh):
    """One JSON document {header..., "cases": [...], "timestamp"?}: the
    header indented by ``json.dumps``, then each line of ``lines`` (the case
    records of ``_json_records``) on a line of its own.  In
    tests/test_cli.py, ``test_report_lines_match_json_dumps_of_the_record_dict``
    holds each record line, and ``test_json_report_writes_one_record_per_line``
    the JSON and CSV files ``run_sweep`` writes, to the bytes of
    ``json.dumps`` over the record dicts of tests/references.py."""
    fh.write("{\n")
    for key, value in header.items():
        body = json.dumps(value, indent=1).replace("\n", "\n ")  # one level deeper
        fh.write(f" {json.dumps(key)}: {body},\n")
    fh.write(' "cases": [')
    sep = "\n"
    for line in lines:
        fh.write(sep + line)
        sep = ",\n"
    fh.write("\n ]")
    if timestamp is not None:
        fh.write(f',\n "timestamp": {json.dumps(timestamp)}')
    fh.write("\n}\n")


def _write_csv(rows, fh):
    """A header line of ``_CSV_COLUMNS``, then one line per row, quoted as
    RFC 4180 says: a field holding a comma, a quote, a carriage return or a
    line feed in quotes, each quote in it doubled.  ``csv.writer`` quotes a
    field holding a character of its line terminator, so it ends each row
    in "\\r\\n", which the write below turns into "\\n"."""
    writer = csv.writer(SimpleNamespace(write=lambda line: fh.write(line[:-2] + "\n")),
                        lineterminator="\r\n")
    writer.writerow(_CSV_COLUMNS)
    writer.writerows(rows)


def run_sweep(cfg: SweepConfig) -> RunSummary:
    """Execute all generated cases and write the report (per-case records
    plus a summary) if ``cfg.out_path`` is set.

    Returns the RunSummary; callers print it and decide the exit status
    (0 iff failed == 0).
    """
    cfg.validate()
    t_start = time.perf_counter()
    cases = generate_cases(cfg)
    reports = []
    for i, case in enumerate(cases, 1):
        try:
            reports.append(run_case(case))
        except Exception as exc:  # mark non-verifiable cases failed, keep going
            reports.append(
                verifier.VerificationReport(
                    case=case, lhs=0j, rhs=0j, abs_residual=float("nan"),
                    rel_residual=float("nan"), passed=False, nodes=0,
                    seconds=0.0, error=f"{type(exc).__name__}: {exc}",
                )
            )
        if case.draw is not None and (i == len(cases) or cases[i].draw is not case.draw):
            case.draw.release()  # the sweep is past the draw's last case
    failed = skipped = 0
    worst = {}
    for r in reports:
        failed += not r.passed
        if r.skipped_reason is not None:
            skipped += 1
        elif math.isfinite(r.rel_residual):
            fam = r.case.identity_id
            worst[fam] = max(worst.get(fam, 0.0), r.rel_residual)
    passed = len(reports) - failed - skipped
    wall = time.perf_counter() - t_start
    summary = RunSummary(len(reports), passed, failed, skipped,
                         {key: worst[key] for key in sorted(worst)}, wall)

    header = {
        "config": {f.name: getattr(cfg, f.name) for f in dataclasses.fields(cfg)
                   if f.name not in _OUTPUT_FIELDS},
        "summary": dataclasses.asdict(
            dataclasses.replace(summary, wall_time=0.0) if cfg.no_timestamp else summary),
    }
    timestamp = None if cfg.no_timestamp else time.strftime("%Y-%m-%dT%H:%M:%S")

    if cfg.out_path:
        try:
            with open(cfg.out_path, "w", newline="") as fh:
                if cfg.out_format == "json":
                    _write_json(header, _json_records(reports, cfg.no_timestamp), timestamp, fh)
                else:
                    _write_csv(_csv_rows(reports, cfg.no_timestamp), fh)
        except OSError as exc:
            raise IOError(f"cannot write report to {cfg.out_path}: {exc}") from exc
    return summary


def _summary_text(summary):
    lines = [f"{summary.total} cases: {summary.passed} passed, "
             f"{summary.failed} failed, {summary.skipped} skipped "
             f"({summary.wall_time:.1f} s)"]
    lines += [f"  worst {fam}: {summary.worst_residual[fam]:.3e}"
              for fam in sorted(summary.worst_residual)]
    return "\n".join(lines)


def _print(text):
    """Print ``text`` to stdout.  If the reader of stdout is gone, what
    stdout still holds goes to devnull, so neither this print nor the flush
    at exit raises, and the exit status is the command's, not the pipe's."""
    try:
        print(text, flush=True)
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


# ---------------------------------------------------------------------------
# eval subcommand


def _parse_kv(text):
    out = {}
    if not text:
        return out
    for piece in text.split(","):
        if "=" not in piece:
            raise ParseError(f"expected name=value, got {piece!r}")
        key, val = piece.split("=", 1)
        key = key.strip()
        if key in out:
            raise ParseError(f"parameter {key!r} given twice")
        try:
            value = float(val)
        except ValueError as exc:
            raise ParseError(f"bad numeric value in {piece!r}") from exc
        if not math.isfinite(value):
            raise ParseError(f"non-finite value in {piece!r}")
        out[key] = value
    return out


# the largest --d, --m or --k entry eval accepts: no shipped config or gate
# goes above degree 30 or d = 3, an unbounded degree can run for minutes, and
# an unbounded --d allocates its multi-index before any point is parsed
MAX_EVAL_SIZE = 10_000


def _check_eval_size(n, what):
    if n > MAX_EVAL_SIZE:
        raise ParseError(f"{what} {n} is above the eval size bound {MAX_EVAL_SIZE}")


def _parse_multi_index(text, d):
    if text is None:
        return tuple([0] * d)
    try:
        k = validate_multi_index(int(v) for v in text.split(","))
    except (ValueError, DomainError) as exc:
        raise ParseError(f"malformed multi-index {text!r}") from exc
    if len(k) != d:
        raise ParseError(f"multi-index {text!r} must have {d} nonnegative entries")
    _check_eval_size(max(k), "--k entry")
    return k


def _parse_complex_list(text, d, what):
    if text is None:
        raise ParseError(f"--{what} is required for this function")
    try:
        vals = [complex(v) for v in text.split(",")]
    except ValueError as exc:
        raise ParseError(f"malformed {what} list {text!r}") from exc
    if not all(map(cmath.isfinite, vals)):
        raise ParseError(f"non-finite entry in {what} list {text!r}")
    if len(vals) != d:
        raise ParseError(f"--{what} must have {d} entries")
    return vals


def _parse_real_list(text, d, what):
    vals = _parse_complex_list(text, d, what)
    if any(v.imag for v in vals):
        raise ParseError(f"--{what} must be real for this function, got {text!r}")
    return [v.real for v in vals]


def _axis(kv):
    axis = kv.get("axis", 1.0)
    if not axis.is_integer():
        raise ParseError(f"axis must be an integer, got {axis!r}")
    return int(axis)


def _degree(args):
    if args.m is None:
        raise ParseError("--m is required")
    _check_eval_size(args.m, "--m")
    return args.m


# point kind -> its value, parsed from the eval arguments and --params values
_POINT_KINDS = {
    "m": lambda args, kv: _degree(args),
    "axis": lambda args, kv: _axis(kv),
    "t": lambda args, kv: _parse_complex_list(args.t, 1, "t")[0],
    "real t": lambda args, kv: _parse_real_list(args.t, 1, "t")[0],
    "x": lambda args, kv: _parse_complex_list(args.x, args.d, "x"),
    "real x": lambda args, kv: _parse_real_list(args.x, args.d, "x"),
    "xi": lambda args, kv: _parse_real_list(args.xi, 1, "xi")[0],
    "xi vector": lambda args, kv: _parse_real_list(args.xi, args.d + 1, "xi"),
}

_WRAP_J, _WRAP_L = (tuple(f.name for f in dataclasses.fields(cls))
                    for cls in (WrapParamsJacobi, WrapParamsLaguerre))

# fn -> (evaluator, parameter names, point kinds), called as
# evaluator(k, [the named --params values], *[the point values]); an
# evaluator reads d as len(k), and --d fixes the lengths of --k, --x and --xi
EVAL_TABLE = {
    "g": (lambda k, p, x: eval_g(k, *p, x), ("alpha", "mu"), ("real x",)),
    "ball": (lambda k, p, x: ball_eval(k, *p, x), ("mu",), ("real x",)),
    "Q": (lambda k, p, m, t, x: jacobi_paraboloid(m, k, *p, t, x),
          ("beta", "gamma", "mu"), ("m", "real t", "real x")),
    "R": (lambda k, p, m, t, x: laguerre_paraboloid(m, k, *p, t, x),
          ("beta", "mu"), ("m", "real t", "real x")),
    "hJ": (lambda k, p, m, t, x: eval_h_jacobi(m, k, WrapParamsJacobi(*p), t, x),
           _WRAP_J, ("m", "real t", "real x")),
    "hL": (lambda k, p, m, t, x: eval_h_laguerre(m, k, WrapParamsLaguerre(*p), t, x),
           _WRAP_L, ("m", "real t", "real x")),
    "phi": (lambda k, p, axis, xi: phi_factor(axis, *p, k, xi), ("alpha", "mu"), ("axis", "xi")),
    "theta": (lambda k, p, m, xi: theta_factor(m, k, *p, xi),
              ("zeta", "eta", "beta", "gamma", "mu"), ("m", "xi")),
    "lambda": (lambda k, p, m, xi: lambda_factor(m, k, *p, xi),
               ("zeta", "mu", "beta"), ("m", "xi")),
    "fourierJ": (lambda k, p, m, xi: fourier_h_jacobi_closed(m, k, WrapParamsJacobi(*p), xi),
                 _WRAP_J, ("m", "xi vector")),
    "fourierL": (lambda k, p, m, xi: fourier_h_laguerre_closed(m, k, WrapParamsLaguerre(*p), xi),
                 _WRAP_L, ("m", "xi vector")),
    "D": (lambda k, p, x: eval_D(k, *p, x), SPLIT_NAMES[:2], ("x",)),
    "A": (lambda k, p, m, t, x: eval_A(m, k, SplitParams(*p), t, x), SPLIT_NAMES, ("m", "t", "x")),
    "B": (lambda k, p, m, t, x: eval_B(m, k, SplitParams(*p), t, x), SPLIT_NAMES[:4],
          ("m", "t", "x")),
}
EVAL_FUNCTIONS = tuple(EVAL_TABLE)


def eval_point(args) -> complex:
    """Evaluate ``EVAL_TABLE[args.fn]`` (``--fn`` choices are its keys) at
    one point: parse what its entry names, then call its evaluator.  A
    result that overflowed to inf or nan is a DomainError."""
    evaluator, names, kinds = EVAL_TABLE[args.fn]
    if args.d < 1:
        raise ParseError(f"--d must be at least 1, got {args.d}")
    _check_eval_size(args.d, "--d")
    kv = _parse_kv(args.params)
    unknown = [n for n in kv if n not in names and not (n == "axis" and "axis" in kinds)]
    if unknown:
        raise ParseError(f"unknown parameters for {args.fn}: {', '.join(unknown)}")
    missing = [n for n in names if n not in kv]
    if missing:
        raise ParseError(f"missing parameters: {', '.join(missing)}")
    k = _parse_multi_index(args.k, args.d)
    points = [_POINT_KINDS[kind](args, kv) for kind in kinds]
    with np.errstate(all="ignore"):
        value = complex(evaluator(k, [kv[n] for n in names], *points))
    if not cmath.isfinite(value):
        raise DomainError(f"{args.fn} is not finite at this point: {value}")
    return value


def build_parser():
    parser = argparse.ArgumentParser(
        prog="orthopara",
        description="verify the orthogonal-structure identities and evaluate the underlying functions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sw = sub.add_parser("sweep", help="run an identity-verification sweep")
    sw.add_argument("--config", help="flat JSON config file (CLI flags override)")
    sw.add_argument("--seed", type=int, help="PRNG seed for the case draws")
    sw.add_argument("--tol", type=float, help="override every family tolerance")
    sw.add_argument("--d", dest="dims", help="comma-separated dimension list, e.g. 1,2,3")
    sw.add_argument("--max-degree", dest="max_degree_multi", type=int,
                    help="multivariate total-degree cap")
    sw.add_argument("--families", help="comma-separated family ids or groups (ORT, FOURIER, PARSEVAL, CONTIG, FORM_EQUIV, all)")
    sw.add_argument("--format", dest="out_format", choices=("json", "csv"), help="report format")
    sw.add_argument("--out", dest="out_path", help="report output path")
    sw.add_argument("--no-timestamp", action="store_true", default=None,
                    help="omit timestamps and wall times for byte-identical reruns")

    ev = sub.add_parser("eval", help="evaluate one function at one point")
    ev.add_argument("--fn", required=True, choices=EVAL_FUNCTIONS)
    ev.add_argument("--d", type=int, required=True)
    ev.add_argument("--m", type=int)
    ev.add_argument("--k", help="comma-separated multi-index, e.g. 1,0")
    ev.add_argument("--params", help="comma-separated name=value parameters")
    ev.add_argument("--t", help="t coordinate (complex ok, e.g. 0.3+0.2j)")
    ev.add_argument("--x", help="comma-separated x coordinates")
    ev.add_argument("--xi", help="comma-separated frequency coordinates")

    sub.add_parser("list-identities", help="list identity families")
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.command == "list-identities":
        _print("\n".join(f"{fam.id:16s} tol={fam.tolerance:.0e}  {fam.description}"
                          for fam in FAMILIES.values()))
        return 0

    if args.command == "sweep":
        try:
            cfg = load_config(args.config) if args.config else SweepConfig()
            if args.tol is not None:
                cfg.tolerances = {fam: args.tol for fam in ALL_FAMILIES}
            if args.dims is not None:
                try:
                    args.dims = [int(v) for v in args.dims.split(",")]
                except ValueError as exc:
                    raise ConfigError(f"bad dimension list {args.dims!r}") from exc
            if args.families is not None:
                args.families = args.families.split(",")
            # a flag's dest is the SweepConfig field it sets (--config and --tol aside)
            for f in dataclasses.fields(cfg):
                value = getattr(args, f.name, None)
                if value is not None:
                    setattr(cfg, f.name, value)
            summary = run_sweep(cfg)
        except ConfigError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 2
        except IOError as exc:
            print(f"io error: {exc}", file=sys.stderr)
            return 3
        # the report is written, so the status follows the verdicts, with
        # or without a reader of stdout
        _print(_summary_text(summary))
        return 0 if summary.failed == 0 else 1

    # eval
    try:
        value = eval_point(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        print("usage: orthopara eval --fn NAME --d D [--m M] [--k 1,0] "
              "[--params name=value,...] [--t T] [--x X1,...] [--xi XI1,...]",
              file=sys.stderr)
        return 2
    except (DomainError, PoleError) as exc:
        print(f"evaluation error: {exc}", file=sys.stderr)
        return 4
    _print(f"{args.fn} = ({value.real!r}) + ({value.imag!r})j")
    return 0


if __name__ == "__main__":
    sys.exit(main())
