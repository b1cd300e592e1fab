#!/usr/bin/env python3
"""Compare two JSON sweep reports, e.g. the `--no-timestamp` reports of one
config before and after a change.

Usage: python scripts/diff_reports.py A.json B.json

Prints whether the two files are byte-identical, whether they hold the same
JSON document (equal after parsing, NaN equal to NaN), whether their case lists
match (identity, d, degrees, indices and parameters of every record, in
order), the first 20 records whose verdict fields (`passed`, `error`,
`skipped_reason`, `nodes`) changed and how many more did, the number of
changes of each of those fields, and the largest |change of rel_residual| per
family.  Exits 0 when the case lists and every verdict field match, 1 when
they do not, 2 when a file cannot be read.
"""

import argparse
import json
import math
import sys
from pathlib import Path

CASE_FIELDS = ("identity_id", "d", "m", "m2", "k", "k2", "params")
VERDICT_FIELDS = ("passed", "error", "skipped_reason", "nodes")
LISTED_CASES = 20  # changed cases listed one by one; the rest are counted


def residual_change(a, b):
    """|a - b|, 0 when both are NaN (a raised case), inf when only one is."""
    if math.isnan(a) and math.isnan(b):
        return 0.0
    if math.isnan(a) or math.isnan(b):
        return math.inf
    return abs(a - b)


def compare(raw_a, raw_b):
    """Lines of the comparison and whether the reports agree on every case
    and verdict."""
    if raw_a == raw_b:
        return ["byte-identical: yes", "same document: yes"], True
    # json parses every NaN to one shared object, and == tries identity
    # first, so the NaN residuals of two raised cases compare equal
    doc_a, doc_b = json.loads(raw_a), json.loads(raw_b)
    lines = ["byte-identical: no", f"same document: {'yes' if doc_a == doc_b else 'no'}"]
    cases_a, cases_b = doc_a["cases"], doc_b["cases"]
    keys_a = [[c.get(f) for f in CASE_FIELDS] for c in cases_a]
    keys_b = [[c.get(f) for f in CASE_FIELDS] for c in cases_b]
    if keys_a != keys_b:
        lines.append(f"case list: differs ({len(cases_a)} vs {len(cases_b)} cases)")
        return lines, False
    lines.append(f"case list: same ({len(cases_a)} cases)")
    changed = dict.fromkeys(VERDICT_FIELDS, 0)
    changed_cases = 0
    worst = {}
    for i, (a, b) in enumerate(zip(cases_a, cases_b)):
        fields = [f for f in VERDICT_FIELDS if a.get(f) != b.get(f)]
        for f in fields:
            changed[f] += 1
        if fields:
            changed_cases += 1
            if changed_cases <= LISTED_CASES:
                lines += [f"  case {i} {a['identity_id']}: {f} {a.get(f)!r} -> {b.get(f)!r}"
                          for f in fields]
        fam = a["identity_id"]
        worst[fam] = max(worst.get(fam, 0.0),
                         residual_change(a["rel_residual"], b["rel_residual"]))
    if changed_cases > LISTED_CASES:
        lines.append(f"  … and {changed_cases - LISTED_CASES} more changed cases")
    total = sum(changed.values())
    lines.append(f"verdict changes: {total}")
    lines += [f"  {f}: {n}" for f, n in changed.items()]
    lines.append("largest |change of rel_residual| per family:")
    lines += [f"  {fam:16s} {worst[fam]:.3g}" for fam in sorted(worst)]
    return lines, total == 0


def main():
    ap = argparse.ArgumentParser(description="compare two JSON sweep reports")
    ap.add_argument("a")
    ap.add_argument("b")
    args = ap.parse_args()
    try:
        raw = [Path(p).read_bytes() for p in (args.a, args.b)]
        lines, same = compare(*raw)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        ap.error(f"cannot compare the reports: {exc}")
    print("\n".join(lines))
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
