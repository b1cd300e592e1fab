"""Benchmark workloads and the case-list guard.

Each workload is a full ``SweepConfig`` minus the seed, with its families
spelled out (never ``all``), so a family added to the library later does not
silently change a workload.

The guard keeps a speed-up from coming out of a smaller sweep or a looser
tolerance.  ``recorded.json`` holds, per workload, the per-family case count
and tolerance (seed independent) and a digest of the full case list, every
tolerance and parameter included, for seeds 0 .. RECORDED_SEEDS - 1.  Rebuild
it only when a workload is added or changed on purpose:

    python3 perfbench/workloads.py
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

RECORDED = Path(__file__).resolve().with_name("recorded.json")
RECORDED_SEEDS = 256

ROMAN = ("i", "ii", "iii", "iv", "v", "vi", "vii")
CONTIG = [f"CONTIG_{side}_{r}" for side in "AB" for r in ROMAN]
FORM_EQUIV = ["FORM_EQUIV_PHI", "FORM_EQUIV_D", "FORM_EQUIV_A"]
ORT_1D = ["ORT_GEGEN", "ORT_JACOBI", "ORT_LAGUERRE"]

# Fields every workload sets; the library defaults are written out so a change
# of default does not change a workload.
_BASE = {
    "dims": [1, 2], "max_degree_1d": 6, "max_degree_multi": 3,
    "fourier_max_degree": 2, "parseval_max_degree": 2, "ort_param_draws": 3,
    "fourier_xi_draws": 2, "contig_draws": 100, "form_draws": 200,
    "tolerances": {},
}

WORKLOADS = {
    # The default sweep (3030 cases): the headline time to verdict.  Most of
    # its time is in the grid oracles (Parseval d = 2, ORT_PARA d = 2).
    "sweep-default": dict(_BASE, families=ORT_1D + [
        "ORT_BALL", "ORT_PARA_J", "ORT_PARA_L", "FOURIER_J", "FOURIER_L",
        "PARSEVAL_A", "PARSEVAL_B"] + CONTIG + FORM_EQUIV),
    # Closed forms only, no quadrature: scalar log_gamma and short
    # hyp_terminating calls, i.e. per-call overhead.  3200 cases: over 3030,
    # so p99 has 30 cases beyond it, and short enough for several sweeps a run.
    "series-scalar": dict(_BASE, families=CONTIG + FORM_EQUIV,
                          contig_draws=160, form_draws=320),
    # 1-D Gram matrices up to degree 20: long series on node arrays, and the
    # digit loss of the hypergeometric polynomial evaluation (most cases
    # fail to certify today; the degree is chosen to show that).
    "gram-highdeg": dict(_BASE, families=ORT_1D, max_degree_1d=20,
                         ort_param_draws=6),
}


def _case_line(case):
    return json.dumps([
        case.identity_id, case.d, case.tolerance, case.m, case.m2,
        None if case.k is None else list(case.k),
        None if case.k2 is None else list(case.k2),
        sorted(case.params.items()),
        None if case.xi is None else list(case.xi),
    ])


def case_digest(cases):
    """Digest of the ordered case list; floats enter at full precision."""
    h = hashlib.sha256()
    for case in cases:
        h.update(_case_line(case).encode())
        h.update(b"\n")
    return h.hexdigest()[:16]


def case_shape(cases):
    """{family: [case count, sorted distinct tolerances]}; seed independent."""
    shape = {}
    for case in cases:
        entry = shape.setdefault(case.identity_id, [0, set()])
        entry[0] += 1
        entry[1].add(case.tolerance)
    return {fam: [n, sorted(tols)] for fam, (n, tols) in sorted(shape.items())}


def guard_problems(record, seed, shape, digest):
    """Why a generated case list differs from the recorded one ([] if not)."""
    problems = []
    if shape != record["families"]:
        problems.append(f"per-family case counts or tolerances differ: recorded "
                        f"{record['families']}, generated {shape}")
    want = record["digests"].get(str(seed))
    if want is not None and want != digest:
        problems.append(f"case-list digest for seed {seed} is {digest}, recorded {want}")
    return problems


def record(config, seeds):
    """Guard record of one workload config for the given seeds."""
    from orthopara.cli import SweepConfig
    from orthopara.verifier import generate_cases

    families, digests = None, {}
    for seed in seeds:
        cases = generate_cases(SweepConfig(**config, seed=seed))
        shape = case_shape(cases)
        if families is not None and shape != families:
            raise RuntimeError(f"case-list shape depends on the seed ({seed})")
        families = shape
        digests[str(seed)] = case_digest(cases)
    return {"families": families, "digests": digests}


def load_recorded():
    return json.loads(RECORDED.read_text())


def main():
    sys.path.insert(0, str(RECORDED.parents[1] / "src"))
    doc = {name: record(cfg, range(RECORDED_SEEDS)) for name, cfg in WORKLOADS.items()}
    RECORDED.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
