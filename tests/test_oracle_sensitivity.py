"""Every identity family must fail when a formula it checks is wrong.

One table of (target, mutation, families that must fail).  Each row replaces
one closed form, norm or polynomial by a wrong version wherever the package
binds it by name, runs a reduced sweep of the listed families on a fresh draw
memo, and asserts that at least one case of each listed family fails.  A case
that raises counts as failed, as in a sweep, except for a TypeError: that
says the wrong version no longer fits the signature of the function it
replaces, so the row would pass without testing the formula.

A form equivalence compares two independent computations of one
polynomial: the closed-form side runs the three-term recurrence in the
degree (``classical.hahn_3f2``), the Hahn side sums the terminating series
(``classical.continuous_hahn``), so a wrong recurrence and a wrong series
each fail FORM_EQUIV.

Blind spots, pinned by ``BLIND_SPOTS``: a contiguous relation is homogeneous
and linear, so CONTIG cannot see a constant factor on A or B; a form
equivalence cannot see a factor both forms share, which is now only a
Gamma or Beta prefactor (the Beta part of phi); the Parseval integral is
symmetric under swapping (a1, a2) in D, so PARSEVAL cannot see that swap.  No
sweep family checks ``eval_B_hahn``, because a FORM_EQUIV_B family would
change the default sweep; ``test_transforms.test_B_hahn_form_agrees`` checks
it.
"""

import sys

import numpy as np
import pytest

from orthopara import verifier
from orthopara.cli import SweepConfig
from orthopara.verifier import generate_cases, run_case

EPS = 1e-3


def scaled(f):
    return lambda *a, **kw: f(*a, **kw) * (1 + EPS)


def degree_scaled(f):
    # a factor 1 + EPS m on a function of the degree m (its first argument)
    return lambda m, *a: f(m, *a) * (1 + EPS * m)


def scaled_first(f):
    # the first of the returned (value, ...) pair
    def g(*a):
        value, *rest = f(*a)
        return (value * (1 + EPS), *rest)
    return g


def conjugate_xi(f):
    # i xi -> -i xi in a factor whose last argument is the real frequency xi
    return lambda *a: f(*a[:-1], -np.asarray(a[-1]))


def phi_gamma_shift(shift):
    # Gamma(a+) -> Gamma(a+ + shift) in the Beta part of phi_factor,
    # a+ = alpha + (K + i xi)/2 + (d-j)/4, d = len(k)
    def mutate(f):
        def phi(j, alpha, mu, k, xi):
            ap = alpha + 0.5 * (sum(k[j:]) + 1j * np.asarray(xi)) + 0.25 * (len(k) - j)
            return f(j, alpha, mu, k, xi) * (ap if shift > 0 else 1 / (ap - 1))
        return phi
    return mutate


def zeta_shift(shift, eta_index=None):
    # zeta -> zeta + shift moves the series numerator |k|/2 + zeta - i xi
    # (- i xi/2 in theta) by shift, i.e. a Pochhammer argument; in theta,
    # eta -> eta - shift keeps the |k|/2 + zeta + eta denominator in place
    def mutate(f):
        def factor(m, k, zeta, *rest):
            rest = list(rest)
            if eta_index is not None:
                rest[eta_index] -= shift
            return f(m, k, zeta + shift, *rest)
        return factor
    return mutate


def swap(i, j):
    # exchange the positional arguments i and j (0-based), e.g. two parameters
    def mutate(f):
        def swapped(*a):
            a = list(a)
            a[i], a[j] = a[j], a[i]
            return f(*a)
        return swapped
    return mutate


MUTATIONS = {
    "scale": scaled,
    "scale_value": scaled_first,
    "degree_scale": degree_scaled,
    "conj_xi": conjugate_xi,
    "gamma+1": phi_gamma_shift(+1),
    "gamma-1": phi_gamma_shift(-1),
    "theta_zeta+1": zeta_shift(+1, eta_index=0),
    "theta_zeta-1": zeta_shift(-1, eta_index=0),
    "lambda_zeta+1": zeta_shift(+1),
    "lambda_zeta-1": zeta_shift(-1),
    "swap(1,2)": swap(1, 2),
    "swap(2,3)": swap(2, 3),
}

PHI = ["FOURIER_J", "FOURIER_L", "FORM_EQUIV_PHI"]
GRAM = ["ORT_BALL", "ORT_PARA_J", "ORT_PARA_L"]
# the lifted relations that mix degrees m and m +- 1
MIXED_A = [f"CONTIG_A_{r}" for r in ("i", "iii", "iv", "v", "vi", "vii")]
MIXED_B = [f"CONTIG_B_{r}" for r in ("i", "iii", "iv", "vi", "vii")]

# (module, name, mutation, families that must fail)
SENSITIVITY = [
    ("classical", "gegenbauer_norm", "scale", ["ORT_GEGEN"]),
    ("classical", "jacobi_norm", "scale", ["ORT_JACOBI", "ORT_PARA_J"]),
    ("classical", "laguerre_norm", "scale", ["ORT_LAGUERRE", "ORT_PARA_L"]),
    # the recurrences of the transform factors: hahn_3f2 runs phi, theta,
    # D and A, meixner_pollaczek_2f1 runs lambda and B; the series side of
    # every form equivalence
    ("classical", "hahn_3f2", "scale",
     PHI + ["PARSEVAL_A", "PARSEVAL_B", "FORM_EQUIV_D", "FORM_EQUIV_A"]),
    ("classical", "hahn_3f2", "degree_scale",
     PHI + ["PARSEVAL_A", "PARSEVAL_B", "FORM_EQUIV_D", "FORM_EQUIV_A"] + MIXED_A),
    ("classical", "meixner_pollaczek_2f1", "scale", ["FOURIER_L", "PARSEVAL_B"]),
    ("classical", "meixner_pollaczek_2f1", "degree_scale",
     ["FOURIER_L", "PARSEVAL_B"] + MIXED_B),
    ("classical", "continuous_hahn", "scale",
     ["FORM_EQUIV_PHI", "FORM_EQUIV_D", "FORM_EQUIV_A"]),
    ("classical", "gegenbauer", "degree_scale", ["ORT_GEGEN", "FOURIER_J", "FOURIER_L"]),
    ("classical", "jacobi", "degree_scale", ["ORT_JACOBI", "ORT_PARA_J", "FOURIER_J"]),
    ("classical", "laguerre", "degree_scale", ["ORT_LAGUERRE", "ORT_PARA_L", "FOURIER_L"]),
    # (alpha, beta); jacobi_norm is symmetric in them, so it has no swap row
    ("classical", "jacobi", "swap(1,2)", ["ORT_JACOBI", "ORT_PARA_J", "FOURIER_J"]),
    ("ball", "ball_norm", "scale",
     ["ORT_BALL", "ORT_PARA_J", "ORT_PARA_L", "PARSEVAL_A", "PARSEVAL_B"]),
    # the axis factors of the separated ball and paraboloid Gram entries
    ("ball", "ball_axis", "scale", GRAM),
    ("classical", "gegenbauer_homogeneous", "scale", GRAM),
    ("ball", "lambda_param", "scale", GRAM),
    ("paraboloid", "jacobi_paraboloid_norm", "scale", ["ORT_PARA_J"]),
    ("paraboloid", "jacobi_paraboloid_norm", "swap(2,3)", ["ORT_PARA_J"]),  # (beta, gamma)
    ("paraboloid", "laguerre_paraboloid_norm", "scale", ["ORT_PARA_L"]),
    # alpha_n of the radial factor, its norm, the t rule and the wrapped h
    ("paraboloid", "radial_alpha", "scale",
     ["ORT_PARA_J", "ORT_PARA_L", "FOURIER_J", "FOURIER_L"]),
    # the radial factor itself: the Gram oracles' radial line and the wrapped h
    ("paraboloid", "radial_factor", "scale",
     ["ORT_PARA_J", "ORT_PARA_L", "FOURIER_J", "FOURIER_L"]),
    ("verifier", "parseval_rhs", "scale", ["PARSEVAL_A", "PARSEVAL_B"]),
    ("transforms", "fourier_h_jacobi_closed", "scale", ["FOURIER_J"]),
    ("transforms", "fourier_h_laguerre_closed", "scale", ["FOURIER_L"]),
    ("transforms", "phi_factor", "scale", PHI),
    ("transforms", "phi_factor", "gamma+1", PHI),
    ("transforms", "phi_factor", "gamma-1", PHI),
    ("transforms", "phi_factor", "conj_xi", PHI),
    ("transforms", "theta_factor", "scale", ["FOURIER_J"]),
    ("transforms", "theta_factor", "theta_zeta+1", ["FOURIER_J"]),
    ("transforms", "theta_factor", "theta_zeta-1", ["FOURIER_J"]),
    ("transforms", "theta_factor", "conj_xi", ["FOURIER_J"]),
    ("transforms", "theta_factor", "swap(2,3)", ["FOURIER_J"]),  # (zeta, eta)
    ("transforms", "lambda_factor", "scale", ["FOURIER_L"]),
    ("transforms", "lambda_factor", "lambda_zeta+1", ["FOURIER_L"]),
    ("transforms", "lambda_factor", "lambda_zeta-1", ["FOURIER_L"]),
    ("transforms", "lambda_factor", "conj_xi", ["FOURIER_L"]),
    # the public t-factors, which the Parseval oracles and eval_A call
    ("transforms", "A_t", "scale", ["PARSEVAL_A", "FORM_EQUIV_A"]),
    ("transforms", "A_t", "degree_scale", ["PARSEVAL_A", "FORM_EQUIV_A"]),
    ("transforms", "B_t", "scale", ["PARSEVAL_B"]),
    ("transforms", "B_t", "degree_scale", ["PARSEVAL_B"]),
    # their bodies, which the contiguous relations call directly; the degree
    # of degree_scale is then M = m - |k|, which the mixed relations still mix
    ("transforms", "_A_t", "scale", ["PARSEVAL_A", "FORM_EQUIV_A"]),
    ("transforms", "_A_t", "degree_scale", ["PARSEVAL_A", "FORM_EQUIV_A"] + MIXED_A),
    ("transforms", "_B_t", "scale", ["PARSEVAL_B"]),
    ("transforms", "_B_t", "degree_scale", ["PARSEVAL_B"] + MIXED_B),
    ("transforms", "_D_axis", "scale",
     ["PARSEVAL_A", "PARSEVAL_B", "FORM_EQUIV_D", "FORM_EQUIV_A"]),
    ("transforms", "_D_axis", "swap(2,3)", ["FORM_EQUIV_D", "FORM_EQUIV_A"]),  # (a1, a2)
    ("transforms", "phi_factor_hahn", "scale", ["FORM_EQUIV_PHI"]),
    ("transforms", "eval_D_hahn", "scale", ["FORM_EQUIV_D", "FORM_EQUIV_A"]),
    ("transforms", "eval_A_hahn", "scale", ["FORM_EQUIV_A"]),
    # the relation coefficients of the terms a relation evaluates conditionally
    ("contiguous", "_t", "scale",
     ["CONTIG_A_iv", "CONTIG_A_vii", "CONTIG_B_iii", "CONTIG_B_iv", "CONTIG_B_vi"]),
]

# (module, name, mutation, families that still pass every case)
BLIND_SPOTS = [
    ("transforms", "_A_t", "scale", ["CONTIG_A_i", "CONTIG_A_iv"]),
    ("transforms", "_B_t", "scale", ["CONTIG_B_i", "CONTIG_B_iv"]),
    ("transforms", "_phi_beta_part", "scale_value", ["FORM_EQUIV_PHI"]),
    # the Parseval integral is symmetric under (a1, a2) -> (a2, a1) in D:
    # s -> -s exchanges its two sides
    ("transforms", "_D_axis", "swap(2,3)", ["PARSEVAL_A", "PARSEVAL_B"]),
]


def mutate_everywhere(monkeypatch, module, name, mutation):
    """Replace orthopara.<module>.<name> in every package module bound to it."""
    original = getattr(sys.modules[f"orthopara.{module}"], name)
    wrong = MUTATIONS[mutation](original)
    for mod_name, mod in list(sys.modules.items()):
        if mod_name.split(".")[0] == "orthopara" and getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, wrong)


def failures(families):
    """Failed (or raising) case count per family of a reduced seeded sweep;
    a TypeError propagates."""
    cfg = SweepConfig(families=families, seed=0, dims=[1], max_degree_1d=2,
                      max_degree_multi=1, fourier_max_degree=1, parseval_max_degree=1,
                      ort_param_draws=1, fourier_xi_draws=1, contig_draws=4, form_draws=4)
    cfg.validate()
    memo = verifier._memo
    verifier._memo = verifier._DrawMemo()  # no column computed before the mutation
    count = dict.fromkeys(families, 0)
    try:
        for case in generate_cases(cfg):
            try:
                count[case.identity_id] += not run_case(case).passed
            except TypeError:
                raise
            except Exception:
                count[case.identity_id] += 1
    finally:
        verifier._memo = memo
    return count


def _row_id(row):
    return f"{row[1]}-{row[2]}"


def test_reduced_sweep_passes_unmutated():
    families = sorted({fam for row in SENSITIVITY + BLIND_SPOTS for fam in row[3]})
    assert failures(families) == dict.fromkeys(families, 0)


@pytest.mark.parametrize("row", SENSITIVITY, ids=[_row_id(r) for r in SENSITIVITY])
def test_wrong_formula_fails_its_families(row, monkeypatch):
    module, name, mutation, families = row
    mutate_everywhere(monkeypatch, module, name, mutation)
    count = failures(families)
    assert all(count[fam] > 0 for fam in families), count


@pytest.mark.parametrize("row", BLIND_SPOTS, ids=[_row_id(r) for r in BLIND_SPOTS])
def test_known_blind_spots(row, monkeypatch):
    module, name, mutation, families = row
    mutate_everywhere(monkeypatch, module, name, mutation)
    assert failures(families) == dict.fromkeys(families, 0)
