#!/usr/bin/env python3
"""Spot-check the closed-form Fourier transforms against direct quadrature on
a grid of frequency points and print the residual table.

Usage: python scripts/fourier_spot_check.py [--d 1] [--m 2] [--k 1] [--n-xi 7]
"""

import argparse

import numpy as np

from orthopara.verifier import IdentityCase, run_case


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--d", type=int, default=1)
    ap.add_argument("--m", type=int, default=2)
    ap.add_argument("--k", default="1")
    ap.add_argument("--n-xi", type=int, default=7)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    try:
        k = tuple(int(v) for v in args.k.split(","))
    except ValueError:
        ap.error(f"--k needs comma-separated integers, got {args.k!r}")
    if len(k) != args.d:
        ap.error(f"--k needs {args.d} comma-separated entries, got {args.k!r}")
    rng = np.random.default_rng(args.seed)
    pj = {"alpha": 0.8, "zeta": 1.1, "eta": 0.9, "beta": 0.3, "gamma": 0.4, "mu": 0.7}
    pl = {"alpha": 0.8, "zeta": 1.1, "beta": 0.3, "mu": 0.7}

    print(f"d={args.d} m={args.m} k={k}")
    print(f"{'family':10s} {'xi':36s} {'closed':>24s} {'rel residual':>14s}")
    for fam, params in (("FOURIER_J", pj), ("FOURIER_L", pl)):
        for _ in range(args.n_xi):
            xi = tuple(float(v) for v in rng.uniform(-2, 2, args.d + 1))
            rep = run_case(IdentityCase(fam, args.d, 1e-6, m=args.m, k=k,
                                        params=params, xi=xi))
            xs = "(" + ", ".join(f"{v:+.3f}" for v in xi) + ")"
            print(f"{fam:10s} {xs:36s} {abs(rep.rhs):24.16e} {rep.rel_residual:14.3e}"
                  + ("" if rep.passed else "  FAIL"))


if __name__ == "__main__":
    main()
