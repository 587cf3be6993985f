#!/usr/bin/env python3
"""Decay study of the power-law matching remainder.

For one or more exponent values n, split (1-z)^{n-1} into the matched
power-law part C (k+1)^{-n} plus the remainder Delta_k, fit the log-log
decay slope of ||Delta_k|| over a k-window, and emit a tidy CSV
(exponent, k, delta_norm) plus a fitted-slope summary on stderr.
"""
import argparse
import sys

import numpy as np

from fiarma_lab import FracIntegrationSpec, HilbertGrid, LinearOperator, duker_decomposition


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--exponents", type=float, nargs="+", default=[0.6, 0.7, 0.9])
    ap.add_argument("--order", type=int, default=10_000)
    ap.add_argument("--fit-from", type=int, default=100)
    ap.add_argument("--out", default="-", help="CSV target ('-' for stdout)")
    args = ap.parse_args()

    grid = HilbertGrid(np.array([0.0]), np.array([1.0]))
    rows = ["exponent,k,delta_norm"]
    for n_val in args.exponents:
        n_spec = FracIntegrationSpec(LinearOperator(n_val * np.eye(1, dtype=complex), grid))
        c_mat, deltas, rho = duker_decomposition(n_spec, args.order)
        norms = deltas.norms()
        ks = np.arange(args.fit_from, args.order + 1)
        slope = np.polyfit(np.log(ks), np.log(norms[args.fit_from:]), 1)[0]
        print(
            f"n={n_val}: rho={rho:.3f} C={c_mat.entries[0, 0].real:.6f} "
            f"slope={slope:.4f} (power-law remainder target {-(1 + rho):.2f})",
            file=sys.stderr,
        )
        step = max(1, args.order // 500)
        for k in range(0, args.order + 1, step):
            rows.append(f"{n_val},{k},{norms[k]:.12g}")

    text = "\n".join(rows) + "\n"
    if args.out == "-":
        sys.stdout.write(text)
    else:
        with open(args.out, "w") as fh:
            fh.write(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
