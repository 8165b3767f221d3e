#!/usr/bin/env python3
"""Assemble the series wavefunctions for every bound state of a shipped
parameter set and print per-state diagnostics (basis parameters, series
coefficients, node count on a fine grid)."""

import argparse

from ptbound import dvr, reference, tra


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--set", default="S1",
                    choices=sorted(reference.HYPERBOLIC_SETS)
                    + sorted(reference.TRIG_SETS))
    ap.add_argument("--samples", type=int, default=2000)
    args = ap.parse_args()

    if args.set in reference.HYPERBOLIC_SETS:
        p = reference.HYPERBOLIC_SETS[args.set]
        energies = dvr.hyperbolic_spectrum(p).eigenvalues
        x = dvr.grid(args.samples + 1, dvr.DEFAULT_B)
    else:
        p = reference.TRIG_SETS[args.set]
        energies = dvr.trig_spectrum(p).eigenvalues
        x = dvr.grid(args.samples + 1, p.a)

    for m, e in enumerate(energies):
        sol = tra.assemble_solution(p, e)
        _, psi = tra.eval_wavefunction(sol, p, x)
        nodes = tra.count_nodes(psi)
        print(f"state {m}: E={e:.10g}  mu={sol.basis.mu:.6f} "
              f"nu={sol.basis.nu:.6f}  N={sol.basis.N_m}  "
              f"branch={sol.series.branch.value}  nodes={nodes}")
        print(f"  coeffs: {[round(c, 8) for c in sol.coeffs]}")


if __name__ == "__main__":
    main()
