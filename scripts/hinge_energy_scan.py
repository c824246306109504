#!/usr/bin/env python3
"""Map where the hinge energy bound (ffgeom.bounds.HINGE_ENERGY) holds.

Scans seeded random sets over a (q, density) grid, keeps the cells inside
the bound's size regime, and prints the worst energy-to-bound ratio per
cell.  Ratios above 1 are the documented failures of the bound: near the
regime ceiling the main term alone is (|S_a|/q)^2 times the bound, which
exceeds 1 whenever |S_a| = q + 1.
"""

import argparse
from fractions import Fraction

import numpy as np

from ffgeom.bounds import HINGE_ENERGY, hinge_energy_regime
from ffgeom.counting import HingeSweep
from ffgeom.experiments import random_set
from ffgeom.field import is_prime


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--max-q", type=int, default=31)
    ap.add_argument(
        "--densities", type=str, default="0.2,0.5,0.8,1",
        help="comma-separated densities (1 adds the deterministic full grid)",
    )
    ap.add_argument("--seeds", type=int, default=20, help="seeds 0..N-1")
    args = ap.parse_args()

    densities = [Fraction(tok) for tok in args.densities.split(",") if tok]
    print("q     rho    card  in-regime  worst a  worst ratio")
    for q in (n for n in range(3, args.max_q + 1) if is_prime(n)):
        for rho in densities:
            seeds = range(1) if rho == 1 else range(args.seeds)
            worst = 0.0
            worst_a = 0
            card = 0
            in_regime = False
            for seed in seeds:
                E = random_set(q, 2, rho, seed)
                card = E.cardinality
                if not hinge_energy_regime(q, card):
                    continue
                in_regime = True
                diag = np.diagonal(HingeSweep(E).exact)
                a = int(np.argmax(diag)) + 1
                ratio = HINGE_ENERGY.ratio(HINGE_ENERGY.value(diag[a - 1], q, card))
                if ratio > worst:
                    worst, worst_a = ratio, a
            if not in_regime:
                print(f"{q:<5} {str(rho):<6} {card:>4}  outside the size regime")
                continue
            flag = "  <-- bound fails" if worst > 1 else ""
            print(f"{q:<5} {str(rho):<6} {card:>4}  {'yes':^9}  {worst_a:^7}  {worst:.4f}{flag}")


if __name__ == "__main__":
    main()
