#!/usr/bin/env python3
"""Reproduce the recorded signature-growth floor.

Counts distinct distance triples on seeded random half-density sets at
q = 31 and prints the ratio against rho * q^3, together with the orbit
counts that dominate it.  SIGNATURE_RATIO_FLOOR in ffgeom/constants.py is
the smallest observed ratio rounded down to three decimals; change it only
with this script's output in hand.
"""

import argparse
from fractions import Fraction

from ffgeom.congruence import distinct_signature_count, t3_orbit_count
from ffgeom.constants import SIGNATURE_RATIO_FLOOR
from ffgeom.experiments import random_set


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--q", type=int, default=31)
    ap.add_argument("--density", type=Fraction, default=Fraction(1, 2))
    ap.add_argument("--seeds", type=int, default=5, help="seeds 0..N-1")
    args = ap.parse_args()

    denom = args.density * args.q**3
    print(f"q={args.q} rho={args.density} target=rho*q^3={float(denom):.1f}")
    print("seed  card  signatures  orbits_so  orbits_o      ratio")
    worst = None
    for seed in range(args.seeds):
        E = random_set(args.q, 2, args.density, seed)
        sig = distinct_signature_count(E, mode="all")
        so = t3_orbit_count(E, group="SO")
        o = t3_orbit_count(E, group="O")
        ratio = Fraction(sig) / denom
        worst = ratio if worst is None else min(worst, ratio)
        print(f"{seed:>4}  {E.cardinality:>4}  {sig:>10}  {so:>9}  {o:>8}  {float(ratio):.9f}")
    assert worst is not None
    print(f"min ratio      {float(worst):.9f}")
    print(f"recorded floor {SIGNATURE_RATIO_FLOOR}")
    print("floor holds" if worst >= Fraction(str(SIGNATURE_RATIO_FLOOR)) else "FLOOR VIOLATED")


if __name__ == "__main__":
    main()
