"""Every exact bound ffgeom asserts, with its regime and printed ratio, stated once.

The sweep, the CLI, HingeSweep and the scripts read the statements below;
none of them restates a bound.  (The character-sum table checks
|G(j)| = sqrt(q) and the Weil bound in floating point, with its own
tolerance.)

    hinge remainder  |R(a,b)| <= 8 q|E|, R = hinge(a,b) - |D_a| |E| |S_b| / q^2,
                     asserted for dense sets, rho^2 q >= 16
    pair deviation   |pairs(t) - |E|^2 |S_t| / q^2| <= 2 sqrt(q) |E|
    fluctuation      sum_x (n_a(x) - |E| |S_a| / q^2)^2 <= 4 q|E|
    hinge energy     sum_{x in E} n_a(x)^2 <= 8 q|E|, asserted for |E|^2 <= 8 q^3
                     (hinge_energy_regime); it provably follows from the
                     fluctuation bound only where hinge_energy_guaranteed holds
    sphere size      |S_t| = q - eta(-1) for t != 0 in the plane
    triangle chain   signatures <= orbits_O <= orbits_SO
    class totals     a set realizes at most N + q^2 signatures (N nondegenerate),
                     N + q^2 + iota O and 2N + q^2 + 2 iota SO triangle classes,
                     N = q (q - 1)(q + eta(-1)) / 2 (class_totals)

All of them are stated for sets E in the plane F_q^2, the only setting the
counting kernel (counting.HingeSweep) computes.  Each of the first four is a
`Bound`, decided in integers; floating point enters only the value and ratio
it prints.

The charges at the end are the work budget's one cost model: the CLI runners
and the sweep charge each stage before it runs; kernels guard memory, but
circles.radius_counts, whose callers charge no budget, caps its work.
A step is one element operation of the stage's numpy or scalar work; the
BLAS products inside the triangle table and HingeSweep are not counted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Tuple

from .field import PrimeField
from .fourier import BudgetError


@dataclass(frozen=True)
class Bound:
    """value <= constant, for value = |numer| / unit(q, card) and an exact
    integer numer; checked as |numer| <= constant * unit, elementwise on arrays."""

    statistic: str  # the sweep row that reports the maximum over radii
    constant: int
    unit: Callable[[int, int], int]

    def holds(self, numer, q: int, card: int):
        return abs(numer) <= self.constant * self.unit(q, card)

    def value(self, numer, q: int, card: int) -> float:
        return float(Fraction(abs(int(numer)), self.unit(q, card)))

    def ratio(self, value: float) -> float:
        return value / self.constant


class _PairDeviation(Bound):
    """The unit carries a further factor sqrt(q), irrational for prime q."""

    def holds(self, numer, q: int, card: int):
        # for an integer n: n <= c sqrt(q) u  iff  n <= isqrt(c^2 q u^2)
        limit = math.isqrt(self.constant**2 * q * self.unit(q, card) ** 2)
        return abs(numer) <= limit

    def value(self, numer, q: int, card: int) -> float:
        return float(abs(int(numer))) / (math.sqrt(q) * card * q**2)


HINGE_REMAINDER = Bound("hinge_max_remainder", 8, lambda q, card: q**3 * card)
PAIR_DEVIATION = _PairDeviation("pair_max_deviation", 2, lambda q, card: card * q**2)
FLUCTUATION = Bound("fluctuation_max", 4, lambda q, card: q**3 * card)
HINGE_ENERGY = Bound("hinge_energy_max", 8, lambda q, card: q * card)


def hinge_remainder_numer(q: int, card: int, exact, pair_count_a, sphere_size_b):
    """q^2 R(a, b) = q^2 hinge(a, b) - |D_a| |E| |S_b|; broadcasts over arrays."""
    return exact * q**2 - pair_count_a * (card * sphere_size_b)


def pair_deviation_numer(q: int, card: int, count, sphere_size):
    """q^2 (pairs(t) - |E|^2 |S_t| / q^2)."""
    return count * q**2 - card**2 * sphere_size


def fluctuation_numer(q: int, card: int, sum_sq, sphere_size):
    """q^2 sum_x (n_a(x) - |E| |S_a| / q^2)^2, from sum_sq = sum_x n_a(x)^2."""
    return sum_sq * q**2 - (card * sphere_size) ** 2


def density_in_hinge_regime(q: int, rho: Fraction) -> bool:
    """rho >= 4 / sqrt(q), checked exactly as rho^2 q >= 16."""
    return rho * rho * q >= 16


def hinge_energy_regime(q: int, cardinality: int) -> bool:
    """Whether |E| <= sqrt(8) q^{3/2}, the stated scope of the energy bound."""
    return cardinality**2 <= 8 * q**3


def hinge_energy_guaranteed(q: int, cardinality: int, sphere_size: int) -> bool:
    """Whether the 8q|E| energy bound provably follows from the fluctuation bound.

    Splitting n_a = A + B with A = |E||S_a|/q^2 and applying Cauchy-Schwarz to
    the cross term gives sum_{x in E} n_a^2 <= |E| (A + 2 sqrt(q))^2, so the
    bound is guaranteed once (A + 2 sqrt(q))^2 <= 8q.  That condition, cleared
    of square roots: with s = |E||S_a|, it is 4q^5 >= s^2 and
    16 s^2 q^5 <= (4q^5 - s^2)^2.  This is strictly smaller than the
    sqrt(8) q^{3/2} regime (roughly |E| <= 0.83 q^{5/2}/|S_a|).
    """
    s = cardinality * sphere_size
    margin = 4 * q**5 - s * s
    return margin >= 0 and 16 * s * s * q**5 <= margin * margin


def sphere_size(field: PrimeField) -> int:
    """|S_t| for every t != 0 in the plane: q - eta(-1), so q - 1 or q + 1."""
    return field.q - field.legendre(field.q - 1)


def triangle_chain_holds(signatures: int, orbits_o: int, orbits_so: int) -> bool:
    """signatures <= orbits_O <= orbits_SO.

    Congruent triangles share a signature and every O-orbit is a union of
    SO-orbits, so each coarser count is at most the finer one.
    """
    return signatures <= orbits_o <= orbits_so


def class_totals(q: int) -> Tuple[int, int, int, int]:
    """The most triangle classes any set in F_q^2 realizes, for an odd prime q:
    (signatures_all, signatures_nondeg, orbits_SO, orbits_O), the order of
    `congruence._triangle_counts`.  The full grid realizes every pair, so it
    reaches all four.

    A pair (u, v) has Gram code (a, b, g) = (|u|, |v|, u.v), and by the
    Lagrange identity det(u, v)^2 = ab - g^2.  Write eta = eta(-1).
    - Dependent pairs have ab = g^2: q^2 codes (b = g^2 / a for each a != 0
      and g, and g = 0 with any b for a = 0), each realized by (w, (g/a) w)
      with |w| = a or by (0, w) with |w| = b.
    - Independent pairs have ab - g^2 a nonzero square s.  The ternary form
      ab - g^2 takes each such s q^2 + eta q times, so over the (q - 1) / 2
      squares there are N = q (q - 1)(q + eta) / 2 codes.  By Witt's theorem
      each is the Gram matrix of a basis, and a reflection of that basis
      flips det: two SO classes per code, one O class.
    - For q = 1 mod 4 the pairs of Gram code 0 other than (0, 0) lie on the
      two isotropic lines: (w, lambda w) for each lambda and (0, w), so
      iota = q + 1 classes per line for SO, and the reflections swap the
      lines for O.  For q = 3 mod 4, iota = 0.
    So signatures_all = N + q^2, signatures_nondeg = N,
    orbits_SO = 2N + q^2 + 2 iota and orbits_O = N + q^2 + iota.
    """
    eta, iota = (1, q + 1) if q % 4 == 1 else (-1, 0)
    n = q * (q - 1) * (q + eta) // 2
    return n + q * q, n, 2 * n + q * q + 2 * iota, n + q * q + iota


def signature_ratio(signatures: int, q: int, rho: Fraction) -> float:
    """signatures / (rho q^3), a measured ratio with no asserted bound."""
    return float(Fraction(signatures) / (rho * q**3))


DEFAULT_BUDGET = 10**10  # element operations each charge below may spend


def charge_triangle_table(q: int, budget: int) -> None:
    """Charge the triangle table's q^4 steps, one per difference pair (u, v)
    it classifies, not counting the BLAS product that finds the realized
    pairs.  All four triangle statistics of a set read that one table."""
    if q**4 > budget:
        raise BudgetError(f"triangle table at q={q} needs {q}^4 steps, budget {budget}")


def charge_hinge_sweep(q: int, budget: int) -> None:
    """Charge HingeSweep's q^4 steps (q - 1 radii, ~q shifts of q^2 cells each),
    not counting its BLAS product."""
    if q**4 > budget:
        raise BudgetError(f"hinge table at q={q} needs {q**4} steps, budget {budget}")


def charge_character_sums(q: int, budget: int) -> None:
    """Charge 3q^2 steps: q Gauss and 2q Kloosterman sums of about q terms each."""
    if 3 * q * q > budget:
        raise BudgetError(f"character sums at q={q} need 3 * {q}^2 steps, budget {budget}")


def charge_midpoint_pairs(card: int, budget: int) -> None:
    """Charge an exhaustive midpoint check's |E|^2 steps, one per ordered pair
    covered (the scan evaluates one row per norm class of an O_2-invariant E)."""
    if card * card > budget:
        raise BudgetError(f"exhaustive midpoint check needs {card}^2 pairs, budget {budget}")


def charge_midpoint_samples(samples: int, budget: int) -> None:
    """Charge a sampled midpoint check's steps, one per sampled pair."""
    if samples > budget:
        raise BudgetError(f"sampled midpoint check needs {samples} pairs, budget {budget}")
