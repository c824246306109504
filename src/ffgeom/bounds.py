"""Every exact bound ffgeom asserts, with its regime and printed ratio, stated once.

The sweep, the CLI, HingeSweep, HingeReport and the scripts read the
statements below; none of them restates a bound.  (The character-sum table
checks |G(j)| = sqrt(q) and the Weil bound in floating point, with its own
tolerance.)

    hinge remainder  |R(a,b)| <= 8 q|E|, R = hinge(a,b) - |D_a| |E| |S_b| / q^2,
                     asserted for dense sets, rho^2 q >= 16
    pair deviation   |pairs(t) - |E|^2 |S_t| / q^2| <= 2 sqrt(q) |E|
    fluctuation      sum_x (n_a(x) - |E| |S_a| / q^2)^2 <= 4 q|E|
    hinge energy     sum_{x in E} n_a(x)^2 <= 8 q|E|, asserted for |E|^2 <= 8 q^3
    sphere size      |S_t| = q - eta(-1) for t != 0 in the plane
    triangle chain   signatures <= orbits_O <= orbits_SO

All of them are stated for sets E in the plane F_q^2, the only setting the
counting kernel (counting.HingeSweep) computes.  Each of the first four is a
`Bound`, decided in integers; floating point enters only the value and ratio
it prints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

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


def sphere_size(field: PrimeField) -> int:
    """|S_t| for every t != 0 in the plane: q - eta(-1), so q - 1 or q + 1."""
    return field.q - field.legendre(field.q - 1)


def triangle_chain_holds(
    signatures: int, orbits_o: Optional[int] = None, orbits_so: Optional[int] = None
) -> bool:
    """signatures <= orbits_O <= orbits_SO, over the terms that were computed.

    Congruent triangles share a signature and every O-orbit is a union of
    SO-orbits, so each coarser count is at most the finer one.
    """
    terms = [t for t in (signatures, orbits_o, orbits_so) if t is not None]
    return all(lo <= hi for lo, hi in zip(terms, terms[1:]))


def signature_ratio(signatures: int, q: int, rho: Fraction) -> float:
    """signatures / (rho q^3), a measured ratio with no asserted bound."""
    return float(Fraction(signatures) / (rho * q**3))


def charge_signature_table(card: int, budget: int) -> None:
    """Charge a signature count's |E|^2 steps, one per ordered pair of points."""
    if card * card > budget:
        raise BudgetError(
            f"signature table for |E|={card} needs {card * card} steps, budget {budget}"
        )


def charge_hinge_sweep(q: int, budget: int) -> None:
    """Charge HingeSweep's q^4 steps (q - 1 radii, ~q shifts of q^2 cells each)."""
    if q**4 > budget:
        raise BudgetError(f"hinge table at q={q} needs {q**4} steps, budget {budget}")
