"""The bound registry: integer verdicts, regimes and printed values."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from ffgeom import bounds
from ffgeom.field import PrimeField
from ffgeom.fourier import BudgetError

RATIONAL = [
    # (bound, the exact scale of its value at (q, card))
    (bounds.HINGE_REMAINDER, lambda q, card: q**3 * card),
    (bounds.FLUCTUATION, lambda q, card: q**3 * card),
    (bounds.HINGE_ENERGY, lambda q, card: q * card),
]


@pytest.mark.parametrize("bound,unit", RATIONAL)
def test_rational_verdict_is_the_exact_comparison(bound, unit):
    rng = random.Random(0)
    for q in (3, 13, 31, 211):
        card = rng.randrange(1, q * q + 1)
        limit = bound.constant * unit(q, card)
        for numer in (0, limit - 1, limit, limit + 1, -limit, -limit - 1):
            assert bound.holds(numer, q, card) == (Fraction(abs(numer), unit(q, card)) <= bound.constant)


def test_pair_verdict_is_the_squared_comparison():
    # |n| <= 2 sqrt(q) |E| q^2, decided as n^2 <= 4 q |E|^2 q^4
    for q in (3, 5, 13, 31, 211):
        card = q**2 // 2 + 1
        limit_sq = 4 * q * card**2 * q**4
        root = math.isqrt(limit_sq)
        for numer in range(root - 2, root + 3):
            for sign in (1, -1):
                holds = bounds.PAIR_DEVIATION.holds(sign * numer, q, card)
                assert holds == (numer * numer <= limit_sq)


def test_holds_is_elementwise_on_arrays():
    q, card = 7, 20
    limit = 8 * q**3 * card
    numer = np.array([[limit, -limit], [limit + 1, -limit - 1]], dtype=np.int64)
    assert bounds.HINGE_REMAINDER.holds(numer, q, card).tolist() == [[True, True], [False, False]]


def test_printed_values():
    # the expressions the CSV columns have always used
    q, card = 13, 85
    assert bounds.HINGE_REMAINDER.value(-12345, q, card) == float(Fraction(12345, q**3 * card))
    assert bounds.PAIR_DEVIATION.value(-4321, q, card) == 4321.0 / (math.sqrt(q) * card * q * q)
    assert bounds.HINGE_ENERGY.ratio(bounds.HINGE_ENERGY.value(7000, q, card)) == 7000 / (8 * q * card)
    assert [b.constant for b in (bounds.HINGE_REMAINDER, bounds.PAIR_DEVIATION,
                                 bounds.FLUCTUATION, bounds.HINGE_ENERGY)] == [8, 2, 4, 8]


def test_sphere_size_reference():
    for q in (3, 5, 7, 11, 13, 17):
        assert bounds.sphere_size(PrimeField(q)) == (q - 1 if q % 4 == 1 else q + 1)


def test_triangle_chain_skips_missing_terms():
    assert bounds.triangle_chain_holds(5, 6, 9)
    assert not bounds.triangle_chain_holds(5, 4, 9)
    assert not bounds.triangle_chain_holds(5, 7, 6)
    assert bounds.triangle_chain_holds(5, orbits_so=9)
    assert not bounds.triangle_chain_holds(5, orbits_o=4)
    assert not bounds.triangle_chain_holds(5, orbits_so=4)
    assert bounds.triangle_chain_holds(5)


def test_signature_table_charge():
    bounds.charge_signature_table(25, 625)
    with pytest.raises(BudgetError, match="needs 625 steps, budget 624"):
        bounds.charge_signature_table(25, 624)


def test_hinge_sweep_charge():
    bounds.charge_hinge_sweep(13, 13**4)
    with pytest.raises(BudgetError, match="budget"):
        bounds.charge_hinge_sweep(13, 13**4 - 1)
