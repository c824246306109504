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


@pytest.mark.parametrize("q,totals", [
    # the saturated counts of the golden sweep's q = 13 and 19 rows, of
    # criterion 13 (q = 31) and of the q = 97 sweep cell in tests/test_cli.py
    (13, (1261, 1092, 2381, 1275)),
    (19, (3439, 3078, 6517, 3439)),
    (31, (14911, 13950, 28861, 14911)),
    (97, (465697, 456288, 922181, 465795)),
])
def test_class_totals_pinned(q, totals):
    assert bounds.class_totals(q) == totals
    assert all(type(t) is int for t in bounds.class_totals(q))
    signatures, _, orbits_so, orbits_o = totals
    assert bounds.triangle_chain_holds(signatures, orbits_o, orbits_so)


def test_triangle_table_charge():
    bounds.charge_triangle_table(7, 7**4)
    with pytest.raises(BudgetError,
                       match=r"^triangle table at q=7 needs 7\^4 steps, budget 2400$"):
        bounds.charge_triangle_table(7, 7**4 - 1)


def test_hinge_sweep_charge():
    bounds.charge_hinge_sweep(13, 13**4)
    with pytest.raises(BudgetError, match="budget"):
        bounds.charge_hinge_sweep(13, 13**4 - 1)


def test_character_sums_charge():
    bounds.charge_character_sums(13, 3 * 13**2)
    with pytest.raises(BudgetError,
                       match=r"^character sums at q=13 need 3 \* 13\^2 steps, budget 506$"):
        bounds.charge_character_sums(13, 3 * 13**2 - 1)


def test_midpoint_pairs_charge():
    bounds.charge_midpoint_pairs(256, 256**2)
    with pytest.raises(BudgetError,
                       match=r"^exhaustive midpoint check needs 256\^2 pairs, budget 65535$"):
        bounds.charge_midpoint_pairs(256, 256**2 - 1)


def test_midpoint_samples_charge():
    bounds.charge_midpoint_samples(50, 50)
    with pytest.raises(BudgetError,
                       match=r"^sampled midpoint check needs 50 pairs, budget 49$"):
        bounds.charge_midpoint_samples(50, 49)
