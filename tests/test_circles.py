"""Circle intersection, two-square counts, and the small-sumset circle union."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ffgeom import circles
from ffgeom.charsums import Sphere
from ffgeom.circles import (
    CircleSystem,
    CounterexampleSet,
    build_counterexample,
    discriminant,
    intersect_circles,
    midpoint_exclusion_check,
    parallelogram_check,
    representable_c_values,
    sum_two_squares_closed,
    sum_two_squares_count,
)
from ffgeom.field import PrimeField
from ffgeom.fourier import BudgetError, CapacityError, PointD


def brute_intersection(sys: CircleSystem):
    """Scan every grid point against both circle equations."""
    field = sys.field
    q = field.q
    b, c = sys.b.value, sys.c.value
    hits = []
    for s in range(q):
        for t in range(q):
            y = PointD(field, (s, t))
            if (y - sys.center).norm().value == b and (y - sys.witness).norm().value == c:
                hits.append(y)
    hits.sort(key=lambda p: p.as_ints())
    return hits


def expected_count(sys: CircleSystem) -> int:
    disc = discriminant(sys).value
    if disc == 0:
        return 1
    return 2 if sys.field.legendre(disc) == 1 else 0


@pytest.mark.parametrize("q", (3, 5, 7))
def test_intersection_exhaustive_origin_centered(q):
    F = PrimeField(q)
    origin = PointD(F, (0, 0))
    for widx in range(1, q * q):
        w = PointD.from_index(F, widx, 2)
        if w.norm().value == 0:
            continue
        for b in range(q):
            for c in range(q):
                sys = CircleSystem(origin, w, b, c)
                pts = intersect_circles(sys)
                assert pts == brute_intersection(sys)
                assert len(pts) == expected_count(sys)


@pytest.mark.parametrize("q", (11, 13))
def test_intersection_random_translated(q):
    F = PrimeField(q)
    rng = random.Random(q)
    done = 0
    while done < 100:
        center = PointD(F, (rng.randrange(q), rng.randrange(q)))
        witness = PointD(F, (rng.randrange(q), rng.randrange(q)))
        if (center - witness).norm().value == 0:
            continue
        done += 1
        sys = CircleSystem(center, witness, rng.randrange(q), rng.randrange(q))
        pts = intersect_circles(sys)
        assert pts == brute_intersection(sys)
        assert len(pts) == expected_count(sys)
        for y in pts:
            assert (y - sys.center).norm() == sys.b
            assert (y - sys.witness).norm() == sys.c


def test_intersection_output_sorted():
    F = PrimeField(13)
    sys = CircleSystem(PointD(F, (0, 0)), PointD(F, (1, 0)), 1, 1)
    pts = intersect_circles(sys)
    assert len(pts) == 2
    assert [p.as_ints() for p in pts] == sorted(p.as_ints() for p in pts)


def test_circle_system_records_center_distance():
    F = PrimeField(11)
    sys = CircleSystem(PointD(F, (2, 3)), PointD(F, (5, 7)), 4, 9)
    assert sys.a == (PointD(F, (2, 3)) - PointD(F, (5, 7))).norm()


def test_circle_system_validation():
    F = PrimeField(5)
    with pytest.raises(ValueError):
        CircleSystem(PointD(F, (0, 0, 0)), PointD(F, (1, 0, 0)), 1, 1)
    with pytest.raises(ValueError):
        CircleSystem(PointD(F, (0, 0)), PointD(PrimeField(7), (1, 0)), 1, 1)
    # (1, 2) is isotropic mod 5
    with pytest.raises(ValueError):
        CircleSystem(PointD(F, (0, 0)), PointD(F, (1, 2)), 1, 1)


@pytest.mark.parametrize("q", (5, 7, 11, 13))
def test_representable_values_lower_bound(q):
    F = PrimeField(q)
    floor = (q - 3) // 2
    for a in range(1, q):
        sphere_pts = [
            PointD.from_index(F, i, 2)
            for i in range(q * q)
            if PointD.from_index(F, i, 2).norm().value == a
        ]
        if not sphere_pts:
            continue
        w = sphere_pts[0]
        for b in range(1, q):
            vals = representable_c_values(F, a, b, w)
            nonzero = [c for c in vals if c != 0]
            assert len(nonzero) >= floor
            for c in vals:
                assert intersect_circles(CircleSystem(PointD(F, (0, 0)), w, b, c))


def test_representable_values_rejects_off_sphere_witness():
    F = PrimeField(7)
    with pytest.raises(ValueError):
        representable_c_values(F, 3, 1, PointD(F, (1, 0)))
    with pytest.raises(ValueError):
        representable_c_values(F, 0, 1, PointD(F, (0, 0)))


@pytest.mark.parametrize("q", (3, 5, 7, 11, 13))
def test_representable_values_match_scalar_solver(q):
    """The batched solver against intersect_circles on every (a, w in S_a, b)."""
    F = PrimeField(q)
    origin = PointD(F, (0, 0))
    for a in range(1, q):
        for w in Sphere(F, a, 2).points:
            for b in range(q):
                expected = [c for c in range(q)
                            if intersect_circles(CircleSystem(origin, w, b, c))]
                assert representable_c_values(F, a, b, w) == expected, (a, b, w.as_ints())


F7 = PrimeField(7)


@pytest.mark.parametrize("a,b,w,error", [
    (1, 1, PointD(PrimeField(11), (1, 0)), ValueError),  # witness from F_11
    (1, 1, PointD(F7, (1, 0, 0)), ValueError),  # witness in d = 3, |w| = a
    (1, PrimeField(11).element(1), PointD(F7, (1, 0)), ValueError),
    (PrimeField(11).element(1), 1, PointD(F7, (1, 0)), ValueError),
    (1, 1.0, PointD(F7, (1, 0)), TypeError),
    (1, True, PointD(F7, (1, 0)), TypeError),
])
def test_representable_values_validation(a, b, w, error):
    with pytest.raises(error):
        representable_c_values(F7, a, b, w)


def test_representable_values_capacity_guard():
    F = PrimeField(2**31 - 1)
    with pytest.raises(CapacityError):
        representable_c_values(F, 1, 1, PointD(F, (1, 0)))


@pytest.mark.parametrize("w", [(1, 2), (0, 3)])  # both elimination branches
def test_representable_values_checks_are_live(monkeypatch, w):
    F = PrimeField(13)
    witness = PointD(F, w)
    a = witness.norm().value
    roots = circles._sqrt_table(13)
    monkeypatch.setattr(circles, "_sqrt_table", lambda q: np.full(q, -1))
    with pytest.raises(AssertionError, match="solution count"):
        representable_c_values(F, a, 1, witness)
    # 2r is a root of 4 r^2, not of r^2, and keeps the count of distinct roots
    monkeypatch.setattr(circles, "_sqrt_table", lambda q: np.where(roots >= 0, 2 * roots % q, -1))
    with pytest.raises(AssertionError, match="off a circle"):
        representable_c_values(F, a, 1, witness)


@pytest.mark.parametrize("q", (5, 7, 11, 13, 17))
def test_sum_two_squares_closed_form(q):
    F = PrimeField(q)
    for u in range(1, q):
        assert sum_two_squares_count(F, u) == sum_two_squares_closed(F, u)
    with pytest.raises(ValueError):
        sum_two_squares_closed(F, 0)


def test_sum_two_squares_at_zero():
    # -1 square: two isotropic lines; -1 non-square: only the origin
    assert sum_two_squares_count(PrimeField(5), 0) == 9
    assert sum_two_squares_count(PrimeField(7), 0) == 1


def test_sum_two_squares_partition():
    q = 11
    F = PrimeField(q)
    assert sum(sum_two_squares_count(F, u) for u in range(q)) == q * q


def test_parallelogram_exhaustive_q5():
    F = PrimeField(5)
    for xi in range(25):
        for yi in range(25):
            lhs, rhs = parallelogram_check(
                PointD.from_index(F, xi, 2), PointD.from_index(F, yi, 2)
            )
            assert lhs == rhs


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=168), st.integers(min_value=0, max_value=168))
def test_parallelogram_hypothesis_q13(xi, yi):
    F = PrimeField(13)
    lhs, rhs = parallelogram_check(PointD.from_index(F, xi, 2), PointD.from_index(F, yi, 2))
    assert lhs == rhs


class TestCounterexample:
    def test_requires_large_field(self):
        with pytest.raises(ValueError):
            build_counterexample(PrimeField(251))

    def test_smallest_admissible_field(self):
        cs = build_counterexample(PrimeField(257))
        assert cs.A == (8,)
        assert cs.E.cardinality == 256
        assert cs.sumset_size == 1
        assert cs.sumset[0]
        assert not cs.sumset_is_full
        assert cs.density == cs.E.density

    def test_radius_membership(self):
        cs = build_counterexample(PrimeField(257))
        for p in cs.E.points()[:50]:
            assert p.norm().value in cs.A

    def test_sumset_by_direct_enumeration(self):
        cs = build_counterexample(PrimeField(521))
        assert cs.A == (8, 16)
        expected = {
            (2 * a1 + 2 * a2 - 4 * a3) % 521 for a1 in cs.A for a2 in cs.A for a3 in cs.A
        }
        assert set(np.nonzero(cs.sumset)[0]) == expected
        assert cs.sumset_size == len(expected) == 5

    def test_sumset_members_stay_small_multiples_of_eight(self):
        cs = build_counterexample(PrimeField(1009))
        q = 1009
        for v in np.nonzero(cs.sumset)[0]:
            signed = int(v) if v <= q // 2 else int(v) - q
            assert signed % 8 == 0
            assert abs(signed) <= q // 8


class TestMidpointExclusion:
    def test_sampled_run_is_clean_and_deterministic(self):
        cs = build_counterexample(PrimeField(257))
        r1 = midpoint_exclusion_check(cs, samples=2000, seed=0)
        r2 = midpoint_exclusion_check(cs, samples=2000, seed=0)
        assert r1 == r2
        assert r1.pairs_checked == 2000
        assert not r1.exhaustive
        assert 0 < r1.applicable <= 2000
        assert r1.violations == 0

    def test_exhaustive_run(self):
        cs = build_counterexample(PrimeField(257))
        r = midpoint_exclusion_check(cs, exhaustive=True)
        assert r.exhaustive
        assert r.pairs_checked == 256 * 256
        assert r.applicable == 65280
        assert r.violations == 0

    def test_exhaustive_budget_guard(self):
        cs = build_counterexample(PrimeField(257))
        with pytest.raises(BudgetError):
            midpoint_exclusion_check(cs, exhaustive=True, budget=10)

    def test_applicable_pairs_have_midpoints_outside(self):
        # replay the definition on a few concrete pairs
        cs = build_counterexample(PrimeField(257))
        q = 257
        pts = cs.E.points()
        rng = random.Random(1)
        inv2 = cs.field.inv(2)
        checked = 0
        for _ in range(500):
            x = rng.choice(pts)
            y = rng.choice(pts)
            if cs.sumset[(x - y).norm().value]:
                continue
            checked += 1
            mid = PointD(cs.field, [inv2 * (a + b) for a, b in zip(x.as_ints(), y.as_ints())])
            assert mid not in cs.E
        assert checked > 0
