"""Point sets, circle profiles, pair and hinge counts, and their bound checks."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ffgeom.charsums import Sphere, sphere_size_table
from ffgeom.counting import (
    DistancePairReport,
    HingeSweep,
    PointSet,
    circle_profile,
    distance_pair_count,
    fluctuation_bound_holds,
    fluctuation_energy,
    hinge_count,
    hinge_count_fourier,
    hinge_energy,
    hinge_energy_guaranteed,
    hinge_energy_regime,
)
from ffgeom.field import PrimeField
from ffgeom.fourier import CapacityError, PointD


def brute_hinge(E: PointSet, a: int, b: int) -> int:
    """Triple loop straight from the definition; no shared code with the library path."""
    q = E.q
    av, bv = a % q, b % q
    pts = [p.as_ints() for p in E.points()]

    def dist(u, v):
        return sum((x - y) ** 2 for x, y in zip(u, v)) % q

    total = 0
    for x in pts:
        for y in pts:
            if dist(x, y) != av:
                continue
            for z in pts:
                if dist(x, z) == bv:
                    total += 1
    return total


def random_subset(q: int, size: int, seed: int) -> PointSet:
    rng = np.random.default_rng(seed)
    idx = rng.choice(q * q, size=size, replace=False)
    indicator = np.zeros(q * q, dtype=np.uint8)
    indicator[idx] = 1
    return PointSet(PrimeField(q), 2, indicator)


# L-shape with its hinge at the origin: two arms at distance 1, two at distance 4
def l_shape():
    F = PrimeField(5)
    return PointSet.from_points(F, 2, [(0, 0), (1, 0), (4, 0), (0, 2), (0, 3)])


class TestPointSet:
    def test_from_points_and_contains(self):
        E = l_shape()
        assert E.cardinality == 5
        assert (0, 0) in E
        assert PointD(E.field, (1, 0)) in E
        assert (2, 2) not in E
        assert E.density == Fraction(1, 5)

    def test_duplicates_collapse(self):
        F = PrimeField(5)
        E = PointSet.from_points(F, 2, [(1, 1), (1, 1), (6, 1)])
        assert E.cardinality == 1

    def test_full_grid(self):
        E = PointSet.full_grid(PrimeField(7), 2)
        assert E.cardinality == 49
        assert E.density == 1

    def test_rejects_bad_indicator(self):
        F = PrimeField(5)
        with pytest.raises(ValueError):
            PointSet(F, 2, np.zeros(24))
        with pytest.raises(ValueError):
            PointSet(F, 2, np.full(25, 2))
        with pytest.raises(ValueError):
            PointSet(F, 2, np.zeros(25))

    def test_rejects_oversized_grid(self):
        with pytest.raises(CapacityError):
            PointSet(PrimeField(3163), 2, np.zeros(1))

    def test_equality(self):
        F = PrimeField(5)
        a = PointSet.from_points(F, 2, [(0, 0), (1, 2)])
        b = PointSet.from_points(F, 2, [(1, 2), (0, 0)])
        c = PointSet.from_points(F, 2, [(0, 0), (2, 1)])
        assert a == b
        assert a != c

    def test_points_roundtrip(self):
        E = random_subset(7, 11, seed=3)
        again = PointSet.from_points(E.field, 2, E.points())
        assert again == E


def test_circle_profile_counts_neighbors_exactly():
    E = l_shape()
    q = 5
    pts = [p.as_ints() for p in E.points()]
    for a in range(1, q):
        profile = circle_profile(E, a)
        for idx in range(q * q):
            x = (idx % q, idx // q)
            expected = sum(
                1
                for p in pts
                if ((x[0] - p[0]) ** 2 + (x[1] - p[1]) ** 2) % q == a
            )
            assert profile[idx] == expected


def test_circle_profile_total_is_cardinality_times_sphere():
    E = random_subset(7, 13, seed=0)
    for a in range(1, 7):
        assert circle_profile(E, a).sum() == 13 * Sphere(E.field, a, 2).count


def test_hinge_hand_example():
    # distance matrix of the L-shape:
    #   origin row (0,1,1,4,4), arms see the origin plus one isotropic mate
    E = l_shape()
    assert hinge_count(E, 1, 4) == 8
    assert hinge_count(E, 4, 1) == 8
    assert hinge_count(E, 1, 1) == 8
    assert hinge_count(E, 2, 3) == 0


def test_pair_hand_example():
    E = l_shape()
    counts = {t: distance_pair_count(E, t).count for t in range(5)}
    assert counts == {0: 13, 1: 6, 2: 0, 3: 0, 4: 6}


@pytest.mark.parametrize("q,size,seed", [(5, 8, 1), (7, 12, 2), (7, 24, 3)])
def test_hinge_matches_brute_force(q, size, seed):
    E = random_subset(q, size, seed)
    for a in range(1, q):
        for b in range(1, q):
            assert hinge_count(E, a, b) == brute_hinge(E, a, b)


def test_hinge_rejects_higher_dimensions():
    E = PointSet.from_points(PrimeField(5), 3, [(0, 0, 0), (1, 0, 0)])
    with pytest.raises(ValueError):
        hinge_count(E, 1, 1)
    with pytest.raises(ValueError):
        hinge_count_fourier(E, 1, 1)
    with pytest.raises(ValueError):
        HingeSweep(E)


@pytest.mark.parametrize("q,size,seed", [(5, 9, 4), (7, 20, 5), (11, 40, 6)])
def test_fourier_route_agrees_with_exact(q, size, seed):
    E = random_subset(q, size, seed)
    for a, b in [(1, 1), (1, q - 1), (2, 3)]:
        report = hinge_count_fourier(E, a, b)
        assert report.exact_count == hinge_count(E, a, b)
        assert report.fourier_matches()
        assert abs(report.fourier_count - report.exact_count) < 1e-6 * (
            1 + report.exact_count
        )


def test_pair_partition_over_all_distances():
    E = random_subset(11, 30, seed=7)
    total = sum(distance_pair_count(E, t).count for t in range(11))
    assert total == 30 * 30


def test_pair_report_decomposition():
    E = random_subset(13, 50, seed=8)
    for t in (1, 6, 12):
        r = distance_pair_count(E, t)
        assert r.main_term == Fraction(50 * 50 * r.sphere_size, 13**2)
        assert r.deviation == r.count - r.main_term
        assert r.bound_holds()
        assert r.deviation_ratio <= 2.0


def test_pair_bound_exact_arithmetic_consistency():
    # the float ratio and the integer predicate must agree away from the boundary
    E = random_subset(17, 100, seed=9)
    for t in range(1, 17):
        r = distance_pair_count(E, t)
        assert r.bound_holds() == (r.deviation_ratio <= 2.0)


def test_fluctuation_single_point():
    # n_1 is the indicator of a circle with 4 points: energy 4 - (4/25)^2 * 25
    E = PointSet.from_points(PrimeField(5), 2, [(0, 0)])
    assert fluctuation_energy(E, 1) == Fraction(84, 25)
    assert fluctuation_bound_holds(E, 1)


def test_fluctuation_full_grid_is_zero():
    E = PointSet.full_grid(PrimeField(7), 2)
    for a in range(1, 7):
        assert fluctuation_energy(E, a) == 0
        assert fluctuation_bound_holds(E, a)


@pytest.mark.parametrize("q,size,seed", [(5, 7, 10), (7, 18, 11), (13, 60, 12)])
def test_fluctuation_definition(q, size, seed):
    E = random_subset(q, size, seed)
    for a in (1, q - 1):
        profile = circle_profile(E, a)
        mean = Fraction(size * Sphere(E.field, a, 2).count, q * q)
        direct = sum((Fraction(int(v)) - mean) ** 2 for v in profile)
        assert fluctuation_energy(E, a) == direct
        assert fluctuation_bound_holds(E, a) == (direct <= 4 * q * size)


class TestHingeSweep:
    def test_matches_per_pair_functions(self):
        E = random_subset(7, 15, seed=13)
        sweep = HingeSweep(E)
        for a in range(1, 7):
            for b in range(1, 7):
                assert sweep.exact[a - 1, b - 1] == hinge_count(E, a, b)
        fc = sweep.fourier_counts()
        for a in (1, 3, 6):
            r = sweep.report(a, 2)
            direct = hinge_count_fourier(E, a, 2)
            assert r.exact_count == direct.exact_count
            assert r.pair_count_a == direct.pair_count_a
            assert r.sphere_size_b == direct.sphere_size_b
            assert abs(fc[a - 1, 1] - direct.fourier_count) < 1e-6

    def test_exact_matrix_symmetric(self):
        E = random_subset(11, 35, seed=14)
        sweep = HingeSweep(E)
        assert np.array_equal(sweep.exact, sweep.exact.T)

    def test_diagonal_is_hinge_energy(self):
        E = random_subset(7, 20, seed=15)
        sweep = HingeSweep(E)
        for a in range(1, 7):
            assert sweep.exact[a - 1, a - 1] == hinge_energy(E, a)

    def test_pair_counts_and_sphere_sizes(self):
        E = random_subset(7, 22, seed=16)
        sweep = HingeSweep(E)
        sizes = sphere_size_table(E.field, 2)
        for a in range(1, 7):
            assert sweep.pair_counts[a - 1] == distance_pair_count(E, a).count
            assert sweep.sphere_sizes[a - 1] == sizes[a]

    def test_max_ratio_and_violations_consistent(self):
        E = random_subset(13, 70, seed=17)
        sweep = HingeSweep(E)
        ratios = [
            sweep.report(a, b, with_fourier=False).bound_ratio
            for a in range(1, 13)
            for b in range(1, 13)
        ]
        assert sweep.max_remainder_ratio() == pytest.approx(max(ratios))
        expected = [
            (a, b)
            for a in range(1, 13)
            for b in range(1, 13)
            if not sweep.report(a, b, with_fourier=False).remainder_bound_holds()
        ]
        assert sweep.remainder_violations() == expected

    def test_capacity_guard_before_allocating(self, monkeypatch):
        # (q - 1) q^2 first exceeds GRID_CAPACITY at the prime 223 (211 still fits);
        # a profile computed means the stack was being built
        import ffgeom.counting as counting

        class Allocated(Exception):
            pass

        def no_profiles(*args):
            raise Allocated

        monkeypatch.setattr(counting, "circle_profile", no_profiles)
        with pytest.raises(CapacityError):
            HingeSweep(PointSet.from_points(PrimeField(223), 2, [(0, 0)]))
        with pytest.raises(Allocated):
            HingeSweep(PointSet.from_points(PrimeField(211), 2, [(0, 0)]))

    def test_report_rejects_zero_radius(self):
        sweep = HingeSweep(random_subset(5, 6, seed=18))
        with pytest.raises(ValueError):
            sweep.report(0, 1)
        with pytest.raises(ValueError):
            sweep.report(1, 5)


def test_hinge_report_split():
    E = random_subset(11, 40, seed=19)
    r = hinge_count_fourier(E, 2, 5)
    assert r.main_term == Fraction(r.pair_count_a * 40 * r.sphere_size_b, 121)
    assert r.remainder == r.exact_count - r.main_term
    assert r.bound_ratio == pytest.approx(abs(float(r.remainder)) / (11 * 40))


def test_energy_regime_threshold():
    # the regime is |E|^2 <= 8 q^3; at q = 13 the cutoff falls between 132 and 133
    assert hinge_energy_regime(13, 132)
    assert not hinge_energy_regime(13, 133)
    assert not hinge_energy_regime(13, 169)
    assert hinge_energy_regime(31, 481)


def test_energy_guaranteed_scope():
    assert hinge_energy_guaranteed(13, 1, 14)
    assert not hinge_energy_guaranteed(13, 169, 14)
    # monotone in cardinality for fixed sphere size
    flags = [hinge_energy_guaranteed(31, c, 32) for c in range(1, 962)]
    assert flags == sorted(flags, reverse=True)


@settings(max_examples=25, deadline=None)
@given(st.sets(st.integers(min_value=0, max_value=24), min_size=1))
def test_pair_partition_hypothesis(indices):
    F = PrimeField(5)
    indicator = np.zeros(25, dtype=np.uint8)
    indicator[list(indices)] = 1
    E = PointSet(F, 2, indicator)
    assert sum(distance_pair_count(E, t).count for t in range(5)) == len(indices) ** 2


@settings(max_examples=15, deadline=None)
@given(
    st.sets(st.integers(min_value=0, max_value=24), min_size=2),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=4),
)
def test_hinge_routes_agree_hypothesis(indices, a, b):
    F = PrimeField(5)
    indicator = np.zeros(25, dtype=np.uint8)
    indicator[list(indices)] = 1
    E = PointSet(F, 2, indicator)
    report = hinge_count_fourier(E, a, b)
    assert report.exact_count == brute_hinge(E, a, b)
    assert report.fourier_matches()
