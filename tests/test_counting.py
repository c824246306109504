"""Point sets, circle profiles, and HingeSweep against brute-force definitions.

HingeSweep is the one kernel for pair counts, hinge counts, energies and the
spectral hinge identity.  Its oracles below work from the list of points
alone and share no code with the library path.
"""

from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ffgeom import bounds
from ffgeom.bounds import hinge_energy_regime
from ffgeom.charsums import Sphere, sphere_size_table
from ffgeom.counting import HingeSweep, PointSet, circle_profile, hinge_energy_guaranteed
from ffgeom.field import PrimeField
from ffgeom.fourier import CapacityError, PointD


def _dist(u, v, q: int) -> int:
    return sum((x - y) ** 2 for x, y in zip(u, v)) % q


def brute_hinge(E: PointSet) -> np.ndarray:
    """hinge(a, b) = #{(x, y, z) in E^3 : |x-y| = a, |x-z| = b} for every (a, b) in
    F_q x F_q, by one triple loop straight from the definition."""
    q = E.q
    pts = [p.as_ints() for p in E.points()]
    table = [[0] * q for _ in range(q)]
    for x in pts:
        for y in pts:
            row = table[_dist(x, y, q)]
            for z in pts:
                row[_dist(x, z, q)] += 1
    return np.array(table, dtype=np.int64)


def brute_statistics(E: PointSet):
    """Per distance a in F_q, by direct loops over the points: the ordered pair
    count #{(x, y) in E^2 : |x-y| = a}, sum over the grid of n_a(x)^2, and the
    energy sum over x in E of n_a(x)^2, with n_a(x) = #{y in E : |x-y| = a}."""
    q = E.q
    pts = [p.as_ints() for p in E.points()]
    members = set(pts)
    pairs = [0] * q
    for x in pts:
        for y in pts:
            pairs[_dist(x, y, q)] += 1
    grid_sq = [0] * q
    energy = [0] * q
    for x in product(range(q), repeat=2):
        n = [0] * q
        for y in pts:
            n[_dist(x, y, q)] += 1
        for a in range(q):
            grid_sq[a] += n[a] ** 2
            if x in members:
                energy[a] += n[a] ** 2
    return pairs, grid_sq, energy


def check_against_definitions(E: PointSet) -> None:
    """Every per-radius output of HingeSweep equals its brute-force definition."""
    hs = HingeSweep(E)
    hinges = brute_hinge(E)[1:, 1:]
    pairs, grid_sq, energy = brute_statistics(E)
    assert hs.exact.tolist() == hinges.tolist()
    assert hs.pair_counts.tolist() == pairs[1:]
    assert (hs.profiles * hs.profiles).sum(axis=1).tolist() == grid_sq[1:]
    assert np.diagonal(hs.exact).tolist() == energy[1:]
    fourier = hs.fourier_counts()
    assert np.rint(fourier.real).astype(np.int64).tolist() == hinges.tolist()
    assert np.abs(fourier - hinges).max() <= 1e-6 * (1 + hinges.max())


def fluctuation_numers(hs: HingeSweep) -> np.ndarray:
    """q^2 sum_x (n_a(x) - |E| |S_a| / q^2)^2 for every nonzero radius a."""
    E = hs.E
    sum_sq = (hs.profiles * hs.profiles).sum(axis=1)
    return bounds.fluctuation_numer(E.q, E.cardinality, sum_sq, hs.sphere_sizes)


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


def test_every_nonempty_subset_of_the_q3_plane():
    # all 511 nonempty subsets of F_3^2: the whole population, not a sample
    F = PrimeField(3)
    for mask in range(1, 2**9):
        indicator = np.array([(mask >> i) & 1 for i in range(9)], dtype=np.uint8)
        check_against_definitions(PointSet(F, 2, indicator))


def test_hinge_hand_example():
    # distance matrix of the L-shape:
    #   origin row (0,1,1,4,4), arms see the origin plus one isotropic mate
    hs = HingeSweep(l_shape())
    for (a, b), count in {(1, 4): 8, (4, 1): 8, (1, 1): 8, (2, 3): 0}.items():
        assert hs.report(a, b, with_fourier=False).exact_count == count


def test_pair_hand_example():
    E = l_shape()
    hs = HingeSweep(E)
    assert hs.pair_counts.tolist() == [6, 0, 0, 6]
    # the rest of the 25 ordered pairs sit at distance 0: 5 diagonal, 8 isotropic
    assert E.cardinality**2 - hs.pair_counts.sum() == 13


# every random set the tests below draw at q <= 13, plus a few more
RANDOM_SETS = [
    (5, 7, 10), (5, 8, 1), (5, 9, 4), (7, 12, 2), (7, 15, 13), (7, 18, 11), (7, 20, 5),
    (7, 20, 15), (7, 22, 16), (7, 24, 3), (11, 30, 7), (11, 35, 14), (11, 40, 6),
    (11, 40, 19), (13, 50, 8), (13, 60, 12), (13, 70, 17),
]


@pytest.mark.parametrize("q,size,seed", RANDOM_SETS)
def test_hinge_matches_brute_force(q, size, seed):
    check_against_definitions(random_subset(q, size, seed))


def test_hinge_rejects_higher_dimensions():
    E = PointSet.from_points(PrimeField(5), 3, [(0, 0, 0), (1, 0, 0)])
    with pytest.raises(ValueError):
        HingeSweep(E)


@pytest.mark.parametrize("q,size,seed", [(5, 9, 4), (7, 20, 5), (11, 40, 6)])
def test_fourier_route_agrees_with_exact(q, size, seed):
    E = random_subset(q, size, seed)
    hinges = brute_hinge(E)
    sweep = HingeSweep(E)
    for a, b in [(1, 1), (1, q - 1), (2, 3)]:
        report = sweep.report(a, b)
        assert report.exact_count == hinges[a, b]
        assert report.fourier_matches()
        assert abs(report.fourier_count - report.exact_count) < 1e-6 * (
            1 + report.exact_count
        )


def test_pair_partition_over_all_distances():
    E = random_subset(11, 30, seed=7)
    pairs, _, _ = brute_statistics(E)
    assert sum(pairs) == 30 * 30
    assert HingeSweep(E).pair_counts.sum() == 30 * 30 - pairs[0]


def test_pair_report_decomposition():
    q, card = 13, 50
    hs = HingeSweep(random_subset(q, card, seed=8))
    numers = bounds.pair_deviation_numer(q, card, hs.pair_counts, hs.sphere_sizes)
    for t in (1, 6, 12):
        count, size, numer = (int(v[t - 1]) for v in (hs.pair_counts, hs.sphere_sizes, numers))
        main_term = Fraction(card * card * size, q**2)
        assert Fraction(numer, q**2) == count - main_term
        assert bounds.PAIR_DEVIATION.holds(numer, q, card)
        assert bounds.PAIR_DEVIATION.value(numer, q, card) <= 2.0


def test_pair_bound_exact_arithmetic_consistency():
    # the float ratio and the integer predicate must agree away from the boundary
    q, card = 17, 100
    hs = HingeSweep(random_subset(q, card, seed=9))
    numers = bounds.pair_deviation_numer(q, card, hs.pair_counts, hs.sphere_sizes)
    for numer in numers:
        assert bounds.PAIR_DEVIATION.holds(numer, q, card) == (
            bounds.PAIR_DEVIATION.value(numer, q, card) <= 2.0
        )


def test_fluctuation_single_point():
    # n_1 is the indicator of a circle with 4 points: energy 4 - (4/25)^2 * 25
    hs = HingeSweep(PointSet.from_points(PrimeField(5), 2, [(0, 0)]))
    numer = fluctuation_numers(hs)[0]
    assert Fraction(int(numer), 25) == Fraction(84, 25)
    assert bounds.FLUCTUATION.holds(numer, 5, 1)


def test_fluctuation_full_grid_is_zero():
    hs = HingeSweep(PointSet.full_grid(PrimeField(7), 2))
    assert fluctuation_numers(hs).tolist() == [0] * 6


@pytest.mark.parametrize("q,size,seed", [(5, 7, 10), (7, 18, 11), (13, 60, 12)])
def test_fluctuation_definition(q, size, seed):
    E = random_subset(q, size, seed)
    numers = fluctuation_numers(HingeSweep(E))
    for a in (1, q - 1):
        profile = circle_profile(E, a)
        mean = Fraction(size * Sphere(E.field, a, 2).count, q * q)
        direct = sum((Fraction(int(v)) - mean) ** 2 for v in profile)
        assert Fraction(int(numers[a - 1]), q * q) == direct
        assert bounds.FLUCTUATION.holds(numers[a - 1], q, size) == (direct <= 4 * q * size)


class TestHingeSweep:
    def test_exact_matrix_symmetric(self):
        E = random_subset(11, 35, seed=14)
        sweep = HingeSweep(E)
        assert np.array_equal(sweep.exact, sweep.exact.T)

    def test_diagonal_is_hinge_energy(self):
        E = random_subset(7, 20, seed=15)
        _, _, energy = brute_statistics(E)
        assert np.diagonal(HingeSweep(E).exact).tolist() == energy[1:]

    def test_pair_counts_and_sphere_sizes(self):
        E = random_subset(7, 22, seed=16)
        sweep = HingeSweep(E)
        pairs, _, _ = brute_statistics(E)
        assert sweep.pair_counts.tolist() == pairs[1:]
        assert sweep.sphere_sizes.tolist() == sphere_size_table(E.field, 2)[1:].tolist()

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
    r = HingeSweep(E).report(2, 5)
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
    pairs, _, _ = brute_statistics(E)
    assert sum(pairs) == len(indices) ** 2
    assert HingeSweep(E).pair_counts.tolist() == pairs[1:]


@settings(max_examples=15, deadline=None)
@given(
    st.sets(st.integers(min_value=0, max_value=24), min_size=2),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=4),
)
def test_hinge_routes_agree_hypothesis(indices, a, b):
    # pins the conjugate placement in HingeSweep.fourier_counts (see ffgeom.counting)
    F = PrimeField(5)
    indicator = np.zeros(25, dtype=np.uint8)
    indicator[list(indices)] = 1
    E = PointSet(F, 2, indicator)
    hinges = brute_hinge(E)[1:, 1:]
    sweep = HingeSweep(E)
    assert np.rint(sweep.fourier_counts().real).astype(np.int64).tolist() == hinges.tolist()
    report = sweep.report(a, b)
    assert report.exact_count == hinges[a - 1, b - 1]
    assert report.fourier_matches()
