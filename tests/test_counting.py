"""Point sets, circle profiles, and HingeSweep against brute-force definitions.

HingeSweep is the one kernel for pair counts, hinge counts, energies and the
spectral hinge identity.  Its oracles below work from the list of points
alone and share no code with the library path, except full_spectrum_counts:
the spectral identity summed over every frequency, from HingeSweep's own
profiles, the oracle of the per-norm-class evaluation.
"""

import tracemalloc
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ffgeom import bounds, counting
from ffgeom.bounds import hinge_energy_guaranteed, hinge_energy_regime
from ffgeom.charsums import Sphere, sphere_size_table
from ffgeom.counting import (
    HingeSweep,
    PointSet,
    circle_profile,
    circle_profile_stack,
    exact_matmul,
)
from ffgeom.experiments import random_set
from ffgeom.field import PrimeField
from ffgeom.fourier import CapacityError, PointD, character_matrix


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
    assert hs.sum_sq.tolist() == grid_sq[1:]
    assert np.diagonal(hs.exact).tolist() == energy[1:]
    fourier = hs.fourier_counts()
    assert np.rint(fourier.real).astype(np.int64).tolist() == hinges.tolist()
    assert np.abs(fourier - hinges).max() <= 1e-6 * (1 + hinges.max())
    check_against_full_spectrum(hs)


def full_spectrum_counts(hs: HingeSweep) -> np.ndarray:
    """The spectral hinge identity summed over all q^2 frequencies, as a complex matrix.

    Full complex FFTs of the profiles on E, of E and of every sphere, and one
    (q - 1) x q^2 x (q - 1) product: no norm classes and no half spectrum.  It
    starts from the profiles on E, which circle_profile checks.
    """
    q = hs.E.q
    scale = 1.0 / q**2

    def batch_forward(rows: np.ndarray) -> np.ndarray:
        cubes = rows.astype(np.complex128).reshape(-1, q, q)
        return np.fft.fftn(cubes, axes=(1, 2)).reshape(-1, q * q) * scale

    norms = np.array([PointD.from_index(hs.E.field, i, 2).norm().value for i in range(q * q)])
    fhat = batch_forward(hs.profiles * hs.E.indicator)
    ehat = batch_forward(hs.E.indicator[None, :])[0]
    shat = batch_forward(norms[None, :] == np.arange(1, q)[:, None])
    return q**4 * ((np.conj(fhat) * ehat) @ shat.T)


def check_against_full_spectrum(hs: HingeSweep) -> None:
    """The per-class kernel and the full-spectrum oracle both round to the exact
    counts and agree within 1e-6 (1 + max)."""
    fourier, oracle = hs.fourier_counts(), full_spectrum_counts(hs)
    assert fourier.dtype == np.float64 and fourier.shape == hs.exact.shape
    assert np.array_equal(np.rint(fourier), hs.exact)
    assert np.array_equal(np.rint(oracle.real), hs.exact)
    assert np.abs(oracle.imag).max() <= 1e-6 * (1 + hs.exact.max())
    assert np.abs(fourier - oracle).max() <= 1e-6 * (1 + np.abs(oracle).max())


def fourier_matches(value: float, exact: int) -> bool:
    """A spectral value rounds to the exact count and lies within 1e-6 (1 + exact) of it."""
    return round(value) == exact and abs(value - exact) <= 1e-6 * (1 + exact)


def remainder_split(hs: HingeSweep, a: int, b: int):
    """(I, R) for radii a, b as Fractions, from HingeSweep's arrays: the main
    term I = |D_a| |E| |S_b| / q^2 and the remainder R = hinge(a, b) - I."""
    q, card = hs.E.q, hs.E.cardinality
    main = Fraction(int(hs.pair_counts[a - 1]) * card * int(hs.sphere_sizes[b - 1]), q * q)
    return main, int(hs.exact[a - 1, b - 1]) - main


def fluctuation_numers(hs: HingeSweep) -> np.ndarray:
    """q^2 sum_x (n_a(x) - |E| |S_a| / q^2)^2 for every nonzero radius a."""
    E = hs.E
    return bounds.fluctuation_numer(E.q, E.cardinality, hs.sum_sq, hs.sphere_sizes)


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

    @pytest.mark.parametrize("dtype", [np.uint8, bool, np.int64, np.float64])
    def test_accepts_zero_one_entries_of_any_dtype(self, dtype):
        indicator = np.zeros(25, dtype=dtype)
        indicator[[3, 7]] = 1
        E = PointSet(PrimeField(5), 2, indicator)
        assert E.cardinality == 2
        assert E.indicator.dtype == np.uint8
        assert E.indices().tolist() == [3, 7]

    @pytest.mark.parametrize("bad", [2, -1, 0.5, np.nan])
    def test_rejects_entries_other_than_zero_and_one(self, bad):
        indicator = np.ones(25, dtype=np.float64 if isinstance(bad, float) else np.int64)
        indicator[4] = bad
        with pytest.raises(ValueError, match="indicator entries must be 0 or 1"):
            PointSet(PrimeField(5), 2, indicator)

    @pytest.mark.parametrize("dtype,bad", [(np.int8, -1), (np.uint16, 256), (np.float64, 0.5)])
    def test_rejects_entries_the_cast_would_hide(self, dtype, bad):
        # uint16 256 casts to uint8 0, and int8 -1 to 255
        indicator = np.ones(25, dtype=dtype)
        indicator[4] = bad
        with pytest.raises(ValueError, match="indicator entries must be 0 or 1"):
            PointSet(PrimeField(5), 2, indicator)

    def test_accepts_bool_entries(self):
        E = PointSet(PrimeField(5), 2, np.arange(25) % 2 == 1)
        assert E.cardinality == 12 and E.indicator.dtype == np.uint8

    @staticmethod
    def check_indices(E: PointSet, indicator: np.ndarray) -> None:
        """indices() and cardinality against np.nonzero and sum of the input."""
        want = np.nonzero(np.ravel(indicator))[0]
        got = E.indices()
        assert got.dtype == want.dtype == np.intp
        assert np.array_equal(got, want)
        assert E.cardinality == int(np.sum(indicator))

    def test_indices_on_every_nonempty_subset_of_the_q3_plane(self):
        F = PrimeField(3)
        bits = (np.arange(1, 2**9)[:, None] >> np.arange(9)) & 1
        for indicator in bits.astype(np.uint8):
            self.check_indices(PointSet(F, 2, indicator), indicator)

    @pytest.mark.parametrize("q", [5, 13, 101])
    @pytest.mark.parametrize("rho", [Fraction(1, 10), Fraction(1, 2), Fraction(1)])
    def test_indices_on_random_sets(self, q, rho):
        E = random_set(q, 2, rho, seed=q)
        self.check_indices(E, E.indicator)

    def test_indices_on_the_full_grid(self):
        E = PointSet.full_grid(PrimeField(13), 2)
        self.check_indices(E, np.ones(13 * 13, dtype=np.uint8))

    @pytest.mark.parametrize("dtype", [bool, np.uint16, np.int64])
    def test_indices_of_other_input_dtypes(self, dtype):
        indicator = (np.random.default_rng(5).random(101 * 101) < 0.3).astype(dtype)
        self.check_indices(PointSet(PrimeField(101), 2, indicator), indicator)

    def test_peak_memory_is_one_copy_at_q2053(self):
        q = 2053
        indicator = np.zeros(q * q, dtype=np.uint8)
        indicator[::7] = 1
        tracemalloc.start()
        try:
            E = PointSet(PrimeField(q), 2, indicator)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert E.cardinality == len(range(0, q * q, 7))
        # the uint8 copy it keeps (4.02 MiB); a q^2 bool mask for the 0/1
        # check took the peak to 8.05 MiB
        assert peak <= 4.2 * 2**20, peak

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


class TestCircleProfileStack:
    """circle_profile_stack against one circle_profile call per radius."""

    @staticmethod
    def check(E: PointSet) -> None:
        stack = circle_profile_stack(E)
        oracle = np.stack([circle_profile(E, a) for a in range(1, E.q)])
        assert stack.dtype == np.uint8
        assert stack.shape == (E.q - 1, E.q * E.q)
        assert np.array_equal(stack, oracle)

    def test_every_nonempty_subset_of_the_q3_plane(self):
        F = PrimeField(3)
        for mask in range(1, 2**9):
            self.check(PointSet(F, 2, np.array([(mask >> i) & 1 for i in range(9)], dtype=np.uint8)))

    @pytest.mark.parametrize("q", (5, 7, 11, 13, 17, 19, 23, 29))
    @pytest.mark.parametrize("rho", ("1/10", "1/2", "1"))
    @pytest.mark.parametrize("seed", (0, 1))
    def test_random_sets(self, q, rho, seed):
        self.check(random_set(q, 2, Fraction(rho), seed=seed))

    def test_isotropic_line(self):
        # y = 2x at q = 5: |(x, 2x)| = 5x^2 = 0, so the line lies inside S_0 of each of its points
        F = PrimeField(5)
        self.check(PointSet.from_points(F, 2, [(x, 2 * x % 5) for x in range(5)]))

    def test_rejects_higher_dimensions(self):
        with pytest.raises(ValueError):
            circle_profile_stack(PointSet.full_grid(PrimeField(3), 3))

    def test_capacity_guard(self):
        # a kept uint8 row would wrap from q = 257 on (|S_a| >= q - 1 = 256), so the stack
        # is capped like a grid, as in HingeSweep: (q - 1) q^2 first exceeds it at 223
        with pytest.raises(CapacityError):
            circle_profile_stack(PointSet.from_points(PrimeField(223), 2, [(0, 0)]))

    def test_row_zero_wraps_on_the_full_grid_at_q197(self):
        # q = 197 = 1 mod 4: the dropped row 0 of the uint8 accumulator sums to
        # |S_0| = 2q - 1 = 393 > 255 and wraps, and every kept row still reads |S_a| = q - 1
        q = 197
        stack = circle_profile_stack(PointSet.full_grid(PrimeField(q), 2))
        assert stack.dtype == np.uint8
        assert (stack == q - 1).all()

    def test_row_zero_wraps_on_a_random_set_at_q197(self):
        E = random_set(197, 2, Fraction(1, 2), seed=3)
        stack = circle_profile_stack(E)
        for a in (1, 2, 98, 196):
            assert np.array_equal(stack[a - 1], circle_profile(E, a))

    def test_full_grid_at_the_capacity_limit(self):
        # q = 211 is the largest q HingeSweep accepts; on the full grid n_a(x) = |S_a| at every
        # x, the largest count (q + 1 = 212) the uint8 accumulator holds in a returned row.
        # Its square 212^2 = 44944 is past uint8 and int16, so every statistic on it must be
        # widened.
        q = 211
        sweep = HingeSweep(PointSet.full_grid(PrimeField(q), 2))
        sizes = sphere_size_table(PrimeField(q), 2)[1:]
        assert (sizes == q + 1).all()
        assert (sweep.profiles == sizes[:, None]).all()
        assert (sweep.sum_sq == q**2 * (q + 1) ** 2).all()
        assert (sweep.pair_counts == q**2 * (q + 1)).all()
        assert (sweep.exact == q**2 * (q + 1) ** 2).all()


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
        assert hs.exact[a - 1, b - 1] == count


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
        exact = int(sweep.exact[a - 1, b - 1])
        value = float(sweep.fourier_counts()[a - 1, b - 1])
        assert exact == hinges[a, b]
        assert fourier_matches(value, exact)
        assert abs(value - exact) < 1e-6 * (1 + exact)


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


@pytest.mark.parametrize("bits", [53], ids=["float64-53"])  # the float64 mantissa
def test_exact_matmul_equals_integer_product(bits):
    rng = np.random.default_rng(bits)
    k, top = 64, 2 ** ((bits - 6) // 2)  # every |a_ik| |b_kj| summed over k stays < 2^bits
    a = rng.integers(-top + 1, top, size=(9, k))
    b = rng.integers(-top + 1, top, size=(k, 7))
    bound = k * (top - 1) ** 2
    assert bound < 2**bits
    got = exact_matmul(a, b, bound=bound)
    assert got.dtype == np.int64
    assert np.array_equal(got, a @ b)


@pytest.mark.parametrize("bits", [53], ids=["float64-53"])  # the float64 mantissa
def test_exact_matmul_rejects_a_bound_past_the_mantissa(bits):
    a = np.ones((2, 2), dtype=np.int64)
    exact_matmul(a, a, bound=2**bits - 1)
    with pytest.raises(AssertionError):
        exact_matmul(a, a, bound=2**bits)


@pytest.mark.parametrize("q", (3, 13, 101))
@pytest.mark.parametrize("rho", ("1/2", "1"))
def test_hinge_matrix_equals_integer_matmul(q, rho):
    # the float64 BLAS product against the plain int64 matmul of the widened profiles
    sweep = HingeSweep(random_set(q, 2, Fraction(rho), seed=q))
    profiles = sweep.profiles.astype(np.int64)
    assert sweep.exact.dtype == np.int64
    assert np.array_equal(sweep.exact, (profiles * sweep.E.indicator) @ profiles.T)


class TestHingeSweep:
    def test_retains_little_past_the_profiles(self):
        # the profiles are the one (q - 1) x q^2 uint8 stack a sweep keeps; a second
        # stack of that size, or a widened copy of it, would at least double what it holds
        E = random_set(101, 2, Fraction(1, 2), 0)
        HingeSweep(E)  # the per-q tables are cached once, outside the measurement
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            sweep = HingeSweep(E)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert retained < 1.25 * sweep.profiles.nbytes, (retained, sweep.profiles.nbytes)

    def test_peak_memory_at_the_capacity_limit(self):
        # at q = 211 the uint8 stage-one table (2q^3 bytes, 18.8 MB) and the stack
        # (q^3 bytes, 9.4 MB) peak near 28 MB, and each block of E's points gathers at
        # most _GATHER_POINTS columns as float64; int16 stages, or one float64 gather
        # of all 22261 points (37 MB), lift the peak to about 66 MB
        E = random_set(211, 2, Fraction(1, 2), 0)
        tracemalloc.start()
        try:
            HingeSweep(E)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 40e6, peak

    @pytest.mark.parametrize("points", (1, 100, 4096))
    def test_gather_blocks_do_not_change_the_counts(self, points, monkeypatch):
        E = random_set(31, 2, Fraction(1, 2), 1)
        whole = HingeSweep(E)
        monkeypatch.setattr(counting, "_GATHER_POINTS", points)
        blocked = HingeSweep(E)
        assert np.array_equal(blocked.exact, whole.exact)
        assert np.array_equal(blocked.pair_counts, whole.pair_counts)

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
        # |R| / (q |E|) and the bound |R| <= 8 q |E|, from exact remainders
        q, card = 13, 70
        sweep = HingeSweep(random_subset(q, card, seed=17))
        radii = [(a, b) for a in range(1, q) for b in range(1, q)]
        remainders = [abs(remainder_split(sweep, a, b)[1]) for a, b in radii]
        ratios = [float(r / (q * card)) for r in remainders]
        assert sweep.max_remainder_ratio() == pytest.approx(max(ratios))
        expected = [ab for ab, r in zip(radii, remainders) if not r <= 8 * q * card]
        assert sweep.remainder_violations() == expected

    def test_capacity_guard_before_allocating(self, monkeypatch):
        # (q - 1) q^2 first exceeds GRID_CAPACITY at the prime 223 (211 still fits);
        # a call to the stack builder means the stack was being built
        import ffgeom.counting as counting

        class Allocated(Exception):
            pass

        def no_profiles(*args):
            raise Allocated

        monkeypatch.setattr(counting, "circle_profile_stack", no_profiles)
        with pytest.raises(CapacityError):
            HingeSweep(PointSet.from_points(PrimeField(223), 2, [(0, 0)]))
        with pytest.raises(Allocated):
            HingeSweep(PointSet.from_points(PrimeField(211), 2, [(0, 0)]))


class TestSpectralClasses:
    """HingeSweep.fourier_counts, evaluated per norm class, against the full-spectrum
    oracle.  The whole F_3^2 population runs through check_against_definitions."""

    @pytest.mark.parametrize("q", (5, 7, 11, 13, 17, 19))
    @pytest.mark.parametrize("rho", ("1/10", "1/2", "1"))
    @pytest.mark.parametrize("seed", (0, 1))
    def test_random_sets(self, q, rho, seed):
        check_against_full_spectrum(HingeSweep(random_set(q, 2, Fraction(rho), seed=seed)))

    def test_half_density_at_q101(self):
        check_against_full_spectrum(HingeSweep(random_set(101, 2, Fraction(1, 2), seed=0)))

    @pytest.mark.parametrize("q", (13, 101))
    @pytest.mark.parametrize("radii_per_block", (1, 7))
    def test_block_boundaries(self, q, radii_per_block, monkeypatch):
        # one radius per block, and blocks of 7 radii, which divides neither q - 1 = 12 nor 100;
        # at q <= 181 a block holds _TRANSFORM_ARRAYS radii, and so does each product
        sweep = HingeSweep(random_set(q, 2, Fraction(1, 2), seed=q))
        default = sweep.fourier_counts()
        table = counting._sphere_class_table(q)
        monkeypatch.setattr(counting, "_TRANSFORM_ARRAYS", radii_per_block)
        assert len(counting._radius_blocks(q)) == -(-(q - 1) // radii_per_block)
        blocked = HingeSweep(sweep.E).fourier_counts()
        assert np.array_equal(blocked, default)
        assert np.array_equal(np.rint(blocked), sweep.exact)
        assert np.array_equal(counting._sphere_class_table.__wrapped__(q), table)

    @staticmethod
    def warm_spectral_peak(q):
        E = random_set(q, 2, Fraction(1, 2), 0)
        HingeSweep(E).fourier_counts()  # the per-q tables are cached once, outside the measurement
        sweep = HingeSweep(E)
        tracemalloc.start()
        try:
            sweep.fourier_counts()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_spectral_peak_memory_at_q101(self):
        # blocks of 8 radii, one pair of character-matrix products each with the second
        # folded to the rows m_1 < h, and one bincount per radius peak near 3.5 MB;
        # blocks of 25 radii with the unfolded product peaked at 9.7 MB, and one block
        # of all 100 radii lifts it to about 20 MB
        peak = self.warm_spectral_peak(101)
        assert peak < 4.6e6, peak

    def test_spectral_peak_memory_at_the_capacity_limit(self):
        # blocks of 5 radii, the most that hold 2^18 grid values at q = 211, peak near
        # 9.8 MB; unfolded products peaked at 11.6 MB, and blocks of 8 radii would
        # lift that to about 15 MB
        peak = self.warm_spectral_peak(211)
        assert peak < 11.5e6, peak

    def test_class_table_peak_memory_at_q101(self):
        # one (q - 1) x q closed-form array, one length-q FFT per radius, and the
        # table: no character matrix and no (q - 1) x q^2 array is ever formed
        tracemalloc.start()
        try:
            counting._sphere_class_table.__wrapped__(101)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2e6, peak

    @pytest.mark.parametrize("q", (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 101))
    def test_class_table_equals_the_sphere_dft(self, q):
        # the oracle of the closed-form build: numpy's DFT of every sphere indicator,
        # scaled by q^-2, against its class entry at every half-spectrum frequency
        table = counting._sphere_class_table(q)
        classes = counting._half_spectrum_classes(q)
        x = np.arange(q)
        norms = (x[:, None] ** 2 + x[None, :] ** 2) % q
        for b in range(1, q):
            shat = np.fft.fft2(norms == b)[:, : q // 2 + 1] / q**2
            assert np.abs(shat - table[b - 1, classes]).max() <= 1e-12, b

    @pytest.mark.parametrize("q", (3, 5, 7, 13))
    def test_class_table(self, q):
        table = counting._sphere_class_table(q)
        assert table.shape == (q - 1, q + 1) and table.dtype == np.float64
        assert not table.flags.writeable
        assert counting._sphere_class_table(q) is table
        # the origin's entry is |S_b| / q^2; nonzero isotropic vectors exist iff q = 1 mod 4
        sizes = sphere_size_table(PrimeField(q), 2)[1:]
        assert np.allclose(table[:, q], sizes / q**2, rtol=0, atol=1e-15)
        assert (q % 4 == 1) == bool(np.any(table[:, 0]))

    @pytest.mark.parametrize("q", (5, 7))
    @pytest.mark.parametrize("spoil", (lambda row: row * 1j, lambda row: -row),
                             ids=("imaginary", "negated"))
    def test_build_rejects_a_spoiled_closed_form(self, q, spoil, monkeypatch):
        # a closed form off the real axis, or one whose value at the origin misses
        # |S_b| / q^2, as a wrong Q^2 would give, at the even radii: the error
        # names the first of them
        closed = counting._closed_form_by_norm

        def spoiled(*args):
            rows = closed(*args)
            rows[1::2] = spoil(rows[1::2])
            return rows

        monkeypatch.setattr(counting, "_closed_form_by_norm", spoiled)
        with pytest.raises(AssertionError, match="closed-form sphere transform at q=.*, radius 2 "):
            counting._sphere_class_table.__wrapped__(q)

    @pytest.mark.parametrize("q", (5, 13))
    def test_merging_the_origin_into_class_0_is_caught(self, q, monkeypatch):
        # Only at q = 1 mod 4 does class 0 hold nonzero frequencies for the origin to spoil.
        classes = counting._half_spectrum_classes

        def merged_classes(q):
            out = classes(q)
            out[0, 0] = 0
            return out

        with monkeypatch.context() as patch:
            patch.setattr(counting, "_half_spectrum_classes", merged_classes)
            with pytest.raises(AssertionError):
                check_against_full_spectrum(HingeSweep(random_set(q, 2, Fraction(1, 2), seed=0)))
        merged_table = counting._sphere_class_table(q).copy()
        merged_table[:, 0] = merged_table[:, q]
        monkeypatch.setattr(counting, "_sphere_class_table", lambda q: merged_table)
        with pytest.raises(AssertionError):
            check_against_full_spectrum(HingeSweep(random_set(q, 2, Fraction(1, 2), seed=0)))


class TestHalfSpectrum:
    """counting._half_spectrum, the character-matrix DFT, against numpy's rfftn."""

    @pytest.mark.parametrize("q", (3, 5, 13, 61, 101, 211))
    def test_matches_rfftn(self, q):
        arrays = np.random.default_rng(q).standard_normal((3, q, q))
        re, im = counting._half_spectrum(arrays)
        oracle = np.fft.rfftn(arrays, axes=(1, 2))
        assert re.shape == im.shape == oracle.shape
        assert np.abs(re - oracle.real).max() <= 1e-9 * q**2
        assert np.abs(im - oracle.imag).max() <= 1e-9 * q**2

    @pytest.mark.parametrize("q", (13, 101))
    @pytest.mark.parametrize("size", (7, 19))
    def test_an_array_alone_equals_it_in_a_stack(self, q, size):
        # 7 and 19 arrays each go through one pair of stacked products, whose
        # per-array products have the shape of an array alone
        stack = np.random.default_rng(size).standard_normal((size, q, q))
        re, im = counting._half_spectrum(stack)
        for k in (0, 3, size - 1):
            alone_re, alone_im = counting._half_spectrum(stack[k : k + 1])
            assert np.array_equal(alone_re[0], re[k]) and np.array_equal(alone_im[0], im[k])

    def test_character_matrices_are_cached_read_only(self):
        by_m0, by_m1 = counting._character_matrices(13)
        assert by_m0.shape == (13, 14) and by_m1.shape == (14, 13)
        assert not by_m0.flags.writeable and not by_m1.flags.writeable
        assert counting._character_matrices(13)[0] is by_m0
        # both are half-row blocks of the one character matrix of ffgeom.fourier
        chi = character_matrix(13)
        assert np.array_equal(by_m0, np.concatenate([chi.real[:, :7], chi.imag[:, :7]], axis=1))
        assert np.array_equal(by_m1, np.concatenate([chi.real[:7], chi.imag[:7]], axis=0))


def test_hinge_report_split():
    # the main term and remainder at (a, b) = (2, 5), and the library's q^2 R
    # and printed ratio against them
    hs = HingeSweep(random_subset(11, 40, seed=19))
    main, remainder = remainder_split(hs, 2, 5)
    assert main == Fraction(int(hs.pair_counts[1]) * 40 * int(hs.sphere_sizes[4]), 121)
    assert remainder == int(hs.exact[1, 4]) - main
    numer = hs.remainder_numers()[1, 4]
    assert Fraction(int(numer), 121) == remainder
    assert bounds.HINGE_REMAINDER.value(numer, 11, 40) == pytest.approx(
        abs(float(remainder)) / (11 * 40)
    )


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
    exact = int(sweep.exact[a - 1, b - 1])
    assert exact == hinges[a - 1, b - 1]
    assert fourier_matches(float(sweep.fourier_counts()[a - 1, b - 1]), exact)
