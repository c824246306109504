"""Circle intersection, two-square counts, and the small-sumset circle union."""

import random
import tracemalloc
from collections import Counter
from functools import lru_cache
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ffgeom import circles, counting
from ffgeom.bounds import sphere_size
from ffgeom.charsums import Sphere, norm_values, sqrt_table
from ffgeom.counting import PointSet
from ffgeom.circles import (
    CircleSystem,
    CounterexampleSet,
    build_counterexample,
    discriminant,
    intersect_circles,
    midpoint_exclusion_check,
    parallelogram_check,
    radius_counts,
    representable_c_values,
    sum_two_squares_count,
)
from ffgeom.experiments import random_set
from ffgeom.field import PrimeField, is_prime
from ffgeom.fourier import CapacityError, PointD


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


@pytest.mark.parametrize("q", (17, 19, 31))
def test_representable_values_read_their_table_rows(q):
    """Every (a, w, b) read, b = 0 included, is the nonzero c of table row b."""
    F = PrimeField(q)
    for a in range(1, q):
        table = radius_counts(F, a)
        for w in Sphere(F, a, 2).points:
            for b in range(q):
                assert representable_c_values(F, a, b, w) == np.flatnonzero(table[b]).tolist(), \
                    (a, w.as_ints(), b)


def test_representable_values_capacity_guard():
    F = PrimeField(2**31 - 1)
    with pytest.raises(CapacityError):
        representable_c_values(F, 1, 1, PointD(F, (1, 0)))


@pytest.mark.parametrize("w", [(1, 2), (0, 3)])  # two radii, 5 and 9
def test_representable_values_checks_are_live(monkeypatch, w):
    """A spoiled square class of one residue moves the expected table off
    the counted one, and the count check says so."""
    F = PrimeField(13)
    witness = PointD(F, w)
    a = witness.norm().value
    spoiled = circles.legendre_table(F).copy()
    spoiled[1] = -1  # 1 is a square
    # a radius cached by an earlier call would be read without the patched table
    circles._radius.cache_clear()
    monkeypatch.setattr(circles, "legendre_table", lambda field: spoiled)
    with pytest.raises(AssertionError, match=f"solution count off the class of D at q=13, a={a}"):
        representable_c_values(F, a, 1, witness)


def test_radius_checks_reach_later_blocks(monkeypatch):
    """A fault in one late witness is caught in its own block and names it.

    |y - w| is read at row y_1 - w_1 + q - 1 of the difference norms, so the
    row of d_1 = -12 is read only by the points y = (0, y_2) of the witnesses
    with w_1 = 12: (12, 2) and (12, 11), the last two of the 12 witnesses of
    S_5 at q = 13.  Spoiling that row moves their points to other c.  In
    blocks of one witness (12, 2) has a block of its own; in blocks of four
    it is the third of the last block, so it is caught only if every
    witness of a block reads its own window.
    """
    F = PrimeField(13)
    assert [w.as_ints() for w in Sphere(F, 5, 2).points][-2:] == [(12, 2), (12, 11)]
    norms = circles._difference_norms(13)
    row = -12 + (13 - 1)
    norms[row] = (norms[row] + 1) % 13
    monkeypatch.setattr(circles, "_difference_norms", lambda q: norms)
    # a cache of its own, so the spoiled tables are built here and do not outlive the test
    monkeypatch.setattr(circles, "_scan_tables",
                        lru_cache(maxsize=1)(circles._scan_tables.__wrapped__))
    for witnesses_per_block in (1, 4):
        circles._radius.cache_clear()
        monkeypatch.setattr(counting, "_BLOCK_VALUES", witnesses_per_block * 13 * 13)
        with pytest.raises(AssertionError, match=r"solution count off the class of D "
                                                 r"at q=13, a=5, b=\d+, w=\(12, 2\)"):
            radius_counts(F, 5)


@pytest.mark.parametrize("q", [q for q in range(3, 32) if is_prime(q)])
def test_radius_tables_equal_the_square_class_of_d(q, radius_checks):
    """Every odd prime q <= 31 and every a: the table is
    eta(4ab - (a + b - c)^2) + 1 computed in Python ints, and every witness
    on S_a was counted and checked once."""
    F = PrimeField(q)
    for a in range(1, q):
        expected = [[F.legendre(4 * a * b - (a + b - c) ** 2) + 1 for c in range(q)]
                    for b in range(q)]
        assert radius_counts(F, a).tolist() == expected, a
        radius_checks.witnesses_checked(F, a)


@pytest.mark.parametrize("q", (13, 31))
@pytest.mark.parametrize("witnesses_per_block", (1, 5))
def test_radius_block_boundaries(q, witnesses_per_block, monkeypatch, radius_checks):
    # one witness per block, and blocks of 5, which divides neither |S_a| = 12 at
    # q = 13 nor |S_a| = 32 at q = 31
    F = PrimeField(q)
    default = []
    for a in range(1, q):
        default.append(radius_counts(F, a))
        radius_checks.witnesses_checked(F, a)
    monkeypatch.setattr(counting, "_BLOCK_VALUES", witnesses_per_block * q * q)
    for a, expected in enumerate(default, start=1):
        circles._radius.cache_clear()
        assert np.array_equal(radius_counts(F, a), expected), a
        radius_checks.witnesses_checked(F, a)


def test_radius_cache_keys():
    F = PrimeField(13)
    w1, w2 = PointD(F, (1, 2)), PointD(F, (1, 1))
    a1, a2 = 5, 2
    expected = {a: [[c for c in range(13)
                     if intersect_circles(CircleSystem(PointD(F, (0, 0)), w, b, c))]
                    for b in range(13)]
                for a, w in ((a1, w1), (a2, w2))}
    circles._radius.cache_clear()
    for a, w in ((a1, w1), (a2, w2), (a1, w1)):
        assert [representable_c_values(F, a, b, w) for b in range(13)] == expected[a]
    # an int a and a FieldElement a are one key, and so are two equal fields
    table = radius_counts(F, a1)
    assert table.dtype == np.int8 and not table.flags.writeable
    hits = circles._radius.cache_info().hits
    assert radius_counts(F, F.element(a1)) is table
    assert radius_counts(PrimeField(13), a1 + 13) is table
    assert circles._radius.cache_info().hits == hits + 2
    assert radius_counts(F, a2) is not table
    assert circles._radius.cache_info().currsize == 1


def test_radius_capacity_guard_before_any_array():
    # (q + 1) q^2 = 224 * 223^2 > 10^7, while 212 * 211^2 fits
    F = PrimeField(223)
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match="q=223"):
            radius_counts(F, 1)
        with pytest.raises(CapacityError):
            representable_c_values(F, 1, 1, PointD(F, (1, 0)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**16, peak  # each q x q int32 intermediate alone is 199 KB


def test_radius_peak_memory_at_q211():
    # one build at the top of the domain peaks at 7.65 MB; the bound fails
    # the 9.72 MB of the batched elimination solver the scan replaced
    F = PrimeField(211)
    circles._radius.cache_clear()
    tracemalloc.start()
    try:
        radius_counts(F, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 9e6, peak


def test_radius_oracle_at_q211(radius_checks):
    """At the top of the domain, where the codes are largest: the table
    against eta(4ab - (a + b - c)^2) + 1 in Python ints, every witness seen
    by the count check across 43 blocks, and 50 seeded (w, b) reads against
    the scalar solver."""
    q = 211
    F = PrimeField(q)
    origin = PointD(F, (0, 0))
    rng = random.Random(211)
    nonsquare = next(x for x in range(2, q - 1) if F.legendre(x) == -1)
    for a in (1, nonsquare, q - 1):
        expected = np.array([[F.legendre(4 * a * b - (a + b - c) ** 2) + 1 for c in range(q)]
                             for b in range(q)])
        witnesses = Sphere(F, a, 2).points
        assert np.array_equal(radius_counts(F, a), expected), a
        assert radius_checks.witnesses_checked(F, a) == len(witnesses) == 212
        for _ in range(50):
            w, b = rng.choice(witnesses), rng.randrange(q)
            assert representable_c_values(F, a, b, w) == [
                c for c in range(q) if intersect_circles(CircleSystem(origin, w, b, c))
            ], (a, b, w.as_ints())


@pytest.mark.parametrize("q", (13, 31))
def test_representable_values_read_path_contract(q):
    F = PrimeField(q)
    w = Sphere(F, 2, 2).points[0]
    first = representable_c_values(F, 2, 1, w)
    expected = list(first)
    first.append(-1)
    first[0] = -1
    counts = radius_counts(F, 2)
    assert representable_c_values(F, 2, 1, w) == expected == np.flatnonzero(counts[1]).tolist()
    assert counts.dtype == np.int8 and counts.shape == (q, q)
    assert not counts.flags.writeable
    with pytest.raises(ValueError):
        counts[0, 0] = 1


def test_radius_rejects_zero_radius():
    with pytest.raises(ValueError):
        radius_counts(PrimeField(7), 0)
    with pytest.raises(TypeError):
        radius_counts(PrimeField(7), 1.0)


@pytest.mark.parametrize("q", (5, 7, 11, 13, 17))
def test_sum_two_squares_closed_form(q):
    # the closed form q - eta(-1) of bounds.sphere_size, claimed for u != 0
    F = PrimeField(q)
    for u in range(1, q):
        assert sum_two_squares_count(F, u) == sphere_size(F)


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

    def test_no_norm_table_outlives_the_build(self):
        norm_values.cache_clear()
        build_counterexample(PrimeField(1009))
        assert norm_values.cache_info().currsize == 0

    @pytest.mark.parametrize("q", [257, 263, 521, 523, 1009, 1019])
    def test_indicator_is_the_norm_mask(self, q):
        cs = build_counterexample(PrimeField(q))
        r = np.arange(q)
        assert np.array_equal(cs.E.cube(), np.isin((r[:, None] ** 2 + r ** 2) % q, cs.A))
        # |A| disjoint circles of nonzero radius, q - eta(-1) points each
        assert cs.E.cardinality == len(cs.A) * (q - 1 if q % 4 == 1 else q + 1)

    @pytest.mark.parametrize("q", [257, 263])
    @pytest.mark.parametrize("spoil", ["wrong", "lost"])
    def test_build_rejects_a_spoiled_root(self, monkeypatch, q, spoil):
        F = PrimeField(q)
        table = sqrt_table(F).copy()
        # the first residue 8 - x_0^2 the build reads that has a nonzero root
        r = next(r for r in ((8 - x * x) % q for x in range(q)) if table[r] > 0)
        # a wrong root puts two points off the circle and keeps |E| here, a
        # lost one drops two points of it
        table[r] = table[r] + 1 if spoil == "wrong" else -1
        monkeypatch.setattr(circles, "sqrt_table", lambda field: table)
        with pytest.raises(AssertionError, match=f"circles of radii \\(8,\\) at q={q}"):
            build_counterexample(F)

    def test_build_peak_memory_at_q2053(self):
        tracemalloc.start()
        try:
            build_counterexample(PrimeField(2053))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the zeroed uint8 indicator and PointSet's uint8 copy, 4.02 MiB each,
        # next to O(q |A|) points; gathering the indicator through a q x q
        # uint16 index table peaked at 12.13 MiB
        assert peak < 9 * 2**20, peak

    def test_sumset_members_stay_small_multiples_of_eight(self):
        cs = build_counterexample(PrimeField(1009))
        q = 1009
        for v in np.nonzero(cs.sumset)[0]:
            signed = int(v) if v <= q // 2 else int(v) - q
            assert signed % 8 == 0
            assert abs(signed) <= q // 8


def replay_sampled_pairs(cs: CounterexampleSet, samples: int, seed: int):
    """(applicable, violations) by the definition, pair by pair, over the index
    pairs (i, j) drawn in turn as randrange(|E|) from Random(seed)."""
    pts = cs.E.points()
    rng = random.Random(seed)
    inv2 = cs.field.inv(2)
    applicable = violations = 0
    for _ in range(samples):
        x = pts[rng.randrange(len(pts))]
        y = pts[rng.randrange(len(pts))]
        if cs.sumset[(x - y).norm().value]:
            continue
        applicable += 1
        mid = PointD(cs.field, [inv2 * (a + b) for a, b in zip(x.as_ints(), y.as_ints())])
        violations += mid in cs.E
    return applicable, violations


def every_pair_oracle(cs: CounterexampleSet):
    """(applicable, violations) by the definition over every ordered pair of E,
    in plain ints: the difference norm avoids the sumset, and the midpoint
    ((x + x')/2, (y + y')/2) lies in E."""
    q = cs.q
    inv2 = pow(2, -1, q)
    pts = [p.as_ints() for p in cs.E.points()]
    members = set(pts)
    sumset = {int(v) for v in np.flatnonzero(cs.sumset)}
    applicable = violations = 0
    for x, y in pts:
        for x2, y2 in pts:
            if ((x - x2) ** 2 + (y - y2) ** 2) % q in sumset:
                continue
            applicable += 1
            violations += ((x + x2) * inv2 % q, (y + y2) * inv2 % q) in members
    return applicable, violations


@lru_cache(maxsize=None)
def orthogonal_group(q: int):
    """Every element of O_2(F_q) in plain ints, as the matrix (a, b, c, d) of
    (x, y) -> (a x + b y, c x + d y): the rotation [[c, -s], [s, c]] and the
    reflection [[c, s], [s, -c]] of each (c, s) with c^2 + s^2 = 1, the
    rotations at even positions."""
    circle = [(c, s) for c in range(q) for s in range(q) if (c * c + s * s) % q == 1]
    assert len(circle) == (q - 1 if q % 4 == 1 else q + 1)
    return tuple(g for c, s in circle for g in ((c, -s % q, s, c), (c, s, s, -c % q)))


def act(g, p, q: int):
    return (g[0] * p[0] + g[1] * p[1]) % q, (g[2] * p[0] + g[3] * p[1]) % q


def compose(g, h, q: int):
    """The matrix of g after h."""
    return ((g[0] * h[0] + g[1] * h[2]) % q, (g[0] * h[1] + g[1] * h[3]) % q,
            (g[2] * h[0] + g[3] * h[2]) % q, (g[2] * h[1] + g[3] * h[3]) % q)


def rotation_powers(q: int):
    """r^0, ..., r^(N - 1) for the first rotation r of order N = |SO_2(F_q)|."""
    N = len(orthogonal_group(q)) // 2
    for r in orthogonal_group(q)[0::2]:
        powers = [(1, 0, 0, 1)]
        while len(powers) <= N and (g := compose(r, powers[-1], q)) != powers[0]:
            powers.append(g)
        if len(powers) == N:
            return powers


def midpoint_case(name: str) -> CounterexampleSet:
    """The built set at q = 257 (256 points), the same with an empty sumset,
    or the built sumset over 300 seeded random points: no union of circles,
    not rotation invariant.  Blocks of 109 rows leave a partial last block
    of the random set's rows, blocks of 8 one of orbit_sizes' 49 rows.

    The orbit cases, each under its own built sumset: the built set at
    q = 263 (q = 3 mod 4); the q = 257 set less a point p and its image
    under x -> -x, kept by that map and the identity only; two small sets at
    q = 257 made of orbits of the signed coordinate permutations
    (x, y) -> (+-x, +-y), (+-y, +-x), one of all eight with the origin, an
    axis orbit, a diagonal orbit and generic ones, one of the four sign
    changes with the origin, an axis pair and generic orbits of four; at
    q = 263, unions of orbits of the rotations <r^3> (order 88), of <r^11>
    (order 24, with the origin) and of both (kept by <r^33>, order 8), none
    of them a signed permutation past order 4; at q = 257, points and their
    images under one reflection that is no signed permutation, with three
    points it fixes; the origin with the <r^4> orbits (64 points) of a
    point on the isotropic line y = 16 x (16^2 = -1) and of a circle point;
    and the built set with the origin and the 512 nonzero isotropic points,
    three whole orbits of O_2."""
    q = 263 if name in ("q263", "rot3", "rot11", "rot3_11") else 257
    cs = build_counterexample(PrimeField(q))
    if name in ("built", "q263"):
        return cs
    if name == "empty_sumset":
        # every pair applies, so x = y and other midpoints in E count as violations
        return CounterexampleSet(cs.field, cs.A, cs.E, np.zeros(cs.q, dtype=bool))
    if name == "off_circle":
        E = random_set(257, 2, Fraction(300, 257**2), seed=3)
        assert E.cardinality == 300
        return CounterexampleSet(cs.field, cs.A, E, cs.sumset)
    listed = [p.as_ints() for p in cs.E.points()]
    pts = set(listed)
    if name == "half_symmetric":
        x, y = next((x, y) for x, y in listed if 0 not in (x, y) and x != y and x + y != 257)
        pts -= {(x, y), (257 - x, y)}
    elif name in ("orbit_sizes", "sign_flips"):
        signed = [g for g in orthogonal_group(q) if set(g) <= {0, 1, q - 1}]
        maps = signed if name == "orbit_sizes" else [g for g in signed if g[1] == g[2] == 0]
        assert len(maps) == (8 if name == "orbit_sizes" else 4)
        seeds = [(0, 0), (5, 0), (1, 2), (3, 10), (40, 7), (100, 33)]
        if name == "orbit_sizes":
            seeds += [(3, 3), (60, 61)]
        pts = {act(g, p, q) for p in seeds for g in maps}
    elif name.startswith("rot"):
        powers = rotation_powers(q)
        orbits = {"rot3": [(3, (1, 0)), (3, (5, 7)), (3, (100, 3))],
                  "rot11": [(11, p) for p in [(0, 0), (1, 0), (5, 7), (100, 3), (2, 9), (40, 41)]],
                  "rot3_11": [(3, (5, 7)), (11, (1, 0)), (11, (100, 3))]}[name]
        pts = {act(g, p, q) for k, p in orbits for g in powers[::k]}
    elif name == "one_reflection":
        tau = (3, 121, 121, 254)
        assert tau in orthogonal_group(q)[1::2]
        rng = random.Random(11)
        seeds = [(rng.randrange(q), rng.randrange(q)) for _ in range(40)]
        # p + tau(p) is fixed by tau, an involution
        fixed = [tuple((u + v) % q for u, v in zip(p, act(tau, p, q))) for p in seeds[:3]]
        assert all(act(tau, p, q) == p for p in fixed)
        pts = set(fixed) | {r for p in seeds for r in (p, act(tau, p, q))}
    elif name == "null_cone":
        pts |= {(0, 0)} | {(x, 16 * s * x % q) for x in range(1, q) for s in (1, -1)}
    elif name == "isotropic":
        assert 16 * 16 % q == q - 1
        pts = {(0, 0)} | {act(g, p, q) for p in [(1, 16), (3, 5)] for g in rotation_powers(q)[::4]}
    return CounterexampleSet(cs.field, cs.A, PointSet.from_points(cs.field, 2, pts), cs.sumset)


@lru_cache(maxsize=None)
def stabilizer_orbits(name: str):
    """|G| and {least grid index x + q y of the orbit: its size} for the maps
    G of O_2(F_q) that send the set onto itself, found in plain ints: the
    orbit of each point is its set of images."""
    cs = midpoint_case(name)
    q = cs.q
    pts = {p.as_ints() for p in cs.E.points()}
    group = [g for g in orthogonal_group(q) if all(act(g, p, q) in pts for p in pts)]
    orbits = {frozenset(act(g, p, q) for g in group) for p in pts}
    return len(group), {min(x + q * y for x, y in orbit): len(orbit) for orbit in orbits}


# |G| and the number of orbits of each size
ORBITS = {
    "built": (512, {256: 1}),
    "off_circle": (1, {1: 300}),
    "q263": (528, {264: 1}),
    "half_symmetric": (2, {1: 2, 2: 126}),
    "orbit_sizes": (8, {1: 1, 4: 2, 8: 5}),
    "sign_flips": (4, {1: 1, 2: 1, 4: 4}),
    "rot3": (88, {88: 3}),
    "rot11": (24, {1: 1, 24: 5}),
    "rot3_11": (8, {8: 17}),
    "one_reflection": (2, {1: 3, 2: 40}),
    "isotropic": (64, {1: 1, 64: 2}),
    "null_cone": (512, {1: 1, 256: 1, 512: 1}),
}


def orbits_of(cs: CounterexampleSet):
    return circles._orbits(cs.q, cs.E.indices())


def o2_orbits(q: int):
    """The orbits of O_2(F_q) on the plane, each a frozenset of points, as the
    images of every point under all of its 2N maps in plain ints."""
    return {frozenset(act(g, (x, y), q) for g in orthogonal_group(q))
            for x in range(q) for y in range(q)}


class TestMidpointExclusion:
    @pytest.mark.parametrize("name", ["empty_sumset", *sorted(ORBITS)])
    def test_exhaustive_report_matches_every_pair_oracle(self, name):
        cs = midpoint_case(name)
        r = midpoint_exclusion_check(cs, exhaustive=True)
        assert r.pairs_checked == cs.E.cardinality**2
        assert (r.applicable, r.violations) == every_pair_oracle(cs)
        # the built sets and their subset avoid their midpoints
        assert r.violations == 0 if name in ("built", "q263", "half_symmetric") else r.violations > 0

    @pytest.mark.parametrize("name", sorted(ORBITS))
    def test_orbits_match_images_of_every_point(self, name):
        """_orbits against the stabilizer of E in O_2(F_q), found in plain
        ints over all of its 2N elements: one row per orbit, at the orbit's
        least grid index and with its size, where E keeps all 2N maps, and
        every position with size 1 where it does not."""
        group, size_of = stabilizer_orbits(name)
        assert (group, Counter(size_of.values())) == ORBITS[name]
        cs = midpoint_case(name)
        reps, sizes = orbits_of(cs)
        n = cs.E.cardinality
        if group == len(orthogonal_group(cs.q)):
            assert dict(zip(cs.E.indices()[reps].tolist(), sizes.tolist())) == size_of
            assert reps.tolist() == sorted(reps.tolist())
        else:
            assert reps.tolist() == list(range(n)) and sizes.tolist() == [1] * n

    @pytest.mark.parametrize("name", sorted(ORBITS))
    def test_orbits_confirm_every_probed_map(self, name):
        # _orbits groups E only when every map of O_2 keeps it: the closure of
        # E under all 2N maps (plain ints) is grouped one row per orbit, and
        # that closure less one point of its largest orbit is moved by a map
        # of O_2, so it must get every position with size 1
        cs = midpoint_case(name)
        q = cs.q
        pts = {p.as_ints() for p in cs.E.points()}
        orbits = []
        for p in sorted(pts):
            if not any(p in orbit for orbit in orbits):
                orbits.append(frozenset(act(g, p, q) for g in orthogonal_group(q)))
        closure = set().union(*orbits)
        E = PointSet.from_points(cs.field, 2, closure)
        reps, sizes = circles._orbits(q, E.indices())
        assert dict(zip(E.indices()[reps].tolist(), sizes.tolist())) == {
            min(x + q * y for x, y in orbit): len(orbit) for orbit in orbits}

        largest = max(orbits, key=len)
        assert len(largest) > 1
        less = closure - {min(largest)}
        assert any(act(g, p, q) not in less for g in orthogonal_group(q) for p in less)
        E = PointSet.from_points(cs.field, 2, less)
        reps, sizes = circles._orbits(q, E.indices())
        n = E.cardinality
        assert reps.tolist() == list(range(n)) and sizes.tolist() == [1] * n

    @pytest.mark.parametrize("q", [5, 7])
    @pytest.mark.parametrize("sumset", ["empty", "random"])
    def test_every_union_of_orbits_matches_every_pair_oracle(self, q, sumset):
        # every nonempty union of the O_2 orbits of F_q^2: the origin, the
        # nonzero points of each norm, and at q = 5 (q = 1 mod 4) the 8
        # nonzero isotropic points; _orbits scans one row per orbit of each
        orbits = sorted(o2_orbits(q), key=min)
        assert Counter(map(len, orbits)) == ({1: 1, 4: 4, 8: 1} if q == 5 else {1: 1, 8: 6})
        field = PrimeField(q)
        rng = random.Random(q)
        mask = np.zeros(q, dtype=bool) if sumset == "empty" else np.array(
            [rng.random() < 0.5 for _ in range(q)])
        for chosen in range(1, 2 ** len(orbits)):
            union = [orbit for k, orbit in enumerate(orbits) if chosen >> k & 1]
            cs = CounterexampleSet(field, (), PointSet.from_points(field, 2, set().union(*union)),
                                   mask)
            reps, sizes = orbits_of(cs)
            assert dict(zip(cs.E.indices()[reps].tolist(), sizes.tolist())) == {
                min(x + q * y for x, y in orbit): len(orbit) for orbit in union}, chosen
            r = midpoint_exclusion_check(cs, exhaustive=True)
            assert (r.applicable, r.violations) == every_pair_oracle(cs), chosen

    @pytest.mark.parametrize("q,orbits", [(1009, {1008: 3}), (2053, {2052: 8})])
    def test_built_set_keeps_every_symmetry(self, q, orbits):
        # each circle |x| = t, t in A, is one orbit of O_2, of q - eta(-1) points
        assert Counter(orbits_of(build_counterexample(PrimeField(q)))[1].tolist()) == orbits

    @pytest.mark.parametrize("q,applicable", [(257, 65280), (263, 69432), (1009, 9026640),
                                              (2053, 265223052)])
    def test_built_set_exhaustive_reports_pinned(self, q, applicable):
        cs = build_counterexample(PrimeField(q))
        n = cs.E.cardinality
        r = midpoint_exclusion_check(cs, exhaustive=True)
        assert (r.pairs_checked, r.applicable, r.violations) == (n * n, applicable, 0)
        # one row per circle |x| = t, t in A
        assert orbits_of(cs)[0].size == len(cs.A)

    @pytest.mark.parametrize("seed", [0, 7])
    def test_sampled_off_circle_report_matches_pair_replay(self, seed):
        cs = midpoint_case("off_circle")
        r = midpoint_exclusion_check(cs, samples=1500, seed=seed)
        assert (r.applicable, r.violations) == replay_sampled_pairs(cs, 1500, seed)

    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize("empty_sumset", [False, True])
    def test_sampled_report_matches_pair_replay(self, seed, empty_sumset):
        cs = midpoint_case("empty_sumset" if empty_sumset else "built")
        r = midpoint_exclusion_check(cs, samples=1500, seed=seed)
        assert (r.applicable, r.violations) == replay_sampled_pairs(cs, 1500, seed)
        assert r.violations > 0 if empty_sumset else r.violations == 0

    @pytest.mark.parametrize("name", ["built", "empty_sumset", "off_circle", "orbit_sizes"])
    def test_exhaustive_blocks_match_every_pair_oracle(self, name, monkeypatch):
        # one row per block, 8 rows with a partial last block of every case's
        # rows (1 for a built set, 300 for the random set, 49 for
        # orbit_sizes), 109 rows with a partial last block of the random
        # set's rows, one block of all rows; the empty sumset makes every
        # diagonal pair (x, x) a violation
        cs = midpoint_case(name)
        n = cs.E.cardinality
        assert n % 109 and orbits_of(cs)[0].size % 8
        expected = every_pair_oracle(cs)
        for rows in (1, 8, 109, n):
            monkeypatch.setattr(circles, "_SCAN_BLOCK", rows * n)
            r = midpoint_exclusion_check(cs, exhaustive=True)
            assert (r.pairs_checked, r.applicable, r.violations) == (n * n, *expected), rows

    @pytest.mark.parametrize("samples,applicable", [(10**4, 9861), (10**6, 987002)])
    def test_sampled_counts_pinned_at_q1009(self, samples, applicable):
        cs = build_counterexample(PrimeField(1009))
        r = midpoint_exclusion_check(cs, samples=samples, seed=0)
        assert (r.pairs_checked, r.applicable, r.violations) == (samples, applicable, 0)

    def test_sampled_check_guards_the_bulk_stream(self, monkeypatch):
        class Reordered(random.Random):
            """Bulk bits with their bytes reversed, a stream randrange does not see."""

            def getrandbits(self, k):
                bits = super().getrandbits(k)
                return bits if k <= 32 else int.from_bytes(bits.to_bytes(k // 8, "little"), "big")

        monkeypatch.setattr(circles, "random", SimpleNamespace(Random=Reordered))
        with pytest.raises(AssertionError, match=r"bulk draws differ from Random\(3\)"):
            midpoint_exclusion_check(midpoint_case("off_circle"), samples=100, seed=3)

    def test_sampled_run_is_clean_and_deterministic(self):
        cs = build_counterexample(PrimeField(257))
        r1 = midpoint_exclusion_check(cs, samples=2000, seed=0)
        r2 = midpoint_exclusion_check(cs, samples=2000, seed=0)
        assert r1 == r2
        assert r1.pairs_checked == 2000
        assert not r1.exhaustive
        assert 0 < r1.applicable <= 2000
        assert r1.violations == 0

    @pytest.mark.parametrize("samples", [0, -3])
    def test_sampled_check_needs_one_sample(self, samples):
        cs = build_counterexample(PrimeField(257))
        with pytest.raises(ValueError, match=f"sample count must be positive, got {samples}"):
            midpoint_exclusion_check(cs, samples=samples)
        # the exhaustive check takes every pair and ignores the sample count
        assert midpoint_exclusion_check(cs, samples=samples, exhaustive=True).violations == 0

    def test_exhaustive_run(self):
        cs = build_counterexample(PrimeField(257))
        r = midpoint_exclusion_check(cs, exhaustive=True)
        assert r.exhaustive
        assert r.pairs_checked == 256 * 256
        assert r.applicable == 65280
        assert r.violations == 0

    def test_sampled_blocks_match_pair_replay(self):
        # one full block of draws and a partial second one
        cs = midpoint_case("off_circle")
        samples = circles._PAIR_BLOCK + 123
        r = midpoint_exclusion_check(cs, samples=samples, seed=5)
        assert r.pairs_checked == samples
        assert (r.applicable, r.violations) == replay_sampled_pairs(cs, samples, 5)
        assert r.violations > 0

    def test_sampled_peak_memory_is_flat_in_samples(self):
        cs = build_counterexample(PrimeField(257))
        peaks = []
        for samples in (circles._PAIR_BLOCK, 16 * circles._PAIR_BLOCK + 5):
            tracemalloc.start()
            try:
                midpoint_exclusion_check(cs, samples=samples, seed=0)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # drawing every pair at once would hold the 2 * 16 * _PAIR_BLOCK uint32
        # draws alone, 4 MiB more, against 2^17 bytes of allocator noise
        assert peaks[1] <= peaks[0] + 2**17, peaks

    def test_exhaustive_peak_memory_at_q1009(self):
        cs = build_counterexample(PrimeField(1009))
        tracemalloc.start()
        try:
            r = midpoint_exclusion_check(cs, exhaustive=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert r.violations == 0
        # one block of _SCAN_BLOCK pairs and the orbit images; the scan of
        # unordered pairs peaked at 3.18 MiB
        assert peak <= 3.2 * 2**20, peak

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


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 255, 256, 257, 3024, 2**20 + 5, 2**31 - 1])
@pytest.mark.parametrize("seed", [0, 7, 2**63])
@pytest.mark.parametrize("chunk", [None, 16])
def test_bulk_draws_replay_randrange(n, seed, chunk, monkeypatch):
    """The arrays of _randrange_draws against randrange(n) draw for draw, with the
    default chunk of words and with chunks of 16 words, so the kept values of one
    chunk are carried across arrays and several chunks fill one array."""
    if chunk is not None:
        monkeypatch.setattr(circles, "_PAIR_BLOCK", chunk)
    sizes = (1, 63, 64, 300, 5)
    arrays = list(circles._randrange_draws(seed, n, sizes))
    assert [a.size for a in arrays] == list(sizes)
    rng = random.Random(seed)
    assert np.concatenate(arrays).tolist() == [rng.randrange(n) for _ in range(sum(sizes))]
