"""One test per shipped guarantee.

Run `pytest tests/test_acceptance.py -v` for a one-line verdict per
criterion; the terminal summary repeats them with measured values.  Each
test states its population and tolerance inline and computes every
reference through an independent route where one exists.

Criterion 9 is a known honest failure: the energy bound is violated by
measured in-regime sets (see README).  It is kept red on purpose; the
out-of-regime full-grid counterexample is a separate expected-failure test.
"""

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from ffgeom.charsums import (
    GaussConstant,
    Sphere,
    gauss_sum,
    kloosterman,
    sphere_fourier_grid,
    sphere_size_table,
)
from ffgeom.circles import (
    CircleSystem,
    build_counterexample,
    intersect_circles,
    midpoint_exclusion_check,
    radius_counts,
    sum_two_squares_count,
)
from ffgeom.congruence import (
    Simplex,
    congruent,
    distinct_signature_count,
    group_matrices,
    t3_orbit_count,
)
from ffgeom.constants import SIGNATURE_RATIO_FLOOR
from ffgeom.counting import HingeSweep
from ffgeom.experiments import random_set
from ffgeom.field import PrimeField, is_prime
from ffgeom.fourier import PointD, forward

PRIMES_TO_101 = tuple(q for q in range(3, 102) if is_prime(q))
PRIMES_TO_31 = tuple(q for q in range(3, 32) if is_prime(q))
GRID_DENSITIES = (Fraction(1, 5), Fraction(1, 2), Fraction(4, 5))
GRID_SEEDS = tuple(range(20))


# -- shared random-set statistics, computed once and reused across criteria ----


@dataclass(frozen=True)
class CellStats:
    card: int
    pair_violations: tuple  # t with |count q^2 - card^2 |S_t||^2 > 4 q card^2 q^4
    energy_violations: tuple  # (a, energy) with energy > 8 q card


_CELL_CACHE = {}


def cell_stats(q: int, rho: Fraction, seed: int) -> CellStats:
    key = (q, rho, seed)
    if key not in _CELL_CACHE:
        E = random_set(q, 2, rho, seed)
        hs = HingeSweep(E)
        card = E.cardinality
        pair_bad = []
        for t, (count, size) in enumerate(zip(hs.pair_counts, hs.sphere_sizes), start=1):
            numer = int(count) * q**2 - card**2 * int(size)
            if numer * numer > 4 * q * card**2 * q**4:
                pair_bad.append(t)
        energy_bad = []
        for a, energy in enumerate(np.diagonal(hs.exact), start=1):
            if int(energy) > 8 * q * card:
                energy_bad.append((a, int(energy)))
        _CELL_CACHE[key] = CellStats(card, tuple(pair_bad), tuple(energy_bad))
    return _CELL_CACHE[key]


def test_criterion_01_sphere_sizes_exact():
    """|S_t| for t != 0, d = 2 is q - eta(-1), hence q - 1 or q + 1; exact."""
    for q in PRIMES_TO_101:
        if q <= 3:
            continue
        # independent scan: bincount the norm of every grid point
        r = np.arange(q, dtype=np.int64)
        sq = (r * r) % q
        scan = np.bincount(((sq[:, None] + sq[None, :]) % q).ravel(), minlength=q)
        table = sphere_size_table(PrimeField(q), 2)
        euler = pow(q - 1, (q - 1) // 2, q)
        eta_m1 = 1 if euler == 1 else -1
        for t in range(1, q):
            assert scan[t] == table[t]
            assert int(table[t]) == q - eta_m1
            assert int(table[t]) in (q - 1, q + 1)


def test_criterion_02_sphere_transform_matches_dft():
    """The closed-form transform of S_t equals the direct DFT; error <= 1e-9."""
    worst = 0.0
    for q in (3, 5, 7, 11, 13):
        F = PrimeField(q)
        for d in (2, 3):
            for t in range(1, q):
                closed = sphere_fourier_grid(F, t, d).values
                direct = forward(Sphere(F, t, d).indicator()).values
                worst = max(worst, float(np.max(np.abs(closed - direct))))
    assert worst <= 1e-9


def test_criterion_03_sphere_transform_decay():
    """|S_b^(m)| <= 2 q^{-(d+1)/2} for every m != 0, b != 0, q <= 31."""
    for q in PRIMES_TO_31:
        F = PrimeField(q)
        for d in (2, 3):
            cap = 2.0 * q ** (-(d + 1) / 2) + 1e-12
            for b in range(1, q):
                vals = sphere_fourier_grid(F, b, d).values
                assert float(np.max(np.abs(vals[1:]))) <= cap, (q, d, b)


def test_criterion_04_gauss_sum_closed_form():
    """sum_c chi(j c^2) = Q sqrt(q) eta(j) for all j != 0, q <= 101; <= 1e-9."""
    for q in PRIMES_TO_101:
        F = PrimeField(q)
        Q = GaussConstant(F).Q
        root = math.sqrt(q)
        for j in range(1, q):
            direct = gauss_sum(F, j)
            assert abs(direct - Q * root * F.legendre(j)) <= 1e-9, (q, j)


def test_criterion_05_kloosterman_weil_bound():
    """|K(a)| <= 2 sqrt(q) for all a != 0, both twists, all primes <= 101."""
    for q in PRIMES_TO_101:
        F = PrimeField(q)
        cap = 2 * math.sqrt(q) + 1e-9
        for psi in ("trivial", "quadratic"):
            for a in range(1, q):
                assert abs(kloosterman(F, a, psi)) <= cap, (q, psi, a)


def test_criterion_06_hinge_fourier_integrality(record_property):
    """The spectral hinge count rounds to the exact integer count.

    100 seeded sets per q in {5, 7, 11, 13} split over densities
    {0.2, 0.5, 0.8}; all radius pairs (a, b) != 0; zero mismatches.
    """
    mismatches = []
    checked = 0
    for q in (5, 7, 11, 13):
        for i in range(100):
            E = random_set(q, 2, GRID_DENSITIES[i % 3], seed=i)
            hs = HingeSweep(E)
            fc = hs.fourier_counts()
            checked += fc.size
            ok = (np.abs(fc.imag) <= 1e-6) & (np.round(fc.real) == hs.exact)
            if not ok.all():
                for a, b in np.argwhere(~ok):
                    mismatches.append((q, i, int(a + 1), int(b + 1)))
    record_property("pairs_checked", checked)
    assert not mismatches, mismatches[:10]


def test_criterion_07_pair_count_deviation(record_property):
    """|count(t) - |E|^2 |S_t| / q^2| <= 2 sqrt(q) |E| on the whole grid.

    All primes q <= 31, densities {0.2, 0.5, 0.8}, seeds 0..19, all t != 0;
    checked in exact integers; zero violations.
    """
    violations = []
    sets = 0
    for q in PRIMES_TO_31:
        for rho in GRID_DENSITIES:
            for seed in GRID_SEEDS:
                stats = cell_stats(q, rho, seed)
                sets += 1
                for t in stats.pair_violations:
                    violations.append((q, str(rho), seed, t))
    record_property("sets_checked", sets)
    assert not violations, violations[:10]


def test_criterion_08_hinge_remainder_and_fluctuation(record_property):
    """Dense sets obey the remainder bound; every set obeys the energy one.

    For sets with |E| >= 4 q^{3/2} (checked as |E|^2 >= 16 q^3): the hinge
    remainder satisfies |R(a, b)| <= 8 q |E| for all a, b != 0.  For every
    tested set, full grid included: sum_x (n_a(x) - |E||S_a|/q^2)^2 <= 4q|E|.
    Exact integers, zero violations.
    """
    remainder_violations = []
    fluctuation_violations = []
    dense_sets = {q: 0 for q in PRIMES_TO_31}
    total = 0
    populations = [(rho, seed) for rho in (Fraction(9, 10), Fraction(49, 50))
                   for seed in (0, 1, 2)] + [(Fraction(1, 1), 0)]
    for q in PRIMES_TO_31:
        size = q * q
        for rho, seed in populations:
            E = random_set(q, 2, rho, seed)
            hs = HingeSweep(E)
            card = E.cardinality
            total += 1

            sum_sq = (hs.profiles.astype(object) ** 2).sum(axis=1)
            for a, (ssq, sphere) in enumerate(zip(sum_sq, hs.sphere_sizes), start=1):
                if ssq * size - (card * int(sphere)) ** 2 > 4 * q * card * size:
                    fluctuation_violations.append((q, str(rho), seed, a))

            if card * card >= 16 * q**3:
                dense_sets[q] += 1
                bad = hs.remainder_violations()
                for a, b in bad:
                    remainder_violations.append((q, str(rho), seed, a, b))
    # the dense regime is reachable exactly when 4 q^{3/2} <= q^2
    for q in PRIMES_TO_31:
        if q >= 17:
            assert dense_sets[q] > 0, f"no dense sets generated at q={q}"
    record_property("sets_checked", total)
    record_property("dense_sets", sum(dense_sets.values()))
    assert not remainder_violations, remainder_violations[:10]
    assert not fluctuation_violations, fluctuation_violations[:10]


def test_criterion_09_hinge_energy_in_regime(record_property):
    """sum_{x in E} n_a(x)^2 <= 8 q |E| for every tested set with
    |E| <= sqrt(8) q^{3/2} (checked as |E|^2 <= 8 q^3), q <= 31.

    Population: the criterion-7 grid (densities {0.2, 0.5, 0.8}, seeds
    0..19) plus full grids, filtered to the size regime.  KNOWN RED: near
    the regime ceiling the main term alone reaches 8q|E| (|S_a|/q)^2, which
    exceeds the bound whenever |S_a| = q + 1; measured violations are the
    q=7 full grid and every seed at (q=11, rho=0.8) and (q=31, rho=0.5).
    See README.
    """
    violations = []
    in_regime = 0
    cells = [(q, rho, seed) for q in PRIMES_TO_31
             for rho in GRID_DENSITIES for seed in GRID_SEEDS]
    cells += [(q, Fraction(1, 1), 0) for q in PRIMES_TO_31]
    for q, rho, seed in cells:
        stats = cell_stats(q, rho, seed)
        if stats.card**2 > 8 * q**3:
            continue
        in_regime += 1
        for a, energy in stats.energy_violations:
            violations.append(
                f"q={q} rho={rho} seed={seed} card={stats.card}: "
                f"a={a} energy={energy} > {8 * q * stats.card}"
            )
    record_property("sets_in_regime", in_regime)
    record_property("violations", len(violations))
    assert not violations, (
        f"{len(violations)} in-regime energy violations:\n"
        + "\n".join(violations[:12])
        + ("\n..." if len(violations) > 12 else "")
    )


@pytest.mark.xfail(
    strict=True,
    reason="without the size hypothesis the energy bound is false: the "
    "q=13 full grid gives 169 * 12^2 = 24336 > 8 * 13 * 169 = 17576",
)
def test_criterion_09_full_grid_expected_failure():
    """The unrestricted energy bound fails on the q=13 full grid (documented)."""
    E = random_set(13, 2, Fraction(1, 1), seed=0)
    assert E.cardinality**2 > 8 * 13**3  # outside the regime on purpose
    energies = np.diagonal(HingeSweep(E).exact)  # sum_{x in E} n_a(x)^2 for a = 1..12
    for a, energy in enumerate(energies, start=1):
        assert energy <= 8 * 13 * E.cardinality, a


def test_criterion_10_representable_radii(record_property, radius_checks):
    """At least (q-3)/2 nonzero c yield a nonempty circle intersection.

    All q <= 31, all a, b != 0, every witness w on S_a: radius_counts
    counts and checks every (w, b, c), which radius_checks sees witness by
    witness, and returns the one table count[b, c] that every witness's
    systems equal; the table and the scalar solver both equal an independent
    grid scan for every witness at q <= 13.  Exact.
    """
    systems_solved = 0
    for q in PRIMES_TO_31:
        F = PrimeField(q)
        floor = (q - 3) // 2
        for a in range(1, q):
            counts = radius_counts(F, a)[1:]  # b != 0
            # one system per (w, b, c), every w on S_a seen by the count check
            systems_solved += radius_checks.witnesses_checked(F, a) * counts.size
            nonzero = np.count_nonzero(counts[:, 1:], axis=1)
            if nonzero.min() < floor:
                b = int(np.argmax(nonzero < floor))
                pytest.fail(f"{nonzero[b]} nonzero c < {floor} at (q, a, b) = "
                            f"{(q, a, b + 1)}, every witness")

    # independent check: bucket the points of |y| = b by |y - w|
    for q in (3, 5, 7, 11, 13):
        F = PrimeField(q)
        origin = PointD(F, (0, 0))
        pts = [PointD.from_index(F, i, 2) for i in range(q * q)]
        for a in range(1, q):
            table = radius_counts(F, a)
            for w in Sphere(F, a, 2).points:
                buckets = {}
                for y in pts:
                    key = (y.norm().value, (y - w).norm().value)
                    buckets.setdefault(key, []).append(y.as_ints())
                for b in range(q):
                    for c in range(q):
                        got = intersect_circles(CircleSystem(origin, w, b, c))
                        expected = sorted(buckets.get((b, c), []))
                        assert [p.as_ints() for p in got] == expected
                        assert table[b, c] == len(expected), (q, a, w.as_ints(), b, c)
    record_property("systems_solved", systems_solved)


def test_criterion_11_sum_two_squares_identity():
    """#{(k, t): k^2 + t^2 = u} = q - eta(-1) for all u != 0, q <= 101; exact."""
    for q in PRIMES_TO_101:
        F = PrimeField(q)
        expected = q - F.legendre(q - 1)
        for u in range(1, q):
            assert sum_two_squares_count(F, u) == expected, (q, u)


def test_criterion_12_circle_union_counterexample(record_property):
    """At q = 1009 the circle union has radius set {8, 16, 24}, its sumset
    misses most of the field, and 10^4 seeded midpoint samples are clean."""
    cs = build_counterexample(PrimeField(1009))
    assert cs.A == (8, 16, 24)
    assert not cs.sumset_is_full
    report = midpoint_exclusion_check(cs, samples=10**4, seed=0)
    record_property("cardinality", cs.E.cardinality)
    record_property("sumset_size", cs.sumset_size)
    record_property("applicable_pairs", report.applicable)
    assert report.pairs_checked == 10**4
    assert report.violations == 0


def test_criterion_13_signature_growth_floor(record_property):
    """Distinct distance triples at (q=31, rho=0.5) stay above the recorded
    floor of rho q^3, and signatures never exceed orbit counts."""
    assert SIGNATURE_RATIO_FLOOR == 1.001  # recorded constant; change loudly
    q = 31
    rho = Fraction(1, 2)
    floor = Fraction(str(SIGNATURE_RATIO_FLOOR))
    ratios = []
    for seed in range(5):
        E = random_set(q, 2, rho, seed)
        sig = distinct_signature_count(E, mode="all")
        ratio = Fraction(sig) / (rho * q**3)
        ratios.append(float(ratio))
        assert ratio >= floor, (seed, sig, float(ratio))
        orbits_so = t3_orbit_count(E, group="SO")
        orbits_o = t3_orbit_count(E, group="O")
        assert sig <= orbits_so, (seed, sig, orbits_so)
        assert sig <= orbits_o, (seed, sig, orbits_o)
        record_property(f"seed{seed}", f"sig={sig} SO={orbits_so} O={orbits_o}")
    record_property("min_ratio", min(ratios))


def test_criterion_14_planted_isometry_recovery(record_property):
    """200 planted congruent triangle pairs per q in {5, 7} are all solved:
    the witness transports every vertex and is exactly orthogonal."""
    tally = {1: 0, -1: 0}
    for q in (5, 7):
        F = PrimeField(q)
        mats = group_matrices(F, "O")
        rng = random.Random(1000 + q)
        solved = 0
        while solved < 200:
            verts = [PointD(F, (rng.randrange(q), rng.randrange(q))) for _ in range(3)]
            src = Simplex(verts)
            if not src.is_nondegenerate():
                continue
            m = rng.choice(mats)
            shift = (rng.randrange(q), rng.randrange(q))
            dst = Simplex(
                [
                    PointD(
                        F,
                        (
                            m[0] * v.as_ints()[0] + m[1] * v.as_ints()[1] + shift[0],
                            m[2] * v.as_ints()[0] + m[3] * v.as_ints()[1] + shift[1],
                        ),
                    )
                    for v in verts
                ]
            )
            assert src.pairwise_norms() == dst.pairwise_norms()
            w = congruent(src, dst, group="O")
            assert w is not None, (q, [v.as_ints() for v in verts], m, shift)
            for v, image in zip(src.vertices, dst.vertices):
                assert w.apply(v) == image
            T = w.matrix
            for i, j in product(range(2), repeat=2):
                dot = sum(T[k][i] * T[k][j] for k in range(2)) % q
                assert dot == (1 if i == j else 0)
            tally[w.det] += 1
            solved += 1
    record_property("det_plus_one", tally[1])
    record_property("det_minus_one", tally[-1])
    assert tally[1] + tally[-1] == 400
    assert tally[1] > 0 and tally[-1] > 0
