"""Planar group matrices, simplex congruence, and orbit counting."""

import random
import tracemalloc
from fractions import Fraction
from itertools import permutations, product

import numpy as np
import pytest

from ffgeom import congruence
from ffgeom.bounds import class_totals
from ffgeom.circles import radius_counts
from ffgeom.congruence import (
    CongruenceWitness,
    Simplex,
    congruent,
    distinct_signature_count,
    group_matrices,
    t3_orbit_count,
)
from ffgeom.counting import PointSet
from ffgeom.experiments import random_set
from ffgeom.field import PrimeField, is_prime
from ffgeom.fourier import CapacityError, PointD

SMALL_PRIMES = (3, 5, 7, 11, 13)


def pt(field, *coords):
    return PointD(field, coords)


def mat_det_sign(m, q):
    d = (m[0] * m[3] - m[1] * m[2]) % q
    assert d in (1, q - 1)
    return 1 if d == 1 else -1


def apply_mat(m, v, q):
    return ((m[0] * v[0] + m[1] * v[1]) % q, (m[2] * v[0] + m[3] * v[1]) % q)


def mat_mul(m, n, q):
    return (
        (m[0] * n[0] + m[1] * n[2]) % q,
        (m[0] * n[1] + m[1] * n[3]) % q,
        (m[2] * n[0] + m[3] * n[2]) % q,
        (m[2] * n[1] + m[3] * n[3]) % q,
    )


def transpose(m):
    return (m[0], m[2], m[1], m[3])


class TestRotationGroup:
    def test_elements_q5_pinned(self):
        F = PrimeField(5)
        assert [(m[0], m[2]) for m in group_matrices(F, "SO")] == [
            (0, 1),
            (0, 4),
            (1, 0),
            (4, 0),
        ]

    @pytest.mark.parametrize("q", SMALL_PRIMES)
    def test_group_size(self, q):
        F = PrimeField(q)
        expected = q - F.legendre(q - 1)
        assert len(group_matrices(F, "SO")) == expected
        assert len(group_matrices(F, "O")) == 2 * expected

    @pytest.mark.parametrize("q", (5, 7, 13))
    def test_group_law_exhaustive(self, q):
        F = PrimeField(q)
        identity = (1, 0, 0, 1)
        for group in ("SO", "O"):
            elems = group_matrices(F, group)
            table = set(elems)
            assert identity in table
            for r in elems:
                # the inverse is the transpose, and it lies in the group
                assert mat_mul(r, transpose(r), q) == identity
                assert transpose(r) in table
                for s in elems:
                    assert mat_mul(r, s, q) in table

    @pytest.mark.parametrize("q", (5, 7, 13))
    def test_norm_preserved_on_whole_grid(self, q):
        F = PrimeField(q)
        for m in group_matrices(F, "O"):
            for idx in range(q * q):
                p = PointD.from_index(F, idx, 2)
                assert pt(F, *apply_mat(m, p.as_ints(), q)).norm() == p.norm()

    @pytest.mark.parametrize("q", (5, 7, 13))
    def test_orthogonal_matrices_preserve_form(self, q):
        F = PrimeField(q)
        mats = group_matrices(F, "O")
        assert len(set(mats)) == len(mats)
        dets = [mat_det_sign(m, q) for m in mats]
        assert dets.count(1) == dets.count(-1) == len(mats) // 2
        assert all(mat_det_sign(m, q) == 1 for m in group_matrices(F, "SO"))
        for m in mats:
            # columns orthonormal for the standard bilinear form
            assert (m[0] * m[0] + m[2] * m[2]) % q == 1
            assert (m[1] * m[1] + m[3] * m[3]) % q == 1
            assert (m[0] * m[1] + m[2] * m[3]) % q == 0

    def test_group_matrices_dispatch(self):
        F = PrimeField(7)
        rotations = group_matrices(F, "SO")
        assert group_matrices(F, "so") == rotations
        assert group_matrices(F, "O")[: len(rotations)] == rotations
        with pytest.raises(ValueError):
            group_matrices(F, "U")

    def test_group_matrices_past_grid_capacity(self):
        # 3163^2 is the first prime square past GRID_CAPACITY = 10^7
        with pytest.raises(CapacityError):
            group_matrices(PrimeField(3163), "SO")

    def test_rotation_action_example(self):
        # quarter turn at q = 5: (x, y) -> (-y, x), the matrix of (a, b) = (0, 1)
        F = PrimeField(5)
        quarter = (0, 4, 1, 0)
        assert quarter in group_matrices(F, "SO")
        assert apply_mat(quarter, (1, 0), 5) == (0, 1)
        assert apply_mat(quarter, (2, 3), 5) == (2, 2)


@pytest.mark.parametrize("q", [p for p in range(3, 32) if is_prime(p)])
def test_group_matrices_match_definition(q):
    # S_1 by a double loop over (a, b) in lexicographic order: rotations
    # (a, -b, b, a), then reflections (a, b, b, -a).  Criterion 14 and the
    # planted-isometry tests draw elements by position, so the order is pinned.
    F = PrimeField(q)
    circle = [(a, b) for a in range(q) for b in range(q) if (a * a + b * b) % q == 1]
    rotations = [(a, (-b) % q, b, a) for a, b in circle]
    reflections = [(a, b, b, (-a) % q) for a, b in circle]
    assert group_matrices(F, "SO") == rotations
    assert group_matrices(F, "O") == rotations + reflections


class TestSimplex:
    def test_basic_properties(self):
        F = PrimeField(5)
        s = Simplex([pt(F, 0, 0), pt(F, 1, 0), pt(F, 0, 2)])
        assert s.k == 2
        assert s.d == 2
        assert [v.as_ints() for v in s.edge_vectors()] == [(1, 0), (0, 2)]
        assert s.pairwise_norms() == (1, 4, 0)
        assert s.is_nondegenerate()

    def test_degeneracy_detection(self):
        F = PrimeField(7)
        collinear = Simplex([pt(F, 0, 0), pt(F, 1, 1), pt(F, 3, 3)])
        assert not collinear.is_nondegenerate()
        repeated = Simplex([pt(F, 2, 2), pt(F, 2, 2)])
        assert not repeated.is_nondegenerate()
        assert Simplex([pt(F, 4, 1)]).is_nondegenerate()

    def test_rejects_bad_vertex_lists(self):
        F = PrimeField(5)
        with pytest.raises(ValueError):
            Simplex([])
        with pytest.raises(ValueError):
            Simplex([pt(F, 0, 0), pt(PrimeField(7), 0, 0)])
        with pytest.raises(ValueError):
            Simplex([pt(F, 0, 0), pt(F, 1, 0), pt(F, 0, 1), pt(F, 1, 1)])

    def test_plane_only(self):
        F = PrimeField(5)
        for d in (1, 3):
            with pytest.raises(ValueError, match="plane"):
                Simplex([PointD(F, (0,) * d), PointD(F, (1,) + (0,) * (d - 1))])


class TestCongruent:
    def test_mirror_pair_splits_the_groups(self):
        # the unique linear map fixing (1,0) and sending (0,2) to (0,3) is
        # diag(1, -1), so the pair is O-congruent but not SO-congruent
        F = PrimeField(5)
        tri = Simplex([pt(F, 0, 0), pt(F, 1, 0), pt(F, 0, 2)])
        mir = Simplex([pt(F, 0, 0), pt(F, 1, 0), pt(F, 0, 3)])
        assert congruent(tri, mir, group="SO") is None
        w = congruent(tri, mir, group="O")
        assert w is not None
        assert w.matrix == ((1, 0), (0, 4))
        assert w.det == -1

    def test_translated_copy(self):
        F = PrimeField(7)
        tri = Simplex([pt(F, 0, 0), pt(F, 1, 0), pt(F, 0, 2)])
        shifted = Simplex([pt(F, 3, 5), pt(F, 4, 5), pt(F, 3, 0)])
        w = congruent(tri, shifted, group="SO")
        assert w is not None
        assert w.det == 1
        assert w.matrix == ((1, 0), (0, 1))
        assert w.tau.as_ints() == (3, 5)

    def test_segments(self):
        F = PrimeField(5)
        a = Simplex([pt(F, 0, 0), pt(F, 1, 0)])
        b = Simplex([pt(F, 0, 0), pt(F, 0, 1)])
        w = congruent(a, b, group="SO")
        assert w is not None and w.det == 1
        assert w.apply(pt(F, 1, 0)).as_ints() == (0, 1)
        c = Simplex([pt(F, 0, 0), pt(F, 1, 1)])
        assert congruent(a, c, group="O") is None  # norms 1 vs 2

    def test_single_points_always_congruent(self):
        F = PrimeField(5)
        w = congruent(Simplex([pt(F, 1, 2)]), Simplex([pt(F, 4, 4)]), group="SO")
        assert w is not None
        assert w.matrix == ((1, 0), (0, 1))
        assert w.tau.as_ints() == (3, 2)

    def test_norm_mismatch_is_none(self):
        F = PrimeField(7)
        tri = Simplex([pt(F, 0, 0), pt(F, 1, 0), pt(F, 0, 2)])
        other = Simplex([pt(F, 0, 0), pt(F, 2, 0), pt(F, 0, 2)])
        assert congruent(tri, other, group="O") is None

    def test_degenerate_input_rejected(self):
        F = PrimeField(5)
        line = Simplex([pt(F, 0, 0), pt(F, 1, 0), pt(F, 2, 0)])
        tri = Simplex([pt(F, 0, 0), pt(F, 1, 0), pt(F, 0, 2)])
        with pytest.raises(ValueError):
            congruent(line, tri)
        with pytest.raises(ValueError):
            congruent(tri, line)

    def test_mismatched_shapes_rejected(self):
        F = PrimeField(5)
        with pytest.raises(ValueError):
            congruent(Simplex([pt(F, 0, 0)]), Simplex([pt(F, 0, 0), pt(F, 1, 0)]))
        with pytest.raises(ValueError):
            congruent(
                Simplex([pt(F, 0, 0), pt(F, 1, 0)]),
                Simplex([pt(PrimeField(7), 0, 0), pt(PrimeField(7), 1, 0)]),
            )
        with pytest.raises(ValueError):
            congruent(Simplex([pt(F, 0, 0), pt(F, 1, 0)]), Simplex([pt(F, 0, 0), pt(F, 1, 0)]), group="SU")

    def test_checks_are_live(self, monkeypatch):
        # the checks raise explicitly, so a wrong completion trips them even
        # under python -O
        F = PrimeField(5)
        a = Simplex([pt(F, 0, 0), pt(F, 1, 0)])
        b = Simplex([pt(F, 0, 0), pt(F, 0, 1)])
        monkeypatch.setattr(congruence, "_bases", lambda us, vs, field: ((1, 0, 0, 1), (2, 0, 0, 2)))
        with pytest.raises(AssertionError, match="orthogonality"):
            congruent(a, b)
        # T = I is orthogonal but leaves the edge (1, 0) where it is
        monkeypatch.setattr(congruence, "_bases", lambda us, vs, field: ((1, 0, 0, 1),) * 2)
        with pytest.raises(AssertionError, match="transport a vertex"):
            congruent(a, b)

    @pytest.mark.parametrize("q", (5, 7))
    def test_planted_isometries_recovered(self, q):
        # 100 planted pairs per field: witness must transport vertices and
        # respect the requested group
        F = PrimeField(q)
        mats = group_matrices(F, "O")
        rng = random.Random(q)
        found = 0
        while found < 100:
            verts = [
                pt(F, rng.randrange(q), rng.randrange(q)) for _ in range(3)
            ]
            src = Simplex(verts)
            if not src.is_nondegenerate():
                continue
            found += 1
            m = rng.choice(mats)
            shift = (rng.randrange(q), rng.randrange(q))
            imgs = []
            for v in verts:
                x, y = apply_mat(m, v.as_ints(), q)
                imgs.append(pt(F, x + shift[0], y + shift[1]))
            dst = Simplex(imgs)
            w = congruent(src, dst, group="O")
            assert w is not None
            for v, im in zip(src.vertices, dst.vertices):
                assert w.apply(v) == im
            flat = (w.matrix[0][0], w.matrix[0][1], w.matrix[1][0], w.matrix[1][1])
            assert mat_det_sign(flat, q) == w.det
            so_witness = congruent(src, dst, group="SO")
            if so_witness is not None:
                assert so_witness.det == 1
                for v, im in zip(src.vertices, dst.vertices):
                    assert so_witness.apply(v) == im
            else:
                # planted map must then be orientation-reversing
                assert mat_det_sign(m, q) == -1 or w.det == -1

    @pytest.mark.parametrize("q", (5, 7))
    def test_matching_norms_imply_full_group_congruence(self, q):
        # for triangles with a basis of edge vectors, equal distance triples
        # force a form-preserving linear identification
        F = PrimeField(q)
        rng = random.Random(100 + q)
        pairs = 0
        while pairs < 100:
            verts1 = [pt(F, rng.randrange(q), rng.randrange(q)) for _ in range(3)]
            verts2 = [pt(F, rng.randrange(q), rng.randrange(q)) for _ in range(3)]
            s1, s2 = Simplex(verts1), Simplex(verts2)
            if not (s1.is_nondegenerate() and s2.is_nondegenerate()):
                continue
            pairs += 1
            w = congruent(s1, s2, group="O")
            if s1.pairwise_norms() == s2.pairwise_norms():
                assert w is not None
            else:
                assert w is None


class TestCongruentOracle:
    """congruent against enumeration over group_matrices: a witness exists
    exactly when some g in the group carries P's edge vectors onto P2's, and
    the witness's linear part is such a g."""

    @staticmethod
    def check(sources, targets, group):
        for P in sources:
            q = P.field.q
            carriers = {}
            for m in group_matrices(P.field, group):
                edges = tuple(apply_mat(m, u.as_ints(), q) for u in P.edge_vectors())
                carriers.setdefault(edges, set()).add(m)
            for P2 in targets:
                fits = carriers.get(tuple(v.as_ints() for v in P2.edge_vectors()), set())
                w = congruent(P, P2, group)
                assert (w is not None) == bool(fits), (P, P2, group)
                if w is not None:
                    assert w.matrix[0] + w.matrix[1] in fits, (P, P2, group)

    @pytest.mark.parametrize("group", ("SO", "O"))
    @pytest.mark.parametrize("q", (5, 7, 13))
    def test_every_segment_pair(self, q, group):
        # every pair of edge vectors; isotropic ones exist at q = 5 and 13
        F = PrimeField(q)
        edges = [(x, y) for x in range(q) for y in range(q) if (x, y) != (0, 0)]
        sources = [Simplex([pt(F, 0, 0), pt(F, *u)]) for u in edges]
        targets = [Simplex([pt(F, 1, 2), pt(F, 1 + v[0], 2 + v[1])]) for v in edges]
        self.check(sources, targets, group)

    @pytest.mark.parametrize("group", ("SO", "O"))
    def test_every_ordered_triangle_pair_of_the_q3_plane(self, group):
        # both answers commute with translating P, so the sources are the
        # ordered triangles starting at the origin: every pair up to that
        F = PrimeField(3)
        grid = [pt(F, x, y) for x in range(3) for y in range(3)]
        triangles = [s for s in map(Simplex, permutations(grid, 3)) if s.is_nondegenerate()]
        assert len(triangles) == 9 * 8 * 6
        sources = [s for s in triangles if s.vertices[0].is_zero()]
        assert len(sources) == 8 * 6
        self.check(sources, triangles, group)

    @pytest.mark.parametrize("group", ("SO", "O"))
    @pytest.mark.parametrize("q", (5, 7))
    def test_seeded_triangle_samples(self, q, group):
        # random pairs rarely share a distance triple, so each source also
        # meets a planted image g P + shift, g drawn from the full group
        F = PrimeField(q)
        mats = group_matrices(F, "O")
        rng = random.Random(200 + q)

        def triangle():
            while True:
                s = Simplex([pt(F, rng.randrange(q), rng.randrange(q)) for _ in range(3)])
                if s.is_nondegenerate():
                    return s

        for _ in range(200):
            P = triangle()
            m, shift = rng.choice(mats), (rng.randrange(q), rng.randrange(q))
            planted = Simplex([pt(F, *(c + t for c, t in zip(apply_mat(m, v.as_ints(), q), shift)))
                               for v in P.vertices])
            self.check([P], [planted, triangle()], group)


class TestSignature:
    """Simplex.pairwise_norms of an ordered triple (x, y, z) is its congruence
    invariant (|x-y|, |x-z|, |y-z|)."""

    def test_role_order(self):
        F = PrimeField(5)
        x, y, z = pt(F, 0, 0), pt(F, 1, 0), pt(F, 0, 2)
        assert Simplex([x, y, z]).pairwise_norms() == (1, 4, 0)
        assert Simplex([x, z, y]).pairwise_norms() == (4, 1, 0)

    def test_translation_invariance(self):
        F = PrimeField(7)
        rng = random.Random(0)
        for _ in range(50):
            coords = [pt(F, rng.randrange(7), rng.randrange(7)) for _ in range(4)]
            x, y, z, w = coords
            assert (Simplex([x + w, y + w, z + w]).pairwise_norms()
                    == Simplex([x, y, z]).pairwise_norms())

    def test_rotation_invariance(self):
        F = PrimeField(13)
        verts = [pt(F, 1, 2), pt(F, 5, 0), pt(F, 3, 11)]
        base = Simplex(verts).pairwise_norms()
        for m in group_matrices(F, "SO"):
            images = [pt(F, *apply_mat(m, v.as_ints(), 13)) for v in verts]
            assert Simplex(images).pairwise_norms() == base


def brute_signature_count(E: PointSet, mode: str) -> int:
    q = E.q
    pts = [p.as_ints() for p in E.points()]

    def dist(u, v):
        return ((u[0] - v[0]) ** 2 + (u[1] - v[1]) ** 2) % q

    seen = set()
    for x, y, z in product(pts, repeat=3):
        if mode == "nondegenerate":
            ux, uy = (y[0] - x[0]) % q, (y[1] - x[1]) % q
            vx, vy = (z[0] - x[0]) % q, (z[1] - x[1]) % q
            if (ux * vy - uy * vx) % q == 0:
                continue
        seen.add((dist(x, y), dist(x, z), dist(y, z)))
    return len(seen)


def brute_orbit_count(E: PointSet, group: str) -> int:
    """Minimal group image over each realized difference pair, from scratch."""
    q = E.q
    mats = group_matrices(E.field, group)
    pts = [p.as_ints() for p in E.points()]
    reps = set()
    for x, y, z in product(pts, repeat=3):
        u = ((y[0] - x[0]) % q, (y[1] - x[1]) % q)
        v = ((z[0] - x[0]) % q, (z[1] - x[1]) % q)
        reps.add(min((apply_mat(m, u, q), apply_mat(m, v, q)) for m in mats))
    return len(reps)


def anchor_loop_signature_count(E: PointSet, mode: str) -> int:
    """The earlier kernel: a q^3 presence table filled one anchor at a time."""
    q = E.q
    idx = E.indices()
    xs, ys = idx % q, idx // q
    dx = (xs[:, None] - xs[None, :]) % q
    dy = (ys[:, None] - ys[None, :]) % q
    dist = (dx * dx + dy * dy) % q
    presence = np.zeros(q**3, dtype=bool)
    for i in range(xs.size):
        row = dist[i]
        codes = (row[:, None] * q + row[None, :]) * q + dist
        if mode == "all":
            presence[codes.reshape(-1)] = True
        else:
            ux, uy = dx[:, i], dy[:, i]
            noncollinear = (ux[:, None] * uy[None, :] - uy[:, None] * ux[None, :]) % q != 0
            presence[codes[noncollinear]] = True
    return int(np.count_nonzero(presence))


def anchor_loop_pairs(E: PointSet) -> np.ndarray:
    """The earlier realized-pair kernel: a boolean q^2-by-q^2 table of the
    difference pairs (y - x, z - x), filled one anchor x at a time."""
    q = E.q
    idx = E.indices()
    xs, ys = idx % q, idx // q
    realized = np.zeros((q * q, q * q), dtype=bool)
    for x, y in zip(xs, ys):
        diff = ((xs - x) % q) + ((ys - y) % q) * q
        realized[np.ix_(diff, diff)] = True
    return realized


def product_pairs(E: PointSet) -> np.ndarray:
    """The library's realized-pair table, its slabs stacked in u order."""
    slabs = list(congruence._realized_slabs(E.q, E.indicator.tobytes()))
    assert np.array_equal(np.concatenate([u2s for u2s, _ in slabs]), np.arange(E.q))
    return np.concatenate([realized for _, realized in slabs])


def full_group_orbit_count(E: PointSet, group: str) -> int:
    """The earlier kernel: the minimal base-q code over every group image,
    for every realized pair, independent or not."""
    q = E.q
    iu, iv = np.nonzero(anchor_loop_pairs(E))
    c0 = np.arange(q * q, dtype=np.int64) % q
    c1 = np.arange(q * q, dtype=np.int64) // q
    best = None
    for m00, m01, m10, m11 in group_matrices(E.field, group):
        img = ((m00 * c0 + m01 * c1) % q) + ((m10 * c0 + m11 * c1) % q) * q
        gu, gv = img[iu], img[iv]
        codes = ((gu % q) * q + gu // q) * (q * q) + ((gv % q) * q + gv // q)
        best = codes if best is None else np.minimum(best, codes)
    return int(np.unique(best).size)


def four_statistics(E: PointSet, signatures, orbits):
    return (
        signatures(E, "all"),
        signatures(E, "nondegenerate"),
        orbits(E, "SO"),
        orbits(E, "O"),
    )


def kernel_statistics(E: PointSet):
    return four_statistics(E, distinct_signature_count, t3_orbit_count)


def earlier_statistics(E: PointSet):
    return four_statistics(E, anchor_loop_signature_count, full_group_orbit_count)


def subsets_of_the_q3_plane():
    F = PrimeField(3)
    for mask in range(1, 2**9):
        yield mask, PointSet(F, 2, np.array([(mask >> i) & 1 for i in range(9)], dtype=np.uint8))


def lines_through_origin(q: int, slope: int):
    line = [(x, slope * x % q) for x in range(q)]
    return [PointSet.from_points(PrimeField(q), 2, pts) for pts in (line, line[:3], line[1:])]


def both_isotropic_lines(q: int, slope: int) -> PointSet:
    """The lines y = slope x and y = -slope x, isotropic when slope^2 = -1."""
    return PointSet.from_points(PrimeField(q), 2,
                                [(x, s * x % q) for x in range(q) for s in (slope, q - slope)])


# y = 2x at q = 5, 5x at q = 13 and 4x at q = 17 are isotropic (slope^2 = -1)
LINES = [(5, 2), (5, 1), (7, 3), (13, 5), (17, 4)]
ISOTROPIC_LINES = {(5, 2), (13, 5), (17, 4)}
DENSITIES = ("1/10", "3/10", "1/2", "1")


class TestRealizedPairTable:
    """The exact-product table against the anchor-loop kernel."""

    def test_every_subset_of_the_q3_plane(self):
        for mask, E in subsets_of_the_q3_plane():
            assert np.array_equal(product_pairs(E), anchor_loop_pairs(E)), mask

    @pytest.mark.parametrize("q", (5, 7, 11, 13))
    @pytest.mark.parametrize("rho", DENSITIES)
    def test_random_sets(self, q, rho):
        for seed in range(3):
            E = random_set(q, 2, Fraction(rho), seed)
            assert np.array_equal(product_pairs(E), anchor_loop_pairs(E)), seed

    @pytest.mark.parametrize("q,slope", LINES)
    def test_lines_through_origin(self, q, slope):
        for E in lines_through_origin(q, slope):
            assert np.array_equal(product_pairs(E), anchor_loop_pairs(E))

    @pytest.mark.parametrize("q,lines", [(7, 1), (7, 2), (13, 3), (13, 5), (17, 1)])
    def test_several_slabs(self, monkeypatch, q, lines):
        # slabs hold _SLAB_LINES = 4 u_2 lines below q = 61; force slabs of
        # other sizes, with a shorter last slab when lines does not divide q;
        # at q = 17 the isotropic rows t (1, +-4) fall in separate one-line slabs
        monkeypatch.setattr(congruence, "_SLAB_LINES", lines)
        congruence._triangle_counts.cache_clear()
        try:
            for seed in range(2):
                E = random_set(q, 2, Fraction(1, 2), seed)
                slabs = list(congruence._realized_slabs(q, E.indicator.tobytes()))
                assert len(slabs) == -(-q // lines)
                assert np.array_equal(product_pairs(E), anchor_loop_pairs(E))
                assert kernel_statistics(E) == earlier_statistics(E)
        finally:
            congruence._triangle_counts.cache_clear()


def table_counts(E: PointSet):
    """The four counts of a table built now, past the per-set cache."""
    return congruence._triangle_counts.__wrapped__(E.q, E.indicator.tobytes())


def every_slab_marks(E: PointSet):
    """The earlier marking, on the library's slabs and codes, with no early
    exit: each slab's realized codes compacted through its boolean mask into
    a bool table.  Returns the table and the number of slabs."""
    q = E.q
    seen = np.zeros(3 * q**3 + 2 * (q + 1), dtype=bool)
    slabs = 0
    for u2s, realized in congruence._realized_slabs(q, E.indicator.tobytes()):
        seen[congruence._slab_codes(q, int(u2s[0]), int(u2s[-1]) + 1)[realized]] = True
        slabs += 1
    return seen, slabs


def mark_counts(seen: np.ndarray, q: int):
    """The four counts of a bool class-code table, with .any reductions."""
    cells = seen[:3 * q**3].reshape(q**3, 3)
    iso = seen[3 * q**3:].reshape(2, q + 1)
    dependent = int(np.count_nonzero(cells[:, 0]))
    nondeg = int(np.count_nonzero(cells[:, 1:].any(axis=1)))
    return (int(np.count_nonzero(cells.any(axis=1))),
            nondeg,
            int(np.count_nonzero(cells[:, 1:])) + dependent + int(np.count_nonzero(iso)),
            nondeg + dependent + int(np.count_nonzero(iso.any(axis=0))))


def boolean_mask_counts(E: PointSet):
    """The counts of `every_slab_marks` and the number of slabs it read."""
    seen, slabs = every_slab_marks(E)
    return mark_counts(seen, E.q), slabs


def slabs_read(monkeypatch, E: PointSet):
    """table_counts(E) and the (first, stop) lines of each slab it formed."""
    read = []
    every_slab = congruence._realized_slabs

    def counted(q, indicator):
        for u2s, realized in every_slab(q, indicator):
            read.append((int(u2s[0]), int(u2s[-1]) + 1))
            yield u2s, realized

    monkeypatch.setattr(congruence, "_realized_slabs", counted)
    return table_counts(E), read


def lru_misses(keys, size: int) -> int:
    """The misses of a least-recently-used cache of `size` entries over keys."""
    cache, misses = [], 0
    for key in keys:
        if key in cache:
            cache.remove(key)
        else:
            misses += 1
            if len(cache) == size:
                cache.pop(0)
        cache.append(key)
    return misses


class TestSlabCache:
    """The set-independent slab codes, built once per (q, slab) and shared."""

    def test_read_only_with_int32_code(self):
        congruence._slab_codes.cache_clear()
        codes = congruence._slab_codes(7, 0, 7)
        assert codes.dtype == np.int32
        assert codes.shape == (7**2, 7**2)
        with pytest.raises(ValueError):
            codes[0, 0] = 0

    @pytest.mark.parametrize("q", (13, 17, 19))
    def test_warm_counts_equal_cold_counts(self, monkeypatch, q):
        # each slab a set reads is built once while it stays in the cache:
        # q = 13 has four slabs, all kept; q = 17 and 19 have five, and the
        # rho = 1/10 sets, which read all five, cycle the four entries
        sets = [random_set(q, 2, Fraction(rho), seed)
                for rho in DENSITIES for seed in range(2)]
        congruence._slab_codes.cache_clear()
        warm, read = [], []
        for E in sets:
            counts, slabs = slabs_read(monkeypatch, E)
            warm.append(counts)
            read += slabs
        info = congruence._slab_codes.cache_info()
        assert info.hits + info.misses == len(read)
        assert info.misses == lru_misses(read, info.maxsize) < len(read)
        if q == 13:
            assert info.misses == 4
        cold = []
        for E in sets:
            congruence._slab_codes.cache_clear()
            cold.append(table_counts(E))
        assert warm == cold

    @pytest.mark.parametrize("q,lines", [(7, 1), (7, 2), (13, 3), (13, 5)])
    def test_slab_bounds_are_part_of_the_key(self, monkeypatch, q, lines):
        E = random_set(q, 2, Fraction(1, 2), 0)
        congruence._slab_codes.cache_clear()
        whole = table_counts(E)
        monkeypatch.setattr(congruence, "_SLAB_LINES", lines)
        warm = table_counts(E)
        congruence._slab_codes.cache_clear()
        assert table_counts(E) == warm == whole

    def test_table_peak_memory_at_q61(self):
        # q = 61 has 16 slabs of four u_2 lines, and this set stops after 9,
        # so the four cached slab codes are rebuilt here too; the build peaks
        # near 25 MB, and an int64 copy of each slab's product would lift it
        # to about 37 MB
        E = random_set(61, 2, Fraction(1, 20), 0)
        key = (E.q, E.indicator.tobytes())
        expected = table_counts(E)
        tracemalloc.start()
        try:
            assert congruence._triangle_counts.__wrapped__(*key) == expected
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 31 * 10**6, peak

    @pytest.mark.parametrize("q,slabs", [(47, 12), (61, 16)])
    @pytest.mark.parametrize("rho", ("1/20", "1/400"))
    def test_marks_match_the_boolean_mask_on_real_slabs(self, q, slabs, rho):
        # past four slabs the cached codes are rebuilt within every set; both
        # q have slabs of four u_2 lines.  At rho = 1/20 the table stops after
        # 11 of 12 and 9 of 16 slabs, one mark short of saturation one slab
        # before; the 6 and 10 points of rho = 1/400 mark a few hundred
        # classes and read every slab, so a lost mark changes a count
        E = random_set(q, 2, Fraction(rho), 0)
        counts, built = boolean_mask_counts(E)
        assert built == slabs
        assert table_counts(E) == counts

    def test_codes_fit_the_table_at_q97(self):
        # q = 97 = 1 mod 4 is the largest q under PAIR_CAPACITY; the last code,
        # 3 q^3 + 2 (q + 1) - 1, is (0, w) on the second isotropic line.  The
        # codes of every pair are the full grid's table, so they also pin the
        # class totals the early exit stops at
        q = 97
        low, high = [], []
        seen = np.zeros(3 * q**3 + 2 * (q + 1), dtype=bool)
        for u2 in range(q):
            codes = congruence._slab_codes.__wrapped__(q, u2, u2 + 1)
            low.append(codes.min())
            high.append(codes.max())
            seen[codes] = True
        assert min(low) == 0
        assert max(high) == 3 * q**3 + 2 * (q + 1) - 1
        assert mark_counts(seen, q) == class_totals(q)


def parallel_lines(q: int, count: int) -> PointSet:
    """The horizontal lines x_2 = 0 .. count - 1."""
    return PointSet.from_points(PrimeField(q), 2,
                                [(x, c) for c in range(count) for x in range(q)])


class TestSaturation:
    """The class totals, the per-triple counts of the radius tables, and the
    table's exit once a set reaches the totals."""

    @pytest.mark.parametrize("q", [q for q in range(3, 62) if is_prime(q)])
    def test_full_grid_reaches_the_class_totals(self, q):
        # every code of every slab is marked, with no product and no exit
        seen = np.zeros(3 * q**3 + 2 * (q + 1), dtype=bool)
        for u2 in range(q):
            seen[congruence._slab_codes.__wrapped__(q, u2, u2 + 1)] = True
        assert mark_counts(seen, q) == class_totals(q)

    @staticmethod
    def assert_triples_within_radius_tables(E: PointSet, tables, full: bool):
        # Gram code (a, b, g) has c = |u - v| = a + b - 2g, and its three
        # cells hold at most the radius table's count of SO classes
        q = E.q
        seen, _ = every_slab_marks(E)
        marks = seen[:3 * q**3].reshape(q, q, q, 3).sum(axis=3)
        b, g = np.ogrid[:q, :q]
        for a in range(1, q):
            allowed = tables[a][b, (a + b - 2 * g) % q]
            assert np.all(marks[a] <= allowed), a
            if full:
                assert np.array_equal(marks[a], allowed), a

    @staticmethod
    def radius_tables(q: int):
        field = PrimeField(q)
        return {a: radius_counts(field, a) for a in range(1, q)}

    def test_triples_on_every_subset_of_the_q3_plane(self):
        tables = self.radius_tables(3)
        for mask, E in subsets_of_the_q3_plane():
            self.assert_triples_within_radius_tables(E, tables, full=mask == 2**9 - 1)

    @pytest.mark.parametrize("q", (5, 7, 11, 13, 17, 19, 23, 29, 31))
    def test_triples_on_random_and_structured_sets(self, q):
        tables = self.radius_tables(q)
        sets = [random_set(q, 2, Fraction(rho), 0) for rho in ("1/20", "1/10", "1/2")]
        sets += [parallel_lines(q, count) for count in (1, 2, 3)]
        if q % 4 == 1:
            sets.append(both_isotropic_lines(q, next(i for i in range(q) if (i * i + 1) % q == 0)))
        for E in sets:
            self.assert_triples_within_radius_tables(E, tables, full=False)
        self.assert_triples_within_radius_tables(
            PointSet(PrimeField(q), 2, np.ones(q * q, dtype=np.uint8)), tables, full=True)

    def test_exit_on_every_subset_of_the_q3_plane(self, monkeypatch):
        # q = 3 is one slab of three lines; in one-line slabs the exit can
        # skip the second and third
        monkeypatch.setattr(congruence, "_SLAB_LINES", 1)
        for mask, E in subsets_of_the_q3_plane():
            assert table_counts(E) == boolean_mask_counts(E)[0], mask

    @pytest.mark.parametrize("q", (5, 7, 11, 13))
    @pytest.mark.parametrize("rho", DENSITIES)
    def test_exit_on_random_sets(self, q, rho):
        for seed in range(3):
            E = random_set(q, 2, Fraction(rho), seed)
            assert table_counts(E) == boolean_mask_counts(E)[0], seed

    @pytest.mark.parametrize("q,slope", LINES)
    def test_exit_on_lines(self, q, slope):
        sets = lines_through_origin(q, slope) + [parallel_lines(q, 3)]
        if (q, slope) in ISOTROPIC_LINES:
            sets.append(both_isotropic_lines(q, slope))
        for E in sets:
            assert table_counts(E) == boolean_mask_counts(E)[0]

    @pytest.mark.parametrize("q,rho,read", [(19, "1/2", 2), (97, "1/20", 16), (97, "1/40", 97)])
    def test_slabs_read(self, monkeypatch, q, rho, read):
        # a saturated set stops at the slab that completes it: at q = 19 the
        # second of five slabs of four u_2 lines, at q = 97, rho = 1/20 the
        # 16th of 97 one-line slabs; at rho = 1/40 two SO classes stay
        # unmarked and every slab is read
        E = random_set(q, 2, Fraction(rho), 0)
        counts, slabs = slabs_read(monkeypatch, E)
        assert slabs[0][0] == 0
        assert all(stop == first for (_, stop), (first, _) in zip(slabs, slabs[1:]))
        assert len(slabs) == read
        assert (counts == class_totals(q)) == (read < q)


class TestTriangleKernelOracles:
    """The triangle table's statistics against the earlier kernels and brute force."""

    @pytest.mark.parametrize("q", (5, 7, 11, 13))
    @pytest.mark.parametrize("rho", DENSITIES)
    def test_random_sets_match_earlier_kernels(self, q, rho):
        for seed in range(3):
            E = random_set(q, 2, Fraction(rho), seed)
            assert kernel_statistics(E) == earlier_statistics(E), (q, rho, seed)

    def test_every_subset_of_the_q3_plane(self):
        for mask, E in subsets_of_the_q3_plane():
            assert kernel_statistics(E) == four_statistics(
                E, brute_signature_count, brute_orbit_count
            ), mask

    @pytest.mark.parametrize("q,slope", LINES)
    def test_line_through_origin(self, q, slope):
        # every pair is dependent, so orbits come from the dependent labels
        # alone; on an isotropic line SO labels each point by the line's slope
        isotropic = (1 + slope * slope) % q == 0
        assert isotropic == ((q, slope) in ISOTROPIC_LINES)
        for E in lines_through_origin(q, slope):
            stats = kernel_statistics(E)
            assert stats[1] == 0
            assert stats == four_statistics(E, brute_signature_count, brute_orbit_count)
            assert stats == earlier_statistics(E)

    @pytest.mark.parametrize("q,slope", sorted(ISOTROPIC_LINES))
    def test_both_isotropic_lines(self, q, slope):
        # differences along y = ix and y = -ix: SO tells the two lines apart
        # by slope, O merges them.  The set is fixed by (x, y) -> (x, -y),
        # which swaps the lines and flips det, so each nondegenerate Gram code
        # fills both SO cells; SO then exceeds O by those codes plus the q + 1
        # dependent classes, (w, lambda w) and (0, w), of the second line
        E = both_isotropic_lines(q, slope)
        congruence._triangle_counts.cache_clear()
        stats = kernel_statistics(E)
        assert stats == earlier_statistics(E)
        assert stats[2] - stats[3] == stats[1] + q + 1


class TestTriangleTableCache:
    """The four statistics share one cached table per set content."""

    CALLS = (
        lambda E: distinct_signature_count(E, "all"),
        lambda E: distinct_signature_count(E, "nondegenerate"),
        lambda E: t3_orbit_count(E, "SO"),
        lambda E: t3_orbit_count(E, "O"),
    )

    @pytest.mark.parametrize("q,rho,seed", [(5, "1/2", 0), (7, "3/10", 1), (11, "1/10", 2)])
    def test_any_call_order(self, q, rho, seed):
        E = random_set(q, 2, Fraction(rho), seed)
        expected = earlier_statistics(E)
        for order in permutations(range(4)):
            congruence._triangle_counts.cache_clear()
            got = {i: self.CALLS[i](E) for i in order}
            assert tuple(got[i] for i in range(4)) == expected, order

    def test_different_sets_do_not_share_counts(self):
        # two sets of one size at one q, with different statistics
        E1 = PointSet.from_points(PrimeField(7), 2, [(0, 0), (1, 0), (0, 2)])
        E2 = PointSet.from_points(PrimeField(7), 2, [(0, 0), (1, 0), (2, 0)])
        congruence._triangle_counts.cache_clear()
        first = kernel_statistics(E1)
        second = kernel_statistics(E2)
        assert first != second
        assert first == earlier_statistics(E1)
        assert second == earlier_statistics(E2)
        assert kernel_statistics(E1) == first
        assert congruence._triangle_counts.cache_info().misses == 2

    def test_equal_content_shares_counts(self):
        E = random_set(11, 2, Fraction(3, 10), 4)
        twin = PointSet(E.field, 2, E.indicator.copy())
        congruence._triangle_counts.cache_clear()
        kernel_statistics(E)
        info = congruence._triangle_counts.cache_info()
        assert kernel_statistics(twin) == kernel_statistics(E)
        after = congruence._triangle_counts.cache_info()
        assert after.misses == info.misses == 1
        assert after.hits == info.hits + 8
        assert congruence._triangle_counts(E.q, twin.indicator.tobytes()) is (
            congruence._triangle_counts(E.q, E.indicator.tobytes()))


class TestSignatureCount:
    def test_three_point_hand_example(self):
        F = PrimeField(5)
        E = PointSet.from_points(F, 2, [(0, 0), (1, 0), (0, 2)])
        assert distinct_signature_count(E, "all") == 13
        assert distinct_signature_count(E, "nondegenerate") == 6

    def test_single_point(self):
        E = PointSet.from_points(PrimeField(7), 2, [(3, 4)])
        assert distinct_signature_count(E, "all") == 1
        assert distinct_signature_count(E, "nondegenerate") == 0

    @pytest.mark.parametrize("q,size,seed", [(5, 6, 0), (7, 10, 1), (7, 17, 2)])
    def test_matches_brute_force(self, q, size, seed):
        rng = np.random.default_rng(seed)
        indicator = np.zeros(q * q, dtype=np.uint8)
        indicator[rng.choice(q * q, size=size, replace=False)] = 1
        E = PointSet(PrimeField(q), 2, indicator)
        for mode in ("all", "nondegenerate"):
            assert distinct_signature_count(E, mode) == brute_signature_count(E, mode)

    def test_monotone_under_inclusion(self):
        F = PrimeField(7)
        pts = [(0, 0), (1, 0), (0, 2), (3, 3), (5, 1), (2, 6)]
        prev_all, prev_nd = 0, 0
        for n in range(1, len(pts) + 1):
            E = PointSet.from_points(F, 2, pts[:n])
            cur_all = distinct_signature_count(E, "all")
            cur_nd = distinct_signature_count(E, "nondegenerate")
            assert cur_all >= prev_all
            assert cur_nd >= prev_nd
            prev_all, prev_nd = cur_all, cur_nd

    def test_input_validation(self):
        F = PrimeField(5)
        E = PointSet.from_points(F, 2, [(0, 0), (1, 0)])
        with pytest.raises(ValueError):
            distinct_signature_count(E, "some")
        E3 = PointSet.from_points(F, 3, [(0, 0, 0), (1, 0, 0)])
        with pytest.raises(ValueError):
            distinct_signature_count(E3)

    @pytest.mark.parametrize("q", (101, 467))
    def test_capacity_guard(self, q):
        # signatures share the q^4 pair table, so q = 101 already exceeds it
        E = PointSet.from_points(PrimeField(q), 2, [(0, 0), (1, 0)])
        for mode in ("all", "nondegenerate"):
            with pytest.raises(CapacityError):
                distinct_signature_count(E, mode)


class TestOrbitCount:
    def test_three_point_hand_example(self):
        F = PrimeField(5)
        E = PointSet.from_points(F, 2, [(0, 0), (1, 0), (0, 2)])
        assert t3_orbit_count(E, "SO") == 16
        assert t3_orbit_count(E, "O") == 16

    def test_single_point(self):
        E = PointSet.from_points(PrimeField(7), 2, [(2, 5)])
        assert t3_orbit_count(E, "SO") == 1
        assert t3_orbit_count(E, "O") == 1

    @pytest.mark.parametrize("q,size,seed", [(5, 5, 3), (5, 9, 4), (7, 8, 5)])
    def test_matches_brute_force(self, q, size, seed):
        rng = np.random.default_rng(seed)
        indicator = np.zeros(q * q, dtype=np.uint8)
        indicator[rng.choice(q * q, size=size, replace=False)] = 1
        E = PointSet(PrimeField(q), 2, indicator)
        for group in ("SO", "O"):
            assert t3_orbit_count(E, group) == brute_orbit_count(E, group)

    @pytest.mark.parametrize("q,size,seed", [(5, 8, 6), (7, 14, 7), (11, 25, 8)])
    def test_count_ordering(self, q, size, seed):
        # signatures are a coarser invariant than SO-orbits, and O merges
        # SO-orbits, so the counts are forced into a sandwich
        rng = np.random.default_rng(seed)
        indicator = np.zeros(q * q, dtype=np.uint8)
        indicator[rng.choice(q * q, size=size, replace=False)] = 1
        E = PointSet(PrimeField(q), 2, indicator)
        sigs = distinct_signature_count(E, "all")
        so = t3_orbit_count(E, "SO")
        o = t3_orbit_count(E, "O")
        assert sigs <= so
        assert o <= so
        assert sigs <= 2 * o

    @pytest.mark.parametrize("q,size,seed", [(5, 10, 9), (7, 16, 10)])
    def test_nondegenerate_class_splits_in_two_at_most(self, q, size, seed):
        # a distance triple realized by non-collinear triples fills at most
        # two SO-orbits (the chirality split)
        F = PrimeField(q)
        rng = np.random.default_rng(seed)
        indicator = np.zeros(q * q, dtype=np.uint8)
        indicator[rng.choice(q * q, size=size, replace=False)] = 1
        E = PointSet(F, 2, indicator)
        mats = group_matrices(F, "SO")
        pts = [p.as_ints() for p in E.points()]
        orbits_by_sig = {}
        for x, y, z in product(pts, repeat=3):
            u = ((y[0] - x[0]) % q, (y[1] - x[1]) % q)
            v = ((z[0] - x[0]) % q, (z[1] - x[1]) % q)
            if (u[0] * v[1] - u[1] * v[0]) % q == 0:
                continue
            norm = lambda w: (w[0] * w[0] + w[1] * w[1]) % q
            sig = (norm(u), norm(v), norm(((y[0] - z[0]) % q, (y[1] - z[1]) % q)))
            rep = min((apply_mat(m, u, q), apply_mat(m, v, q)) for m in mats)
            orbits_by_sig.setdefault(sig, set()).add(rep)
        assert orbits_by_sig, "sample produced no non-collinear triples"
        assert max(len(v) for v in orbits_by_sig.values()) <= 2

    def test_capacity_guard(self):
        # the kernel guards memory only; its work is charged by the harness
        big = PointSet.from_points(PrimeField(101), 2, [(0, 0)])
        with pytest.raises(CapacityError):
            t3_orbit_count(big, "SO")

    def test_input_validation(self):
        E3 = PointSet.from_points(PrimeField(5), 3, [(0, 0, 0)])
        with pytest.raises(ValueError):
            t3_orbit_count(E3)
        E = PointSet.from_points(PrimeField(5), 2, [(0, 0)])
        with pytest.raises(ValueError):
            t3_orbit_count(E, group="X")
