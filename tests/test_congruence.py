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
    """The library's realized-pair table: row 0 from A's column sums and each
    row u = g u_0 from the rotation products, every nonzero u formed once."""
    q = E.q
    frames = congruence._frame_tables(q)
    A = congruence._anchor_matrix(q, E.indicator.tobytes())
    table = np.zeros((q * q, q * q), dtype=bool)
    table[0] = A.sum(axis=0) > 0
    formed = np.zeros(q * q, dtype=int)
    for rows, realized in zip(frames.points, congruence._rotation_products(A, frames.points)):
        table[rows] = realized
        np.add.at(formed, rows, 1)
    assert formed[0] == 0 and np.all(formed[1:] == 1)
    return table


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
    """The exact-product rows against the anchor-loop kernel."""

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


def table_counts(E: PointSet):
    """The four counts of a table built now, past the per-set cache."""
    return congruence._triangle_counts.__wrapped__(E.q, E.indicator.tobytes())


def every_rotation_marks(E: PointSet):
    """The frame marks with no early exit, every rotation's product ORed in,
    and the pairs (0, v) from A's column sums."""
    q = E.q
    frames = congruence._frame_tables(q)
    A = congruence._anchor_matrix(q, E.indicator.tobytes())
    marks = np.zeros(frames.gram.shape, dtype=bool)
    for turn, realized in zip(frames.turn, congruence._rotation_products(A, frames.points)):
        marks |= realized[:, turn]
    return marks, A.sum(axis=0) > 0


def traced_table(monkeypatch, E: PointSet):
    """table_counts(E), the number of rotation products it formed, and the
    marks and differences it counted."""
    read, counted = [0], []
    every_product, count = congruence._rotation_products, congruence._class_counts

    def products(A, points):
        for realized in every_product(A, points):
            read[0] += 1
            yield realized

    def recorded(q, marks, differences):
        counted.append((marks.copy(), differences.copy()))
        return count(q, marks, differences)

    monkeypatch.setattr(congruence, "_rotation_products", products)
    monkeypatch.setattr(congruence, "_class_counts", recorded)
    counts = table_counts(E)
    monkeypatch.undo()
    return counts, read[0], counted[0]


def assert_marks_match_every_rotation(monkeypatch, E: PointSet):
    marks, differences = every_rotation_marks(E)
    counts, _, (kernel_marks, kernel_differences) = traced_table(monkeypatch, E)
    assert np.array_equal(kernel_marks, marks)
    assert np.array_equal(kernel_differences, differences)
    assert counts == congruence._class_counts(E.q, marks, differences)


@pytest.mark.parametrize("q", [p for p in range(3, 32) if is_prime(p)])
def test_frame_tables(q):
    # the pairs (g, frame) hit every nonzero point once, each turn[g] is the
    # permutation v -> g v, and the O partner is an involution by a
    # reflection of O_2 that keeps |v| and u_0.v
    F = PrimeField(q)
    n = q * q
    frames = congruence._frame_tables(q)
    rotations = group_matrices(F, "SO")
    points = [(v % q, v // q) for v in range(n)]
    frame_points = frames.points[rotations.index((1, 0, 0, 1))]
    assert np.array_equal(np.bincount(frames.points.ravel(), minlength=n), [0] + [1] * (n - 1))
    for m, turn, rows in zip(rotations, frames.turn, frames.points):
        assert np.array_equal(np.sort(turn), np.arange(n))
        assert [points[w] for w in turn] == [apply_mat(m, p, q) for p in points]
        assert np.array_equal(rows, turn[frame_points])
    key = frames.o_key.ravel()
    cells = np.arange(key.size)
    assert np.all(np.bincount(key) <= 2)
    partner = cells.copy()
    lower = key < cells
    partner[lower], partner[key[lower]] = key[lower], cells[lower]
    assert np.array_equal(partner[partner], cells)
    assert np.array_equal(key, np.minimum(cells, partner))
    assert np.array_equal(frames.gram.ravel()[partner], frames.gram.ravel())
    u0 = [points[w] for w in frame_points]
    reflections = group_matrices(F, "O")[len(rotations):]
    for f, u in enumerate(u0):
        mate, images = divmod(partner[f * n:(f + 1) * n], n)
        assert np.all(mate == mate[0])
        carriers = [m for m in reflections if apply_mat(m, u, q) == u0[mate[0]]]
        assert len(carriers) == 1, (f, u)
        assert [points[w] for w in images] == [apply_mat(carriers[0], p, q) for p in points]


class TestFrameTables:
    """The set-independent frame tables, built once per q and shared."""

    def test_read_only_int32_tables(self):
        congruence._frame_tables.cache_clear()
        frames = congruence._frame_tables(7)
        assert frames.turn.shape == (8, 49)
        assert frames.points.shape == frames.turn[:, :6].shape
        assert frames.gram.shape == frames.o_key.shape == frames.independent.shape == (6, 49)
        for table in frames:
            assert table.dtype in (np.int32, np.bool_)
            with pytest.raises(ValueError):
                table[(0,) * table.ndim] = 0

    @pytest.mark.parametrize("q", (13, 17, 19))
    def test_warm_counts_equal_cold_counts(self, q):
        # the tables are built by the first set and read by the others
        sets = [random_set(q, 2, Fraction(rho), seed)
                for rho in DENSITIES for seed in range(2)]
        congruence._frame_tables.cache_clear()
        warm = [table_counts(E) for E in sets]
        assert congruence._frame_tables.cache_info().misses == 1
        cold = []
        for E in sets:
            congruence._frame_tables.cache_clear()
            cold.append(table_counts(E))
        assert warm == cold

    def test_table_peak_memory_at_q61(self):
        # warm tables: A is 2.8 MB here, and the peak is 4.7 MB; an int64 copy of
        # one rotation product (1.85 MB) or of A (5.6 MB) would exceed the bound
        E = random_set(61, 2, Fraction(1, 20), 0)
        key = (E.q, E.indicator.tobytes())
        expected = table_counts(E)
        tracemalloc.start()
        try:
            assert congruence._triangle_counts.__wrapped__(*key) == expected
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5.5e6, peak

    def test_cold_table_peak_memory_at_q97(self):
        # A holds 471 x 97^2 float32 entries (17.7 MB) and the tables,
        # built here in int32, about 12 MB; the bounds are what the earlier
        # class-code table cached (14.7 MB) and peaked at (42.8 MB)
        E = random_set(97, 2, Fraction(1, 20), 0)
        key = (E.q, E.indicator.tobytes())
        congruence._frame_tables.cache_clear()
        tracemalloc.start()
        try:
            counts = congruence._triangle_counts.__wrapped__(*key)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert counts == class_totals(97)
        assert sum(table.nbytes for table in congruence._frame_tables(97)) < 14.7e6
        assert peak < 42.8e6, peak

    @pytest.mark.parametrize("q", (47, 61))
    @pytest.mark.parametrize("rho", ("1/20", "1/400"))
    def test_marks_match_every_rotation(self, monkeypatch, q, rho):
        # at rho = 1/20 the table stops after a few rotations; the 6 and 10
        # points of rho = 1/400 mark a few hundred classes and read every
        # rotation, so a lost mark changes a count
        assert_marks_match_every_rotation(monkeypatch, random_set(q, 2, Fraction(rho), 0))

    def test_full_grid_at_q97_reaches_the_class_totals(self):
        # q = 97 = 1 mod 4 is the largest q under PAIR_CAPACITY; the full
        # grid marks every cell and every (0, v)
        frames = congruence._frame_tables(97)
        marks = np.ones(frames.gram.shape, dtype=bool)
        assert congruence._class_counts(97, marks, np.ones(97**2, dtype=bool)) == class_totals(97)


def parallel_lines(q: int, count: int) -> PointSet:
    """The horizontal lines x_2 = 0 .. count - 1."""
    return PointSet.from_points(PrimeField(q), 2,
                                [(x, c) for c in range(count) for x in range(q)])


class TestSaturation:
    """The class totals, the per-triple counts of the radius tables, and the
    table's exit once every frame cell is marked."""

    @pytest.mark.parametrize("q", [q for q in range(3, 62) if is_prime(q)])
    def test_full_grid_reaches_the_class_totals(self, monkeypatch, q):
        # the full grid realizes every pair, so its first rotation marks
        # every cell
        counts, read, _ = traced_table(monkeypatch, PointSet.full_grid(PrimeField(q), 2))
        assert counts == class_totals(q)
        assert read == 1

    @staticmethod
    def assert_triples_within_radius_tables(E: PointSet, tables, full: bool):
        # frame a's cells of Gram code (a, b, g), b = |v| and g = u_0.v, are
        # its SO classes with c = |u - v| = a + b - 2g, at most the radius
        # table's count
        q = E.q
        frames = congruence._frame_tables(q)
        marks, _ = every_rotation_marks(E)
        b, g = np.ogrid[:q, :q]
        for a in range(1, q):
            marked = np.bincount(frames.gram[a - 1][marks[a - 1]] - a * q * q, minlength=q * q)
            marked = marked.reshape(q, q)
            allowed = tables[a][b, (a + b - 2 * g) % q]
            assert np.all(marked <= allowed), a
            if full:
                assert np.array_equal(marked, allowed), a

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
        self.assert_triples_within_radius_tables(PointSet.full_grid(PrimeField(q), 2), tables, full=True)

    @pytest.mark.parametrize("q", (5, 7, 11, 13, 31, 61))
    def test_radius_table_sums(self, q):
        # each v has one (|v|, |v - u_0|), so a radius table sums to q^2, and
        # its nonzero entries are the Gram codes of frame a
        frames = congruence._frame_tables(q)
        for a, table in self.radius_tables(q).items():
            assert table.sum(dtype=np.int64) == q * q, a
            assert np.count_nonzero(table) == np.unique(frames.gram[a - 1]).size, a

    def test_exit_on_every_subset_of_the_q3_plane(self, monkeypatch):
        for mask, E in subsets_of_the_q3_plane():
            assert_marks_match_every_rotation(monkeypatch, E)

    @pytest.mark.parametrize("q", (5, 7, 11, 13))
    @pytest.mark.parametrize("rho", DENSITIES)
    def test_exit_on_random_sets(self, monkeypatch, q, rho):
        for seed in range(3):
            assert_marks_match_every_rotation(monkeypatch, random_set(q, 2, Fraction(rho), seed))

    @pytest.mark.parametrize("q,slope", LINES)
    def test_exit_on_lines(self, monkeypatch, q, slope):
        sets = lines_through_origin(q, slope) + [parallel_lines(q, 3)]
        if (q, slope) in ISOTROPIC_LINES:
            sets.append(both_isotropic_lines(q, slope))
        for E in sets:
            assert_marks_match_every_rotation(monkeypatch, E)

    @pytest.mark.parametrize("q,rho,read", [(19, "1/2", 1), (97, "1/20", 12), (97, "1/40", 96)])
    def test_rotations_read(self, monkeypatch, q, rho, read):
        # a saturated set stops at the rotation that completes it: the first
        # of 20 at q = 19, the 12th of 96 at q = 97, rho = 1/20; at
        # rho = 1/40 two SO classes stay unmarked and every rotation is read
        E = random_set(q, 2, Fraction(rho), 0)
        counts, rotations, _ = traced_table(monkeypatch, E)
        assert rotations == read
        assert (counts == class_totals(q)) == (read < len(congruence._frame_tables(q).turn))


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

    @pytest.mark.parametrize("q,rho,seed", [(5, "1/2", 0), (7, "3/10", 1), (11, "1/10", 2),
                                            (17, "1/2", 0), (17, "1/2", 1)])
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
