"""Planar group matrices, simplex congruence, and triangle-class statistics.

SO_2(F_q) is parametrized by the unit circle S_1: each point (a, b) with
a^2 + b^2 = 1 is the rotation ((a, -b), (b, a)), so |SO_2| = |S_1| =
q - eta(-1).  The reflections ((a, b), (b, -a)), one per point of S_1,
complete the full orthogonal group O_2 of the form x^2 + y^2.
`group_matrices` reads both off the circle's norm table.

`congruent` decides whether two non-degenerate simplices in the plane are
related by an isometry x -> Tx + tau with T^t T = I, and constructs one by a
single 2x2 solve T = V U^{-1}, where the columns of U and V are the edge
vectors.  A segment u -> v is completed to a basis in closed form: off the
null cone by Ju and Jv (J the quarter turn), which makes T the rotation
taking u to v; on it by the conjugates, which makes T the only element of
O_2 taking u to v.  For a triangle T is unique as well, so whether det T is
+1 or -1 is a property of the pair; genuinely chiral pairs exist (mirror
triangles), which is why the group argument exposes both SO and O.

Triangle statistics count the classes of the realized difference pairs
(u, v) = (y - x, z - x) over (x, y, z) in E^3 frame by frame.  SO_2 acts
simply transitively on each circle S_a, a != 0, and on each isotropic line
t (1, +-i), i^2 = -1, minus 0 (only for q = 1 mod 4).  So one frame point
u_0 per such orbit makes every SO class with u != 0 exactly one cell
(u_0, v), and the cell is realized when (g u_0, g v) is for some rotation g.
With A[x, u] = E(x + u) for x in E, that is (A^T A)[g u_0, g v] > 0, and
each rotation forms the rows g u_0 of that product in float32, reading only
its sign: each term is 0 or 1, so an entry is positive exactly when some
anchor realizes the pair, in whatever order or precision BLAS adds.  The
rotations stop once every cell is marked: the full grid marks no more.
The pairs (0, v) are realized for v in E - E, A's nonzero column sums, and
form one class per SO orbit of v.

Each count is the number of distinct keys among the marked cells.  SO
counts cells.  O merges a cell with its image under the reflection fixing
u_0, and the two isotropic frames and lines with each other.  An
independent pair is fixed up to O_2 by its Gram data (|u|, |v|, u.v)
(Witt's theorem); as 2 is invertible, the Gram data and the distance triple
(|u|, |v|, |u - v|) determine each other, so signatures are counted as Gram
codes, and the nondegenerate ones over the independent cells.  The keys do
not depend on the set: they are built once per q and shared by every set,
and the four counts are cached per set content, so the four statistics of
one set cost one pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, List, NamedTuple, Optional, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .charsums import inverse_table, norm_values
from .counting import PointSet
from .field import PrimeField
from .fourier import CapacityError, PointD

# q^4 at most: bounds A's |E| q^2 float32 entries (|E| <= q^2), so q <= 100
PAIR_CAPACITY = 10**8

Matrix2 = Tuple[int, int, int, int]
Vector2 = Tuple[int, int]


def _group_tag(group: str) -> str:
    tag = group.upper()
    if tag not in ("SO", "O"):
        raise ValueError(f"group must be 'SO' or 'O', got {group!r}")
    return tag


def group_matrices(field: PrimeField, group: str) -> List[Matrix2]:
    """SO_2 or O_2 as row-major 2x2 matrices (m00, m01, m10, m11), read off S_1.

    Each point (a, b) of the unit circle a^2 + b^2 = 1, in lexicographic
    order, gives the rotation (a, -b, b, a); for O the reflections
    (a, b, b, -a) follow in the same order.  Past the grid capacity the
    circle's norm table raises CapacityError.
    """
    tag = _group_tag(group)
    q = field.q
    # norm_values is indexed x_1 q + x_0; transposed, nonzero walks (a, b) in order
    a, b = (c.tolist() for c in np.nonzero(norm_values(field, 2).reshape(q, q).T == 1))
    out = [(x, (q - y) % q, y, x) for x, y in zip(a, b)]
    if tag == "O":
        out += [(x, y, y, (q - x) % q) for x, y in zip(a, b)]
    return out


class Simplex:
    """Vertices V_0 .. V_k in the plane F_q^2, k <= 2, with exact degeneracy detection."""

    __slots__ = ("field", "vertices", "d", "k")

    def __init__(self, vertices: Iterable[PointD]) -> None:
        verts = tuple(vertices)
        if not verts:
            raise ValueError("a simplex needs at least one vertex")
        self.field = verts[0].field
        self.d = verts[0].d
        for v in verts[1:]:
            if v.field != self.field or v.d != self.d:
                raise ValueError("vertices live in different spaces")
        if self.d != 2:
            raise ValueError(f"simplices are defined in the plane (d = 2), got d = {self.d}")
        self.vertices = verts
        self.k = len(verts) - 1
        if self.k > self.d:
            raise ValueError(f"{self.k + 1} vertices exceed dimension {self.d}")

    def edge_vectors(self) -> List[PointD]:
        v0 = self.vertices[0]
        return [v - v0 for v in self.vertices[1:]]

    def is_nondegenerate(self) -> bool:
        """Whether V_1 - V_0, ..., V_k - V_0 are linearly independent."""
        edges = [u.as_ints() for u in self.edge_vectors()]
        if self.k == 2:
            (a, b), (c, d) = edges
            return (a * d - b * c) % self.field.q != 0
        return all(any(u) for u in edges)

    def pairwise_norms(self) -> Tuple[int, ...]:
        """|V_i - V_j| for i < j, in lexicographic (i, j) order."""
        n = len(self.vertices)
        return tuple(
            (self.vertices[i] - self.vertices[j]).norm().value
            for i in range(n)
            for j in range(i + 1, n)
        )

    def __repr__(self) -> str:
        pts = ", ".join(str(v.as_ints()) for v in self.vertices)
        return f"Simplex[{pts}] (mod {self.field.q})"


@dataclass(frozen=True)
class CongruenceWitness:
    """An isometry x -> Tx + tau carrying one simplex onto another."""

    matrix: Tuple[Tuple[int, ...], ...]
    tau: PointD
    det: int  # +1 or -1

    def apply(self, point: PointD) -> PointD:
        field = self.tau.field
        q = field.q
        coords = point.as_ints()
        image = [
            (sum(row[j] * coords[j] for j in range(len(coords))) + t.value) % q
            for row, t in zip(self.matrix, self.tau.coords)
        ]
        return PointD(field, image)


def _columns(first: Vector2, second: Vector2) -> Matrix2:
    return (first[0], second[0], first[1], second[1])


def _matmul2(a: Matrix2, b: Matrix2, q: int) -> Matrix2:
    return (
        (a[0] * b[0] + a[1] * b[2]) % q,
        (a[0] * b[1] + a[1] * b[3]) % q,
        (a[2] * b[0] + a[3] * b[2]) % q,
        (a[2] * b[1] + a[3] * b[3]) % q,
    )


def _det2(m: Matrix2, q: int) -> int:
    return (m[0] * m[3] - m[1] * m[2]) % q


def _bases(us: List[Vector2], vs: List[Vector2], field: PrimeField) -> Tuple[Matrix2, Matrix2]:
    """U and V for T = V U^{-1}: the edge vectors us of one simplex and vs of
    another as columns, completed to bases of the plane.

    A triangle's edges are a basis already, and a point's bases are the
    identity.  A segment u -> v with |u| = |v| is completed in closed form so
    that T is orthogonal.  Off the null cone the second columns are Ju and
    Jv, J the quarter turn (x, y) -> (-y, x), and T is the rotation taking u
    to v, which serves SO and O alike.  An isotropic u != 0 has both
    coordinates nonzero, so u and its conjugate (u_1, -u_2) are a basis;
    pairing it with (u_1 / v_1)^2 times the conjugate of v keeps
    <Tu, Tu'> = <u, u'> = 2 u_1^2, and T is the only element of O_2 taking u
    to v, so det T decides SO.
    """
    if len(us) == 2:
        return _columns(*us), _columns(*vs)
    if not us:
        return (1, 0, 0, 1), (1, 0, 0, 1)
    q = field.q
    (u1, u2), (v1, v2) = us[0], vs[0]
    if (u1 * u1 + u2 * u2) % q:
        return _columns(us[0], ((-u2) % q, u1)), _columns(vs[0], ((-v2) % q, v1))
    c = (u1 * field.inv(v1)) ** 2 % q
    return _columns(us[0], (u1, (-u2) % q)), _columns(vs[0], (c * v1 % q, (-c * v2) % q))


def congruent(P: Simplex, P2: Simplex, group: str = "SO") -> Optional[CongruenceWitness]:
    """An isometry carrying P onto P2 vertexwise, or None.

    Requires both simplices non-degenerate with the same number of vertices.
    Equal pairwise norms are necessary, and sufficient for O_2: as 2 is
    invertible they fix the Gram matrix of the edge vectors.  The linear part
    is one 2x2 solve, T = V U^{-1} for the bases of `_bases`.  A segment off
    the null cone always has a rotation; otherwise T is unique and, for
    group "SO", its determinant decides.
    """
    tag = _group_tag(group)
    if P.field != P2.field or P.k != P2.k:
        raise ValueError("simplices are not comparable")
    if not P.is_nondegenerate() or not P2.is_nondegenerate():
        raise ValueError("congruence test requires non-degenerate simplices")
    if P.pairwise_norms() != P2.pairwise_norms():
        return None

    field, q = P.field, P.field.q
    U, V = _bases([u.as_ints() for u in P.edge_vectors()],
                  [v.as_ints() for v in P2.edge_vectors()], field)
    ud = field.inv(_det2(U, q))
    U_inv = (U[3] * ud % q, -U[1] * ud % q, -U[2] * ud % q, U[0] * ud % q)
    T = _matmul2(V, U_inv, q)
    # explicit raises, so the checks also run under python -O
    if _matmul2((T[0], T[2], T[1], T[3]), T, q) != (1, 0, 0, 1):
        raise AssertionError("constructed map failed orthogonality")
    det = 1 if _det2(T, q) == 1 else -1
    if tag == "SO" and det != 1:
        return None
    (a, b), (c, d) = T[:2], T[2:]
    (x, y), (x2, y2) = P.vertices[0].as_ints(), P2.vertices[0].as_ints()
    tau = PointD(field, (x2 - a * x - b * y, y2 - c * x - d * y))
    witness = CongruenceWitness(matrix=((a, b), (c, d)), tau=tau, det=det)
    for src, dst in zip(P.vertices, P2.vertices):
        if witness.apply(src) != dst:
            raise AssertionError("constructed map failed to transport a vertex")
    return witness


class _Frames(NamedTuple):
    """Read-only tables of the frame count at one q.  Frame f is u_0(f): the
    first point of norm f + 1, then (1, i) and (1, -i), i^2 = -1, when
    q = 1 mod 4.  points[g, f] and turn[g, v] are the indices of g u_0(f)
    and g v over the rotations g of `group_matrices`.  Cell (f, v) has a
    Gram code (|u_0| q + |v|) q + u_0.v, an independence flag and an O key,
    the lower of the cell and its O partner; the pairs (0, v) have a Gram
    code |v| q, an SO orbit (v's frame, F for the origin) and an O orbit."""

    points: np.ndarray
    turn: np.ndarray
    gram: np.ndarray
    independent: np.ndarray
    o_key: np.ndarray
    zero_gram: np.ndarray
    zero_so: np.ndarray
    zero_o: np.ndarray


@lru_cache(maxsize=8)
def _frame_tables(q: int) -> _Frames:
    """The frame tables of `_Frames`, shared by every set at q and built one
    row at a time in int32, so that no temporary is larger than q^2."""
    field = PrimeField(q)
    n = q * q
    norms = norm_values(field, 2).astype(np.int32)
    v = np.arange(n, dtype=np.int32)
    v1, v2 = v % q, v // q  # point indices are v_2 q + v_1, as in norm_values
    frames = np.concatenate([np.unique(norms, return_index=True)[1][1:],
                             np.flatnonzero((norms == 0) & (v1 == 1))])
    rotations = group_matrices(field, "SO")
    turn = np.empty((len(rotations), n), dtype=np.int32)
    for row, (a, b, c, d) in zip(turn, rotations):
        row[:] = (a * v1 + b * v2) % q + (c * v1 + d * v2) % q * q
    gram = np.empty((frames.size, n), dtype=np.int32)
    independent = np.empty(gram.shape, dtype=bool)
    o_key = np.empty(gram.shape, dtype=np.int32)
    inverse = inverse_table(field)
    for f, (p1, p2, a) in enumerate(zip(v1[frames].tolist(), v2[frames].tolist(), norms[frames].tolist())):
        dot = (p1 * v1 + p2 * v2) % q
        gram[f] = (a * q + norms) * q + dot
        independent[f] = (p1 * v2 - p2 * v1) % q != 0
        if a:
            # O merges v with its image under the reflection fixing u_0,
            # v -> (2 u_0.v / a) u_0 - v
            s = 2 * int(inverse[a]) * dot % q
            o_key[f] = f * n + np.minimum(v, (s * p1 - v1) % q + (s * p2 - v2) % q * q)
        else:
            # and (x, y) -> (x, -y) takes frame q - 1, (1, i), to frame q, (1, -i)
            o_key[f] = (q - 1) * n + (v if f == q - 1 else v1 + (-v2) % q * q)
    zero_so = np.empty(n, dtype=np.int32)
    zero_so[turn[:, frames]] = np.arange(frames.size)
    zero_so[0] = frames.size
    tables = _Frames(turn[:, frames], turn, gram, independent, o_key, norms * q, zero_so,
                     np.where(zero_so == q, q - 1, zero_so))
    for table in tables:
        table.setflags(write=False)
    return tables


def _anchor_matrix(q: int, indicator: bytes) -> np.ndarray:
    """A[x, u] = E(x + u) for x in E, float32, columns over u_2 q + u_1."""
    cube = np.frombuffer(indicator, dtype=np.uint8).reshape(q, q)  # cube[x_2, x_1]
    x2, x1 = np.nonzero(cube.view(bool))  # PointSet's entries are 0 or 1
    # row x of A is the q x q window of the doubly tiled cube at offset x
    windows = sliding_window_view(np.tile(cube.astype(np.float32), (2, 2)), (q, q))
    return windows[x2, x1].reshape(x1.size, q * q)


def _rotation_products(A: np.ndarray, points: np.ndarray) -> Iterator[np.ndarray]:
    """The rows g u_0 of the realized-pair table, one rotation g per row of
    points: realized[f, w] when some x in E has x + g u_0(f) and x + w in E.
    That is the sign of a float32 product of 0/1 terms, positive exactly
    when one term is 1, however BLAS orders or rounds it; each product is
    formed only when the caller asks for it."""
    for rows in points:
        yield A[:, rows].T @ A > 0


def _distinct(size: int, keys: np.ndarray) -> int:
    """How many distinct values in range(size) keys holds."""
    seen = np.zeros(size, dtype=bool)
    seen[keys] = True
    return int(np.count_nonzero(seen))


def _class_counts(q: int, marks: np.ndarray, differences: np.ndarray) -> Tuple[int, int, int, int]:
    """(signatures_all, signatures_nondeg, orbits_so, orbits_o) of the frame
    cells marks and the pairs (0, v) for v in differences, both boolean."""
    t = _frame_tables(q)
    # an independent pair's Gram code is never a dependent pair's (ab != g^2)
    grams = np.zeros(q**3, dtype=bool)
    grams[t.gram[marks & t.independent]] = True
    signatures_nondeg = int(np.count_nonzero(grams))
    grams[t.gram[marks & ~t.independent]] = True
    grams[t.zero_gram[differences]] = True
    orbits = marks.shape[0] + 1
    return (int(np.count_nonzero(grams)),
            signatures_nondeg,
            int(np.count_nonzero(marks)) + _distinct(orbits, t.zero_so[differences]),
            _distinct(marks.size, t.o_key[marks]) + _distinct(orbits, t.zero_o[differences]))


@lru_cache(maxsize=8)
def _triangle_counts(q: int, indicator: bytes) -> Tuple[int, int, int, int]:
    """(signatures_all, signatures_nondeg, orbits_so, orbits_o) of one planar
    set.  Cell (f, v) is marked once some rotation g realizes (g u_0, g v);
    the rotations stop once every cell is, as on the full grid."""
    if q**4 > PAIR_CAPACITY:
        raise CapacityError(f"pair table of size {q}^4 exceeds {PAIR_CAPACITY}")
    frames = _frame_tables(q)
    A = _anchor_matrix(q, indicator)
    marks = np.zeros(frames.gram.shape, dtype=bool)
    for turn, realized in zip(frames.turn, _rotation_products(A, frames.points)):
        marks |= realized[:, turn]
        if marks.all():
            break
    return _class_counts(q, marks, A.sum(axis=0) > 0)


def distinct_signature_count(E: PointSet, mode: str = "all") -> int:
    """How many distinct distance triples ordered triples of E realize.

    mode "all" ranges over every (x, y, z) in E^3; "nondegenerate" keeps only
    triples of non-collinear (hence pairwise distinct) points, the realized
    pairs with det(u, v) != 0.  Counted as distinct Gram codes, read from the
    set's cached triangle table.
    """
    if E.d != 2:
        raise ValueError("signature counting is defined on the plane (d = 2)")
    if mode not in ("all", "nondegenerate"):
        raise ValueError(f"mode must be 'all' or 'nondegenerate', got {mode!r}")
    return _triangle_counts(E.q, E.indicator.tobytes())[0 if mode == "all" else 1]


def t3_orbit_count(E: PointSet, group: str = "SO") -> int:
    """Exact number of orbits of E^3 under translations and the chosen group.

    Realized pairs are counted as frame cells, merged in pairs by the
    reflections for O, and the count is read from the set's cached triangle
    table.  Like the signature counts, this guards only the table's memory;
    the caller charges the work first
    (`bounds.charge_triangle_table`).
    """
    if E.d != 2:
        raise ValueError("orbit counting is defined on the plane (d = 2)")
    tag = _group_tag(group)
    return _triangle_counts(E.q, E.indicator.tobytes())[2 if tag == "SO" else 3]
