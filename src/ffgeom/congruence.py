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

Triangle statistics read one table, the realized difference pairs (u, v) =
(y - x, z - x) over (x, y, z) in E^3.  With A[x, u] = E(x + u) for x in E,
the pair (u, v) is realized exactly when (A^T A)[u, v] > 0.  That product is
formed in float32 BLAS, streamed in slabs of at most four u_2 lines and 2^20
pairs, and only its sign is read: each term is 0 or 1, so an entry is
positive exactly when some anchor realizes the pair, in whatever order or
precision BLAS adds.  An
independent pair is fixed up to O_2 by its Gram data (|u|, |v|,
u.v) (Witt's theorem) and up to SO_2 by that data plus det(u, v); as 2 is
invertible, the Gram data and the distance triple (|u|, |v|, |u - v|)
determine each other, so signatures are counted as Gram codes.  By the
Lagrange identity det^2 = |u||v| - (u.v)^2 the Gram data fixes det up to
sign, so each Gram code needs three cells: 0 for a dependent pair, 1 for
det in 1 .. (q - 1)/2 and 2 for det above.  The code Gram * 3 + cell of
each pair is marked in a uint8 table of about 3 q^3 entries by one
np.maximum.at per slab, over views of the slab's codes and of its sign
table: a max over 0/1 marks is their OR in any order, so the realized
pairs are never compacted or copied.  The counts are read from the three
cell columns and the isotropic rows with | and count_nonzero.  The slabs
stop once the table holds bounds.class_totals(q)[2] marks, the full grid's
count of codes: no slab after that can add a mark.  The default sweep's
cells read one or two slabs, a random set of density 1/20 at q = 97 reads
16 to 18 of 97, and a set short of saturation reads every slab.

A dependent pair (det(u, v) = 0) is (0, 0), (0, w) or (w, lambda w) with
w != 0.  SO_2 acts simply transitively on each circle S_t with t != 0, so
off the null cone the orbit of such a pair is named by |w| and lambda,
which its Gram code carries.  The exceptions all have Gram code 0: an
isotropic w != 0 (only for q = 1 mod 4) lies on one of the lines
t (1, +-i), i^2 = -1, which SO_2 scales by all of F_q^* and the reflections
swap.  These pairs get codes past the 3 q^3 cells that keep the line and
lambda (q for (0, w)): SO counts them per line, O per lambda.  The four
counts are cached per set content, so the four statistics of one set cost
one pass.  The codes themselves do not depend on the set: they are built
once per (q, slab) and shared by every set.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, List, Optional, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .bounds import class_totals
from .charsums import norm_values
from .counting import PointSet
from .field import PrimeField
from .fourier import CapacityError, PointD

# q^4 at most: bounds A's |E| q^2 float32 entries (|E| <= q^2) and keeps
# q <= 100, so the slab codes' uint8 sums stay below 2q <= 200
PAIR_CAPACITY = 10**8
_SLAB_ENTRIES = 2**20  # realized-pair table entries formed per product
# u_2 lines per slab at most: the sweep's and criterion 13's sets (q <= 31)
# saturate within one or two slabs, whose codes then stay in _slab_codes' cache
_SLAB_LINES = 4

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


def _realized_slabs(q: int, indicator: bytes) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """The realized-pair table of a planar set, streamed in slabs of u_2 lines.

    Yields (u2s, realized): realized[i q + u_1, v] is true exactly when some x
    in E has x + u and x + v in E for u = (u_1, u2s[i]), i.e. (u, v) =
    (y - x, z - x) for a triple of E^3.  Each slab, at most _SLAB_LINES lines
    and _SLAB_ENTRIES pairs, is the sign of one float32 product
    (A^T A)[u, v], where A[x, u] = E(x + u) for x in E: a sum of 0/1 terms,
    positive exactly when one of them is 1, however BLAS orders or rounds
    it.  A slab's product is formed only when the caller asks for it.
    """
    n = q * q
    cube = np.frombuffer(indicator, dtype=np.uint8).reshape(q, q)  # cube[x_2, x_1]
    x2, x1 = np.nonzero(cube.view(bool))  # PointSet's entries are 0 or 1
    # row x of A is the q x q window of the doubly tiled cube at offset x
    windows = sliding_window_view(np.tile(cube.astype(np.float32), (2, 2)), (q, q))
    A = windows[x2, x1].reshape(x1.size, n)
    lines = max(1, min(_SLAB_LINES, _SLAB_ENTRIES // (q * n)))
    for first in range(0, q, lines):
        u2s = np.arange(first, min(q, first + lines))
        yield u2s, A[:, first * q:(first + lines) * q].T @ A > 0


@lru_cache(maxsize=4)
def _slab_codes(q: int, first: int, stop: int) -> np.ndarray:
    """The class code of every pair (u, v) with u on the u_2 lines first ..
    stop - 1, rows over u as in `_realized_slabs` and columns over v.

    Read-only int32, below 3 q^3 + 2 (q + 1): Gram * 3 + cell as in the
    module notes, and 3 q^3 + line (q + 1) + lambda for (w, lambda w) with w
    on an isotropic line, lambda = q for (0, w).
    """
    r = np.arange(q, dtype=np.int64)
    prod = (r[:, None] * r[None, :]) % q
    mul, neg = prod.astype(np.uint8), ((-prod) % q).astype(np.uint8)
    norms = norm_values(PrimeField(q), 2).astype(np.int32)
    u2s = np.arange(first, stop)
    rows = u2s.size * q
    # u.v = u1 v1 + u2 v2 and det = u1 v2 - u2 v1 over (u2, u1, v2, v1),
    # as uint8 sums below 2q <= 200 (q <= 100 under PAIR_CAPACITY),
    # reduced as min(s, s - q): s - q wraps above s when s < q
    dot = mul[u2s][:, None, :, None] + mul[None, :, None, :]
    dot = np.minimum(dot, dot - np.uint8(q)).reshape(rows, q * q)
    det = mul[None, :, :, None] + neg[u2s][:, None, None, :]
    det = np.minimum(det, det - np.uint8(q)).reshape(rows, q * q)
    # the Gram code (|u| q + |v|) q + u.v, then its cell; every digit is
    # added in place in int32, as 3 q^3 + 2 (q + 1) < 2^31
    codes = np.add.outer(norms[first * q:stop * q] * q * q, norms * q)
    codes += dot
    codes *= 3
    codes += det > 0
    codes += det > (q - 1) // 2
    # the pairs of Gram code 0 other than (0, 0) have w = t (1, i) on an
    # isotropic line, t != 0; w lies on u_2 = t i, so t = -i u_2
    u2 = u2s[u2s > 0]
    for line, i in enumerate(np.flatnonzero(prod.diagonal() == q - 1)):
        base = 3 * q**3 + line * (q + 1)
        t = prod[q - i, u2]
        lam_t = prod[:, t]  # lambda w = (lambda t, lambda t i) over (lambda, w)
        codes[(u2 - first) * q + t, prod[i, lam_t] * q + lam_t] = base + r[:, None]
        if first == 0:
            codes[0, prod[i, 1:] * q + r[1:]] = base + q
    codes.flags.writeable = False
    return codes


@lru_cache(maxsize=8)
def _triangle_counts(q: int, indicator: bytes) -> Tuple[int, int, int, int]:
    """(signatures_all, signatures_nondeg, orbits_so, orbits_o) of one planar
    set, from one pass over its realized pairs.

    With cells[g] the three cells of Gram code g and iso[line] the codes of
    that isotropic line, marked for the set's realized pairs: signatures are
    the Gram codes with a mark (all) or a mark off cell 0 (nondegenerate);
    SO orbits are the marked cells and iso codes; O orbits merge the cells 1
    and 2 of a Gram code and the two lines.

    The slabs stop once the set is saturated.  The full grid realizes every
    pair, so it marks every code any set can mark, and it marks
    bounds.class_totals(q)[2] of them; once `seen` holds that many marks, no
    later slab can add one.  The counts are read from `seen` either way.
    """
    if q**4 > PAIR_CAPACITY:
        raise CapacityError(f"pair table of size {q}^4 exceeds {PAIR_CAPACITY}")
    seen = np.zeros(3 * q**3 + 2 * (q + 1), dtype=np.uint8)
    so_total = class_totals(q)[2]
    for u2s, realized in _realized_slabs(q, indicator):
        codes = _slab_codes(q, int(u2s[0]), int(u2s[-1]) + 1)
        # a max over 0/1 marks is their OR, in any order; both operands are views
        np.maximum.at(seen, codes.ravel(), realized.ravel().view(np.uint8))
        if np.count_nonzero(seen) == so_total:
            break
    dependent, cell1, cell2 = seen[:3 * q**3].reshape(q**3, 3).T
    line1, line2 = seen[3 * q**3:].reshape(2, q + 1)
    # (0, 0) is realized whenever any pair is, and keeps Gram code 0
    nondeg = cell1 | cell2
    signatures_nondeg = int(np.count_nonzero(nondeg))
    return (int(np.count_nonzero(nondeg | dependent)),
            signatures_nondeg,
            sum(int(np.count_nonzero(marks)) for marks in (dependent, cell1, cell2, line1, line2)),
            signatures_nondeg + int(np.count_nonzero(dependent))
            + int(np.count_nonzero(line1 | line2)))


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

    Realized pairs are counted by class code: the Gram code, with the sign
    class of det(u, v) for SO, and the line and lambda of pairs on the
    isotropic lines (merged for O).  The count is read from the set's cached
    triangle table.  Like the signature counts, this guards only the table's
    memory; the caller charges the work first
    (`bounds.charge_triangle_table`).
    """
    if E.d != 2:
        raise ValueError("orbit counting is defined on the plane (d = 2)")
    tag = _group_tag(group)
    return _triangle_counts(E.q, E.indicator.tobytes())[2 if tag == "SO" else 3]
