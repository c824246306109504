"""Planar rotations, simplex congruence, and triangle-class statistics.

SO_2(F_q) is parametrized by pairs (a, b) with a^2 + b^2 = 1 acting as the
matrix ((a, -b), (b, a)); it has exactly q - eta(-1) elements.  Adding the
reflections ((a, b), (b, -a)) gives the full orthogonal group of the form
x^2 + y^2.

`congruent` decides whether two non-degenerate simplices with equal pairwise
norms are related by an isometry x -> Tx + tau with T^t T = I, and constructs
one when they are.  For k = d the map on edge vectors is unique, so whether
det T is +1 or -1 is a property of the pair; genuinely chiral pairs exist
(mirror triangles), which is why the group argument exposes both SO and O.
For k < d the partial map is extended one basis vector at a time; each
extension step solves the linear constraints <w', u'_i> = <e_j, u_i> and the
norm constraint |w'| = |e_j|, and backtracking over the finitely many
solutions searches for a determinant +1 completion when SO is requested.

Triangle statistics read one table, the realized difference pairs (u, v) =
(y - x, z - x) over (x, y, z) in E^3.  With A[x, u] = E(x + u) for x in E,
the pair (u, v) is realized exactly when (A^T A)[u, v] > 0.  That product is
formed in float32 BLAS, streamed in slabs of at most 2^20 pairs, so the one
q^4 array held is a presence table of bytes; it is exact because its entries
and partial sums count anchors, at most |E| <= q^2 < 2^24.  An independent
pair is fixed up to O_2 by its Gram data (|u|, |v|, u.v) (Witt's theorem)
and up to SO_2 by that data plus det(u, v); as 2 is invertible, the Gram
data and the distance triple (|u|, |v|, |u - v|) determine each other, so
signatures are counted as Gram codes.  One pass marks each realized pair's
code Gram * q + det in a q^4 presence table, whose rows are the q^3 Gram
codes: the signature counts, all and nondegenerate, and the SO count of
independent pairs are counts over it.  The counts, with the realized
dependent pairs, are cached per set content, so the four statistics of one
set cost one pass.  Dependent pairs (det(u, v) = 0) are counted by a
canonical form: the minimum, over group elements g, of the base-q code of
(gu, gv).  The code orders the four residues as (u_1, u_2, v_1, v_2), most
significant first; this ordering, used for dependent pairs only, is frozen,
since orbit counts are regression-locked.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .charsums import norm_values
from .counting import PointSet, exact_matmul
from .field import FieldElement, PrimeField
from .fourier import BudgetError, CapacityError, PointD

Scalar = Union[int, FieldElement]

PAIR_CAPACITY = 10**8
_SLAB_ENTRIES = 2**20  # realized-pair table entries formed per product
DEFAULT_ORBIT_BUDGET = 10**10


class Rotation:
    """An element (a, b) of SO_2(F_q): the matrix ((a, -b), (b, a))."""

    __slots__ = ("field", "a", "b")

    def __init__(self, field: PrimeField, a: Scalar, b: Scalar) -> None:
        self.field = field
        self.a = field.element(a)
        self.b = field.element(b)
        if (self.a * self.a + self.b * self.b).value != 1:
            raise ValueError(
                f"({self.a.value}, {self.b.value}) is not on the unit circle mod {field.q}"
            )

    def matrix(self) -> Tuple[Tuple[int, int], Tuple[int, int]]:
        q = self.field.q
        a, b = self.a.value, self.b.value
        return ((a, (q - b) % q), (b, a))

    @property
    def det(self) -> int:
        return 1

    def apply(self, point: PointD) -> PointD:
        if point.d != 2 or point.field != self.field:
            raise ValueError("rotation acts on points of the same plane")
        x1, x2 = point.coords
        return PointD(self.field, (self.a * x1 - self.b * x2, self.b * x1 + self.a * x2))

    __call__ = apply

    def compose(self, other: "Rotation") -> "Rotation":
        """self after other; the group law is complex multiplication."""
        if other.field != self.field:
            raise ValueError("rotations over different fields")
        a = self.a * other.a - self.b * other.b
        b = self.a * other.b + self.b * other.a
        return Rotation(self.field, a, b)

    def inverse(self) -> "Rotation":
        return Rotation(self.field, self.a, -self.b)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Rotation):
            return NotImplemented
        return (
            other.field == self.field
            and other.a.value == self.a.value
            and other.b.value == self.b.value
        )

    def __hash__(self) -> int:
        return hash((self.field.q, self.a.value, self.b.value))

    def __repr__(self) -> str:
        return f"Rotation({self.a.value}, {self.b.value}; q={self.field.q})"


def so2_elements(field: PrimeField) -> List[Rotation]:
    """All of SO_2(F_q), in lexicographic (a, b) order; size q - eta(-1)."""
    out = []
    for a in range(field.q):
        roots = field.sqrt((1 - a * a) % field.q)
        if roots is None:
            continue
        for b in roots:
            out.append(Rotation(field, a, b))
    return out


Matrix2 = Tuple[int, int, int, int]


def rotation_matrices(field: PrimeField) -> List[Matrix2]:
    """SO_2 as row-major 2x2 matrices (m00, m01, m10, m11)."""
    q = field.q
    return [(r.a.value, (q - r.b.value) % q, r.b.value, r.a.value) for r in so2_elements(field)]


def orthogonal_matrices(field: PrimeField) -> List[Matrix2]:
    """The full orthogonal group: rotations plus reflections ((a, b), (b, -a))."""
    q = field.q
    out = rotation_matrices(field)
    for r in so2_elements(field):
        a, b = r.a.value, r.b.value
        out.append((a, b, b, (q - a) % q))
    return out


def group_matrices(field: PrimeField, group: str) -> List[Matrix2]:
    tag = group.upper()
    if tag == "SO":
        return rotation_matrices(field)
    if tag == "O":
        return orthogonal_matrices(field)
    raise ValueError(f"group must be 'SO' or 'O', got {group!r}")


# -- exact linear algebra mod q ------------------------------------------------


def _row_reduce(
    rows: Sequence[Sequence[int]], field: PrimeField, ncols: int
) -> Tuple[List[List[int]], List[int], int]:
    """Gauss-Jordan elimination mod q on the first ncols columns.

    Returns the reduced rows (the pivot rows first, each pivot scaled to 1
    and cleared from every other row), the pivot columns, and the
    determinant of the first ncols columns, which is meaningful when there
    are exactly ncols rows (0 as soon as a column has no pivot).
    """
    q = field.q
    mat = [[v % q for v in r] for r in rows]
    pivots: List[int] = []
    det = 1
    for col in range(ncols):
        rank = len(pivots)
        pivot = next((r for r in range(rank, len(mat)) if mat[r][col]), None)
        if pivot is None:
            det = 0
            continue
        if pivot != rank:
            mat[rank], mat[pivot] = mat[pivot], mat[rank]
            det = -det
        det = det * mat[rank][col] % q
        inv = field.inv(mat[rank][col])
        mat[rank] = [v * inv % q for v in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][col]:
                factor = mat[r][col]
                mat[r] = [(v - factor * p) % q for v, p in zip(mat[r], mat[rank])]
        pivots.append(col)
    return mat, pivots, det


def _rank(rows: Sequence[Sequence[int]], field: PrimeField) -> int:
    return len(_row_reduce(rows, field, len(rows[0]) if rows else 0)[1])


def _det_mod(rows: Sequence[Sequence[int]], field: PrimeField) -> int:
    return _row_reduce(rows, field, len(rows))[2]


def _matrix_inverse(rows: Sequence[Sequence[int]], field: PrimeField) -> List[List[int]]:
    n = len(rows)
    aug = [list(r) + [1 if i == j else 0 for j in range(n)] for i, r in enumerate(rows)]
    mat, pivots, _ = _row_reduce(aug, field, n)
    if len(pivots) < n:
        raise ValueError("matrix is singular")
    return [row[n:] for row in mat]


def _matmul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]], q: int) -> List[List[int]]:
    return [
        [sum(a[i][k] * b[k][j] for k in range(len(b))) % q for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def _solve_affine(
    rows: List[List[int]], rhs: List[int], field: PrimeField, n: int
) -> Optional[Tuple[List[int], List[List[int]]]]:
    """All solutions in F_q^n of rows . w = rhs as particular + span(basis)."""
    q = field.q
    aug, pivots, _ = _row_reduce([list(r) + [c] for r, c in zip(rows, rhs)], field, n)
    if any(row[n] for row in aug[len(pivots):]):
        return None
    particular = [0] * n
    for r, col in enumerate(pivots):
        particular[col] = aug[r][n]
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for fc in free:
        vec = [0] * n
        vec[fc] = 1
        for r, col in enumerate(pivots):
            vec[col] = (-aug[r][fc]) % q
        basis.append(vec)
    return particular, basis


class Simplex:
    """Vertices V_0 .. V_k in F_q^d, k <= d, with exact degeneracy detection."""

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
        self.vertices = verts
        self.k = len(verts) - 1
        if self.k > self.d:
            raise ValueError(f"{self.k + 1} vertices exceed dimension {self.d}")

    def edge_vectors(self) -> List[PointD]:
        v0 = self.vertices[0]
        return [v - v0 for v in self.vertices[1:]]

    def is_nondegenerate(self) -> bool:
        """Whether V_1 - V_0, ..., V_k - V_0 are linearly independent."""
        if self.k == 0:
            return True
        rows = [list(u.as_ints()) for u in self.edge_vectors()]
        return _rank(rows, self.field) == self.k

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


def _is_orthogonal(matrix: Sequence[Sequence[int]], field: PrimeField) -> bool:
    q = field.q
    d = len(matrix)
    transpose = [[matrix[j][i] for j in range(d)] for i in range(d)]
    prod = _matmul(transpose, matrix, q)
    return all(prod[i][j] == (1 if i == j else 0) for i in range(d) for j in range(d))


def congruent(
    P: Simplex, P2: Simplex, group: str = "SO", budget: int = 10**6
) -> Optional[CongruenceWitness]:
    """An isometry carrying P onto P2 vertexwise, or None.

    Requires both simplices non-degenerate with matching k and d.  Equal
    pairwise norms are necessary; when they hold, a form-preserving linear
    extension always exists, and for group "SO" the backtracking search
    looks for a completion with determinant +1 (for k = d there is exactly
    one map, so its determinant decides).
    """
    tag = group.upper()
    if tag not in ("SO", "O"):
        raise ValueError(f"group must be 'SO' or 'O', got {group!r}")
    if P.field != P2.field or P.d != P2.d or P.k != P2.k:
        raise ValueError("simplices are not comparable")
    if not P.is_nondegenerate() or not P2.is_nondegenerate():
        raise ValueError("congruence test requires non-degenerate simplices")
    if P.pairwise_norms() != P2.pairwise_norms():
        return None

    field, q, d = P.field, P.field.q, P.d
    us = [list(u.as_ints()) for u in P.edge_vectors()]
    vs = [list(u.as_ints()) for u in P2.edge_vectors()]

    # Complete the source side to a basis with standard basis vectors.
    extensions: List[List[int]] = []
    for j in range(d):
        if len(us) + len(extensions) == d:
            break
        e = [1 if i == j else 0 for i in range(d)]
        if _rank(us + extensions + [e], field) == len(us) + len(extensions) + 1:
            extensions.append(e)

    def inner(x: Sequence[int], y: Sequence[int]) -> int:
        return sum(a * b for a, b in zip(x, y)) % q

    want_det = None if tag == "O" else 1
    work = [0]

    def backtrack(images: List[List[int]], level: int) -> Optional[List[List[int]]]:
        if level == len(extensions):
            # Columns are u_i -> image_i; T = V . U^{-1}.
            ucols = us + extensions
            U = [[ucols[c][r] for c in range(d)] for r in range(d)]
            V = [[images[c][r] for c in range(d)] for r in range(d)]
            T = _matmul(V, _matrix_inverse(U, field), q)
            det = _det_mod(T, field)
            sign = 1 if det == 1 else -1
            if want_det is not None and sign != want_det:
                return None
            return T
        e = extensions[level]
        target_norm = inner(e, e)
        rows = [list(v) for v in images]
        rhs = [inner(e, u) for u in us + extensions[:level]]
        solved = _solve_affine(rows, rhs, field, d)
        if solved is None:
            return None
        particular, basis = solved
        free_dim = len(basis)
        count = q**free_dim
        work[0] += count
        if work[0] > budget:
            raise BudgetError(
                f"congruence extension search exceeded budget {budget}"
            )
        for idx in range(count):
            w = list(particular)
            rem = idx
            for vec in basis:
                rem, digit = divmod(rem, q)
                if digit:
                    w = [(a + digit * b) % q for a, b in zip(w, vec)]
            if inner(w, w) != target_norm:
                continue
            result = backtrack(images + [w], level + 1)
            if result is not None:
                return result
        return None

    T = backtrack(list(vs), 0)
    if T is None:
        return None
    assert _is_orthogonal(T, field), "constructed map failed orthogonality"
    det = _det_mod(T, field)
    sign = 1 if det == 1 else -1
    v0, w0 = P.vertices[0].as_ints(), P2.vertices[0].as_ints()
    tau = PointD(
        field,
        [
            (w0[i] - sum(T[i][j] * v0[j] for j in range(d))) % q
            for i in range(d)
        ],
    )
    witness = CongruenceWitness(matrix=tuple(tuple(row) for row in T), tau=tau, det=sign)
    for src, dst in zip(P.vertices, P2.vertices):
        assert witness.apply(src) == dst, "constructed map failed to transport a vertex"
    return witness


@dataclass(frozen=True)
class DistanceTriple:
    """(|x-y|, |x-z|, |y-z|) in the fixed role order."""

    a: FieldElement
    b: FieldElement
    c: FieldElement

    def as_ints(self) -> Tuple[int, int, int]:
        return (self.a.value, self.b.value, self.c.value)


def signature(x: PointD, y: PointD, z: PointD) -> DistanceTriple:
    """The congruence invariant of the ordered triple (x, y, z)."""
    return DistanceTriple((x - y).norm(), (x - z).norm(), (y - z).norm())


def _realized_slabs(q: int, indicator: bytes) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """The realized-pair table of a planar set, streamed in slabs of u_2 lines.

    Yields (u2s, realized): realized[i q + u_1, v] is true exactly when some x
    in E has x + u and x + v in E for u = (u_1, u2s[i]), i.e. (u, v) =
    (y - x, z - x) for a triple of E^3.  Each slab, at most _SLAB_ENTRIES
    pairs, is one exact float32 product (A^T A)[u, v], where A[x, u] =
    E(x + u) for x in E.
    """
    n = q * q
    cube = np.frombuffer(indicator, dtype=np.uint8).reshape(q, q)  # cube[x_2, x_1]
    x2, x1 = np.nonzero(cube)
    # row x of A is the q x q window of the doubly tiled cube at offset x
    windows = sliding_window_view(np.tile(cube.astype(np.float32), (2, 2)), (q, q))
    A = windows[x2, x1].reshape(x1.size, n)
    lines = max(1, _SLAB_ENTRIES // (q * n))
    for first in range(0, q, lines):
        u2s = np.arange(first, min(q, first + lines))
        # each entry counts anchors, so every partial sum is at most |E|
        product = exact_matmul(A[:, first * q:(first + lines) * q].T, A, bound=x1.size,
                               dtype=np.float32)
        yield u2s, product > 0


class _TriangleTable:
    """The triangle statistics of one planar set, from one pass over its realized pairs.

    Holds three label counts and the realized dependent pairs (at most about
    q^3 of them); the canonical-form class count of the dependent pairs is
    computed once per group, on first request.
    """

    __slots__ = ("q", "signatures_all", "signatures_nondeg", "independent_so",
                 "dependent", "_dependent_orbits")

    def __init__(self, q: int, indicator: bytes) -> None:
        if q**4 > PAIR_CAPACITY:
            raise CapacityError(f"pair table of size {q}^4 exceeds {PAIR_CAPACITY}")
        r = np.arange(q, dtype=np.int64)
        mul = (r[:, None] * r[None, :]) % q
        mul, neg = mul.astype(np.uint8), ((-mul) % q).astype(np.uint8)
        norms = norm_values(PrimeField(q), 2)
        # the SO code ((|u| q + |v|) q + u.v) q + det(u, v), as a row and a
        # column part plus the u.v and det digits
        row_code, col_code = norms * q**3, norms * q**2
        seen = np.zeros(q**4, dtype=bool)
        dependent = []
        for u2s, realized in _realized_slabs(q, indicator):
            # u.v = u1 v1 + u2 v2 and det = u1 v2 - u2 v1 over (u2, u1, v2, v1),
            # as uint8 sums below 2q <= 200 (q <= 100 under PAIR_CAPACITY),
            # reduced as min(s, s - q): s - q wraps above s when s < q
            dot = mul[u2s][:, None, :, None] + mul[None, :, None, :]
            dot = np.minimum(dot, dot - np.uint8(q)).reshape(realized.shape)
            det = mul[None, :, :, None] + neg[u2s][:, None, None, :]
            det = np.minimum(det, det - np.uint8(q)).reshape(realized.shape)
            u = (u2s[:, None] * q + np.arange(q)).reshape(-1)
            code = row_code[u, None] + col_code[None, :] + (dot.astype(np.int64) * q + det)
            seen[code[realized]] = True
            iu, iv = np.nonzero(realized & (det == 0))
            dependent.append((u[iu], iv))
        # column 0 of a Gram code's row holds its dependent pairs, the other
        # columns its independent pairs by det
        by_gram = seen.reshape(q**3, q)
        nondeg = by_gram[:, 1:].any(axis=1)
        self.q = q
        self.signatures_all = int(np.count_nonzero(nondeg | by_gram[:, 0]))
        self.signatures_nondeg = int(np.count_nonzero(nondeg))
        self.independent_so = int(np.count_nonzero(by_gram[:, 1:]))
        self.dependent = tuple(np.concatenate(part).astype(np.int32) for part in zip(*dependent))
        for part in self.dependent:
            part.setflags(write=False)
        self._dependent_orbits: Dict[str, int] = {}

    def dependent_orbits(self, tag: str, mats: Sequence[Matrix2]) -> int:
        """Classes of the dependent pairs under the group tag with elements mats."""
        if tag not in self._dependent_orbits:
            q = self.q
            iu, iv = self.dependent
            c0 = np.arange(q * q, dtype=np.int64) % q
            c1 = np.arange(q * q, dtype=np.int64) // q
            best = np.full(iu.size, q**4, dtype=np.int64)
            for m00, m01, m10, m11 in mats:
                img = ((m00 * c0 + m01 * c1) % q) + ((m10 * c0 + m11 * c1) % q) * q
                # code orders (u1, u2, v1, v2) most significant first
                gu, gv = img[iu], img[iv]
                codes = ((gu % q) * q + gu // q) * (q * q) + ((gv % q) * q + gv // q)
                best = np.minimum(best, codes)
            self._dependent_orbits[tag] = int(np.unique(best).size)
        return self._dependent_orbits[tag]


@lru_cache(maxsize=8)
def _triangle_table(q: int, indicator: bytes) -> _TriangleTable:
    return _TriangleTable(q, indicator)


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
    table = _triangle_table(E.q, E.indicator.tobytes())
    return table.signatures_all if mode == "all" else table.signatures_nondeg


def t3_orbit_count(
    E: PointSet, group: str = "SO", budget: int = DEFAULT_ORBIT_BUDGET
) -> int:
    """Exact number of orbits of E^3 under translations and the chosen group.

    Independent realized pairs are counted by label (the Gram code for O,
    with det(u, v) for SO), dependent ones by the canonical form; no group
    element mixes the two.  Both counts are read from the set's cached
    triangle table.  The work budget is charged with the |E|^3 * |group| cost
    model of the canonical-form definition, unchanged on purpose: charging
    the table's |E| q^4 product instead would change which sweep rows read
    `budget`, so it is a change of its own.
    """
    if E.d != 2:
        raise ValueError("orbit counting is defined on the plane (d = 2)")
    mats = group_matrices(E.field, group)
    if E.cardinality**3 * len(mats) > budget:
        raise BudgetError(
            f"orbit count needs {E.cardinality}^3 * {len(mats)} steps, budget {budget}"
        )
    tag = group.upper()
    table = _triangle_table(E.q, E.indicator.tobytes())
    independent = table.independent_so if tag == "SO" else table.signatures_nondeg
    return independent + table.dependent_orbits(tag, mats)
