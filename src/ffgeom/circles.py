"""Exact circle-circle intersection and a dense midpoint-avoiding set.

Intersecting the circle of squared-radius b about a center x with the circle
of squared-radius c about a witness w (where a = |x - w| != 0) reduces, after
translating x to the origin, to the linear equation u . w' = k with
k = (a + b - c)/2 plus the norm equation |u| = b.  Eliminating one variable
leaves a quadratic whose discriminant is a scalar multiple of

    D = 4ab - (a + b - c)^2,

so the solution count is 2, 1, or 0 according to whether D is a nonzero
square, zero, or a non-residue; this holds on the w_1 = 0 branch as well
because there the quadratic's discriminant is D divided by the square (2w_2)^2.

intersect_circles solves one system with scalar arithmetic and is the
readable reference.  radius_counts counts instead: for a witness w on S_a
every grid point y solves exactly one system, (b, c) = (|y|, |y - w|), so
one bincount of the codes b q + c over the q^2 points gives the witness's
whole q x q table of solution counts.  |y - w| is read from a q x q window
of the norms of the differences d in (-q, q)^2, built from d^2 mod q as in
the midpoint scan, so no point is reduced mod q.  Each witness's table is
checked against eta(D) + 1; the check counts every solution of every
system, and a point is binned by its own two norms, so none can be missed
or lie off its circles.  The scan takes blocks of witnesses of about
counting._BLOCK_VALUES values and stores nothing per witness: every
witness's table equals eta(D) + 1, so a radius keeps that read-only q x q
int8 table, which radius_counts returns, and a tuple of the nonzero c of
each b.  The last radius is cached, so callers that walk radius by radius
build each radius once, and so are the tables every radius of the last q
reads.  The (q + 1) q^2 systems of a radius, a work limit, are held to
GRID_CAPACITY (q <= 211).  representable_c_values returns the tuple of one
b as a fresh list, without a numpy call.  The tests hold the tables equal
to the scalar solver and to eta(D) + 1 in Python ints.

The midpoint-avoiding set is a union of circles with radii in A, the positive
multiples of 8 up to q/32, built from its circles: each circle's points are
read off the square-root table, O(q) per circle, rather than found by a scan
of the q^2 grid, and their number is checked against |A| (q - eta(-1)).
For x, y in it whose difference norm lies outside the sumset 2A + 2A - 4A,
the midpoint (x+y)/2 cannot land back in the set: the parallelogram identity
forces |x - y| = 2|x| + 2|y| - 4|(x+y)/2| into the sumset otherwise.
midpoint_exclusion_check tests this on pairs of points by gathers from
tables of length 2q - 1, indexed by coordinate differences and sums
(squares d^2 mod q, halves s/2 mod q), so no pair is reduced mod q.  Every
g in O_2(F_q) is linear and keeps the norm, so when O_2 maps E onto itself
every pair has the same answers as its image pairs.  By Witt's theorem the
orbits of O_2 are the origin and the nonzero points of each norm t, the
isotropic ones for t = 0, so O_2 keeps E exactly when each of these norm
classes that E meets lies in E whole; one bincount of the norms decides
it.  The exhaustive check then scans one row per norm class against all
of E, weighed by the class's size, and otherwise every row.  Each circle of
the built set is one class: 1 row for its 256 points at q = 257, 3 for its
3024 at q = 1009, 8 for its 16416 at q = 2053.
The sampled check reads its index pairs in bulk from the Random(seed)
stream that randrange would draw them from one by one.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Iterator, List, NamedTuple, Optional, Tuple, Union

import numpy as np

from . import bounds, counting
from .charsums import legendre_table, sqrt_table
from .counting import PointSet
from .field import FieldElement, PrimeField
from .fourier import GRID_CAPACITY, CapacityError, PointD, _check_grid_size

Scalar = Union[int, FieldElement]


class CircleSystem:
    """Two circles: squared-radius b about center, c about witness."""

    __slots__ = ("center", "witness", "b", "c", "a")

    def __init__(self, center: PointD, witness: PointD, b: Scalar, c: Scalar) -> None:
        if center.field != witness.field or center.d != witness.d:
            raise ValueError("center and witness live in different spaces")
        if center.d != 2:
            raise ValueError("circle systems are planar (d = 2)")
        field = center.field
        self.center = center
        self.witness = witness
        self.b = field.element(b)
        self.c = field.element(c)
        self.a = (center - witness).norm()
        if self.a.value == 0:
            raise ValueError("witness must be at nonzero squared distance from center")

    @property
    def field(self) -> PrimeField:
        return self.center.field

    def __repr__(self) -> str:
        return (
            f"CircleSystem(center={self.center.as_ints()}, witness={self.witness.as_ints()}, "
            f"a={self.a.value}, b={self.b.value}, c={self.c.value})"
        )


def discriminant(sys: CircleSystem) -> FieldElement:
    """4ab - (a + b - c)^2, the quantity whose square class decides solvability."""
    a, b, c = sys.a, sys.b, sys.c
    return 4 * a * b - (a + b - c) ** 2


def intersect_circles(sys: CircleSystem) -> List[PointD]:
    """All points y with |y - center| = b and |y - witness| = c, exactly.

    Zero, one, or two points, in lexicographic coordinate order; every
    returned point is re-verified against both defining equations.
    """
    field = sys.field
    q = field.q
    w = sys.witness - sys.center
    w1, w2 = w.coords[0].value, w.coords[1].value
    a, b, c = sys.a.value, sys.b.value, sys.c.value
    inv2 = field.inv(2)
    k = (a + b - c) * inv2 % q
    # rho2 is the quadratic's reduced discriminant: 4*rho2 = 4ab - (a+b-c)^2
    rho2 = (a * b - k * k) % q
    solutions: List[Tuple[int, int]] = []
    if w1 != 0:
        # leading coefficient ((w2/w1)^2 + 1) = a / w1^2, nonzero since a != 0
        assert (w2 * w2 + w1 * w1) % q == a % q and a % q != 0
        inv_a = field.inv(a)
        roots = field.sqrt(rho2)
        if roots is not None:
            inv_w1 = field.inv(w1)
            for r in roots:
                t = (k * w2 + w1 * r) * inv_a % q
                s = (k - t * w2) * inv_w1 % q
                if (s, t) not in solutions:
                    solutions.append((s, t))
    else:
        t = k * field.inv(w2) % q
        s2 = (b - t * t) % q
        roots = field.sqrt(s2)
        if roots is not None:
            for s in roots:
                if (s, t) not in solutions:
                    solutions.append((s, t))
    disc = discriminant(sys).value
    expected = 2 if (disc != 0 and field.legendre(disc) == 1) else (1 if disc == 0 else 0)
    assert len(solutions) == expected, (sys, solutions, disc)
    points = []
    for s, t in solutions:
        y = PointD(field, (s, t)) + sys.center
        assert (y - sys.center).norm().value == b % q
        assert (y - sys.witness).norm().value == c % q
        points.append(y)
    points.sort(key=lambda p: p.as_ints())
    return points


def radius_counts(field: PrimeField, a: Scalar) -> np.ndarray:
    """count[b, c], the number of points y with |y| = b and |y - w| = c for
    every witness w on S_a, a != 0, as a read-only q x q int8 table.

    Every witness's table is counted over the whole grid and checked
    against the square class of 4ab - (a + b - c)^2; a failed check raises
    AssertionError naming q, a, b, w and the failing c.  So the table is
    eta(4ab - (a + b - c)^2) + 1, cached for the last radius.  Raises
    CapacityError for (q + 1) q^2 > GRID_CAPACITY, a work limit, before any
    array exists.
    """
    return _radius(field, field.residue(a)).table


class _Radius(NamedTuple):
    """One counted radius: radius_counts' table and rows[b], the nonzero c of b."""

    table: np.ndarray
    rows: Tuple[Tuple[int, ...], ...]


def _difference_norms(q: int) -> np.ndarray:
    """|d| = d_1^2 + d_2^2 mod q at [d_1 + q - 1, d_2 + q - 1], d in (-q, q)^2."""
    d = np.arange(1 - q, q)
    squares = d * d % q
    return ((squares[:, None] + squares) % q).astype(np.min_scalar_type(q - 1))


@lru_cache(maxsize=1)
def _scan_tables(q: int, step: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only tables shared by every radius at q, for blocks of up to
    step witnesses: windows[(q - 1) - w] is the q x q table of |y - w| over
    y, norm that of |y|, and base[i] + |y - w| < step q^2 the code of the
    point y of a block's i-th witness w.  Cached for the last (q, step)."""
    windows = np.lib.stride_tricks.sliding_window_view(_difference_norms(q), (q, q))
    norm = windows[q - 1, q - 1]
    base = q * (q * np.arange(step)[:, None, None] + norm)
    base.setflags(write=False)
    return windows, norm, base


@lru_cache(maxsize=1)
def _radius(field: PrimeField, a: int) -> _Radius:
    """Count and check the circle systems of every witness on S_a; see radius_counts."""
    q = field.q
    if (q + 1) * q * q > GRID_CAPACITY:
        raise CapacityError(f"circle systems of one radius at q={q} need (q + 1) q^2 = "
                            f"{(q + 1) * q * q} values, over capacity {GRID_CAPACITY}")
    if a == 0:
        raise ValueError("radius must be nonzero")
    # a block never holds more than the |S_a| <= q + 1 witnesses
    step = min(q + 1, max(1, counting._BLOCK_VALUES // (q * q)))
    windows, norm, base = _scan_tables(q, step)
    witnesses = np.argwhere(norm == a)
    # axis -2 is b, axis -1 is c; eta(D) + 1 maps non-residue, zero, square
    # to 0, 1, 2 points
    b = np.arange(q)[:, None]
    c = np.arange(q)
    expected = legendre_table(field)[(4 * a * b - (a + b - c) ** 2) % q] + 1
    expected.setflags(write=False)
    for lo in range(0, len(witnesses), step):
        block = witnesses[lo:lo + step]
        start = (q - 1) - block
        codes = base[:len(block)] + windows[start[:, 0], start[:, 1]]
        count = np.bincount(codes.ravel(), minlength=codes.size).reshape(codes.shape)
        _raise_first(count != expected, "solution count off the class of D", q, a, block)
    # every row (w, b) was checked equal to expected[b], so one table serves
    # every witness, and one tuple of the nonzero c of each b every read
    nonzero = np.flatnonzero(expected)
    offsets = np.searchsorted(nonzero, q * np.arange(q + 1)).tolist()
    values = (nonzero % q).tolist()
    rows = tuple(tuple(values[lo:hi]) for lo, hi in zip(offsets, offsets[1:]))
    return _Radius(expected, rows)


def _raise_first(bad: np.ndarray, what: str, q: int, a: int, witnesses: np.ndarray) -> None:
    """AssertionError for the first (w, b) with a failed c in bad[w, b, c], if any."""
    if bad.any():
        i, b = np.argwhere(bad.any(axis=2))[0]
        raise AssertionError(f"{what} at q={q}, a={a}, b={b}, w={tuple(witnesses[i].tolist())}, "
                             f"c in {np.flatnonzero(bad[i, b]).tolist()}")


def representable_c_values(
    field: PrimeField, a: Scalar, b: Scalar, w: PointD
) -> List[int]:
    """All c whose circle about w meets the circle of squared-radius b at 0.

    w must lie on the sphere of squared-radius a about the origin, a != 0.
    The subset with c != 0 has at least (q - 3) / 2 members for b != 0.

    The values are the nonzero entries of row b of radius_counts(field, a),
    which counts every witness on S_a over the whole grid, checks each
    count against eta(D) + 1, and keeps the last radius cached; a run of
    calls with one a builds it once.
    The radius keeps the nonzero c of each b as a tuple of ints, and the
    call returns a fresh list of it without a numpy call.  |w| = a is
    checked from w's coordinates in ints.  Raises CapacityError for
    (q + 1) q^2 > GRID_CAPACITY (q > 211), before w is checked against a.
    """
    av = field.residue(a)
    coords = w.coords
    if (w.field is not field and w.field != field) or len(coords) != 2:
        raise ValueError("witness must be a point of the plane over this field")
    if av == 0:
        raise ValueError("witness must satisfy |w| = a != 0")
    rows = _radius(field, av).rows
    x, y = coords[0].value, coords[1].value
    if (x * x + y * y) % field.q != av:
        raise ValueError("witness must satisfy |w| = a != 0")
    return list(rows[field.residue(b)])


def sum_two_squares_count(field: PrimeField, u: Scalar) -> int:
    """|{(k, t) : k^2 + t^2 = u}| by enumeration over residue classes."""
    q = field.q
    uv = field.residue(u)
    r = np.arange(q, dtype=np.int64)
    per_class = np.bincount((r * r) % q, minlength=q)
    return int(np.dot(per_class, per_class[(uv - r) % q]))


def parallelogram_check(x: PointD, y: PointD) -> Tuple[FieldElement, FieldElement]:
    """Both sides of 2|((x+y)/2)| + 2|((x-y)/2)| = |x| + |y|; always equal."""
    field = x.field
    inv2 = field.element(field.inv(2))
    lhs = 2 * (inv2 * (x + y)).norm() + 2 * (inv2 * (x - y)).norm()
    rhs = x.norm() + y.norm()
    return lhs, rhs


class CounterexampleSet:
    """A union of circles whose radius set has a small sumset 2A + 2A - 4A."""

    __slots__ = ("field", "A", "E", "sumset")

    def __init__(self, field: PrimeField, A: Tuple[int, ...], E: PointSet, sumset: np.ndarray) -> None:
        self.field = field
        self.A = A
        self.E = E
        self.sumset = sumset

    @property
    def q(self) -> int:
        return self.field.q

    @property
    def sumset_size(self) -> int:
        return int(np.count_nonzero(self.sumset))

    @property
    def sumset_is_full(self) -> bool:
        return self.sumset_size == self.q

    @property
    def density(self) -> Fraction:
        return self.E.density

    def __repr__(self) -> str:
        return (
            f"CounterexampleSet(q={self.q}, |A|={len(self.A)}, |E|={self.E.cardinality}, "
            f"sumset={self.sumset_size}/{self.q})"
        )


def build_counterexample(field: PrimeField) -> CounterexampleSet:
    """The union of circles with radii the positive multiples of 8 up to q/32.

    Needs q >= 257 so the radius set is nonempty.  The sumset 2A + 2A - 4A is
    computed by direct enumeration; all its members are multiples of 8 even
    as signed representatives (|2a1 + 2a2 - 4a3| <= q/8 precludes wraparound),
    so it can never cover F_q.  E is built from its circles: for each radius a
    and every x_0, the points (x_0, +-sqrt(a - x_0^2)) read off sqrt_table,
    O(q) per circle, are set in a zeroed uint8 indicator of the q^2 grid.
    Every point must lie on its circle, and |E| must equal |A| (q - eta(-1)),
    the size of |A| disjoint circles of nonzero radius; so E is exactly their
    union, and a root table that is wrong anywhere the build reads it raises
    AssertionError.
    """
    q = field.q
    if q < 257:
        raise ValueError(f"counterexample construction needs q >= 257, got {q}")
    _check_grid_size(q, 2)
    A = tuple(range(8, q // 32 + 1, 8))
    x0 = np.arange(q, dtype=np.int64)
    radii = np.array(A, dtype=np.int64)[:, None]
    roots = sqrt_table(field)[(radii - x0 * x0) % q]  # -1 where a - x_0^2 is no square
    circle, x = np.nonzero(roots >= 0)
    y = roots[circle, x]
    off = np.count_nonzero((x * x + y * y) % q != radii[circle, 0])
    indicator = np.zeros(q * q, dtype=np.uint8)
    indicator[y * q + x] = 1
    indicator[(q - y) % q * q + x] = 1
    E = PointSet(field, 2, indicator)
    expected = len(A) * (q - field.legendre(q - 1))
    if off or E.cardinality != expected:
        raise AssertionError(f"circles of radii {A} at q={q}: {E.cardinality} points "
                             f"(expected {expected}), {off} root(s) off their circle")
    sumset = np.zeros(q, dtype=bool)
    for a1 in A:
        for a2 in A:
            for a3 in A:
                sumset[(2 * a1 + 2 * a2 - 4 * a3) % q] = True
    return CounterexampleSet(field, A, E, sumset)


_PAIR_BLOCK = 2**15  # sampled pairs per block of the midpoint check, so memory stays flat
_SCAN_BLOCK = 2**16  # pairs per block of the exhaustive midpoint scan


@dataclass(frozen=True)
class MidpointReport:
    """Result of checking midpoint exclusion over sampled or exhaustive pairs."""

    pairs_checked: int
    applicable: int
    violations: int
    exhaustive: bool


def _randrange_draws(seed: int, n: int, sizes: Iterable[int]) -> Iterator[np.ndarray]:
    """Successive Random(seed).randrange(n) values, one uint32 array per size.

    randrange(n) keeps the top k = n.bit_length() bits of one 32-bit output
    of the generator and draws again while they are >= n, and
    getrandbits(32 m) holds the next m outputs, the first in the lowest word;
    so shifting and filtering those words replays the draws one for one.
    Words are drawn _PAIR_BLOCK at a time, and the kept values of the last
    chunk that an array does not use are carried to the next.  The first 64
    values are checked against randrange itself; a mismatch raises
    AssertionError.
    """
    k = n.bit_length()
    assert 1 <= k <= 32, n
    rng = random.Random(seed)
    chunk = _PAIR_BLOCK
    carry = np.empty(0, dtype=np.uint32)
    guard: Optional[random.Random] = random.Random(seed)
    for size in sizes:
        draws = np.empty(size, dtype=np.uint32)
        filled = min(size, carry.size)
        draws[:filled], carry = carry[:filled], carry[filled:]
        while filled < size:
            raw = rng.getrandbits(32 * chunk).to_bytes(4 * chunk, "little")
            words = np.frombuffer(raw, dtype="<u4") >> (32 - k)
            kept = words[words < n]
            take = min(kept.size, size - filled)
            draws[filled:filled + take], carry = kept[:take], kept[take:]
            filled += take
        if guard is not None:
            head = draws[:64].tolist()
            if head != [guard.randrange(n) for _ in head]:
                raise AssertionError(f"bulk draws differ from Random({seed}).randrange({n})")
            guard = None
        yield draws


def midpoint_exclusion_check(
    cs: CounterexampleSet,
    samples: int = 10**4,
    seed: int = 0,
    exhaustive: bool = False,
) -> MidpointReport:
    """Verify that no pair x, y in E with |x - y| outside the sumset has its
    midpoint in E.  Applicable pairs are those whose difference norm avoids
    the sumset; violations counts applicable pairs whose midpoint lies in E.

    Sampled pairs are index pairs (i, j) drawn in turn as randrange(n) from
    a Random(seed), in blocks of _PAIR_BLOCK pairs whose draws are read in
    bulk from the same stream (_randrange_draws).  The exhaustive check
    covers every ordered pair but, when O_2(F_q) maps E onto itself,
    evaluates one row per orbit (_orbits): each g in O_2 is linear and
    keeps the norm, so |gx - gy| = |x - y| and g((x + y)/2) = (gx + gy)/2
    lies in E exactly when (x + y)/2 does, and the row of x = g r against
    all of E counts as the row of r.  The orbits are E's norm classes (the
    origin, and the nonzero points of each norm), so a union of circles
    |x| = t scans one row per circle.  Any other set scans every row.  The
    rows are scanned against all of E, _SCAN_BLOCK // n rows per block,
    and each row's counts are weighed by its orbit size.
    pairs_checked is n^2 or samples, the count the caller charges
    (`bounds.charge_midpoint_pairs`/`_samples`).  The sampled check needs
    samples >= 1; the exhaustive one ignores samples.
    """
    if not exhaustive and samples < 1:
        raise ValueError(f"sample count must be positive, got {samples}")
    E = cs.E
    q = cs.field.q
    idx = E.indices()
    xs, ys = idx % q, idx // q
    n = idx.size
    # coordinate differences shifted by q - 1, coordinate sums and sums of two
    # squares mod q all lie in [0, 2q - 2], so gathers from these tables
    # replace every per-pair reduction mod q
    d = np.arange(1 - q, q, dtype=np.int64)
    sq = d * d % q
    outside = np.tile(~cs.sumset, 2)
    half = np.arange(2 * q - 1, dtype=np.int64) * cs.field.inv(2) % q
    member = E.indicator.view(bool)

    def scan(x, y, x2, y2) -> Tuple[np.ndarray, np.ndarray]:
        """The applicable and violating masks of the pairs (x, y), (x2, y2), broadcast."""
        out = outside[sq[x + (q - 1) - x2] + sq[y + (q - 1) - y2]]
        mid = half[x + x2] + q * half[y + y2]
        return out, out & member[mid]

    applicable = violations = 0
    if exhaustive:
        pairs_checked = n * n
        reps, weights = _orbits(q, idx)
        rows = max(1, _SCAN_BLOCK // n)
        for lo in range(0, reps.size, rows):
            r, w = reps[lo:lo + rows], weights[lo:lo + rows]
            out, bad = scan(xs[r, None], ys[r, None], xs, ys)
            applicable += np.count_nonzero(out, axis=1) @ w
            violations += np.count_nonzero(bad, axis=1) @ w
    else:
        pairs_checked = samples
        sizes = (2 * min(_PAIR_BLOCK, samples - k) for k in range(0, samples, _PAIR_BLOCK))
        for draws in _randrange_draws(seed, n, sizes):
            i, j = draws[0::2], draws[1::2]
            out, bad = scan(xs[i], ys[i], xs[j], ys[j])
            applicable += np.count_nonzero(out)
            violations += np.count_nonzero(bad)
    return MidpointReport(pairs_checked=pairs_checked, applicable=int(applicable),
                          violations=int(violations), exhaustive=exhaustive)


def _orbits(q: int, idx: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The orbits of O_2(F_q) on the points idx (grid indices x + q y,
    increasing) of a set E that O_2 maps onto itself: the position in idx
    of each orbit's first point, in increasing order, and the orbit's size.
    For any other E, every position with size 1: the orbits of the trivial
    group, which are right for every set.

    By Witt's theorem O_2 acts transitively on the nonzero vectors of each
    norm t, the isotropic ones included when t = 0, so its orbits are the
    origin, the q - eta(-1) points of each norm t != 0 (bounds.sphere_size)
    and the 2 (q - 1) nonzero isotropic points, none when q = 3 mod 4.  Each
    point is keyed by its norm, the origin by q, and one bincount counts
    every key; O_2 keeps E exactly when each key E meets has its whole orbit.
    """
    xs, ys = idx % q, idx // q
    n = idx.size
    key = (xs * xs + ys * ys) % q
    key[idx == 0] = q
    count = np.bincount(key, minlength=q + 1)
    whole = np.full(q + 1, bounds.sphere_size(PrimeField(q)))
    whole[0] = 2 * (q - 1) if q % 4 == 1 else 0
    whole[q] = 1
    met = count > 0
    if not np.array_equal(count[met], whole[met]):
        return np.arange(n), np.ones(n, dtype=np.int64)
    first = np.full(q + 1, n)
    np.minimum.at(first, key, np.arange(n))
    rows = np.sort(first[met])
    return rows, count[key[rows]]
