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
readable reference.  representable_c_values solves the systems for every c in
F_q at once with numpy: the same two elimination branches, square roots read
from a per-q table, and the same checks (solution count against the class of
D, every point against both circle equations), applied to all c together.
The tests hold the batched path equal to the scalar one.

The midpoint-avoiding set is a union of circles with radii in A, the positive
multiples of 8 up to q/32.  For x, y in it whose difference norm lies outside
the sumset 2A + 2A - 4A, the midpoint (x+y)/2 cannot land back in the set:
the parallelogram identity forces |x - y| = 2|x| + 2|y| - 4|(x+y)/2| into the
sumset otherwise.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import List, Tuple, Union

import numpy as np

from .bounds import sphere_size
from .charsums import legendre_table, norm_values
from .counting import PointSet
from .field import FieldElement, PrimeField
from .fourier import GRID_CAPACITY, BudgetError, CapacityError, PointD

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


@lru_cache(maxsize=64)
def _sqrt_table(q: int) -> np.ndarray:
    """The smaller square root of every residue mod q, -1 at non-residues."""
    # 0 .. (q-1)/2 holds exactly one root of each square, the smaller one
    half = np.arange((q + 1) // 2, dtype=np.int64)
    table = np.full(q, -1, dtype=np.int64)
    table[(half * half) % q] = half
    table.setflags(write=False)
    return table


def representable_c_values(
    field: PrimeField, a: Scalar, b: Scalar, w: PointD
) -> List[int]:
    """All c whose circle about w meets the circle of squared-radius b at 0.

    w must lie on the sphere of squared-radius a about the origin, a != 0.
    The subset with c != 0 has at least (q - 3) / 2 members for b != 0.

    Every c in F_q is solved in one numpy pass along the elimination branch
    intersect_circles takes for this w.  As there, the solution count must
    match the square class of 4ab - (a + b - c)^2 and every point must lie
    on both circles; a failed check raises AssertionError.  Raises
    CapacityError for q > GRID_CAPACITY, before any O(q) table exists.
    """
    q = field.q
    av = field.residue(a)
    if w.field != field or w.d != 2:
        raise ValueError("witness must be a point of the plane over this field")
    if w.norm().value != av or av == 0:
        raise ValueError("witness must satisfy |w| = a != 0")
    bv = field.residue(b)
    if q > GRID_CAPACITY:
        raise CapacityError(f"per-residue tables at q={q} exceed capacity {GRID_CAPACITY}")
    # residues stay below q <= 10^7, so every product below is far from 2^63
    w1, w2 = w.as_ints()
    c = np.arange(q, dtype=np.int64)
    k = (av + bv - c) * field.inv(2) % q
    roots = _sqrt_table(q)
    # row j of S, T is the point built from root j of the branch's quadratic
    if w1 != 0:
        r = roots[(av * bv - k * k) % q]
        R = np.stack((r, (q - r) % q))
        T = (k * w2 + w1 * R) % q * field.inv(av) % q
        S = (k - T * w2) % q * field.inv(w1) % q
    else:
        t = k * field.inv(w2) % q
        r = roots[(bv - t * t) % q]
        S = np.stack((r, (q - r) % q))
        T = np.broadcast_to(t, S.shape)
    has_root = r >= 0
    # a double root yields one point, so count distinct points, not roots
    count = has_root * (1 + ((S[0] != S[1]) | (T[0] != T[1])))
    disc = (4 * av * bv - (av + bv - c) ** 2) % q
    # eta(D) + 1 maps non-residue, zero, square to 0, 1, 2 points
    expected = legendre_table(field)[disc].astype(np.int64) + 1
    if not np.array_equal(count, expected):
        bad = np.flatnonzero(count != expected).tolist()
        raise AssertionError(f"solution count off the class of D at q={q}, a={av}, "
                             f"b={bv}, w={(w1, w2)}, c in {bad}")
    on_both = ((S * S + T * T) % q == bv) & (((S - w1) ** 2 + (T - w2) ** 2) % q == c)
    if not on_both[:, has_root].all():
        bad = np.flatnonzero(has_root & ~on_both.all(axis=0)).tolist()
        raise AssertionError(f"point off a circle at q={q}, a={av}, b={bv}, "
                             f"w={(w1, w2)}, c in {bad}")
    return np.flatnonzero(count).tolist()


def sum_two_squares_count(field: PrimeField, u: Scalar) -> int:
    """|{(k, t) : k^2 + t^2 = u}| by enumeration over residue classes."""
    q = field.q
    uv = field.residue(u)
    r = np.arange(q, dtype=np.int64)
    per_class = np.bincount((r * r) % q, minlength=q)
    return int(np.dot(per_class, per_class[(uv - r) % q]))


def sum_two_squares_closed(field: PrimeField, u: Scalar) -> int:
    """The closed form of ffgeom.bounds.sphere_size, valid for u != 0."""
    if field.residue(u) == 0:
        raise ValueError("the closed form is only claimed for u != 0")
    return sphere_size(field)


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
    so it can never cover F_q.
    """
    q = field.q
    if q < 257:
        raise ValueError(f"counterexample construction needs q >= 257, got {q}")
    A = tuple(range(8, q // 32 + 1, 8))
    indicator = np.isin(norm_values(field, 2), A).astype(np.uint8)
    E = PointSet(field, 2, indicator)
    sumset = np.zeros(q, dtype=bool)
    for a1 in A:
        for a2 in A:
            for a3 in A:
                sumset[(2 * a1 + 2 * a2 - 4 * a3) % q] = True
    return CounterexampleSet(field, A, E, sumset)


@dataclass(frozen=True)
class MidpointReport:
    """Result of checking midpoint exclusion over sampled or exhaustive pairs."""

    pairs_checked: int
    applicable: int
    violations: int
    exhaustive: bool


def midpoint_exclusion_check(
    cs: CounterexampleSet,
    samples: int = 10**4,
    seed: int = 0,
    exhaustive: bool = False,
    budget: int = 10**10,
) -> MidpointReport:
    """Verify that no pair x, y in E with |x - y| outside the sumset has its
    midpoint in E.  Applicable pairs are those whose difference norm avoids
    the sumset; violations counts applicable pairs whose midpoint lies in E.
    """
    E = cs.E
    field = cs.field
    q = field.q
    idx = E.indices()
    xs, ys = idx % q, idx // q
    n = idx.size
    inv2 = field.inv(2)
    norms = norm_values(field, 2)
    indicator = E.indicator

    def check_pair(i: int, j: int) -> Tuple[bool, bool]:
        dxe = (int(xs[i]) - int(xs[j])) % q
        dye = (int(ys[i]) - int(ys[j])) % q
        dist = (dxe * dxe + dye * dye) % q
        if cs.sumset[dist]:
            return False, False
        mx = (int(xs[i]) + int(xs[j])) * inv2 % q
        my = (int(ys[i]) + int(ys[j])) * inv2 % q
        return True, bool(indicator[mx + my * q])

    applicable = 0
    violations = 0
    if exhaustive:
        if n * n > budget:
            raise BudgetError(f"exhaustive midpoint check needs {n}^2 pairs, budget {budget}")
        pairs_checked = n * n
        # vectorized full scan, one row per left endpoint
        inv2_np = np.int64(inv2)
        for i in range(n):
            dxe = (int(xs[i]) - xs) % q
            dye = (int(ys[i]) - ys) % q
            dist = (dxe * dxe + dye * dye) % q
            outside = ~cs.sumset[dist]
            applicable += int(np.count_nonzero(outside))
            mx = (int(xs[i]) + xs[outside]) * inv2_np % q
            my = (int(ys[i]) + ys[outside]) * inv2_np % q
            violations += int(indicator[mx + my * q].sum())
    else:
        rng = random.Random(seed)
        pairs_checked = samples
        for _ in range(samples):
            i = rng.randrange(n)
            j = rng.randrange(n)
            app, viol = check_pair(i, j)
            applicable += app
            violations += viol
    return MidpointReport(
        pairs_checked=pairs_checked,
        applicable=applicable,
        violations=violations,
        exhaustive=exhaustive,
    )
