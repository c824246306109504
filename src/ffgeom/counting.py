"""Exact configuration counting on subsets of F_q^d.

The workhorse is the circle profile n_a(x) = |E intersect S_a(x)|, the number
of points of E at distance a from x, in exact integers.  For a planar set,
circle_profile_stack builds the profiles of every radius at once in two
stages.  With the cube's axis 0 holding x_1 and axis 1 holding x_0,

    H[c, r, x_0]    = sum over z_0 with z_0^2 = c of E(r, x_0 - z_0),
    n_a(x_1, x_0)   = sum over z_1 of H[a - z_1^2, x_1 - z_1, x_0]:

q shifted views of E, stored twice along axis 1, are added into H, then q
shifted views of H, one per z_1, into a q x q x q accumulator over
(a, x_1, x_0): q^3 + q^4 element adds in 2q array operations, with no
shifted copy made.  circle_profile, one shifted copy of E per point z of
S_a, is the readable one-radius oracle the stack is tested against.
HingeSweep stacks the profiles of every nonzero radius of a planar set, a
(q - 1) x q^2 uint8 array, and is the one kernel for the statistics built on
them: pair counts sum_{x in E} n_a(x), hinge counts
sum_{x in E} n_a(x) n_b(x) (the energies sum_{x in E} n_a(x)^2 on the
diagonal), and the sums sum_x n_a(x)^2 behind the fluctuation bound.  The
stack stays uint8; every sum and product of its entries is formed in float64
or int64.

The Fourier route exists to verify the counting identity

    hinge(a,b) = q^6 sum_m conj(Dhat_a(m,0)) Ehat(m) Shat_b(m),

where Dhat_a(m,0) = q^{-2} fhat(m) and f(x) = E(x) n_a(x).  The source
identity is stated without explicit conjugates; the placement above (conjugate
on the f factor, equivalently on Ehat by realness of the total) is the one
that reproduces the integer count.  Since f is real this equals
q^4 sum_m fhat(-m) Ehat(m) Shat_b(m).

HingeSweep.fourier_counts evaluates it for every radius pair per norm class
of frequencies.  Shat_b is real and depends on m != 0 only through |m|, so
the classes are {m != 0 : |m| = n} for each n in F_q, plus the origin as a
class of its own, q + 1 in all.  The terms at m and -m are complex
conjugates, so the sum is real and runs over the half spectrum (m_0 in
0 .. (q - 1)/2), with weight 1 on the column m_0 = 0 and 2 elsewhere.  With
G[a, k] = the weighted sum of Re(conj(fhat_a(m)) Ehat(m)) over the class k,

    hinge(a,b) = q^4 sum_k G[a, k] T[b, k],

where T[b, k] is Shat_b at any frequency of class k: a (q - 1) x (q + 1)
product instead of a sum over all q^2 frequencies.  T depends only on q.
_sphere_class_table builds it once per q from the Gauss-sum closed form of
ffgeom.charsums, one call for every radius, with |S_b| / q^2 at the
origin; the tests check it against the direct DFT of every sphere
indicator.  G is built one block of radii at a time, and each block goes
through _half_spectrum as one pair of stacked products: _TRANSFORM_ARRAYS
radii, or fewer where that many would hold more than _BLOCK_VALUES grid
values (5 at q = 211).
f and its transform exist only for the radii of one block, and each row of
G is one bincount over the q x (q // 2 + 1) class array.

Every half-spectrum transform here is a direct DFT written as two real
matrix products per q x q array (_half_spectrum): the array times the
cos/sin columns of chi(-m_0 x_0) for m_0 <= q // 2, then the real and
imaginary rows of chi(-m_1 x_1) for m_1 <= q // 2 times that, both read
from ffgeom.fourier.chi_table.  The rows m_1 > q // 2 take no
product of their own: chi(-(q - m_1) x_1) is the conjugate of
chi(-m_1 x_1), so with Re_1 + i Im_1 that character and C + i S the sums
over x_0, row m_1 is (Re_1 C - Im_1 S) + i (Re_1 S + Im_1 C) and row q - m_1
is (Re_1 C + Im_1 S) + i (Re_1 S - Im_1 C), from the same four real blocks.
At the prime lengths q <= 211 that HingeSweep allows, these
character-matrix products run faster than an FFT, and since each array goes
through products of one fixed shape, its transform does not depend on how
many arrays share a block.  The tests
compare the result with the full-spectrum complex sum over every nonempty
subset of F_3^2 and random sets up to q = 101, and with the brute-force
hinge count; those tests are the permanent pin of the conjugate placement.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from fractions import Fraction
from typing import Iterable, List, Sequence, Tuple, Union

import numpy as np

from . import bounds
from .charsums import Sphere, _closed_form_by_norm, norm_values, sphere_size_table
from .field import FieldElement, PrimeField
from .fourier import (GRID_CAPACITY, CapacityError, PointD, SpectralGrid, _check_grid_size,
                      chi_table, decode)

Scalar = Union[int, FieldElement]

# at most this many grid values per block of radii, in fourier_counts, unless one
# radius alone holds more
_BLOCK_VALUES = 2**18
# at most this many radii per block of fourier_counts, and so q x q arrays per
# pair of character-matrix products in _half_spectrum
_TRANSFORM_ARRAYS = 8
# at most this many points of E per block of the profiles gathered on E, in
# HingeSweep: (q - 1) x 1024 float64 values, 1.7 MB at q = 211
_GATHER_POINTS = 1024


def _radius_blocks(q: int) -> List[slice]:
    """Row slices of a (q - 1)-row radius stack, each one product block of
    _half_spectrum: _TRANSFORM_ARRAYS radii, or fewer where that many would
    hold more than _BLOCK_VALUES grid values (5 at q = 211)."""
    step = min(_TRANSFORM_ARRAYS, max(1, _BLOCK_VALUES // (q * q)))
    return [slice(start, min(start + step, q - 1)) for start in range(0, q - 1, step)]


def exact_matmul(a: np.ndarray, b: np.ndarray, bound: int) -> np.ndarray:
    """The integer product a @ b, computed as a float64 BLAS product, as int64.

    a and b hold integers and bound caps sum_k |a_ik| |b_kj| for every entry.
    float64 represents every integer below 2^53 exactly, so below that cap
    each product and partial sum is exact in whatever order BLAS adds them,
    and the result equals the int64 matmul.
    """
    if bound >= 2**53:
        raise AssertionError(f"product bound {bound} is not exact in float64 (limit {2**53})")
    return (a.astype(np.float64, copy=False) @ b.astype(np.float64, copy=False)).astype(np.int64)


class PointSet:
    """A nonempty subset E of F_q^d as a dense 0/1 indicator of length q^d."""

    __slots__ = ("field", "d", "indicator", "cardinality")

    def __init__(self, field: PrimeField, d: int, indicator: np.ndarray) -> None:
        size = _check_grid_size(field.q, d)
        arr = np.asarray(indicator).ravel()
        if arr.size != size:
            raise ValueError(f"expected {size} indicator entries, got {arr.size}")
        # bool and integer entries are 0 or 1 exactly when they lie in [0, 1],
        # checked with two reductions before the cast can wrap 256 to 0; any
        # other entry must equal its own nonzero mask, a q^d bool array
        if arr.dtype.kind in "biu":
            valid = arr.min() >= 0 and arr.max() <= 1
        else:
            valid = np.array_equal(arr, arr != 0)
        if not valid:
            raise ValueError("indicator entries must be 0 or 1")
        self.field = field
        self.d = d
        # the one copy kept; its entries are 0 or 1, so its bool view holds the
        # same set, which indices() reads, and its nonzero count is |E|
        self.indicator = arr.astype(np.uint8)
        self.cardinality = int(np.count_nonzero(self.indicator))
        if self.cardinality == 0:
            raise ValueError("point set must be nonempty")

    @classmethod
    def from_points(
        cls, field: PrimeField, d: int, points: Iterable[Union[PointD, Sequence[int]]]
    ) -> "PointSet":
        indicator = np.zeros(_check_grid_size(field.q, d), dtype=np.uint8)
        for p in points:
            indicator[SpectralGrid._index_of(field, d, p)] = 1
        return cls(field, d, indicator)

    @classmethod
    def full_grid(cls, field: PrimeField, d: int) -> "PointSet":
        return cls(field, d, np.ones(field.q**d, dtype=np.uint8))

    @property
    def q(self) -> int:
        return self.field.q

    @property
    def density(self) -> Fraction:
        return Fraction(self.cardinality, self.q**self.d)

    def indices(self) -> np.ndarray:
        return np.flatnonzero(self.indicator.view(bool))

    def points(self) -> List[PointD]:
        return [PointD.from_index(self.field, int(i), self.d) for i in self.indices()]

    def cube(self) -> np.ndarray:
        return self.indicator.reshape((self.q,) * self.d)

    def contains(self, point: Union[PointD, Sequence[int]]) -> bool:
        idx = SpectralGrid._index_of(self.field, self.d, point)
        return bool(self.indicator[idx])

    __contains__ = contains

    def __len__(self) -> int:
        return self.cardinality

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PointSet):
            return NotImplemented
        return (
            other.field == self.field
            and other.d == self.d
            and np.array_equal(other.indicator, self.indicator)
        )

    def __repr__(self) -> str:
        return f"PointSet(q={self.q}, d={self.d}, cardinality={self.cardinality})"


def circle_profile(E: PointSet, a: Scalar) -> np.ndarray:
    """n_a(x) = |E intersect S_a(x)| at every grid point x, exact integers.

    One cyclic shift of E's indicator per point z of S_a: n_a(x) is the sum
    over z of E(x - z).  This is the readable oracle for
    circle_profile_stack, which builds every planar radius at once; no hot
    path calls it.
    """
    sphere = Sphere(E.field, a, E.d)
    q, d = E.q, E.d
    cube = E.cube().astype(np.int64)
    out = np.zeros_like(cube)
    axes = tuple(range(d))
    for idx in sphere.indices:
        z = decode(int(idx), q, d)
        # roll by z along each axis: axis ax carries coordinate d-1-ax
        out += np.roll(cube, shift=tuple(reversed(z)), axis=axes)
    return out.reshape(-1)


def _check_stack_size(q: int) -> None:
    """Cap a (q - 1) x q^2 profile stack like a grid: q <= 211, which keeps
    its uint8 entries exact (see HingeSweep for the bound)."""
    if (q - 1) * q * q > GRID_CAPACITY:
        raise CapacityError(f"hinge profile stack of {(q - 1) * q * q} entries at q={q} "
                            f"exceeds capacity {GRID_CAPACITY}")


def circle_profile_stack(E: PointSet) -> np.ndarray:
    """Row a - 1 is circle_profile(E, a), for every nonzero radius a of a planar set.

    Exact integers as a (q - 1) x q^2 uint8 array.  The two stages are in the
    module docstring; both accumulate in uint8 (see HingeSweep for the bound),
    and the stack is returned as it was built, never widened.  Row 0 of the
    accumulator, the radius 0 that is dropped, may wrap; no row adds into
    another.
    """
    if E.d != 2:
        raise ValueError("the profile stack is built for planar sets (d = 2)")
    q = E.q
    _check_stack_size(q)
    squares = (np.arange(q) ** 2) % q
    cube = E.cube()
    # E stored twice along x_0, so that wide[:, q - z_0 : 2q - z_0][r, x_0] = E(r, x_0 - z_0)
    wide = np.concatenate((cube, cube), axis=1)
    # H over (c, r, x_0), stored twice along r so that every shift in r is a view
    h = np.zeros((q, 2 * q, q), dtype=np.uint8)
    for z0 in range(q):
        h[squares[z0], :q] += wide[:, q - z0 : 2 * q - z0]
    h[:, q:] = h[:, :q]
    stack = np.zeros((q, q, q), dtype=np.uint8)
    for z1 in range(q):
        # shifted[c, x_1] = H[c, x_1 - z_1]; row a takes row c = a - z_1^2 of it
        shifted = h[:, q - z1 : 2 * q - z1]
        s = int(squares[z1])
        stack[s:] += shifted[: q - s]
        stack[:s] += shifted[q - s :]
    return stack[1:].reshape(q - 1, q * q)


def _half_spectrum_classes(q: int) -> np.ndarray:
    """The norm class of every frequency of a planar half spectrum.

    A q x (q // 2 + 1) array over (m_1, m_0): class |m| for m != 0, and class
    q for the origin.
    """
    classes = norm_values(PrimeField(q), 2).reshape(q, q)[:, : q // 2 + 1].copy()
    classes[0, 0] = q
    return classes


@lru_cache(maxsize=8)
def _character_matrices(q: int) -> Tuple[np.ndarray, np.ndarray]:
    """The two real factors of the planar half-spectrum DFT at q, read-only.

    A q x 2h matrix over (x_0, m_0), h = q // 2 + 1, holding Re then Im of
    chi(-m_0 x_0) for m_0 < h, and its transpose, a 2h x q matrix over
    (m_1, x_1) holding Re then Im of chi(-m_1 x_1) for m_1 < h; both read
    chi_table at (-x m) mod q.  The rows m_1 >= h are left out:
    chi(-(q - m_1) x_1) is the conjugate of chi(-m_1 x_1), so _half_spectrum
    reads them off the rows q - m_1 < h.
    """
    h = q // 2 + 1
    block = chi_table(q)[(-np.outer(np.arange(q), np.arange(h))) % q]
    by_m0 = np.concatenate([block.real, block.imag], axis=1)
    pair = (by_m0, by_m0.T.copy())
    for matrix in pair:
        matrix.setflags(write=False)
    return pair


def _half_spectrum(arrays: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Re and Im of sum_x f(x) chi(-m.x) on the half spectrum, for a stack of q x q arrays.

    arrays has shape (n, q, q) over (x_1, x_0); both results have shape
    (n, q, h), h = q // 2 + 1, over (m_1, m_0), the layout of numpy's rfftn.
    The stack is contracted over x_0 and then over x_1 by one pair of
    stacked real products with _character_matrices, each of one fixed shape
    per array, so that an array's transform is the same bits whatever stack
    it is part of; fourier_counts passes one block of radii
    (_radius_blocks) or E alone.  The second product forms only the rows
    m_1 < h, a (2h, 2h) block per array; the rows q - m_1 for 0 < m_1 < h
    combine the same four real blocks with the signs of the conjugate
    character.
    """
    n, q = arrays.shape[0], arrays.shape[-1]
    h = q // 2 + 1
    by_m0, by_m1 = _character_matrices(q)
    re = np.empty((n, q, h))
    im = np.empty((n, q, h))
    # [[Re1 C, Re1 S], [Im1 C, Im1 S]] for Re1 + i Im1 = chi(-m_1 x_1), m_1 < h,
    # and C + i S the sums over x_0; row m_1 of the transform is
    # (Re1 + i Im1)(C + i S), and row q - m_1 is (Re1 - i Im1)(C + i S)
    y = by_m1 @ (arrays @ by_m0)
    re_c, re_s, im_c, im_s = y[:, :h, :h], y[:, :h, h:], y[:, h:, :h], y[:, h:, h:]
    np.subtract(re_c, im_s, out=re[:, :h])
    np.add(re_s, im_c, out=im[:, :h])
    # rows q - 1 down to h, from m_1 = 1 .. h - 1, written through reversed views
    np.add(re_c[:, 1:], im_s[:, 1:], out=re[:, : h - 1 : -1])
    np.subtract(re_s[:, 1:], im_c[:, 1:], out=im[:, : h - 1 : -1])
    return re, im


@lru_cache(maxsize=8)
def _sphere_class_table(q: int) -> np.ndarray:
    """T[b - 1, k] = Shat_b(m) for any frequency m of class k, b = 1 .. q - 1.

    A (q - 1) x (q + 1) float64 table over the classes of
    _half_spectrum_classes.  Columns n < q are the Gauss-sum closed form of
    ffgeom.charsums at norm n, one _closed_form_by_norm call for every
    radius, and column q, the origin, is |S_b| / q^2.  The nonzero isotropic
    class is empty when q = 3 mod 4 and its column stays 0.  The build raises,
    naming the first such radius, if a closed form is not real or misses
    |S_b| / q^2 at the origin; the tests check the table against the direct
    DFT of every sphere indicator.

    The returned array is cached and marked read-only; copy before mutating.
    """
    field = PrimeField(q)
    sizes = sphere_size_table(field, 2)[1:] / q**2
    rows = _closed_form_by_norm(field, np.arange(1, q), 2)
    # the origin's value is rows[:, 0] + 1/q, the delta term of the closed form
    err = np.maximum(np.abs(rows.imag).max(axis=1), np.abs(rows[:, 0].real + 1 / q - sizes))
    bad = np.flatnonzero(~(err <= 1e-12))
    if bad.size:
        b = int(bad[0]) + 1
        raise AssertionError(f"closed-form sphere transform at q={q}, radius {b} is not "
                             f"real or misses |S_b|/q^2 at the origin (off by {err[b - 1]})")
    table = np.column_stack([rows.real, sizes])
    if q % 4 == 3:
        table[:, 0] = 0
    table.setflags(write=False)
    return table


class HingeSweep:
    """Hinge counts for every nonzero radius pair of one set, batched.

    Profiles for all radii are stacked into one matrix, so every exact count
    sum_{x in E} n_a(x) n_b(x) comes from a single exact matrix product, and
    every spectral value from character-matrix products of the profiles, one
    block of radii at a time, binned by norm class and multiplied by the per-q
    sphere class table.
    """

    def __init__(self, E: PointSet) -> None:
        if E.d != 2:
            raise ValueError("hinge counting is defined on the plane (d = 2)")
        self.E = E
        q = E.q
        # Each (q - 1) x q^2 uint8 stack is capped like a grid, so q <= 211.
        # There circle_profile_stack's uint8 entries stay below 2^8: each
        # entry of its stage one is at most 2, and each kept row c != 0 is a
        # partial sum of n_c(x) <= |S_c| <= q + 1 <= 212.  Only the dropped
        # row c = 0 can wrap (|S_0| = 2q - 1 > 255 when q = 1 mod 4 and
        # q >= 137), and no row adds into another.  No sum or product of
        # entries is formed in uint8: every statistic widens to int64 or
        # float64.  Every count is at most q^2 (q + 1)^2, the bound its
        # float64 product is checked against (also for each block of E's
        # points below, whose partial sums are smaller), and every numerator
        # that ffgeom.bounds forms (exact q^2, sum n_a^2 q^2) at most
        # q^4 (q + 1)^2 < 2^47: no int64 wrap, and exact in float64.
        _check_stack_size(q)
        self.profiles = circle_profile_stack(E)
        # the hinge counts are the Gram matrix of the profiles restricted to E,
        # summed over blocks of E's points so that no (q - 1) x |E| float64
        # copy of the profiles on E exists at once
        points = E.indices()
        self.pair_counts = np.zeros(q - 1, dtype=np.int64)
        self.exact = np.zeros((q - 1, q - 1), dtype=np.int64)
        for start in range(0, points.size, _GATHER_POINTS):
            on_e = self.profiles[:, points[start : start + _GATHER_POINTS]]
            self.pair_counts += on_e.sum(axis=1, dtype=np.int64)
            on_e = on_e.astype(np.float64)
            self.exact += exact_matmul(on_e, on_e.T, bound=q * q * (q + 1) ** 2)
        self.sphere_sizes = sphere_size_table(E.field, 2)[1:q]
        self._fourier: Union[np.ndarray, None] = None

    @cached_property
    def sum_sq(self) -> np.ndarray:
        """sum_x n_a(x)^2 over the whole grid per radius, at most q^2 (q + 1)^2,
        multiplied in int64 on first read; the hinge table and the spectral
        check never read it."""
        return np.einsum("ij,ij->i", self.profiles, self.profiles, dtype=np.int64)

    def fourier_counts(self) -> np.ndarray:
        """The spectral-identity value for every radius pair, as a real float64 matrix.

        Evaluated per norm class (see the module docstring), one block of
        radii at a time: character-matrix products (_half_spectrum) of the
        block's profiles restricted to E and of E give Re(conj(fhat_a) Ehat)
        on the half spectrum, one bincount per radius sums it by class into
        G, and the value is q^4 G @ T^T with T from _sphere_class_table.
        Since m and -m pair up, nothing imaginary is dropped: the full complex
        sum is real too.
        """
        if self._fourier is None:
            q = self.E.q
            # the per-q tables first, so a cold build runs before any per-set array exists
            table = _sphere_class_table(q)
            classes = _half_spectrum_classes(q).ravel()
            # unnormalized transforms: their q^2 q^2 cancels the identity's q^4
            e_re, e_im = _half_spectrum(self.E.cube().astype(np.float64)[None])
            # column m_0 = 0 holds its own negatives; every other m_0 stands for -m too
            e_re[..., 1:] *= 2
            e_im[..., 1:] *= 2
            g = np.empty((q - 1, q + 1))
            for block in _radius_blocks(q):
                # f_a = E n_a for the radii of this block
                f = np.multiply(self.profiles[block], self.E.indicator, dtype=np.float64)
                re, im = _half_spectrum(f.reshape(-1, q, q))
                # Re(fhat conj(Ehat)) = Re fhat Re Ehat + Im fhat Im Ehat, in place
                re *= e_re
                im *= e_im
                re += im
                for row, terms in zip(g[block], re):
                    row[:] = np.bincount(classes, weights=terms.ravel(), minlength=q + 1)
            # sum_k G[a, k] T[b, k] in einsum's own loop, which adds in one fixed
            # order whatever the BLAS thread count; at q = 101 it takes under 0.5 ms
            self._fourier = np.einsum("ak,bk->ab", g, table)
        return self._fourier

    def remainder_numers(self) -> np.ndarray:
        """q^2 R(a, b) for every radius pair, exact signed integers."""
        E = self.E
        return bounds.hinge_remainder_numer(
            E.q, E.cardinality, self.exact, self.pair_counts[:, None], self.sphere_sizes[None, :]
        )

    def max_remainder_ratio(self) -> float:
        """max over nonzero (a, b) of |R(a,b)| / (q |E|)."""
        numer = np.abs(self.remainder_numers()).max()
        return bounds.HINGE_REMAINDER.value(numer, self.E.q, self.E.cardinality)

    def remainder_violations(self) -> List[tuple]:
        """(a, b) pairs violating the hinge-remainder bound, in exact integers."""
        ok = bounds.HINGE_REMAINDER.holds(self.remainder_numers(), self.E.q, self.E.cardinality)
        return [(int(a + 1), int(b + 1)) for a, b in np.argwhere(~ok)]

