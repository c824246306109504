"""Normalized discrete Fourier transform on F_q^d.

Conventions, fixed once and used verbatim by every downstream identity:

    forward:  fhat(m) = q^{-d} sum_x f(x) chi(-x.m)
    inverse:  f(x)    = sum_m  fhat(m) chi(x.m)

so the q^{-d} normalization sits entirely on the forward side.  Grids are
dense complex arrays of length q^d indexed by the mixed-radix encoding
enc(x) = sum_i x_i q^{i-1} (first coordinate least significant).

forward and inverse contract each axis of the (q,)*d cube with the symmetric
character matrix C[j, k] = chi(-jk) (character_matrix, cached per q), one
complex matrix product per axis: q^{d+1} multiply-adds per transform,
against the O(q^d log q) of an FFT, whose prime-length plans lose to BLAS
at small q.  The inverse uses conj(C).  _naive_transform, the double sum
straight from the definition, is the oracle the tests hold both to.  On a
2-vCPU Intel Xeon host (numpy 2.4.6, OpenBLAS 0.3.31, two BLAS threads;
the range of three interleaved medians) a d = 2 forward took 0.22-0.30 ms
at q = 101 against 0.38-0.72 ms for np.fft.fftn, 1.4-2.0 against
1.8-3.1 ms at q = 211 and 14 against 11-14 ms at q = 401, but 125-172
against 73-100 ms at q = 1009; at d = 3 it took 0.45-0.64 against
1.3-2.5 ms at q = 31 and 4.7-6.3 against 17-29 ms at q = 61.  The slower
large planes reach no caller in ffgeom's scripts or CLI: inside the
package, forward is reached only from plancherel_lhs_rhs and from
sphere_fourier_grid and sphere_fourier_closed at t = 0, library calls that
the tests make at q <= 13.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Optional, Sequence, Tuple, Union

import numpy as np

from .field import FieldElement, PrimeField

GRID_CAPACITY = 10**7
# The naive transform touches q^d * q^d pairs; keep that below 10^8.
NAIVE_CAPACITY = 10**8


class CapacityError(Exception):
    """A requested grid or computation exceeds the configured memory cap."""


class BudgetError(Exception):
    """A requested computation exceeds its configured work budget."""


def _check_grid_size(q: int, d: int) -> int:
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    size = q**d
    if size > GRID_CAPACITY:
        raise CapacityError(
            f"grid of size {q}^{d} = {size} exceeds capacity {GRID_CAPACITY}"
        )
    return size


def encode(coords: Sequence[int], q: int) -> int:
    """Mixed-radix index of a coordinate tuple: sum_i coords[i] * q^i."""
    index = 0
    for c in reversed(coords):
        index = index * q + (c % q)
    return index


def decode(index: int, q: int, d: int) -> Tuple[int, ...]:
    """Inverse of encode: the coordinate tuple of a flat grid index."""
    coords = []
    for _ in range(d):
        index, r = divmod(index, q)
        coords.append(r)
    return tuple(coords)


def coordinate_table(q: int, d: int) -> np.ndarray:
    """Array of shape (q^d, d): row enc(x) holds the coordinates of x."""
    size = _check_grid_size(q, d)
    table = np.empty((size, d), dtype=np.int64)
    idx = np.arange(size, dtype=np.int64)
    for i in range(d):
        idx, table[:, i] = np.divmod(idx, q)
    return table


@lru_cache(maxsize=64)
def chi_table(q: int) -> np.ndarray:
    """chi(k) = e^{2 pi i k / q} for k = 0 .. q-1.

    The returned array is cached and marked read-only; copy before mutating.
    """
    table = np.exp(2j * np.pi * np.arange(q) / q)
    table.setflags(write=False)
    return table


# one entry is 16 q^2 bytes, 157 MB at q = 3137, so only the last two q are kept
@lru_cache(maxsize=2)
def character_matrix(q: int) -> np.ndarray:
    """C[j, k] = chi(-jk) for j, k = 0 .. q-1, a symmetric q x q complex128 matrix.

    Its entries are those of chi_table, and it is sized like a plane grid
    (q^2 entries, bounded by GRID_CAPACITY).  The returned array is cached
    and marked read-only; copy before mutating.
    """
    _check_grid_size(q, 2)
    x = np.arange(q, dtype=np.int64)
    matrix = chi_table(q)[(-np.outer(x, x)) % q]
    matrix.setflags(write=False)
    return matrix


class PointD:
    """A point of F_q^d: a tuple of FieldElements sharing one field."""

    __slots__ = ("field", "coords")

    def __init__(self, field: PrimeField, coords: Iterable[Union[int, FieldElement]]) -> None:
        self.field = field
        self.coords: Tuple[FieldElement, ...] = tuple(field.element(c) for c in coords)
        if not self.coords:
            raise ValueError("a point needs at least one coordinate")

    @property
    def d(self) -> int:
        return len(self.coords)

    def as_ints(self) -> Tuple[int, ...]:
        return tuple(c.value for c in self.coords)

    def encode(self) -> int:
        return encode(self.as_ints(), self.field.q)

    @classmethod
    def from_index(cls, field: PrimeField, index: int, d: int) -> "PointD":
        return cls(field, decode(index, field.q, d))

    def _check_mate(self, other: "PointD") -> None:
        if not isinstance(other, PointD):
            raise TypeError(f"expected a PointD, got {type(other).__name__}")
        if other.field != self.field or other.d != self.d:
            raise ValueError("points live in different spaces")

    def dot(self, other: "PointD") -> FieldElement:
        """The bilinear form x.m = sum_i x_i m_i."""
        self._check_mate(other)
        total = 0
        q = self.field.q
        for a, b in zip(self.coords, other.coords):
            total = (total + a.value * b.value) % q
        return self.field.element(total)

    def norm(self) -> FieldElement:
        """The quadratic form |x| = x_1^2 + ... + x_d^2 (not a metric)."""
        q = self.field.q
        total = 0
        for c in self.coords:
            total = (total + c.value * c.value) % q
        return self.field.element(total)

    def is_zero(self) -> bool:
        return all(c.value == 0 for c in self.coords)

    def __add__(self, other: "PointD") -> "PointD":
        self._check_mate(other)
        return PointD(self.field, (a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "PointD") -> "PointD":
        self._check_mate(other)
        return PointD(self.field, (a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> "PointD":
        return PointD(self.field, (-c for c in self.coords))

    def __rmul__(self, scalar: Union[int, FieldElement]) -> "PointD":
        s = self.field.residue(scalar)
        return PointD(self.field, (s * c for c in self.coords))

    __mul__ = __rmul__

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PointD):
            return NotImplemented
        return (
            other.field == self.field
            and other.d == self.d
            and other.as_ints() == self.as_ints()
        )

    def __hash__(self) -> int:
        return hash((self.field.q, self.as_ints()))

    def __iter__(self):
        return iter(self.coords)

    def __repr__(self) -> str:
        return f"PointD{self.as_ints()} (mod {self.field.q})"


class SpectralGrid:
    """A function F_q^d -> C as a dense complex array of length q^d."""

    __slots__ = ("field", "d", "values")

    def __init__(
        self,
        field: PrimeField,
        d: int,
        values: Optional[np.ndarray] = None,
    ) -> None:
        size = _check_grid_size(field.q, d)
        self.field = field
        self.d = d
        if values is None:
            self.values = np.zeros(size, dtype=np.complex128)
        else:
            arr = np.asarray(values, dtype=np.complex128).ravel()
            if arr.size != size:
                raise ValueError(f"expected {size} values, got {arr.size}")
            self.values = arr.copy()

    @property
    def q(self) -> int:
        return self.field.q

    @property
    def size(self) -> int:
        return self.values.size

    @classmethod
    def indicator(
        cls, field: PrimeField, d: int, points: Iterable[Union[PointD, Sequence[int]]]
    ) -> "SpectralGrid":
        grid = cls(field, d)
        for p in points:
            grid.values[cls._index_of(field, d, p)] = 1.0
        return grid

    @staticmethod
    def _index_of(field: PrimeField, d: int, key) -> int:
        if isinstance(key, PointD):
            if key.field != field or key.d != d:
                raise ValueError("point lives on a different grid")
            return key.encode()
        if isinstance(key, (tuple, list)):
            if len(key) != d:
                raise ValueError(f"expected {d} coordinates, got {len(key)}")
            return encode([int(c) for c in key], field.q)
        return int(key)

    def __getitem__(self, key) -> complex:
        return complex(self.values[self._index_of(self.field, self.d, key)])

    def __setitem__(self, key, value: complex) -> None:
        self.values[self._index_of(self.field, self.d, key)] = value

    def copy(self) -> "SpectralGrid":
        return SpectralGrid(self.field, self.d, self.values)

    def cube(self) -> np.ndarray:
        """The values reshaped to (q,)*d; coordinate i varies along axis d-1-i."""
        return self.values.reshape((self.q,) * self.d)

    def __repr__(self) -> str:
        return f"SpectralGrid(q={self.q}, d={self.d})"


def _naive_transform(grid: SpectralGrid, sign: int) -> np.ndarray:
    """sum_x f(x) chi(sign x.m) at every m, unnormalized, one frequency at a time."""
    q, d = grid.q, grid.d
    size = grid.size
    if size * size > NAIVE_CAPACITY:
        raise CapacityError(
            f"naive transform needs {size}^2 character evaluations, cap {NAIVE_CAPACITY}"
        )
    coords = coordinate_table(q, d)
    chi = chi_table(q)
    out = np.empty(size, dtype=np.complex128)
    f = grid.values
    for j in range(size):
        phases = (coords @ coords[j]) % q
        if sign < 0:
            phases = (q - phases) % q
        out[j] = np.dot(f, chi[phases])
    return out


def _per_axis(cube: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """sum over x of cube[x] prod_i matrix[m_i, x_i], flattened, for a symmetric matrix.

    One product per axis, each in place of the axis it contracts: axis k is
    the middle axis of the cube read as (q^k, q, rest), and the last axis is
    contracted from the right, which needs the matrix to be symmetric.
    """
    q, d = matrix.shape[0], cube.ndim
    for k in range(d - 1):
        cube = matrix @ cube.reshape(q**k, q, -1)
    return (cube.reshape(-1, q) @ matrix).ravel()


def forward(grid: SpectralGrid) -> SpectralGrid:
    """fhat(m) = q^{-d} sum_x f(x) chi(-x.m), one character_matrix product per axis."""
    raw = _per_axis(grid.cube(), character_matrix(grid.q))
    return SpectralGrid(grid.field, grid.d, raw * (1.0 / grid.size))


def inverse(grid: SpectralGrid) -> SpectralGrid:
    """f(x) = sum_m g(m) chi(x.m); no normalization on this side."""
    raw = _per_axis(grid.cube(), character_matrix(grid.q).conj())
    return SpectralGrid(grid.field, grid.d, raw)


def plancherel_lhs_rhs(f: SpectralGrid, g: SpectralGrid) -> Tuple[complex, complex]:
    """Both sides of q^{-d} sum_x f(x) conj(g(x)) = sum_m fhat(m) conj(ghat(m))."""
    if f.field != g.field or f.d != g.d:
        raise ValueError("grids have different shapes")
    lhs = complex(np.vdot(g.values, f.values) / f.size)
    fhat, ghat = forward(f), forward(g)
    rhs = complex(np.vdot(ghat.values, fhat.values))
    return lhs, rhs


def mean_value(grid: SpectralGrid) -> complex:
    """q^{-d} sum_x f(x), which equals fhat at the origin."""
    return complex(grid.values.sum() / grid.size)
