"""Spheres in F_q^d and their exact Fourier transforms.

The sphere S_t = {x : x_1^2 + ... + x_d^2 = t} has, for d=2 and t != 0,
exactly q - eta(-1) points.  Its transform admits a closed form built from
Gauss sums; for t != 0:

    Shat_t(l) = q^{-1} delta(l)
              + Q^d q^{-(d+2)/2} sum_{j != 0} chi(|l|/(4j) + j t) eta^d(-j)

with Q the fourth root of unity attached to q (Q = 1 for q = 1 mod 4,
Q = i for q = 3 mod 4).  The sign inside chi is a convention trap: the
completed square can be written with either j t or -j t depending on how
the summation variable is flipped.  The +j t form is the one that matches
the direct DFT of the sphere indicator under this package's forward
transform; the oracle test pinning this is permanent.  t = 0 is always
routed to the direct transform (the closed form's decay consequences are
only claimed for t != 0).

Kloosterman sums K(a) = sum_{s != 0} chi(as + s^{-1}) psi(s) are evaluated
directly; only the trivial and quadratic psi arise here (eta^d for d = 2, 3).
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import List, Tuple, Union

import numpy as np

from .field import FieldElement, PrimeField
from .fourier import (
    GRID_CAPACITY,
    CapacityError,
    PointD,
    SpectralGrid,
    chi_table,
    forward,
)

Scalar = Union[int, FieldElement]

PSI_TAGS = ("trivial", "quadratic")

# GaussConstant construction verifies Q against the direct sum, an O(q)
# computation; skip the check above this modulus.
_VERIFY_LIMIT = 10**6


@lru_cache(maxsize=64)
def _squares_mask(q: int) -> np.ndarray:
    """Boolean table over residues: True at nonzero squares and at 0."""
    mask = np.zeros(q, dtype=bool)
    k = np.arange(q, dtype=np.int64)
    mask[(k * k) % q] = True
    return mask


def legendre_table(field: PrimeField) -> np.ndarray:
    """eta as an int8 array over residues: 0 at 0, +1 at squares, -1 else."""
    q = field.q
    table = np.where(_squares_mask(q), np.int8(1), np.int8(-1))
    table[0] = 0
    return table


@lru_cache(maxsize=64)
def inverse_table(field: PrimeField) -> np.ndarray:
    """inv[k] = k^{-1} mod q for k >= 1, inv[0] = 0, by the standard recurrence.

    The returned array is cached and marked read-only; copy before mutating.
    """
    q = field.q
    inv = np.zeros(q, dtype=np.int64)
    inv[1] = 1
    for k in range(2, q):
        inv[k] = (-(q // k) * inv[q % k]) % q
    inv.setflags(write=False)
    return inv


@lru_cache(maxsize=32)
def norm_values(field: PrimeField, d: int) -> np.ndarray:
    """|x| mod q for every flat grid index, built one coordinate at a time.

    The returned array is cached and marked read-only; copy before mutating.
    """
    q = field.q
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    if q**d > GRID_CAPACITY:
        raise CapacityError(f"grid of size {q}^{d} exceeds capacity {GRID_CAPACITY}")
    squares = (np.arange(q, dtype=np.int64) ** 2) % q
    norms = squares.copy()
    for _ in range(d - 1):
        # New coordinate is the most significant digit: index k*q^i + j.
        norms = (squares[:, None] + norms[None, :]).reshape(-1) % q
    norms.setflags(write=False)
    return norms


class Sphere:
    """The level set S_t = {x in F_q^d : |x| = t}, with exact count."""

    __slots__ = ("field", "d", "t", "count", "_indices", "_points")

    def __init__(self, field: PrimeField, t: Scalar, d: int) -> None:
        self.field = field
        self.d = d
        self.t = field.element(t)
        self._indices = np.nonzero(norm_values(field, d) == self.t.value)[0]
        self.count = int(self._indices.size)
        self._points: Union[List[PointD], None] = None

    @property
    def q(self) -> int:
        return self.field.q

    @property
    def indices(self) -> np.ndarray:
        """Flat grid indices of the sphere's points, ascending."""
        return self._indices

    @property
    def points(self) -> List[PointD]:
        """The points in lexicographic coordinate order."""
        if self._points is None:
            pts = [PointD.from_index(self.field, int(i), self.d) for i in self._indices]
            pts.sort(key=lambda p: p.as_ints())
            self._points = pts
        return self._points

    def indicator(self) -> SpectralGrid:
        grid = SpectralGrid(self.field, self.d)
        grid.values[self._indices] = 1.0
        return grid

    def __len__(self) -> int:
        return self.count

    def __contains__(self, point: PointD) -> bool:
        return point.norm() == self.t

    def __repr__(self) -> str:
        return f"Sphere(q={self.q}, d={self.d}, t={self.t.value}, count={self.count})"


def sphere_points(field: PrimeField, t: Scalar, d: int) -> Sphere:
    """Exact enumeration of S_t; for d=2 and t != 0 the count is q - eta(-1)."""
    return Sphere(field, t, d)


def sphere_size_table(field: PrimeField, d: int) -> np.ndarray:
    """|S_t| for every t, via one pass over the grid's norm values."""
    return np.bincount(norm_values(field, d), minlength=field.q)


class GaussConstant:
    """The fourth root of unity Q with sum_c chi(jc^2) = Q sqrt(q) eta(j)."""

    __slots__ = ("field", "Q")

    def __init__(self, field: PrimeField) -> None:
        self.field = field
        self.Q = complex(1.0) if field.q % 4 == 1 else complex(1j)
        if field.q <= _VERIFY_LIMIT:
            direct = gauss_sum(field, 1)
            if abs(direct - self.Q * math.sqrt(field.q)) > 1e-9 * math.sqrt(field.q):
                raise AssertionError(
                    f"Gauss constant check failed for q={field.q}: "
                    f"direct {direct}, expected {self.Q * math.sqrt(field.q)}"
                )

    @property
    def Q_squared_sign(self) -> int:
        """Q^2 as an integer sign; equals eta(-1)."""
        return 1 if self.field.q % 4 == 1 else -1

    def __repr__(self) -> str:
        return f"GaussConstant(q={self.field.q}, Q={self.Q})"


def gauss_sum(field: PrimeField, j: Scalar) -> complex:
    """sum_c chi(j c^2), evaluated directly over all residues c."""
    q = field.q
    jv = field.residue(j)
    squares = (np.arange(q, dtype=np.int64) ** 2) % q
    phases = (jv * squares) % q
    return complex(chi_table(q)[phases].sum())


def gauss_sum_closed(field: PrimeField, j: Scalar) -> complex:
    """Q sqrt(q) eta(j) for j != 0; q at j = 0."""
    jv = field.residue(j)
    if jv == 0:
        return complex(field.q)
    return GaussConstant(field).Q * math.sqrt(field.q) * field.legendre(jv)


def kloosterman(field: PrimeField, a: Scalar, psi: str = "trivial") -> complex:
    """K(a) = sum_{s != 0} chi(a s + s^{-1}) psi(s), by direct summation."""
    if psi not in PSI_TAGS:
        raise ValueError(f"psi must be one of {PSI_TAGS}, got {psi!r}")
    q = field.q
    av = field.residue(a)
    s = np.arange(1, q, dtype=np.int64)
    phases = (av * s + inverse_table(field)[s]) % q
    terms = chi_table(q)[phases]
    if psi == "quadratic":
        terms = terms * legendre_table(field)[s]
    return complex(terms.sum())


def delta(l: Union[PointD, Tuple[int, ...]]) -> int:
    """Kronecker delta at the origin of F_q^d."""
    if isinstance(l, PointD):
        return 1 if l.is_zero() else 0
    return 1 if all(int(c) == 0 for c in l) else 0


def _closed_form_weights(field: PrimeField, t: int, d: int) -> Tuple[complex, np.ndarray, np.ndarray]:
    """Shared pieces of the closed form: prefactor, per-j phase offsets, signs."""
    q = field.q
    prefactor = GaussConstant(field).Q**d * q ** (-(d + 2) / 2)
    inv = inverse_table(field)
    eta = legendre_table(field)
    j = np.arange(1, q, dtype=np.int64)
    inv_4j = inv[(4 * j) % q]
    jt = (j * t) % q
    signs = eta[(q - j) % q].astype(np.float64) ** d
    return prefactor, np.stack([inv_4j, jt]), signs


def sphere_fourier_closed(
    field: PrimeField, t: Scalar, l: Union[PointD, Tuple[int, ...]], d: int = 2
) -> complex:
    """Shat_t(l) for a single frequency l; t = 0 falls back to the direct DFT."""
    tv = field.residue(t)
    if isinstance(l, PointD):
        d = l.d
        l_coords = l.as_ints()
    else:
        l_coords = tuple(field.residue(int(c)) for c in l)
        d = len(l_coords)
    if tv == 0:
        grid = sphere_fourier_grid(field, 0, d)
        return grid[l_coords]
    q = field.q
    norm_l = sum(c * c for c in l_coords) % q
    prefactor, (inv_4j, jt), signs = _closed_form_weights(field, tv, d)
    phases = (norm_l * inv_4j + jt) % q
    jsum = complex(np.dot(signs, chi_table(q)[phases]))
    value = prefactor * jsum
    if delta(l_coords):
        value += 1.0 / q
    return complex(value)


def sphere_fourier_grid(field: PrimeField, t: Scalar, d: int = 2) -> SpectralGrid:
    """Shat_t at every frequency: closed form for t != 0, direct DFT for t = 0."""
    tv = field.residue(t)
    if tv == 0:
        return forward(Sphere(field, 0, d).indicator())
    q = field.q
    norms = norm_values(field, d)
    prefactor, (inv_4j, jt), signs = _closed_form_weights(field, tv, d)
    chi = chi_table(q)
    values = np.zeros(q**d, dtype=np.complex128)
    for k in range(q - 1):
        values += signs[k] * chi[(norms * int(inv_4j[k]) + int(jt[k])) % q]
    values *= prefactor
    values[0] += 1.0 / q
    return SpectralGrid(field, d, values)
