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

For t != 0 the right side depends on l only through the norm |l|, so it is
evaluated once per norm value n in F_q and then read off at every frequency
through the grid's norm table: O(q^2 + q^d) per t rather than O(q^{d+1}).
Since j -> k = -1/(4j) permutes F_q^*, chi(n/(4j)) = chi(-kn) is entry
(k, n) of the character matrix C of ffgeom.fourier, and the q values are
one vector-matrix product v @ C with v[k] = eta^d(-j) chi(jt) and v[0] = 0.
The single-frequency sphere_fourier_closed reads the same per-norm table,
and so does ffgeom.counting's sphere class table, one planar vector per
radius, which HingeSweep's spectral hinge identity multiplies by.

Kloosterman sums K(a) = sum_{s != 0} chi(as + s^{-1}) psi(s) are evaluated
directly; only the trivial and quadratic psi arise here (eta^d for d = 2, 3).
gauss_sum and kloosterman also take a range or sequence of parameters and
return an array.  They gather one row of terms per parameter, a block of
about _BLOCK_TERMS terms at a time, and sum each row on its own: numpy's
pairwise sum of the same terms in the same order, so every entry equals the
scalar call bit for bit.  The scalar call is the one-row case of the same
kernel.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable, List, Sequence, Tuple, Union

import numpy as np

from .field import FieldElement, PrimeField
from .fourier import (PointD, SpectralGrid, _check_grid_size, character_matrix, chi_table,
                      forward)

Scalar = Union[int, FieldElement]

PSI_TAGS = ("trivial", "quadratic")

# GaussConstant construction verifies Q against the direct sum, an O(q)
# computation; skip the check above this modulus.
_VERIFY_LIMIT = 10**6

# about this many terms per block of rows in gauss_sum and kloosterman: 128 KiB
# of complex terms; at q = 1009, blocks 4 times larger ran twice as slow
_BLOCK_TERMS = 2**13


@lru_cache(maxsize=64)
def sqrt_table(field: PrimeField) -> np.ndarray:
    """The smaller square root of every residue mod q, -1 at non-residues.

    The returned array is cached and marked read-only; copy before mutating.
    """
    q = field.q
    half = np.arange((q + 1) // 2, dtype=np.int64)
    table = np.full(q, -1, dtype=np.int64)
    # 0 .. (q-1)/2 holds exactly one root of each square, the smaller one
    table[(half * half) % q] = half
    table.setflags(write=False)
    return table


@lru_cache(maxsize=64)
def legendre_table(field: PrimeField) -> np.ndarray:
    """eta as an int8 array over residues: 0 at 0, +1 at squares, -1 else.

    The returned array is cached and marked read-only; copy before mutating.
    """
    table = np.where(sqrt_table(field) >= 0, np.int8(1), np.int8(-1))
    table[0] = 0
    table.setflags(write=False)
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
    _check_grid_size(q, d)
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


def sphere_size_table(field: PrimeField, d: int) -> np.ndarray:
    """|S_t| for every t, without a q^d table: the counts of x^2 (1 at 0, 2 at
    each nonzero square), convolved d - 1 times and folded mod q, exact in int64."""
    q = field.q
    _check_grid_size(q, d)
    roots = sqrt_table(field)
    sizes = squares = (roots >= 0).astype(np.int64) + (roots > 0)
    for _ in range(d - 1):
        full = np.convolve(sizes, squares)
        sizes = full[:q] + np.pad(full[q:], (0, 1))
    return sizes


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

    def __repr__(self) -> str:
        return f"GaussConstant(q={self.field.q}, Q={self.Q})"


@lru_cache(maxsize=64)
def gauss_constant(field: PrimeField) -> GaussConstant:
    """GaussConstant(field), built and verified once per field and cached."""
    return GaussConstant(field)


def _mod(x: np.ndarray, q: int) -> np.ndarray:
    """x mod q in place, for an int64 array x >= 0.

    numpy divides integers by a scalar through a precomputed multiplier,
    several times faster than its % on the same array.
    """
    x -= (x // q) * q
    return x


def _row_sums(
    field: PrimeField,
    params: Union[Scalar, Sequence[Scalar]],
    terms: Callable[[np.ndarray], np.ndarray],
) -> Union[complex, np.ndarray]:
    """sum of terms(p) for one parameter, or a complex128 array of them for a
    range or sequence of parameters.

    terms maps a column of residues to one row of complex terms per residue;
    it runs on blocks of about _BLOCK_TERMS terms and each row is summed on
    its own.  Every parameter goes through field.residue first, so a bool, a
    non-integer or an element of another field raises as a scalar would.
    """
    if isinstance(params, str) or not isinstance(params, Sequence):
        return complex(terms(np.array([[field.residue(params)]]))[0].sum())
    residues = np.array([field.residue(p) for p in params], dtype=np.int64)
    out = np.empty(len(residues), dtype=np.complex128)
    rows = max(1, _BLOCK_TERMS // field.q)
    for start in range(0, len(residues), rows):
        block = residues[start : start + rows]
        out[start : start + len(block)] = terms(block[:, None]).sum(axis=1)
    return out


def gauss_sum(
    field: PrimeField, j: Union[Scalar, Sequence[Scalar]]
) -> Union[complex, np.ndarray]:
    """sum_c chi(j c^2), evaluated directly over all residues c.

    For a range or sequence j, a complex128 array whose entry i is
    gauss_sum(field, j[i]), bit for bit (see the module docstring).
    """
    q = field.q
    squares = (np.arange(q, dtype=np.int64) ** 2) % q
    chi = chi_table(q)
    return _row_sums(field, j, lambda jv: chi[_mod(jv * squares, q)])


def gauss_sum_closed(field: PrimeField, j: Scalar) -> complex:
    """Q sqrt(q) eta(j) for j != 0; q at j = 0."""
    jv = field.residue(j)
    if jv == 0:
        return complex(field.q)
    return gauss_constant(field).Q * math.sqrt(field.q) * field.legendre(jv)


def kloosterman(
    field: PrimeField, a: Union[Scalar, Sequence[Scalar]], psi: str = "trivial"
) -> Union[complex, np.ndarray]:
    """K(a) = sum_{s != 0} chi(a s + s^{-1}) psi(s), by direct summation.

    For a range or sequence a, a complex128 array whose entry i is
    kloosterman(field, a[i], psi), bit for bit (see the module docstring).
    """
    if psi not in PSI_TAGS:
        raise ValueError(f"psi must be one of {PSI_TAGS}, got {psi!r}")
    q = field.q
    s = np.arange(1, q, dtype=np.int64)
    inv_s = inverse_table(field)[s]
    chi = chi_table(q)
    signs = legendre_table(field)[s]

    def terms(av: np.ndarray) -> np.ndarray:
        row = chi[_mod(av * s + inv_s, q)]
        return row * signs if psi == "quadratic" else row

    return _row_sums(field, a, terms)


def delta(l: Union[PointD, Tuple[int, ...]]) -> int:
    """Kronecker delta at the origin of F_q^d."""
    if isinstance(l, PointD):
        return 1 if l.is_zero() else 0
    return 1 if all(int(c) == 0 for c in l) else 0


def _closed_form_by_norm(field: PrimeField, t: int, d: int) -> np.ndarray:
    """Q^d q^{-(d+2)/2} sum_{j != 0} chi(n/(4j) + j t) eta^d(-j) for every n in F_q, t != 0.

    Entry n is Shat_t(l) at every l with |l| = n, less the q^{-1} delta(l)
    term.  One product v @ C with the cached character matrix (see the
    module docstring): O(q^2) per t, whatever d is.
    """
    q = field.q
    prefactor = gauss_constant(field).Q**d * q ** (-(d + 2) / 2)
    j = np.arange(1, q, dtype=np.int64)
    # k = -1/(4j), so that chi(n/(4j)) = chi(-kn) = C[k, n]
    k = (q - inverse_table(field)[(4 * j) % q]) % q
    signs = legendre_table(field)[(q - j) % q].astype(np.float64) ** d
    v = np.zeros(q, dtype=np.complex128)
    v[k] = signs * chi_table(q)[(j * t) % q]
    return (v @ character_matrix(q)) * prefactor


def sphere_fourier_closed(
    field: PrimeField, t: Scalar, l: Union[PointD, Tuple[int, ...]]
) -> complex:
    """Shat_t(l) for a single frequency l of F_q^d, d = len(l); t = 0 falls
    back to the direct DFT.

    For t != 0 this is the entry of the per-norm table at |l|, so it equals
    sphere_fourier_grid at l exactly.
    """
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
    norm_l = sum(c * c for c in l_coords) % field.q
    value = _closed_form_by_norm(field, tv, d)[norm_l]
    if delta(l_coords):
        value += 1.0 / field.q
    return complex(value)


def sphere_fourier_grid(field: PrimeField, t: Scalar, d: int = 2) -> SpectralGrid:
    """Shat_t at every frequency: closed form for t != 0, direct DFT for t = 0.

    For t != 0 the value at l depends on l only through |l|, so the closed
    form is evaluated once per norm value and gathered by norm_values.
    """
    tv = field.residue(t)
    if tv == 0:
        return forward(Sphere(field, 0, d).indicator())
    q = field.q
    values = _closed_form_by_norm(field, tv, d)[norm_values(field, d)]
    values[0] += 1.0 / q
    return SpectralGrid(field, d, values)
