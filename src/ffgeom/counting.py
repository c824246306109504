"""Exact configuration counting on subsets of F_q^d.

The workhorse is the circle profile n_a(x) = |E intersect S_a(x)|, the number
of points of E at distance a from x, computed in integer arithmetic by
accumulating shifted copies of E's indicator (one shift per point of S_a).
HingeSweep stacks the profiles of every nonzero radius of a planar set and
is the one kernel for the statistics built on them: pair counts
sum_{x in E} n_a(x), hinge counts sum_{x in E} n_a(x) n_b(x) (the energies
sum_{x in E} n_a(x)^2 on the diagonal), and the sums sum_x n_a(x)^2 behind
the fluctuation bound.

The Fourier route exists to verify the counting identity

    hinge(a,b) = q^6 sum_m conj(Dhat_a(m,0)) Ehat(m) Shat_b(m),

where Dhat_a(m,0) = q^{-2} fhat(m) and f(x) = E(x) n_a(x).  The source
identity is stated without explicit conjugates; the placement above (conjugate
on the f factor, equivalently on Ehat by realness of the total) is the one
that reproduces the integer count.  HingeSweep.fourier_counts evaluates it
for every radius pair, and its tests against the brute-force hinge count
(every nonempty subset of F_3^2, random subsets of F_5^2) are the permanent
pin of that placement.  Since f is real this equals
q^4 sum_m fhat(-m) Ehat(m) Shat_b(m).

Main-term/remainder splits are kept as exact rationals so bound checks never
touch floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, List, Sequence, Union

import numpy as np

from . import bounds
from .charsums import Sphere, norm_values, sphere_size_table
from .field import FieldElement, PrimeField
from .fourier import GRID_CAPACITY, CapacityError, PointD, SpectralGrid, decode

Scalar = Union[int, FieldElement]


class PointSet:
    """A nonempty subset E of F_q^d as a dense 0/1 indicator of length q^d."""

    __slots__ = ("field", "d", "indicator", "cardinality")

    def __init__(self, field: PrimeField, d: int, indicator: np.ndarray) -> None:
        size = field.q**d
        if size > GRID_CAPACITY:
            raise CapacityError(f"grid of size {field.q}^{d} exceeds {GRID_CAPACITY}")
        arr = np.asarray(indicator).ravel()
        if arr.size != size:
            raise ValueError(f"expected {size} indicator entries, got {arr.size}")
        if not np.isin(arr, (0, 1)).all():
            raise ValueError("indicator entries must be 0 or 1")
        self.field = field
        self.d = d
        self.indicator = arr.astype(np.uint8)
        self.cardinality = int(self.indicator.sum())
        if self.cardinality == 0:
            raise ValueError("point set must be nonempty")

    @classmethod
    def from_points(
        cls, field: PrimeField, d: int, points: Iterable[Union[PointD, Sequence[int]]]
    ) -> "PointSet":
        grid = SpectralGrid(field, d)
        indicator = np.zeros(field.q**d, dtype=np.uint8)
        for p in points:
            indicator[grid._index_of(field, d, p)] = 1
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
        return np.nonzero(self.indicator)[0]

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
    over z of E(x - z).
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


@dataclass(frozen=True)
class HingeReport:
    """A hinge count with its Fourier-side value and main/remainder split."""

    q: int
    cardinality: int
    a: FieldElement
    b: FieldElement
    exact_count: int
    fourier_count: complex
    pair_count_a: int
    sphere_size_b: int

    @property
    def main_term(self) -> Fraction:
        """I = |D_a| |E| |S_b| q^{-2}, with the exact pair count |D_a|."""
        return Fraction(self.pair_count_a * self.cardinality * self.sphere_size_b, self.q**2)

    @property
    def remainder(self) -> Fraction:
        return Fraction(self.exact_count) - self.main_term

    @property
    def bound_ratio(self) -> float:
        """|R| / (q |E|), the value bounds.HINGE_REMAINDER bounds."""
        return bounds.HINGE_REMAINDER.value(self.remainder * self.q**2, self.q, self.cardinality)

    def remainder_bound_holds(self) -> bool:
        """bounds.HINGE_REMAINDER on this pair, in exact integers."""
        return bounds.HINGE_REMAINDER.holds(self.remainder * self.q**2, self.q, self.cardinality)

    def fourier_matches(self, tol: float = 1e-6) -> bool:
        value = self.fourier_count
        return (
            abs(value.imag) <= tol * (1 + abs(value.real))
            and round(value.real) == self.exact_count
            and abs(value.real - self.exact_count) <= tol * (1 + self.exact_count)
        )


class HingeSweep:
    """Hinge counts for every nonzero radius pair of one set, batched.

    Profiles for all radii are stacked into one matrix, so every exact count
    sum_{x in E} n_a(x) n_b(x) comes from a single integer matrix product and
    every spectral value from one batched FFT.
    """

    def __init__(self, E: PointSet) -> None:
        if E.d != 2:
            raise ValueError("hinge counting is defined on the plane (d = 2)")
        self.E = E
        q = E.q
        # Each (q - 1) x q^2 int64 stack is capped like a grid, so q <= 211.
        # There every count is at most q^2 (q + 1)^2 and every numerator that
        # ffgeom.bounds forms (exact q^2, sum n_a^2 q^2) at most q^4 (q + 1)^2
        # < 2^47: no int64 wrap, and exact in float64.
        if (q - 1) * q * q > GRID_CAPACITY:
            raise CapacityError(f"hinge profile stack of {(q - 1) * q * q} entries at q={q} "
                                f"exceeds capacity {GRID_CAPACITY}")
        self.radii = np.arange(1, q, dtype=np.int64)
        self.profiles = np.stack([circle_profile(E, int(a)) for a in self.radii])
        self.masked = self.profiles * E.indicator.astype(np.int64)
        self.exact = self.masked @ self.profiles.T
        self.pair_counts = self.masked.sum(axis=1)
        self.sphere_sizes = sphere_size_table(E.field, 2)[1:q]
        self._norms = norm_values(E.field, 2)
        self._fourier: Union[np.ndarray, None] = None

    def fourier_counts(self) -> np.ndarray:
        """The spectral-identity value for every radius pair, as a complex matrix."""
        if self._fourier is None:
            q = self.E.q
            scale = 1.0 / q**2

            def batch_forward(rows: np.ndarray) -> np.ndarray:
                cubes = rows.astype(np.complex128).reshape(-1, q, q)
                return np.fft.fftn(cubes, axes=(1, 2)).reshape(-1, q * q) * scale

            fhat = batch_forward(self.masked)
            ehat = batch_forward(self.E.indicator[None, :])[0]
            shat = batch_forward((self._norms[None, :] == self.radii[:, None]))
            self._fourier = q**4 * ((np.conj(fhat) * ehat) @ shat.T)
        return self._fourier

    def report(self, a: int, b: int, with_fourier: bool = True) -> HingeReport:
        q = self.E.q
        if not (1 <= a < q and 1 <= b < q):
            raise ValueError("radii must be nonzero residues")
        fourier = complex(self.fourier_counts()[a - 1, b - 1]) if with_fourier else complex(0)
        return HingeReport(
            q=q,
            cardinality=self.E.cardinality,
            a=self.E.field.element(a),
            b=self.E.field.element(b),
            exact_count=int(self.exact[a - 1, b - 1]),
            fourier_count=fourier,
            pair_count_a=int(self.pair_counts[a - 1]),
            sphere_size_b=int(self.sphere_sizes[b - 1]),
        )

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


def hinge_energy_guaranteed(q: int, cardinality: int, sphere_size: int) -> bool:
    """Whether the 8q|E| energy bound provably follows from the fluctuation bound.

    Splitting n_a = A + B with A = |E||S_a|/q^2 and applying Cauchy-Schwarz to
    the cross term gives sum_{x in E} n_a^2 <= |E| (A + 2 sqrt(q))^2, so the
    bound is guaranteed once (A + 2 sqrt(q))^2 <= 8q.  That condition, cleared
    of square roots: with s = |E||S_a|, it is 4q^5 >= s^2 and
    16 s^2 q^5 <= (4q^5 - s^2)^2.  This is strictly smaller than the
    sqrt(8) q^{3/2} regime (roughly |E| <= 0.83 q^{5/2}/|S_a|).
    """
    s = cardinality * sphere_size
    margin = 4 * q**5 - s * s
    return margin >= 0 and 16 * s * s * q**5 <= margin * margin
