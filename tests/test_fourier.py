"""Normalized transform layer: conventions, oracles, grid plumbing.

The forward transform carries the q^{-d} weight and the minus sign in the
exponent; the inverse carries no weight.  Both conventions are pinned here
against a direct double-sum oracle and the shift/phase law, so any later
change to the fast path breaks loudly.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ffgeom.field import PrimeField
from ffgeom.fourier import (
    CapacityError,
    PointD,
    SpectralGrid,
    _naive_transform,
    character_matrix,
    chi_table,
    decode,
    encode,
    forward,
    inverse,
    mean_value,
    plancherel_lhs_rhs,
)


@given(st.sampled_from((3, 5, 7, 13)), st.integers(min_value=1, max_value=3),
       st.data())
def test_encode_decode_roundtrip(q, d, data):
    index = data.draw(st.integers(min_value=0, max_value=q**d - 1))
    coords = decode(index, q, d)
    assert len(coords) == d
    assert encode(coords, q) == index


def test_encoding_order_is_first_coordinate_least_significant():
    assert encode((1, 0), 5) == 1
    assert encode((0, 1), 5) == 5
    assert encode((2, 3), 5) == 17
    assert decode(17, 5, 2) == (2, 3)


def _random_grid(q, d, seed):
    rng = np.random.default_rng(seed)
    field = PrimeField(q)
    values = rng.normal(size=q**d) + 1j * rng.normal(size=q**d)
    return SpectralGrid(field, d, values)


@pytest.mark.parametrize("q,d", [(3, 1), (5, 1), (5, 2), (7, 2), (3, 3)])
def test_fast_transform_equals_naive(q, d):
    f = _random_grid(q, d, seed=q * 10 + d)
    fast = forward(f).values
    slow = _naive_transform(f, sign=-1) / q**d
    assert np.max(np.abs(fast - slow)) < 1e-10
    back_fast = inverse(forward(f)).values
    back_slow = _naive_transform(forward(f), sign=+1)
    assert np.max(np.abs(back_fast - back_slow)) < 1e-10


@pytest.mark.parametrize("q,d", [(101, 2), (211, 2), (31, 3), (61, 3)])
def test_fast_transform_equals_numpy_fft(q, d):
    # numpy's FFT as a test-side reference where the naive oracle is too slow
    f = _random_grid(q, d, seed=q + d)
    ref = np.fft.fftn(f.cube()).ravel() / q**d
    assert np.max(np.abs(forward(f).values - ref)) <= 1e-12 * np.max(np.abs(ref))
    ref = np.fft.ifftn(f.cube()).ravel() * q**d
    assert np.max(np.abs(inverse(f).values - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_character_matrix_is_read_only_and_built_once_per_q():
    q = 13
    C = character_matrix(q)
    j = np.arange(q)
    assert C.shape == (q, q) and C.dtype == np.complex128
    assert not C.flags.writeable
    assert np.array_equal(C, chi_table(q)[(-np.outer(j, j)) % q])
    character_matrix.cache_clear()
    f = _random_grid(q, 2, seed=1)
    for _ in range(3):
        forward(f)
        inverse(f)
        forward(_random_grid(q, 3, seed=2))
    info = character_matrix.cache_info()
    assert (info.misses, info.hits) == (1, 8)


def test_character_matrix_is_capped_like_a_plane_grid():
    with pytest.raises(CapacityError):
        character_matrix(3163)  # 3163^2 > GRID_CAPACITY = 10^7


@pytest.mark.parametrize("q,d", [(5, 2), (7, 2), (11, 2), (5, 3)])
def test_inverse_recovers_input(q, d):
    f = _random_grid(q, d, seed=q + d)
    assert np.max(np.abs(inverse(forward(f)).values - f.values)) < 1e-10


def test_forward_of_delta_is_flat():
    field = PrimeField(7)
    f = SpectralGrid.indicator(field, 2, [(0, 0)])
    fhat = forward(f).values
    assert np.max(np.abs(fhat - 1 / 49)) < 1e-12


def test_shift_multiplies_by_character():
    """f(x - z) transforms to chi(-z . m) fhat(m); pins the roll convention."""
    q, d = 7, 2
    field = PrimeField(q)
    f = _random_grid(q, d, seed=3)
    z = (2, 5)
    shifted = SpectralGrid(
        field, d,
        np.roll(f.values.reshape(q, q), shift=tuple(reversed(z)),
                axis=(0, 1)).reshape(-1),
    )
    fhat = forward(f).values
    ghat = forward(shifted).values
    for m_index in range(q * q):
        m = decode(m_index, q, d)
        phase = field.chi(-(z[0] * m[0] + z[1] * m[1]))
        assert abs(ghat[m_index] - phase * fhat[m_index]) < 1e-10


@pytest.mark.parametrize("q,d", [(5, 2), (11, 2), (7, 3)])
def test_plancherel(q, d):
    f = _random_grid(q, d, seed=q)
    lhs, rhs = plancherel_lhs_rhs(f, f)
    assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(lhs))


def test_mean_value_is_zero_mode():
    f = _random_grid(5, 2, seed=9)
    assert abs(mean_value(f) - forward(f).values[0]) < 1e-12
    assert abs(mean_value(f) - f.values.mean()) < 1e-12


def test_grid_capacity_guard():
    field = PrimeField(2**31 - 1)
    with pytest.raises(CapacityError):
        SpectralGrid.indicator(field, 2, [(0, 0)])


class TestPointD:
    def test_construction_and_coords(self):
        F = PrimeField(5)
        p = PointD(F, (7, -1))
        assert p.as_ints() == (2, 4)
        assert p.d == 2

    @given(st.sampled_from((5, 7, 13)), st.data())
    def test_vector_laws(self, q, data):
        F = PrimeField(q)
        coords = st.tuples(st.integers(0, q - 1), st.integers(0, q - 1))
        x = PointD(F, data.draw(coords))
        y = PointD(F, data.draw(coords))
        assert (x + y) - y == x
        assert x.dot(y) == y.dot(x)
        assert x.norm() == x.dot(x)
        assert (-x) + x == PointD(F, (0, 0))
        k = data.draw(st.integers(-10, 10))
        assert (k * x).as_ints() == tuple((k * c) % q for c in x.as_ints())

    def test_index_roundtrip(self):
        F = PrimeField(7)
        for idx in range(49):
            assert PointD.from_index(F, idx, 2).encode() == idx

    def test_norm_can_vanish_on_nonzero_vectors(self):
        # -1 is a square mod 5, so the plane has isotropic directions
        F = PrimeField(5)
        p = PointD(F, (1, 2))
        assert p.norm().value == 0 and not p.is_zero()
