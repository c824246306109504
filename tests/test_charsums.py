"""Spheres, Gauss and Kloosterman sums, and the closed-form sphere transform."""

import cmath
import math
import tracemalloc

import numpy as np
import pytest

from ffgeom import charsums
from ffgeom.charsums import (
    GaussConstant,
    Sphere,
    delta,
    gauss_sum,
    gauss_sum_closed,
    inverse_table,
    kloosterman,
    legendre_table,
    norm_values,
    sphere_fourier_closed,
    sphere_fourier_grid,
    sphere_size_table,
    sqrt_table,
)
from ffgeom.field import PrimeField
from ffgeom.fourier import CapacityError, PointD, SpectralGrid, chi_table, forward

PRIMES_TO_31 = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31)


def test_sphere_q5_t1_hand_enumeration():
    F = PrimeField(5)
    pts = [p.as_ints() for p in Sphere(F, 1, 2).points]
    assert pts == [(0, 1), (0, 4), (1, 0), (4, 0)]
    assert Sphere(F, 1, 2).count == 4


def test_sphere_q5_t0_includes_isotropic_lines():
    # -1 is a square mod 5, so the zero set is two lines through the origin
    F = PrimeField(5)
    assert Sphere(F, 0, 2).count == 9


def test_sphere_membership_and_indicator():
    F = PrimeField(13)
    s = Sphere(F, 3, 2)
    for p in s.points:
        assert p.norm().value == 3
        assert p in s
    ind = s.indicator()
    assert int(ind.values.real.sum()) == s.count


@pytest.mark.parametrize("q", PRIMES_TO_31)
def test_sphere_sizes_match_quadratic_character(q):
    F = PrimeField(q)
    sizes = sphere_size_table(F, 2)
    eta_m1 = F.legendre(q - 1)
    for t in range(1, q):
        assert sizes[t] == q - eta_m1
        assert sizes[t] in (q - 1, q + 1)
    assert sizes.sum() == q * q


@pytest.mark.parametrize("q,d", [(3, 1), (3, 2), (5, 3), (7, 2), (13, 3), (101, 2),
                                 (1009, 2), (211, 3)])
def test_sphere_size_table_matches_the_norm_table(q, d):
    F = PrimeField(q)
    sizes = sphere_size_table(F, d)
    assert sizes.dtype == np.int64
    assert sizes.tolist() == np.bincount(norm_values(F, d), minlength=q).tolist()


def test_sphere_size_table_builds_no_grid_table():
    # the norm table at q = 3001 alone holds 72 MB of int64
    tracemalloc.start()
    try:
        sphere_size_table(PrimeField(3001), 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    with pytest.raises(CapacityError):
        sphere_size_table(PrimeField(3163), 2)


def test_norm_values_agree_with_pointwise_norms():
    F = PrimeField(7)
    nv = norm_values(F, 2)
    for idx in range(49):
        assert nv[idx] == PointD.from_index(F, idx, 2).norm().value
    nv3 = norm_values(F, 3)
    assert nv3[PointD(F, (1, 2, 3)).encode()] == (1 + 4 + 9) % 7


def test_inverse_table_and_legendre_table():
    for q in (5, 13, 31):
        F = PrimeField(q)
        inv = inverse_table(F)
        roots = sqrt_table(F)
        leg = legendre_table(F)
        for a in range(1, q):
            assert inv[a] * a % q == 1
            assert leg[a] == F.legendre(a)
            if leg[a] == 1:
                assert roots[a] ** 2 % q == a and 0 < roots[a] <= (q - 1) // 2
            else:
                assert roots[a] == -1
        assert leg[0] == 0 and roots[0] == 0


@pytest.mark.parametrize("q", (5, 13, 31, 1009))
def test_cached_tables_are_shared_and_read_only(q):
    F = PrimeField(q)
    for table, again, fresh in (
        (inverse_table(F), inverse_table(PrimeField(q)), None),
        (sqrt_table(F), sqrt_table(PrimeField(q)), None),
        (legendre_table(F), legendre_table(PrimeField(q)), [F.legendre(a) for a in range(q)]),
        (chi_table(q), chi_table(q), [cmath.exp(2j * math.pi * k / q) for k in range(q)]),
    ):
        assert again is table
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0] = table[1]
        if fresh is not None:
            assert np.allclose(table, fresh, rtol=0, atol=1e-12)


def test_gauss_sum_at_zero_is_q():
    F = PrimeField(11)
    assert gauss_sum(F, 0) == pytest.approx(11)


def test_gauss_sum_q5_hand_value():
    # 1 + 2 chi(1) + 2 chi(4) = sqrt 5
    F = PrimeField(5)
    val = gauss_sum(F, 1)
    assert cmath.isclose(val, math.sqrt(5), abs_tol=1e-12)


@pytest.mark.parametrize("q", (5, 7, 13, 29, 31))
def test_gauss_closed_form_and_constant(q):
    F = PrimeField(q)
    G = GaussConstant(F)
    assert G.Q == (1 if q % 4 == 1 else 1j)
    # Q^2 = eta(-1), which is why the planar closed form is real
    assert G.Q ** 2 == F.legendre(q - 1)
    for j in range(1, q):
        direct = gauss_sum(F, j)
        closed = gauss_sum_closed(F, j)
        assert cmath.isclose(direct, closed, abs_tol=1e-9)
        assert abs(abs(direct) - math.sqrt(q)) < 1e-9


@pytest.mark.parametrize("closed_form", [
    lambda F: gauss_sum_closed(F, 1),
    lambda F: sphere_fourier_grid(F, 1),
], ids=["gauss_sum_closed", "sphere_fourier_grid"])
def test_gauss_constant_is_verified_once_per_field(monkeypatch, closed_form):
    F = PrimeField(13)
    charsums.gauss_constant.cache_clear()
    monkeypatch.setattr(charsums, "gauss_sum", lambda field, j: 0j)
    with pytest.raises(AssertionError, match="Gauss constant check failed for q=13"):
        closed_form(F)
    monkeypatch.undo()
    calls = []
    monkeypatch.setattr(charsums, "gauss_sum", lambda field, j: calls.append(j) or gauss_sum(field, j))
    for j in range(1, 13):
        gauss_sum_closed(F, j)
    sphere_fourier_grid(F, 2)
    assert calls == [1]


def test_kloosterman_hand_values():
    F = PrimeField(5)
    # inverses mod 5: 1<->1, 2<->3, 4<->4
    expected = (
        cmath.exp(2j * math.pi * 2 / 5)
        + cmath.exp(2j * math.pi * 0 / 5)
        + cmath.exp(2j * math.pi * 0 / 5)
        + cmath.exp(2j * math.pi * 3 / 5)
    )
    assert cmath.isclose(kloosterman(F, 1, "trivial"), expected, abs_tol=1e-12)
    assert kloosterman(F, 1, "trivial") == pytest.approx(2 + 2 * math.cos(6 * math.pi / 5))
    assert kloosterman(F, 0, "trivial") == pytest.approx(-1)


@pytest.mark.parametrize("q", (7, 13, 31))
def test_kloosterman_weil_bound(q):
    F = PrimeField(q)
    for psi in ("trivial", "quadratic"):
        for a in range(1, q):
            assert abs(kloosterman(F, a, psi)) <= 2 * math.sqrt(q) + 1e-9


@pytest.mark.parametrize("q", (3, 5, 7, 13, 101, 1009))
def test_batched_sums_equal_scalar_calls_bit_for_bit(q):
    F = PrimeField(q)

    def bits(values):
        return np.asarray(values, dtype=np.complex128).view(np.uint64)

    assert np.array_equal(bits(gauss_sum(F, range(q))), bits([gauss_sum(F, j) for j in range(q)]))
    for psi in charsums.PSI_TAGS:
        batched = kloosterman(F, list(range(q)), psi)
        assert np.array_equal(bits(batched), bits([kloosterman(F, a, psi) for a in range(q)]))


@pytest.mark.parametrize("rows", (1, 7))
def test_row_block_does_not_change_bits(rows, monkeypatch):
    q = 101
    F = PrimeField(q)
    families = [lambda: gauss_sum(F, range(q))]
    families += [lambda psi=psi: kloosterman(F, range(q), psi) for psi in charsums.PSI_TAGS]
    default = [family() for family in families]
    monkeypatch.setattr(charsums, "_BLOCK_TERMS", rows * q)
    for family, values in zip(families, default):
        assert np.array_equal(family().view(np.uint64), values.view(np.uint64))


@pytest.mark.parametrize("bad,error", [
    (True, TypeError), (2.0, TypeError), (PrimeField(7).element(3), ValueError),
], ids=["bool", "float", "other-field"])
def test_sequence_entries_are_checked_like_scalars(bad, error):
    F = PrimeField(5)
    for call in (lambda p: gauss_sum(F, p), lambda p: kloosterman(F, p),
                 lambda p: kloosterman(F, p, "quadratic")):
        with pytest.raises(error) as scalar:
            call(bad)
        with pytest.raises(error) as batched:
            call([1, bad, 2])
        assert str(batched.value) == str(scalar.value)


def test_kloosterman_rejects_unknown_character():
    with pytest.raises(ValueError):
        kloosterman(PrimeField(5), 1, "cubic")


def _closed_form_by_phase_table(field, t, d):
    """The per-norm closed form summed over j from a (q - 1) x q table of phases
    n/(4j) + j t, the reference for the character-matrix product."""
    q = field.q
    prefactor = charsums.gauss_constant(field).Q ** d * q ** (-(d + 2) / 2)
    j = np.arange(1, q, dtype=np.int64)
    inv_4j = inverse_table(field)[(4 * j) % q]
    signs = legendre_table(field)[(q - j) % q].astype(np.float64) ** d
    n = np.arange(q, dtype=np.int64)
    phases = (inv_4j[:, None] * n[None, :] + ((j * t) % q)[:, None]) % q
    return (signs[:, None] * chi_table(q)[phases]).sum(axis=0) * prefactor


@pytest.mark.parametrize("q", (5, 13, 101))
@pytest.mark.parametrize("d", (2, 3))
def test_closed_form_by_norm_matches_the_phase_table(q, d):
    F = PrimeField(q)
    for t in range(1, q):
        got = charsums._closed_form_by_norm(F, t, d)
        assert np.max(np.abs(got - _closed_form_by_phase_table(F, t, d))) <= 1e-12


@pytest.mark.parametrize("q,d", [(3, 2), (5, 2), (7, 2), (11, 2), (13, 2), (5, 3), (7, 3)])
def test_sphere_fourier_closed_matches_dft(q, d):
    # the per-norm grid against the direct DFT at every t != 0, and the
    # single-frequency closed form against the grid at every frequency
    F = PrimeField(q)
    for t in range(1, q):
        direct = forward(Sphere(F, t, d).indicator()).values
        closed = sphere_fourier_grid(F, t, d).values
        assert np.max(np.abs(direct - closed)) < 1e-9
        for i in range(q**d):
            assert sphere_fourier_closed(F, t, PointD.from_index(F, i, d)) == closed[i]


def test_sphere_fourier_zero_mode_is_density():
    F = PrimeField(13)
    for t in (1, 5):
        s = Sphere(F, t, 2)
        val = sphere_fourier_closed(F, t, PointD(F, (0, 0)))
        assert abs(val - s.count / 169) < 1e-12


def test_sphere_fourier_t0_routes_to_direct_transform():
    F = PrimeField(5)
    grid = sphere_fourier_grid(F, 0, 2)
    direct = forward(Sphere(F, 0, 2).indicator()).values
    assert np.max(np.abs(grid.values - direct)) < 1e-12


@pytest.mark.parametrize("q,d", [(13, 2), (13, 3)])
def test_decay_bound_small(q, d):
    F = PrimeField(q)
    cap = 2 * q ** (-(d + 1) / 2)
    for b in range(1, q):
        vals = sphere_fourier_grid(F, b, d).values
        assert np.max(np.abs(vals[1:])) <= cap + 1e-12


def test_delta():
    F = PrimeField(7)
    assert delta(PointD(F, (0, 0))) == 1
    assert delta(PointD(F, (0, 1))) == 0
    assert sum(delta(PointD.from_index(F, i, 2)) for i in range(49)) == 1
