import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from stokes_lab.fock import (
    Direction,
    EulerAngles,
    as_direction,
    conjugate_stokes,
    direction_from_euler,
    euler_rotation_matrix,
    manifold_cap,
    rotated_direction,
    rotated_fock_bases,
    rotation_matrix,
    stokes_in_direction,
    stokes_operator,
    su2_unitary,
)
from stokes_lab.serialize import operator_from_json, operator_to_json
from stokes_lab.tomography import choose_directions

from conftest import lattice_stokes, random_direction, series_expm


def test_operators_match_lattice_oracle():
    for n in range(0, 7):
        for j in range(4):
            np.testing.assert_allclose(
                stokes_operator(j, n), lattice_stokes(j, n), atol=1e-12
            )


def test_photon_difference_is_diagonal_descending():
    np.testing.assert_allclose(stokes_operator(3, 1), np.diag([1.0, -1.0]))


def test_total_number_is_scaled_identity():
    np.testing.assert_allclose(stokes_operator(0, 5), 5.0 * np.eye(6))


def test_casimir_on_two_photons():
    total = sum(stokes_operator(j, 2) @ stokes_operator(j, 2) for j in (1, 2, 3))
    np.testing.assert_allclose(total, 8.0 * np.eye(3), atol=1e-12)


def test_commutators_and_number_compatibility():
    for n in range(0, 11):
        ops = {j: stokes_operator(j, n) for j in range(4)}
        for a, b, c in ((1, 2, 3), (2, 3, 1), (3, 1, 2)):
            np.testing.assert_allclose(
                ops[a] @ ops[b] - ops[b] @ ops[a], 2j * ops[c], atol=1e-10
            )
        for j in (1, 2, 3):
            np.testing.assert_allclose(ops[0] @ ops[j], ops[j] @ ops[0], atol=1e-10)


def test_invalid_stokes_index():
    with pytest.raises(ValueError):
        stokes_operator(4, 2)


def test_manifold_cap_guard(monkeypatch):
    assert manifold_cap() == 32
    with pytest.raises(ValueError):
        stokes_operator(1, 33)
    monkeypatch.setenv("STOKES_LAB_NMAX", "40")
    assert stokes_operator(1, 33).shape == (34, 34)
    monkeypatch.setenv("STOKES_LAB_NMAX", "5")
    with pytest.raises(ValueError):
        stokes_operator(1, 6)


def test_direction_validation():
    with pytest.raises(ValueError):
        Direction(1.0, 1.0, 0.0)
    d = Direction.from_vector([3.0, 0.0, 4.0], normalize=True)
    assert d.x == pytest.approx(0.6)
    theta, phi = Direction.from_spherical(0.7, 1.9).spherical()
    assert (theta, phi) == pytest.approx((0.7, 1.9))


@given(
    st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=3, max_size=3),
    st.integers(0, 2),
    st.floats(allow_nan=True, allow_infinity=True).map(lambda v: v if not math.isfinite(v) else math.nan),
)
def test_direction_rejects_non_finite_components(components, index, bad):
    components[index] = bad
    with pytest.raises(ValueError, match="finite"):
        Direction(*components)
    with pytest.raises(ValueError, match="finite"):
        Direction.from_vector(components, normalize=True)


def test_rotated_fock_bases_diagonalize_direction_operator(rng):
    axes = [sign * v for v in np.eye(3) for sign in (1.0, -1.0)]
    lines = axes + [random_direction(rng) for _ in range(8)]
    bases = rotated_fock_bases(lines, 32)
    assert len(bases) == 33
    for i, d in enumerate(lines):
        for n in range(1, 33):
            assert bases[n].shape == (len(lines), n + 1, n + 1)
            u = bases[n][i]
            np.testing.assert_allclose(u.conj().T @ u, np.eye(n + 1), atol=1e-12)
            np.testing.assert_allclose(
                u.conj().T @ stokes_in_direction(d, n) @ u,
                np.diag([n - 2.0 * k for k in range(n + 1)]),
                atol=1e-12,
            )


def test_a_line_basis_does_not_depend_on_its_batch():
    # the lines of a tomography run up to order 6, plus the axes where c or s is zero
    lines = [d for r in range(1, 7) for d in choose_directions(r).directions]
    lines += [Direction(sign, 0.0, 0.0) for sign in (1.0, -1.0)] + [Direction(0.0, 0.0, sign) for sign in (1.0, -1.0)]
    batch = rotated_fock_bases(lines, 32)
    for i, d in enumerate(lines):
        alone = rotated_fock_bases((d,), 32)
        for n in range(33):
            assert np.array_equal(batch[n][i], alone[n][0]), (d, n)


def test_direction_operator_examples():
    np.testing.assert_allclose(
        stokes_in_direction((0, 0, 1), 2), np.diag([2.0, 0.0, -2.0])
    )
    np.testing.assert_allclose(stokes_in_direction((1, 0, 0), 1), [[0, 1], [1, 0]])


def test_direction_operator_spectrum(rng):
    # eigenvalues are exactly N-2k, each simple, along any direction
    for n in (1, 2, 3, 5):
        for _ in range(5):
            evals = np.linalg.eigvalsh(stokes_in_direction(random_direction(rng), n))
            np.testing.assert_allclose(
                sorted(evals), [-n + 2 * k for k in range(n + 1)], atol=1e-10
            )


def test_diag_direction_spectrum_oracle():
    evals = np.linalg.eigvalsh(stokes_in_direction(np.ones(3) / np.sqrt(3), 2))
    np.testing.assert_allclose(evals, [-2.0, 0.0, 2.0], atol=1e-12)


def test_nonunit_direction_rejected():
    with pytest.raises(ValueError):
        stokes_in_direction((1.0, 1.0, 1.0), 2)


def test_su2_identity_and_unitarity(rng):
    for n in (1, 3, 6):
        np.testing.assert_allclose(su2_unitary((0, 0, 0), n), np.eye(n + 1), atol=1e-12)
        for _ in range(5):
            u = su2_unitary(rng.uniform(-np.pi, np.pi, 3), n)
            np.testing.assert_allclose(u.conj().T @ u, np.eye(n + 1), atol=1e-12)


def test_su2_carries_photon_difference_to_direction(rng):
    for _ in range(5):
        phi, theta = rng.uniform(0, 2 * np.pi), rng.uniform(0, np.pi)
        for n in (1, 4):
            u = su2_unitary((phi, theta, 0.0), n)
            lhs = u @ stokes_operator(3, n) @ u.conj().T
            rhs = stokes_in_direction(Direction.from_spherical(theta, phi), n)
            np.testing.assert_allclose(lhs, rhs, atol=1e-10)


def eigh_half_angle_exp(index, angle, n):
    """exp(-i angle S_index / 2) through the spectral decomposition of the generator."""
    evals, evecs = np.linalg.eigh(stokes_operator(index, n))
    return (evecs * np.exp(-0.5j * angle * evals)) @ evecs.conj().T


def test_su2_matches_eigh_exponential_oracle(rng):
    # theta runs well outside [0, pi], where the half angles change sign
    for n in range(13):
        for theta in (-2.5, 0.0, 1.3, 4.0, 7.5):
            phi, xi = rng.uniform(-2 * np.pi, 2 * np.pi, 2)
            oracle = (
                eigh_half_angle_exp(3, phi, n)
                @ eigh_half_angle_exp(2, theta, n)
                @ eigh_half_angle_exp(3, xi, n)
            )
            np.testing.assert_allclose(su2_unitary((phi, theta, xi), n), oracle, rtol=0, atol=1e-12)


def test_su2_half_turn_against_series_oracle():
    u = su2_unitary((0.0, np.pi, 0.0), 1)
    oracle = series_expm(-0.5j * np.pi * np.asarray(stokes_operator(2, 1)))
    np.testing.assert_allclose(u, oracle, atol=1e-12)
    # the half turn sends the horizontal photon to the vertical ket up to phase
    mapped = u @ np.array([1.0, 0.0])
    assert abs(mapped[0]) < 1e-12
    assert abs(abs(mapped[1]) - 1.0) < 1e-12


def test_rotation_matrix_forms():
    np.testing.assert_allclose(rotation_matrix(1, 0.0), np.eye(3))
    phi = 0.7
    np.testing.assert_allclose(
        rotation_matrix(1, phi),
        [[1, 0, 0], [0, np.cos(phi), -np.sin(phi)], [0, np.sin(phi), np.cos(phi)]],
    )
    np.testing.assert_allclose(
        rotation_matrix(3, np.pi / 2) @ np.array([1.0, 0, 0]), [0, 1, 0], atol=1e-12
    )
    with pytest.raises(ValueError):
        rotation_matrix(0, 1.0)


@given(
    axis=st.sampled_from([1, 2, 3]),
    angle=st.floats(-10.0, 10.0, allow_nan=False),
)
def test_rotation_matrix_is_proper(axis, angle):
    r = rotation_matrix(axis, angle)
    assert abs(np.linalg.det(r) - 1.0) < 1e-10
    assert np.abs(r @ r.T - np.eye(3)).max() < 1e-10


def test_conjugation_matches_rotated_direction(rng):
    for _ in range(6):
        angles = EulerAngles(*rng.uniform(-np.pi, np.pi, 3))
        n = random_direction(rng)
        lhs = conjugate_stokes(angles, n, 3)
        rhs = stokes_in_direction(euler_rotation_matrix(angles) @ n, 3)
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)
    np.testing.assert_allclose(
        conjugate_stokes((0, 0, 0), (0.0, 0.0, 1.0), 2), stokes_operator(3, 2), atol=1e-12
    )


def test_euler_direction_helpers():
    angles = EulerAngles(0.4, 1.1, 0.0)
    d = direction_from_euler(angles)
    assert d.as_array() == pytest.approx(
        [np.sin(1.1) * np.cos(0.4), np.sin(1.1) * np.sin(0.4), np.cos(1.1)]
    )
    r = rotated_direction(angles, (0, 0, 1))
    assert r.as_array() == pytest.approx(d.as_array())


def test_parity_of_direction_powers(rng):
    for n in (2, 3):
        v = random_direction(rng)
        plus = stokes_in_direction(v, n)
        minus = stokes_in_direction(-v, n)
        for r in range(1, 5):
            np.testing.assert_allclose(
                np.linalg.matrix_power(minus, r),
                (-1) ** r * np.linalg.matrix_power(plus, r),
                atol=1e-10,
            )


def test_operator_serialization_round_trip():
    op = stokes_in_direction(as_direction((0.0, 0.0, 1.0)), 2) + 1j * np.eye(3)
    payload = operator_to_json(op, 2)
    back, n = operator_from_json(payload)
    assert n == 2
    np.testing.assert_allclose(back, op)
