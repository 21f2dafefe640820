import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from stokes_lab.errors import NonPhysicalStateError, TruncationError
from stokes_lab.fock import EulerAngles, rotation_matrix, stokes_in_direction, su2_unitary
from stokes_lab.moments import (
    averaged_profile,
    degree_of_polarization,
    stokes_profile,
    stokes_vector_mean,
    variance_sum,
)
from stokes_lab.states import (
    BlockDiagonalState,
    GeneralTwoModeState,
    ManifoldState,
    apply_su2,
    noon,
    polarization_sector,
    single_photon_density,
    su2_coherent,
    tmsv,
    transformed_twin_fock,
    twin_fock,
    two_mode_coherent,
    two_photon_density,
    unpolarized_two_photon,
)
from stokes_lab.serialize import _complex_pairs, dumps, state_from_json, state_to_json

from conftest import random_direction, random_pure


def fock_ket(n_photons, k):
    v = np.zeros(n_photons + 1, dtype=complex)
    v[k] = 1.0
    return v


class TestManifoldState:
    def test_norm_and_trace_validation(self):
        with pytest.raises(NonPhysicalStateError):
            ManifoldState.pure(1, [1.0, 1.0])
        with pytest.raises(NonPhysicalStateError):
            ManifoldState.mixed(1, [[0.9, 0.0], [0.0, 0.2]])
        with pytest.raises(NonPhysicalStateError):
            ManifoldState.mixed(1, [[1.2, 0.0], [0.0, -0.2]])

    def test_density_of_pure_state(self):
        state = ManifoldState.pure(1, [1.0, 0.0])
        np.testing.assert_allclose(state.density(), [[1.0, 0.0], [0.0, 0.0]])

    def test_block_state_invariants(self):
        s1 = ManifoldState.fock(1, 0)
        with pytest.raises(ValueError):
            BlockDiagonalState(((1, 0.5, s1), (1, 0.5, s1)))
        with pytest.raises(NonPhysicalStateError):
            BlockDiagonalState(((1, 0.5, s1),))
        with pytest.raises(ValueError):
            BlockDiagonalState(((2, 1.0, s1),))


class TestSu2Coherent:
    def test_polar_state_is_fock(self):
        np.testing.assert_allclose(su2_coherent(1, 0.0, 0.0).amplitudes, fock_ket(1, 0))

    def test_equatorial_amplitudes(self):
        state = su2_coherent(2, math.pi / 2, 0.0)
        np.testing.assert_allclose(
            np.abs(state.amplitudes), [0.5, 1.0 / math.sqrt(2.0), 0.5], atol=1e-12
        )

    def test_matches_rotated_polar_state(self, rng):
        for n in (1, 3, 5):
            theta, phi = rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi)
            direct = su2_coherent(n, theta, phi).amplitudes
            rotated = su2_unitary((phi, theta, 0.0), n) @ fock_ket(n, 0)
            rotated = rotated * np.exp(-1j * n * phi / 2.0)
            np.testing.assert_allclose(direct, rotated, atol=1e-10)

    def test_maximal_eigenvector(self, rng):
        for n in (1, 2, 4):
            theta, phi = rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi)
            state = su2_coherent(n, theta, phi)
            direction = (
                math.sin(theta) * math.cos(phi),
                math.sin(theta) * math.sin(phi),
                math.cos(theta),
            )
            op = stokes_in_direction(direction, n)
            np.testing.assert_allclose(op @ state.amplitudes, n * state.amplitudes, atol=1e-10)

    def test_variance_sum_saturates_lower_bound(self, rng):
        for n in (1, 3, 6):
            state = su2_coherent(n, rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
            assert variance_sum(state) == pytest.approx(2.0 * n, abs=1e-10)


class TestTwoModeCoherent:
    def test_vacuum_limit(self):
        state = two_mode_coherent(0.0, 5)
        assert state.manifolds == (0,)

    def test_poissonian_weights(self):
        nbar = 1.3
        state = two_mode_coherent(nbar, 30)
        for n in (0, 1, 2, 5):
            expected = math.exp(-nbar) * nbar**n / math.factorial(n)
            assert state.probability(n) == pytest.approx(expected, rel=1e-10)

    def test_first_and_third_moment_profiles(self, rng):
        nbar = 0.9
        state = two_mode_coherent(nbar, 30)
        for _ in range(5):
            n = random_direction(rng)
            assert averaged_profile(state, 1, n) == pytest.approx(nbar * n[2], abs=1e-10)
            expected = nbar * n[2] * (1.0 + 3.0 * nbar + nbar**2 * n[2] ** 2)
            assert averaged_profile(state, 3, n) == pytest.approx(expected, abs=1e-9)

    def test_truncation_guard(self):
        with pytest.raises(TruncationError):
            two_mode_coherent(5.0, 8)


class TestTwinFock:
    def test_vacuum(self):
        assert twin_fock(0).n_photons == 0

    def test_second_moment_law(self, rng):
        for m in (1, 2, 3):
            state = twin_fock(m)
            n_tot = 2 * m
            for _ in range(4):
                n = random_direction(rng)
                sin_sq = 1.0 - n[2] ** 2
                assert stokes_profile(state, 2, n) == pytest.approx(
                    n_tot * (n_tot + 2) * sin_sq / 2.0, rel=1e-10, abs=1e-10
                )

    def test_odd_moments_vanish(self, rng):
        state = twin_fock(2)
        for r in (1, 3, 5):
            assert stokes_profile(state, r, random_direction(rng)) == pytest.approx(0.0, abs=1e-10)


class TestTransformedTwinFock:
    def test_identity_angles(self):
        state = transformed_twin_fock(2, (0.0, 0.0, 0.0))
        np.testing.assert_allclose(state.amplitudes, fock_ket(4, 2), atol=1e-12)

    def test_matches_unitary_route(self, rng):
        for m in (1, 2, 3):
            angles = EulerAngles(rng.uniform(-math.pi, math.pi), rng.uniform(0, math.pi), 0.3)
            closed = transformed_twin_fock(m, angles).amplitudes
            direct = su2_unitary(angles, 2 * m) @ fock_ket(2 * m, m)
            np.testing.assert_allclose(closed, direct, atol=1e-9)

    def test_half_rotation_coefficients(self):
        closed = transformed_twin_fock(1, (0.0, math.pi / 2, 0.0)).amplitudes
        direct = su2_unitary((0.0, math.pi / 2, 0.0), 2) @ fock_ket(2, 1)
        np.testing.assert_allclose(closed, direct, atol=1e-12)

    def test_coefficient_table_m2(self):
        angles = (0.0, 1.0, 0.0)
        closed = transformed_twin_fock(2, angles).amplitudes
        direct = su2_unitary(angles, 4) @ fock_ket(4, 2)
        for k in range(5):
            assert closed[k] == pytest.approx(direct[k], abs=1e-12)


class TestTmsv:
    def test_vacuum_limit(self):
        state = tmsv(0.0, 3)
        assert polarization_sector(state).manifolds == (0,)

    def test_pair_weights(self):
        nbar = 0.5
        sector = polarization_sector(tmsv(nbar, 14))
        for m in (0, 1, 3):
            expected = 2.0 * nbar**m / (2.0 + nbar) ** (m + 1)
            assert sector.probability(2 * m) == pytest.approx(expected, rel=1e-9)
        assert sector.manifolds == tuple(range(0, 30, 2))

    def test_phases_drop_out_of_sector(self):
        nbar = 0.4
        plain = polarization_sector(tmsv(nbar, 12))
        phased = polarization_sector(tmsv(nbar, 12, phases=[0.3 * m for m in range(13)]))
        for n in plain.manifolds:
            np.testing.assert_allclose(
                plain.block(n).density(), phased.block(n).density(), atol=1e-12
            )

    def test_second_moment_profile(self, rng):
        # compared against the infinite-sum law, so the truncation tail bounds the error
        nbar = 0.4
        state = tmsv(nbar, 15)
        for _ in range(4):
            n = random_direction(rng)
            sin_sq = 1.0 - n[2] ** 2
            assert averaged_profile(state, 2, n) == pytest.approx(
                nbar * (nbar + 2.0) * sin_sq, rel=1e-8, abs=1e-9
            )

    def test_truncation_guard(self):
        with pytest.raises(TruncationError):
            tmsv(1.0, 4)

    def test_mean_photon_number(self):
        sector = polarization_sector(tmsv(0.4, 15))
        assert sector.mean_photon_number() == pytest.approx(0.4, rel=1e-9)


class TestNoon:
    def test_single_photon_is_coherent(self):
        state = noon(1)
        equatorial = su2_coherent(1, math.pi / 2, 0.0)
        overlap = abs(np.vdot(state.amplitudes, equatorial.amplitudes))
        assert overlap == pytest.approx(1.0, abs=1e-12)

    def test_rejects_vacuum(self):
        with pytest.raises(ValueError):
            noon(0)

    def test_equatorial_laws(self):
        for n_tot, phi in ((3, 0.0), (3, 0.4), (5, 1.2)):
            state = noon(n_tot)
            direction = (math.cos(phi), math.sin(phi), 0.0)
            assert stokes_profile(state, n_tot, direction) == pytest.approx(
                math.factorial(n_tot) * math.cos(n_tot * phi), rel=1e-9, abs=1e-9
            )
        # even case picks up the constant offset: 2 cos(2 phi) + 2
        state = noon(2)
        for phi in (0.0, 0.7, 2.1):
            direction = (math.cos(phi), math.sin(phi), 0.0)
            assert stokes_profile(state, 2, direction) == pytest.approx(
                2.0 * math.cos(2 * phi) + 2.0, abs=1e-10
            )


class TestUnpolarizedTwoPhoton:
    def test_extreme_is_noon(self):
        # sqrt(1 - 2 a^2) sits at a branch point here, so only sqrt(eps) accuracy
        state = unpolarized_two_photon(1.0 / math.sqrt(2.0), 0.0)
        np.testing.assert_allclose(
            np.abs(state.amplitudes), np.abs(noon(2).amplitudes), atol=1e-7
        )

    def test_parameter_range(self):
        with pytest.raises(ValueError):
            unpolarized_two_photon(0.8, 0.0)

    def test_zero_degree_of_polarization(self, rng):
        for a in (0.0, 0.3, 0.5, 1.0 / math.sqrt(2.0)):
            state = unpolarized_two_photon(a, rng.uniform(0, 2 * math.pi))
            assert degree_of_polarization(state) == pytest.approx(0.0, abs=1e-12)

    def test_first_moments_vanish_along_any_direction(self, rng):
        state = unpolarized_two_photon(0.4, 1.1)
        for _ in range(100):
            assert stokes_profile(state, 1, random_direction(rng)) == pytest.approx(0.0, abs=1e-10)

    def test_exact_rotation_of_noon(self, rng):
        for _ in range(5):
            a = rng.uniform(0.0, 1.0 / math.sqrt(2.0))
            theta = rng.uniform(0, 2 * math.pi)
            state = unpolarized_two_photon(a, theta)
            angles = (math.pi / 2 + theta, math.acos(math.sqrt(2.0) * a), -math.pi / 2)
            rotated = apply_su2(noon(2), angles)
            np.testing.assert_allclose(state.amplitudes, rotated.amplitudes, atol=1e-10)

    def test_second_order_profile_is_rotated_noon(self, rng):
        a, theta = 0.35, 0.9
        state = unpolarized_two_photon(a, theta)
        rotation = rotation_matrix(3, theta) @ rotation_matrix(1, -math.acos(math.sqrt(2.0) * a))
        base = noon(2)
        for _ in range(20):
            n = random_direction(rng)
            rotated_dir = rotation.T @ n  # inverse rotation moves the probe
            assert stokes_profile(state, 2, n) == pytest.approx(
                stokes_profile(base, 2, rotated_dir), rel=1e-9, abs=1e-9
            )


class TestPhotonDensities:
    def test_single_photon_pure_case(self):
        state = single_photon_density(1.0, 0.0, 0.0)
        np.testing.assert_allclose(state.density(), [[1.0, 0.0], [0.0, 0.0]])

    def test_single_photon_profile(self, rng):
        pi0, re, im = 0.6, 0.2, -0.15
        state = single_photon_density(pi0, re, im)
        for _ in range(5):
            n = random_direction(rng)
            expected = 2 * re * n[0] - 2 * im * n[1] + (2 * pi0 - 1) * n[2]
            assert stokes_profile(state, 1, n) == pytest.approx(expected, abs=1e-12)

    def test_single_photon_nonphysical(self):
        with pytest.raises(NonPhysicalStateError):
            single_photon_density(0.5, 0.6, 0.0)

    def test_two_photon_second_order_profile(self, rng):
        params = dict(pi1=0.3, pi2=0.4, coh=(0.1, 0.05, -0.08), coh_imag=(0.02, -0.03, 0.04))
        state = two_photon_density(**params)
        r1, r2, r3 = params["coh"]
        i1, i2, i3 = params["coh_imag"]
        pi2 = params["pi2"]
        rt2 = math.sqrt(2.0)
        for _ in range(5):
            n = random_direction(rng)
            expected = (
                2 * (1 + pi2 + 2 * r2) * n[0] ** 2
                + 2 * (1 + pi2 - 2 * r2) * n[1] ** 2
                + 4 * (1 - pi2) * n[2] ** 2
                - 8 * i2 * n[0] * n[1]
                + 4 * rt2 * n[2] * ((r1 - r3) * n[0] - (i1 - i3) * n[1])
            )
            assert stokes_profile(state, 2, n) == pytest.approx(expected, abs=1e-10)

    def test_two_photon_nonphysical(self):
        with pytest.raises(NonPhysicalStateError):
            two_photon_density(0.9, 0.2, (0.0, 0.0, 0.0), (0.0, 0.0, 0.0))


class TestPolarizationSector:
    def test_pure_polar_state(self):
        amps = {(3, 0): 1.0}
        state = GeneralTwoModeState(3, amps)
        sector = polarization_sector(state)
        assert sector.manifolds == (3,)
        np.testing.assert_allclose(sector.block(3).amplitudes, fock_ket(3, 0))

    def test_projection_against_dense_oracle(self, rng):
        # random lattice state; compare against projector-sandwich on the dense form
        n_max = 3
        points = [(nh, nv) for total in range(n_max + 1) for nh, nv in [(total - k, k) for k in range(total + 1)]]
        raw = rng.normal(size=len(points)) + 1j * rng.normal(size=len(points))
        raw /= np.linalg.norm(raw)
        state = GeneralTwoModeState(n_max, dict(zip(points, raw)))
        rho = np.outer(raw, raw.conj())
        sector = polarization_sector(state)
        for n in range(n_max + 1):
            idx = [i for i, (nh, nv) in enumerate(points) if nh + nv == n]
            sub = rho[np.ix_(idx, idx)]
            weight = np.trace(sub).real
            assert sector.probability(n) == pytest.approx(weight, abs=1e-12)
            np.testing.assert_allclose(
                sector.block(n).density(), sub / weight, atol=1e-10
            )

    def test_density_form_matches_pure_form(self, rng):
        n_max = 3
        points = [(t - k, k) for t in range(n_max + 1) for k in range(t + 1)]
        raw = rng.normal(size=len(points)) + 1j * rng.normal(size=len(points))
        raw /= np.linalg.norm(raw)
        pure = GeneralTwoModeState(n_max, dict(zip(points, raw)))
        mixed = GeneralTwoModeState(n_max, matrix=np.outer(raw, raw.conj()))
        sector_a = polarization_sector(pure)
        sector_b = polarization_sector(mixed)
        assert sector_a.manifolds == sector_b.manifolds
        for n in sector_a.manifolds:
            assert sector_b.probability(n) == pytest.approx(sector_a.probability(n), abs=1e-12)
            np.testing.assert_allclose(
                sector_b.block(n).density(), sector_a.block(n).density(), atol=1e-10
            )
        angles = (0.3, 1.0, -0.7)
        rot_a = polarization_sector(apply_su2(pure, angles))
        rot_b = polarization_sector(apply_su2(mixed, angles))
        for n in rot_a.manifolds:
            np.testing.assert_allclose(
                rot_b.block(n).density(), rot_a.block(n).density(), atol=1e-10
            )

    def test_lattice_density_validation(self, rng):
        with pytest.raises(ValueError):
            GeneralTwoModeState(2)  # neither form given
        with pytest.raises(NonPhysicalStateError):
            GeneralTwoModeState(1, matrix=np.eye(3, dtype=complex))  # trace 3

    def test_coherent_state_sector_is_poissonian(self):
        alpha_sq = 0.7
        n_max = 25
        amps = {}
        log_norm = -alpha_sq / 2.0
        for n in range(n_max + 1):
            amps[(n, 0)] = math.exp(log_norm + n * math.log(math.sqrt(alpha_sq))) / math.sqrt(
                math.factorial(n)
            )
        vec = np.array([amps[(n, 0)] for n in range(n_max + 1)])
        vec /= np.linalg.norm(vec)
        state = GeneralTwoModeState(n_max, {(n, 0): vec[n] for n in range(n_max + 1)})
        sector = polarization_sector(state)
        for n in (0, 1, 2, 4):
            expected = math.exp(-alpha_sq) * alpha_sq**n / math.factorial(n)
            assert sector.probability(n) == pytest.approx(expected, rel=1e-8)


class TestApplySu2:
    def test_identity_angles(self, rng):
        state = ManifoldState.pure(3, random_pure(3, rng))
        out = apply_su2(state, (0.0, 0.0, 0.0))
        np.testing.assert_allclose(out.amplitudes, state.amplitudes, atol=1e-12)

    def test_profile_rotation_covariance(self, rng):
        state = ManifoldState.pure(3, random_pure(3, rng))
        angles = EulerAngles(0.7, 1.1, -0.4)
        transformed = apply_su2(state, angles)
        inverse = (
            rotation_matrix(3, -angles.xi)
            @ rotation_matrix(2, -angles.theta)
            @ rotation_matrix(3, -angles.phi)
        )
        for r in (1, 2, 3):
            for _ in range(5):
                n = random_direction(rng)
                assert stokes_profile(transformed, r, n) == pytest.approx(
                    stokes_profile(state, r, inverse @ n), rel=1e-9, abs=1e-9
                )

    def test_degree_of_polarization_invariant(self, rng):
        state = ManifoldState.pure(2, random_pure(2, rng))
        base = degree_of_polarization(state)
        for _ in range(5):
            angles = rng.uniform(-math.pi, math.pi, 3)
            assert degree_of_polarization(apply_su2(state, angles)) == pytest.approx(base, abs=1e-10)

    def test_block_probabilities_unchanged(self):
        state = two_mode_coherent(0.8, 25)
        rotated = apply_su2(state, (0.3, 0.9, 1.4))
        for n in state.manifolds:
            assert rotated.probability(n) == state.probability(n)

    def test_lattice_state_rotation_preserves_sector_weights(self):
        state = tmsv(0.4, 12)
        rotated = apply_su2(state, (0.2, 0.5, -0.1))
        before = polarization_sector(state)
        after = polarization_sector(rotated)
        assert before.manifolds == after.manifolds
        for n in before.manifolds:
            assert after.probability(n) == pytest.approx(before.probability(n), abs=1e-12)


def test_constructed_densities_are_physical(rng):
    # every constructor output passes the PSD/trace validator by construction;
    # spot-check eigenvalues stay above the tolerance floor
    states_ = [
        su2_coherent(4, 1.0, 0.3),
        twin_fock(2),
        noon(3),
        unpolarized_two_photon(0.5, 0.2),
        single_photon_density(0.7, 0.1, 0.2),
        two_photon_density(0.3, 0.3, (0.1, 0.0, 0.1), (0.0, 0.1, 0.0)),
    ]
    for state in states_:
        rho = state.density()
        assert np.abs(rho - rho.conj().T).max() < 1e-12
        assert np.linalg.eigvalsh(rho).min() > -1e-10
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-10)


def test_state_serialization_round_trip(rng):
    state = two_mode_coherent(0.9, 25)
    payload = state_to_json(state, family="coherent", params={"nbar": 0.9})
    back = state_from_json(payload)
    assert back.manifolds == state.manifolds
    for n in state.manifolds:
        np.testing.assert_allclose(back.block(n).density(), state.block(n).density(), atol=1e-12)
    assert payload["type"] == "coherent"


def test_complex_pairs_match_the_entrywise_writer(rng):
    specials = [0.0, -0.0, 1e-300, -1e-300, 5e-324, 1e300, 1.0 / 3.0]
    z = np.empty(3**6, dtype=complex)
    z.real = rng.normal(size=z.size) * 10.0 ** rng.integers(-300, 300, size=z.size)
    z.imag = rng.normal(size=z.size)
    z.real[: len(specials)] = specials
    z.imag[len(specials) : 2 * len(specials)] = specials
    entrywise = [[float(v.real), float(v.imag)] for v in z]
    assert dumps(_complex_pairs(z)) == dumps(entrywise)
    matrix = z.reshape(27, 27)
    rows = [[[float(v.real), float(v.imag)] for v in row] for row in matrix]
    assert dumps(_complex_pairs(matrix)) == dumps(rows)


def test_degree_of_polarization_examples():
    assert degree_of_polarization(su2_coherent(3, 0.9, 0.4)) == pytest.approx(1.0, abs=1e-10)
    assert degree_of_polarization(twin_fock(2)) == pytest.approx(0.0, abs=1e-12)
    state = single_photon_density(0.8, 0.1, -0.2)
    purity = float(np.trace(state.density() @ state.density()).real)
    assert degree_of_polarization(state) == pytest.approx(math.sqrt(2 * purity - 1), abs=1e-12)
    with pytest.raises(ValueError):
        degree_of_polarization(ManifoldState.fock(0, 0))


def test_stokes_vector_mean_of_polar_state():
    np.testing.assert_allclose(stokes_vector_mean(su2_coherent(4, 0.0, 0.0)), [0, 0, 4], atol=1e-12)


# any float that is not finite: NaN or either infinity
non_finite = st.floats(allow_nan=True, allow_infinity=True).map(
    lambda v: v if not math.isfinite(v) else math.nan
)


@given(non_finite, st.integers(0, 1), st.booleans())
def test_manifold_state_rejects_non_finite_entries(bad, index, imaginary):
    entry = complex(0.0, bad) if imaginary else bad
    amplitudes = [1.0, 0.0]
    amplitudes[index] = entry
    with pytest.raises(ValueError, match="finite"):
        ManifoldState.pure(1, amplitudes)
    matrix = [[0.5, 0.0], [0.0, 0.5]]
    matrix[index][1 - index] = entry
    with pytest.raises(ValueError, match="finite"):
        ManifoldState.mixed(1, matrix)


@given(non_finite)
def test_block_state_rejects_non_finite_weights(bad):
    s1, s2 = ManifoldState.fock(1, 0), ManifoldState.fock(2, 0)
    with pytest.raises(ValueError, match="finite"):
        BlockDiagonalState(((1, 0.5, s1), (2, bad, s2)))
    with pytest.raises(ValueError, match="finite"):
        BlockDiagonalState(((1, 1.0, s1),), truncation_deficit=bad)
    with pytest.raises(ValueError, match="finite"):
        GeneralTwoModeState(2, {(1, 0): 1.0}, truncation_deficit=bad)
    with pytest.raises(ValueError, match="finite"):
        GeneralTwoModeState(2, {(1, 0): 1.0, (0, 1): bad})


@pytest.mark.parametrize("bad", [-5.0, -1e-300, 1.0, 3.0])
def test_truncation_deficit_outside_unit_interval_rejected(bad):
    with pytest.raises(ValueError, match=r"\[0, 1\)"):
        BlockDiagonalState(((1, 1.0, ManifoldState.fock(1, 0)),), truncation_deficit=bad)
    with pytest.raises(ValueError, match=r"\[0, 1\)"):
        GeneralTwoModeState(2, {(1, 0): 1.0}, truncation_deficit=bad)
    with pytest.raises(ValueError, match=r"\[0, 1\)"):
        state_from_json({"blocks": [{"N": 0, "pN": 1.0, "vector": [[1.0, 0.0]]}], "truncation_deficit": bad})


@given(non_finite, st.floats(0.0, 2.0 * math.pi), st.booleans())
def test_family_constructors_reject_non_finite_parameters(bad, good, bad_theta):
    theta, phi = (bad, good) if bad_theta else (good, bad)
    with pytest.raises(ValueError, match="finite"):
        su2_coherent(2, theta, phi)
    with pytest.raises(ValueError, match="finite"):
        two_mode_coherent(bad, 5)
    with pytest.raises(ValueError, match="finite"):
        tmsv(bad, 3)


# each builder turns a photon-number argument n into a state and reads back
# the label it keeps, which is 2 or 4 for n = 2
_PHOTON_NUMBER_BUILDERS = {
    "ManifoldState": (lambda n: ManifoldState.pure(n, [1, 0, 0]), lambda s: s.n_photons, 2),
    "BlockDiagonalState": (lambda n: BlockDiagonalState(((n, 1.0, noon(2)),)), lambda s: s.manifolds[0], 2),
    "GeneralTwoModeState": (lambda n: GeneralTwoModeState(n, {(1, 0): 1.0}), lambda s: s.n_max, 2),
    "ManifoldState.fock": (lambda n: ManifoldState.fock(0, n), lambda s: s.n_photons, 2),
    "two_mode_coherent": (lambda n: two_mode_coherent(1e-6, n), lambda s: s.manifolds[-1], 2),
    "twin_fock": (twin_fock, lambda s: s.n_photons, 4),
    "transformed_twin_fock": (lambda n: transformed_twin_fock(n, (0.3, 0.8, 0.1)), lambda s: s.n_photons, 4),
    "tmsv": (lambda n: tmsv(1e-6, n), lambda s: s.n_max, 4),
}


@pytest.mark.parametrize("bad", [2.0, 2.5, True], ids=["float-integral", "float", "bool"])
@pytest.mark.parametrize("name", sorted(_PHOTON_NUMBER_BUILDERS))
def test_photon_numbers_are_integers_at_the_boundary(name, bad):
    build, label, expected = _PHOTON_NUMBER_BUILDERS[name]
    with pytest.raises(ValueError, match="photon number must be a non-negative integer"):
        build(bad)
    kept = label(build(np.int64(2)))
    assert type(kept) is int and kept == expected


@pytest.mark.parametrize(
    "key",
    [(1.5, 0), (2.0, 0), (True, 0), (0, 1.5), (-1, 1)],
    ids=["float", "float-integral", "bool", "float-vertical", "negative"],
)
def test_lattice_occupations_are_integers(key):
    with pytest.raises(ValueError, match="photon number must be a non-negative integer"):
        GeneralTwoModeState(2, {key: 1.0})
    kept = GeneralTwoModeState(2, {(np.int64(1), np.int64(0)): 1.0}).amplitudes
    assert kept == {(1, 0): 1.0} and all(type(n) is int for n in next(iter(kept)))


@pytest.mark.parametrize(
    "extra, block, message",
    [
        pytest.param(
            {"truncation_deficit": "0.5"},
            {"vector": [[1.0, 0.0], [0.0, 0.0]]},
            "state field 'truncation_deficit' must be a number, got '0.5'",
            id="deficit-string",
        ),
        pytest.param(
            {"truncation_deficit": False},
            {"vector": [[1.0, 0.0], [0.0, 0.0]]},
            "state field 'truncation_deficit' must be a number, got False",
            id="deficit-bool",
        ),
        pytest.param(
            {},
            {"vector": [[True, False], [False, False]]},
            "state block 0 field 'vector' must hold [re, im] pairs of numbers, got True",
            id="vector-bools",
        ),
        pytest.param(
            {},
            {"vector": [[1.0, 0.0], ["0", 0.0]]},
            "state block 0 field 'vector' must hold [re, im] pairs of numbers, got '0'",
            id="vector-string",
        ),
        pytest.param(
            {},
            {"vector": [[1.0, 0.0, 0.0], [0.0, 0.0]]},
            "state block 0 field 'vector' must be a list of [re, im] pairs",
            id="vector-triple",
        ),
        pytest.param(
            {},
            {"vector": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]},
            "state block 0 field 'vector' must be a list of [re, im] pairs",
            id="vector-given-a-matrix",
        ),
        pytest.param(
            {},
            {"matrix": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, None]]]},
            "state block 0 field 'matrix' must hold [re, im] pairs of numbers, got None",
            id="matrix-null",
        ),
        pytest.param(
            {},
            {"matrix": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0]]]},
            "state block 0 field 'matrix' must be rows of [re, im] pairs",
            id="matrix-ragged",
        ),
    ],
)
def test_state_from_json_rejects_wrong_json_types(extra, block, message):
    with pytest.raises(ValueError) as info:
        state_from_json({"blocks": [{"N": 1, "pN": 1.0, **block}], **extra})
    assert str(info.value) == message


def test_state_from_json_rejects_non_finite_probability():
    payload = state_to_json(noon(2))
    payload["blocks"][0]["pN"] = math.nan
    with pytest.raises(ValueError, match="finite"):
        state_from_json(payload)
