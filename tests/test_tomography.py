import hashlib
import inspect
import math
import os
import re
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from stokes_lab import reference, tomography
from stokes_lab.errors import NoManifoldReconstructedError, NonPhysicalStateError, RankDeficientError
from stokes_lab.fock import Direction, as_direction, rotated_fock_bases, stokes_in_direction
from stokes_lab.moments import (
    MAX_TENSOR_ORDER,
    averaged_profile,
    component_classes,
    components_from_state,
    polarization_tensor,
    stokes_profile,
)
from stokes_lab.serialize import record_from_json, record_to_json
from stokes_lab.states import (
    BlockDiagonalState,
    ManifoldState,
    as_block_diagonal,
    noon,
    su2_coherent,
    twin_fock,
    two_mode_coherent,
    unpolarized_two_photon,
)
from stokes_lab.tomography import (
    DirectionSet,
    MeasurementRecord,
    MeasurementSetting,
    averaged_second_order_components,
    axes_directions,
    choose_directions,
    closed_form_second_order,
    distribution_moment,
    estimate_moments,
    icosahedral_directions,
    non_resolved_manifold_moments,
    outcome_distribution,
    reconstruct_density,
    reduced_design_singular_values,
    run_tomography,
    simulate_measurement,
    solve_moment_components,
    third_order_fallback_directions,
    third_order_symmetric_directions,
    trace_distance,
)

from conftest import random_density, random_direction

E3 = Direction(0.0, 0.0, 1.0)
E1 = Direction(1.0, 0.0, 0.0)

# any float that is not finite: NaN or either infinity
non_finite = st.floats(allow_nan=True, allow_infinity=True).map(lambda v: v if not math.isfinite(v) else math.nan)


def eigh_outcome_distribution(state, n):
    """Reference law: diagonalize n . S on each block and round the eigenvalues."""
    block = as_block_diagonal(state)
    dist = {}
    for n_photons, p, ms in block.blocks:
        evals, evecs = np.linalg.eigh(stokes_in_direction(as_direction(n), n_photons))
        rho = ms.density()
        for s, v in zip(evals, evecs.T):
            prob = max(float((v.conj() @ rho @ v).real), 0.0)
            dist[(n_photons, int(round(s)))] = p * prob
    total = sum(dist.values())
    return {k: v / total for k, v in dist.items() if v > 0.0}


class TestOutcomeDistribution:
    def test_polar_single_photon(self):
        dist = outcome_distribution(ManifoldState.fock(1, 0), E3)
        assert dist == {(1, 1): pytest.approx(1.0)}

    def test_twin_fock_along_z(self):
        dist = outcome_distribution(twin_fock(1), E3)
        assert dist == {(2, 0): pytest.approx(1.0)}

    def test_noon_two_along_x(self):
        dist = outcome_distribution(noon(2), E1)
        assert dist.get((2, 0), 0.0) == pytest.approx(0.0, abs=1e-12)
        assert dist[(2, 2)] == pytest.approx(0.5, abs=1e-12)
        assert dist[(2, -2)] == pytest.approx(0.5, abs=1e-12)

    def test_moments_match_matrix_route(self, rng):
        state = ManifoldState.mixed(3, random_density(3, rng))
        for _ in range(5):
            v = random_direction(rng)
            dist = outcome_distribution(state, v)
            for r in (1, 2, 3, 4):
                assert distribution_moment(dist, r, 3) == pytest.approx(
                    stokes_profile(state, r, v), abs=1e-10
                )

    def test_fock_states_along_z_give_one_outcome(self):
        for n in range(1, 9):
            for k in range(n + 1):
                state = ManifoldState.fock(n - k, k)
                assert outcome_distribution(state, E3) == {(n, n - 2 * k): 1.0}
                assert outcome_distribution(state, Direction(0.0, 0.0, -1.0)) == {(n, 2 * k - n): 1.0}

    def test_coherent_sector_matches_eigh_reference(self):
        state = two_mode_coherent(2.0, 25)
        for order in range(1, 7):
            for d in choose_directions(order).directions:
                dist = outcome_distribution(state, d)
                reference = eigh_outcome_distribution(state, d)
                for key in set(dist) | set(reference):
                    assert abs(dist.get(key, 0.0) - reference.get(key, 0.0)) <= 1e-12, (order, key)

    def test_opposite_direction_mirrors_eigenvalues(self, rng):
        state = ManifoldState.mixed(2, random_density(2, rng))
        v = random_direction(rng)
        plus = outcome_distribution(state, v)
        minus = outcome_distribution(state, -v)
        for (n, s), p in plus.items():
            assert minus[(n, -s)] == pytest.approx(p, abs=1e-12)


class TestSimulation:
    def test_single_shot_deterministic_state(self):
        setting = MeasurementSetting(E3, 1, 42)
        record = simulate_measurement(ManifoldState.fock(1, 0), setting)
        assert record.counts == {(1, 1): 1}

    def test_equal_seeds_equal_records(self):
        setting = MeasurementSetting(E1, 5000, 123)
        a = simulate_measurement(noon(2), setting)
        b = simulate_measurement(noon(2), setting)
        assert a.counts == b.counts

    @pytest.mark.parametrize(
        "state, direction, tied, chunk",
        [
            pytest.param(su2_coherent(3, 0.8, 0.3), E1, False, chunk, id=str(chunk))
            for chunk in (1, 7, 500)
        ]
        + [
            # 91 outcomes over the manifolds N = 0..12
            pytest.param(two_mode_coherent(1.0, 12), E1, False, chunk, id=f"many-outcomes-{chunk}")
            for chunk in (1, 7, 500)
        ]
        + [
            # nearly antiparallel: after the leading outcome the cumulative
            # sum no longer moves, so several edges are equal
            pytest.param(
                su2_coherent(4, 1e-6, 0.0),
                Direction.from_vector((1e-3, 0.0, -1.0), normalize=True),
                True,
                chunk,
                id=f"tied-edges-{chunk}",
            )
            for chunk in (1, 7, 500)
        ],
    )
    def test_chunk_size_leaves_the_record_unchanged(self, monkeypatch, state, direction, tied, chunk):
        setting = MeasurementSetting(direction, 500, 31)
        # reference: the whole Philox stream drawn at once, each draw binned
        # by its own binary search
        dist = outcome_distribution(state, direction)
        outcomes = sorted(dist)
        edges = np.cumsum([dist[o] for o in outcomes])
        edges[-1] = 1.0
        assert bool(np.any(np.diff(edges) == 0.0)) == tied
        draws = np.random.Generator(np.random.Philox(key=31)).random(500)
        counts = np.bincount(np.searchsorted(edges, draws, side="right"), minlength=len(outcomes))
        want = {o: int(c) for o, c in zip(outcomes, counts) if c > 0}
        monkeypatch.setattr(tomography, "SAMPLE_CHUNK", chunk)
        assert simulate_measurement(state, setting).counts == want

    def test_sampling_memory_does_not_grow_with_shots(self, monkeypatch):
        monkeypatch.setattr(tomography, "SAMPLE_CHUNK", 1 << 10)
        tracemalloc.start()
        try:
            simulate_measurement(noon(2), MeasurementSetting(E1, 1 << 18, 3))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # drawing all 2^18 uniforms at once would take 2 MiB for them alone
        assert peak < 1 << 18

    def test_different_seeds_differ(self):
        a = simulate_measurement(noon(2), MeasurementSetting(E1, 5000, 1))
        b = simulate_measurement(noon(2), MeasurementSetting(E1, 5000, 2))
        assert a.counts != b.counts

    def test_noon_second_moment_within_errors(self):
        setting = MeasurementSetting(E1, 100_000, 7)
        record = simulate_measurement(noon(2), setting)
        emp = estimate_moments(record, [2])
        value, err = emp.moment(2, 2)
        assert abs(value - 4.0) <= max(3.0 * err, 1e-9)

    def test_record_validation(self):
        setting = MeasurementSetting(E3, 3, 0)
        with pytest.raises(ValueError):
            MeasurementRecord(setting, {(1, 1): 2})  # wrong total
        with pytest.raises(ValueError):
            MeasurementRecord(setting, {(1, 2): 3})  # impossible outcome
        with pytest.raises(ValueError, match="integer pairs"):
            MeasurementRecord(setting, {(1.5, -0.5): 3})  # fractional labels pass the parity test

    @given(st.one_of(st.floats(allow_nan=True, allow_infinity=True), st.booleans()), st.booleans())
    def test_setting_requires_integer_shots_and_seed(self, bad, bad_seed):
        # a float or bool must be refused here, before the sampler takes it as a count or key
        shots, seed = (10, bad) if bad_seed else (bad, 3)
        with pytest.raises(ValueError, match="must be an integer"):
            MeasurementSetting(E1, shots, seed)

    def test_setting_direction_is_a_validated_direction(self):
        assert MeasurementSetting((0.0, 0.0, 1.0), 3, 0).direction == E3
        with pytest.raises(ValueError, match="unit vector"):
            MeasurementSetting((0.0, 0.0, 2.0), 3, 0)
        record = simulate_measurement(noon(2), MeasurementSetting((1.0, 0.0, 0.0), 3, 0))
        assert record_to_json(record)["direction"] == [1.0, 0.0, 0.0]

    @given(st.floats(0.0, 3.0))
    def test_record_requires_integer_counts(self, up):
        setting = MeasurementSetting(E3, 3, 0)
        with pytest.raises(ValueError, match="counts must be non-negative integers"):
            MeasurementRecord(setting, {(1, 1): up, (1, -1): 3.0 - up})

    def test_statistical_consistency_over_seeds(self):
        # estimates fall within five standard errors almost always
        state = noon(2)
        truth = {r: stokes_profile(state, r, E1) for r in (1, 2)}
        hits = trials = 0
        for seed in range(200):
            record = simulate_measurement(state, MeasurementSetting(E1, 100_000, seed))
            emp = estimate_moments(record, [1, 2])
            for r in (1, 2):
                value, err = emp.moment(2, r)
                trials += 1
                hits += abs(value - truth[r]) <= 5.0 * max(err, 1e-12)
        assert hits / trials >= 0.99


class TestEstimates:
    def test_zeroth_moment_is_one(self):
        record = simulate_measurement(noon(2), MeasurementSetting(E1, 500, 3))
        emp = estimate_moments(record, [0])
        assert emp.moment(2, 0).value == pytest.approx(1.0)

    def test_exact_limit(self):
        state = su2_coherent(2, 1.0, 0.5)
        v = Direction.from_vector(random_direction(np.random.default_rng(5)))
        record = simulate_measurement(state, MeasurementSetting(v, 1_000_000, 11))
        emp = estimate_moments(record, [1, 2, 3])
        dist = outcome_distribution(state, v)
        for r in (1, 2, 3):
            value, err = emp.moment(2, r)
            exact = distribution_moment(dist, r, 2)
            assert abs(value - exact) <= 5.0 * max(err, 1e-12)

    def test_twin_fock_odd_moment_tends_to_zero(self):
        record = simulate_measurement(twin_fock(1), MeasurementSetting(E1, 200_000, 9))
        emp = estimate_moments(record, [1, 3])
        for r in (1, 3):
            value, err = emp.moment(2, r)
            assert abs(value) <= 5.0 * max(err, 1e-12)

    def test_empty_manifold_is_undefined(self):
        record = simulate_measurement(noon(2), MeasurementSetting(E1, 100, 1))
        emp = estimate_moments(record, [1])
        assert emp.moment(1, 1) is None

    def test_many_manifold_record_matches_exact_law(self):
        state = two_mode_coherent(2.0, 25)
        assert len(state.manifolds) == 26
        v = Direction.from_vector((0.3, -0.5, 0.8), normalize=True)
        record = simulate_measurement(state, MeasurementSetting(v, 200_000, 12))
        emp = estimate_moments(record, [1, 2, 3])
        dist = outcome_distribution(state, v)
        checked = 0
        for n, (p_hat, p_err) in emp.manifold_probabilities.items():
            p_exact = sum(p for (nn, _), p in dist.items() if nn == n)
            assert abs(p_hat - p_exact) <= 5.0 * max(p_err, 1e-12), n
            if p_hat * record.setting.shots < 100:
                continue
            checked += 1
            for r in (1, 2, 3):
                value, err = emp.moment(n, r)
                assert abs(value - distribution_moment(dist, r, n)) <= 5.0 * max(err, 1e-12), (n, r)
        assert checked >= 5
        for n in set(state.manifolds) - set(emp.manifold_probabilities):
            assert emp.moment(n, 1) is None
            assert distribution_moment(dist, 1, n) is not None


class TestDirectionSets:
    def test_first_order_axes(self):
        dirs = axes_directions()
        np.testing.assert_allclose([d.as_array() for d in dirs.directions], np.eye(3))

    def test_icosahedral_norms_exact(self):
        for d in icosahedral_directions().directions:
            assert abs(d.x**2 + d.y**2 + d.z**2 - 1.0) < 1e-15

    def test_symmetric_seven_reduced_rank_four(self):
        sv = reduced_design_singular_values(third_order_symmetric_directions().directions, 3)
        assert int((sv > sv[0] * 1e-12).sum()) == 4
        assert sv[4] / sv[0] < 1e-12

    def test_fallback_set_conditioned(self):
        sv = reduced_design_singular_values(third_order_fallback_directions().directions, 3)
        assert int((sv > sv[0] * 1e-12).sum()) == 7
        assert sv[0] / sv[-1] < 100.0

    def test_fallback_constants_reproducible(self):
        derived, cond = reference.derive_third_order_fallback()
        frozen = third_order_fallback_directions().directions[:3]
        for d, f in zip(derived, frozen):
            np.testing.assert_allclose(d.as_array(), f.as_array(), atol=1e-12)
        assert cond < 100.0

    def test_generic_set_full_rank(self):
        # the paper's route solves each order from its own lines alone
        for order in range(4, 15):
            dset = choose_directions(order)
            assert len(dset.directions) == 2 * order + 1
            sv = reduced_design_singular_values(dset.directions, order)
            assert int((sv > sv[0] * 1e-12).sum()) == 2 * order + 1

    # sha256 of each spiral set's packed float64 (x, y, z) rows; a change here
    # changes every exact and finite-shot result above order three
    GENERIC_SET_SHA256 = {
        4: "f10eb8e52e975c24a1059623299b25261fb8ec3fa87bd47562265327014cd9b7",
        5: "64ca4d1d9a128bb374bc278c30636447101e361c1615bd1018c03edb8363a9cf",
        6: "1f001cef4604b47a9c431288c88fbf80cbb536a96b905d124cdec806e3d58b0e",
        7: "c6ad2e413db89f5ebbe2e630f8ebc01fac42782fbffdd464135612febbc59976",
        8: "1e418ff6bb15e8919050aee02244df98eed2f9f5490cf4ac13ceaf2ccc2b5ff8",
        9: "b22d388562d22c31f0e62574146ab1d6bd2c675017250806a074331137013fcf",
        10: "8b32b8f3cd12e801be601f8c4d3b898b180feb95ec09388c384edd2f5c82fd83",
        11: "767647fcd382398001aa54898d3f8438d18bfa074279836c11b1ac199f2d8736",
        12: "4fe38e765ac6ed93e5c78b224cd5afb43a759410105cdeaf582a27def4cc044c",
        13: "c2c8a1d15dc5935dd1829f5f64e0df76da19657d4b2b7c2ddd5f836df7f12eae",
        14: "16d85cb77b27b15d48d5183006fcf7ef09f92612bcff352ac79b710e8371db6c",
    }

    @pytest.mark.parametrize("order", sorted(GENERIC_SET_SHA256))
    def test_generic_set_is_pinned(self, order):
        rows = np.array([d.as_array() for d in choose_directions(order).directions], dtype="<f8")
        assert hashlib.sha256(rows.tobytes()).hexdigest() == self.GENERIC_SET_SHA256[order]

    def test_choose_dispatch(self):
        assert choose_directions(1).label == "coordinate-axes"
        assert choose_directions(2).label == "icosahedral-five"
        assert choose_directions(3).label == "conditioned-seven"

    def test_symmetric_seven_design_refused_with_rank_report(self):
        # the per-order rank guard of the paper's route, which run_tomography does not take
        with pytest.raises(RankDeficientError) as info:
            reference._checked_design(third_order_symmetric_directions().directions, 3)
        assert info.value.rank == 4
        assert info.value.expected == 7
        assert np.asarray(info.value.deficient_directions).shape == (3, 10)
        assert "rank 4" in str(info.value) and "condition number" in str(info.value)


class TestSecondOrderInversion:
    def exact_inputs(self, state):
        return [stokes_profile(state, 2, d) for d in icosahedral_directions().directions]

    def test_polar_two_photon(self):
        comp = closed_form_second_order(self.exact_inputs(ManifoldState.fock(2, 0)), 2)
        assert comp[(0, 0)] == pytest.approx(4.0, abs=1e-10)
        assert comp[(2, 0)] == pytest.approx(2.0, abs=1e-10)
        assert comp[(0, 2)] == pytest.approx(2.0, abs=1e-10)
        for cls in ((1, 0), (0, 1), (1, 1)):
            assert comp[cls] == pytest.approx(0.0, abs=1e-10)

    def test_vacuum(self):
        comp = closed_form_second_order([0.0] * 5, 0)
        for cls in component_classes(2):
            assert comp[cls] == pytest.approx(0.0, abs=1e-12)

    def test_random_states_match_tensor_route(self, rng):
        for _ in range(30):
            state = ManifoldState.mixed(2, random_density(2, rng))
            comp = closed_form_second_order(self.exact_inputs(state), 2)
            want = components_from_state(state, 2)
            for cls in component_classes(2):
                assert comp[cls] == pytest.approx(want[cls], abs=1e-10)

    def test_solver_agrees_with_closed_form(self, rng):
        state = ManifoldState.mixed(2, random_density(2, rng))
        measured = self.exact_inputs(state)
        closed = closed_form_second_order(measured, 2)
        solved, diag = solve_moment_components(
            icosahedral_directions().directions, measured, 2, 2
        )
        np.testing.assert_allclose(solved.as_vector(), closed.as_vector(), atol=1e-9)
        assert diag.rank == 5
        assert diag.condition_number < 10.0


class TestSolver:
    def test_first_order_axes_identity(self, rng):
        state = ManifoldState.mixed(2, random_density(2, rng))
        dirs = axes_directions().directions
        measured = [stokes_profile(state, 1, d) for d in dirs]
        comp, diag = solve_moment_components(dirs, measured, 2, 1)
        assert comp[(1, 0)] == pytest.approx(measured[0], abs=1e-12)
        assert comp[(0, 1)] == pytest.approx(measured[1], abs=1e-12)
        assert comp[(0, 0)] == pytest.approx(measured[2], abs=1e-12)
        assert diag.rank == 3

    def test_symmetric_seven_fails_with_rank_four(self, rng):
        state = ManifoldState.mixed(3, random_density(3, rng))
        dirs = third_order_symmetric_directions().directions
        measured = [stokes_profile(state, 3, d) for d in dirs]
        lower = {r: polarization_tensor(state, r) for r in (1, 2)}
        with pytest.raises(RankDeficientError) as info:
            solve_moment_components(dirs, measured, 3, 3, lower_tensors=lower)
        assert info.value.rank == 4
        assert info.value.expected == 7
        assert np.asarray(info.value.deficient_directions).shape == (3, 10)

    def test_fallback_recovers_third_order(self, rng):
        for _ in range(10):
            state = ManifoldState.mixed(3, random_density(3, rng))
            dirs = third_order_fallback_directions().directions
            measured = [stokes_profile(state, 3, d) for d in dirs]
            lower = {r: polarization_tensor(state, r) for r in (1, 2)}
            comp, diag = solve_moment_components(dirs, measured, 3, 3, lower_tensors=lower)
            want = components_from_state(state, 3)
            for cls in component_classes(3):
                assert comp[cls] == pytest.approx(want[cls], rel=1e-8, abs=1e-8)
            assert diag.condition_number < 100.0

    def test_requires_lower_tensors_above_order_two(self, rng):
        state = ManifoldState.mixed(3, random_density(3, rng))
        dirs = third_order_fallback_directions().directions
        measured = [stokes_profile(state, 3, d) for d in dirs]
        with pytest.raises(ValueError):
            solve_moment_components(dirs, measured, 3, 3)

    def test_generic_fourth_order(self, rng):
        state = ManifoldState.mixed(4, random_density(4, rng))
        dirs = choose_directions(4).directions
        measured = [stokes_profile(state, 4, d) for d in dirs]
        lower = {r: polarization_tensor(state, r) for r in (1, 2, 3)}
        comp, _ = solve_moment_components(dirs, measured, 4, 4, lower_tensors=lower)
        want = components_from_state(state, 4)
        for cls in component_classes(4):
            assert comp[cls] == pytest.approx(want[cls], rel=1e-7, abs=1e-7)


class TestReconstruction:
    def test_single_photon_parameter_map(self, rng):
        state = ManifoldState.mixed(1, random_density(1, rng))
        tensors = {1: polarization_tensor(state, 1)}
        rebuilt, diag = reconstruct_density(tensors, 1)
        s1, s2, s3 = (tensors[1].element((j,)).real for j in (1, 2, 3))
        rho = rebuilt.density()
        assert rho[0, 0].real == pytest.approx((1 + s3) / 2, abs=1e-10)
        assert rho[0, 1].real == pytest.approx(s1 / 2, abs=1e-10)
        assert rho[0, 1].imag == pytest.approx(-s2 / 2, abs=1e-10)
        assert diag.system_rank == 4

    def test_two_photon_round_trip(self, rng):
        for _ in range(10):
            state = ManifoldState.mixed(2, random_density(2, rng))
            tensors = {r: polarization_tensor(state, r) for r in (1, 2)}
            rebuilt, _ = reconstruct_density(tensors, 2)
            assert trace_distance(rebuilt.density(), state.density()) <= 1e-8

    def test_maximally_mixed_from_vanishing_odd_tensors(self):
        n = 2
        state = ManifoldState.mixed(n, np.eye(n + 1, dtype=complex) / (n + 1))
        tensors = {r: polarization_tensor(state, r) for r in (1, 2)}
        assert np.abs(tensors[1].values).max() < 1e-14
        rebuilt, _ = reconstruct_density(tensors, n)
        np.testing.assert_allclose(rebuilt.density(), np.eye(n + 1) / (n + 1), atol=1e-10)

    def test_missing_tensor_rejected(self, rng):
        state = ManifoldState.mixed(2, random_density(2, rng))
        with pytest.raises(ValueError):
            reconstruct_density({1: polarization_tensor(state, 1)}, 2)


class TestPipeline:
    def menagerie(self, rng):
        return [
            su2_coherent(1, 0.8, 0.3),
            su2_coherent(2, 1.9, 4.0),
            su2_coherent(3, 0.4, 2.2),
            noon(2),
            noon(3),
            twin_fock(1),
            unpolarized_two_photon(0.4, 1.3),
            ManifoldState.mixed(3, random_density(3, rng)),
        ]

    def test_exact_round_trips(self, rng):
        for state in self.menagerie(rng):
            result = run_tomography(state)
            rec = result.manifolds[state.n_photons]
            assert trace_distance(rec.state.density(), state.density()) <= 1e-7
            assert rec.probability == pytest.approx(1.0)

    def test_block_state_exact_round_trip(self, rng):
        blocks = (
            (1, 0.4, ManifoldState.mixed(1, random_density(1, rng))),
            (2, 0.6, ManifoldState.mixed(2, random_density(2, rng))),
        )
        state = BlockDiagonalState(blocks)
        result = run_tomography(state)
        for n, p, ms in blocks:
            assert result.manifolds[n].probability == pytest.approx(p, abs=1e-12)
            assert trace_distance(result.manifolds[n].state.density(), ms.density()) <= 1e-7

    def test_noisy_run_reproducible_and_physical(self):
        state = noon(2)
        a = run_tomography(state, shots=20_000, seed=5)
        b = run_tomography(state, shots=20_000, seed=5)
        for ra, rb in zip(a.records, b.records):
            assert ra.counts == rb.counts
        rho = a.manifolds[2].state.density()
        np.testing.assert_allclose(rho, a.manifolds[2].state.density())
        assert np.linalg.eigvalsh(rho).min() >= -1e-12
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
        assert trace_distance(rho, state.density()) < 0.05

    def test_symmetric_seven_at_order_three_reconstructs(self, monkeypatch, rng):
        # on their own these lines resolve 4 of the 7 free third-order
        # components; the fit of every outcome of orders 1..3 resolves rho
        chosen = tomography.choose_directions
        monkeypatch.setattr(
            tomography,
            "choose_directions",
            lambda order: third_order_symmetric_directions() if order == 3 else chosen(order),
        )
        state = ManifoldState.mixed(3, random_density(3, rng))
        rec = run_tomography(state).manifolds[3]
        assert rec.reconstruction.system_rank == 16
        assert rec.reconstruction.condition_number < 10.0
        assert trace_distance(rec.state.density(), state.density()) <= 1e-7

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("shots", [None, 2000], ids=["exact", "shots"])
    def test_lines_all_along_z_raise_from_the_stacked_gate(self, monkeypatch, shots):
        # +z outcomes see only the diagonal of rho, 3 of the 9 dimensions at N = 2
        monkeypatch.setattr(
            tomography, "choose_directions", lambda order: DirectionSet("all-z", order, (E3,) * (2 * order + 1))
        )
        with pytest.raises(RankDeficientError) as info:
            run_tomography(noon(2), shots=shots, seed=1)
        assert (info.value.rank, info.value.expected) == (3, 9)
        deficient = np.asarray(info.value.deficient_directions)
        assert deficient.shape == (6, 9)
        # the unresolved directions of vec(rho) are its off-diagonal entries
        np.testing.assert_allclose(deficient[:, [0, 4, 8]], 0.0, atol=1e-12)
        assert "rank 3" in str(info.value) and "condition number" in str(info.value)

    @staticmethod
    def stacked_rows(n):
        """The trace row and vec(u_k u_k^dag) for each outcome of each direction of orders 1..n."""
        rows = [np.eye(n + 1).reshape(1, -1)]
        for r in range(1, n + 1):
            for d in choose_directions(r).directions:
                u = rotated_fock_bases(d, n)[n]
                rows += [np.outer(u[:, k], u[:, k].conj()).reshape(1, -1) for k in range(n + 1)]
        return np.concatenate(rows)

    def test_condition_number_is_that_of_the_fit_that_runs(self, rng):
        for n in range(1, 9):
            want = np.linalg.cond(self.stacked_rows(n))
            state = ManifoldState.mixed(n, random_density(n, rng))
            exact = run_tomography(state, max_order=n).manifolds[n].reconstruction
            counted = run_tomography(state, shots=2000, seed=1, max_order=n).manifolds[n].reconstruction
            assert exact.condition_number == pytest.approx(want, rel=1e-12, abs=0)
            assert counted.condition_number == exact.condition_number
            assert exact.condition_number < 10.0
            assert exact.system_rank == counted.system_rank == (n + 1) ** 2

    @pytest.mark.parametrize("n", range(1, MAX_TENSOR_ORDER + 1))
    def test_stacked_fit_is_conditioned(self, n):
        assert np.linalg.cond(self.stacked_rows(n)) < 10.0

    def test_first_run_builds_no_per_order_design(self):
        # a fresh interpreter, so no earlier call can have built or cached a design
        script = textwrap.dedent(
            """
            import numpy as np
            from stokes_lab import reference, tomography
            from stokes_lab.states import ManifoldState

            def per_order_design(*args, **kwargs):
                raise AssertionError("run_tomography built the per-order design of the paper's route")

            design = ("casimir_constraint_matrix", "constraint_nullspace", "design_matrix", "reduced_design_singular_values")
            for module, names in ((tomography, design), (reference, design + ("DesignSVD", "_design_svd", "reduced_design"))):
                for name in names:
                    getattr(module, name)
                    setattr(module, name, per_order_design)
            a, b = np.random.default_rng(6).normal(size=(2, 7, 7))
            rho = (a + 1j * b) @ (a + 1j * b).conj().T
            state = ManifoldState.mixed(6, rho / np.trace(rho))
            assert 6 in tomography.run_tomography(state).manifolds
            assert 6 in tomography.run_tomography(state, shots=5000, seed=2).manifolds
            """
        )
        src = str(Path(tomography.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
        assert done.returncode == 0, done.stderr

    def test_max_order_caps_reconstruction_inputs(self, rng):
        state = ManifoldState.mixed(1, random_density(1, rng))
        result = run_tomography(state, max_order=1)
        assert list(result.manifolds[1].tensors) == [1]

    def test_deep_manifolds_skipped_with_reason(self, rng):
        blocks = (
            (2, 0.5, ManifoldState.mixed(2, random_density(2, rng))),
            (8, 0.5, ManifoldState.mixed(8, random_density(8, rng))),
        )
        result = run_tomography(BlockDiagonalState(blocks))
        assert 2 in result.manifolds
        assert 8 in result.skipped
        assert "order cap" in result.skipped[8]

    def test_every_manifold_skipped_raises_with_reasons(self):
        with pytest.raises(NoManifoldReconstructedError) as info:
            run_tomography(noon(2), shots=1, seed=3)
        assert list(info.value.skipped) == [2]
        assert "samples" in info.value.skipped[2]

    def test_exact_round_trip_through_generic_sets(self, rng):
        # manifolds four to eight exercise the spiral direction sets end to
        # end; order-r outputs carry rounding noise that scales as N^r
        for n, max_order in ((4, None), (5, None), (6, None), (8, 8)):
            state = ManifoldState.mixed(n, random_density(n, rng))
            rec = run_tomography(state, max_order=max_order).manifolds[n]
            assert trace_distance(rec.state.density(), state.density()) <= 1e-7
            for r in range(1, n + 1):
                tol = 1e-11 * n**r
                np.testing.assert_allclose(
                    rec.tensors[r].values, polarization_tensor(state, r).values, rtol=0, atol=tol
                )
                np.testing.assert_allclose(
                    rec.components[r].as_vector(),
                    components_from_state(state, r).as_vector(),
                    rtol=0,
                    atol=tol,
                )

    def test_exact_round_trip_beyond_eight_photons(self, rng):
        # only the state is compared: from N = 9 the class sums of up to
        # 3^r noisy tensor entries outgrow the 1e-11 * N^r bound used above
        for n in (9, 10, 11, 12, 13):
            state = ManifoldState.mixed(n, random_density(n, rng))
            rec = run_tomography(state, max_order=n).manifolds[n]
            assert trace_distance(rec.state.density(), state.density()) <= 1e-7

    def test_pipeline_does_not_take_the_reference_route(self, monkeypatch, rng):
        def reference_route(*args, **kwargs):
            raise AssertionError("run_tomography left its one route from outcome laws")

        # every function of the paper's route, wherever run_tomography could reach it
        defined = [
            name
            for name, value in vars(reference).items()
            if inspect.isfunction(inspect.unwrap(value)) and inspect.unwrap(value).__module__ == reference.__name__
        ]
        assert {"solve_moment_components", "_constraint_rhs", "paper_route_density", "reduce_to_standard"} <= set(defined)
        for name in defined:
            monkeypatch.setattr(reference, name, reference_route)
        for name in (
            "solve_moment_components",
            "assemble_all_tensors",
            "reconstruct_density",
            "estimate_moments",
            "distribution_moment",
        ):
            monkeypatch.setattr(tomography, name, reference_route)
        state = ManifoldState.mixed(3, random_density(3, rng))
        assert 3 in run_tomography(state).manifolds
        assert 3 in run_tomography(state, shots=5000, seed=2).manifolds

    def test_exact_mode_rotates_each_direction_once_up_to_the_cap(self, monkeypatch):
        calls = []
        rotate = tomography.rotated_fock_bases

        def counted(n, n_max):
            calls.append((n, n_max))
            return rotate(n, n_max)

        def whole_state(*args, **kwargs):
            raise AssertionError("exact mode took the law of the whole state")

        monkeypatch.setattr(tomography, "rotated_fock_bases", counted)
        monkeypatch.setattr(tomography, "outcome_distribution", whole_state)
        result = run_tomography(two_mode_coherent(2.0, 25))
        unique = {d for r in range(1, 7) for d in choose_directions(r).directions}
        assert sorted(result.manifolds) == list(range(7))
        assert sorted(result.skipped) == list(range(7, 26))
        assert len(calls) == len(unique) == 48
        assert {d for d, _ in calls} == unique
        assert {n_max for _, n_max in calls} == {6}

    @pytest.mark.parametrize("top", [4, 6, 8, None], ids=["block-4", "block-6", "block-8-capped", "coherent-25"])
    def test_exact_laws_match_the_law_of_the_whole_state(self, monkeypatch, rng, top):
        if top is None:
            state = two_mode_coherent(2.0, 25)
        else:
            weights = rng.dirichlet(np.ones(top + 1))
            state = BlockDiagonalState(
                tuple((n, float(p), ManifoldState.mixed(n, random_density(n, rng))) for n, p in enumerate(weights))
            )
        solved = []
        solve = tomography._solve_manifold

        def recorded(*args):
            solved.append((args[0], args[3]))
            return solve(*args)

        monkeypatch.setattr(tomography, "_solve_manifold", recorded)
        run_tomography(state)
        assert [n for n, _ in solved] == [n for n in as_block_diagonal(state).manifolds if n <= 6]
        for n, measured in solved:
            assert sorted(measured) == list(range(1, n + 1))
            for pairs in measured.values():
                for d, law in pairs:
                    whole = tomography._split_by_manifold(outcome_distribution(state, d))[n][1]
                    np.testing.assert_allclose(law, whole, rtol=0, atol=1e-15)

    def test_shot_mode_samples_the_whole_state_once_per_direction(self, monkeypatch):
        sampled = []
        simulate = tomography.simulate_measurement

        def counted(state, setting):
            sampled.append((state.manifolds, setting.direction))
            return simulate(state, setting)

        monkeypatch.setattr(tomography, "simulate_measurement", counted)
        state = two_mode_coherent(1.0, 16)
        result = run_tomography(state, shots=2000, seed=4)
        unique = {d for r in range(1, 7) for d in choose_directions(r).directions}
        assert len(sampled) == len({d for _, d in sampled}) == len(unique)
        assert {d for _, d in sampled} == unique
        assert {manifolds for manifolds, _ in sampled} == {state.manifolds}
        assert len(result.records) == len(unique)

    def test_shot_mode_rotates_each_direction_once_up_to_the_cap(self, monkeypatch, rng):
        # the N = 3 block draws too few samples and is skipped, so only the
        # orders of N = 1 are solved; the bases still reach manifold 3, once
        calls, sampling = [], []
        rotate, whole_state = tomography.rotated_fock_bases, tomography.outcome_distribution

        def counted(n, n_max):
            if not sampling:
                calls.append((n, n_max))
            return rotate(n, n_max)

        def sampled(state, n):
            sampling.append(n)
            try:
                return whole_state(state, n)
            finally:
                sampling.pop()

        monkeypatch.setattr(tomography, "rotated_fock_bases", counted)
        monkeypatch.setattr(tomography, "outcome_distribution", sampled)
        blocks = (
            (1, 1 - 1e-9, ManifoldState.mixed(1, random_density(1, rng))),
            (3, 1e-9, ManifoldState.mixed(3, random_density(3, rng))),
        )
        result = run_tomography(BlockDiagonalState(blocks), shots=2000, seed=4)
        unique = {d for r in range(1, 4) for d in choose_directions(r).directions}
        assert list(result.manifolds) == [1]
        assert "samples" in result.skipped[3]
        assert len(calls) == len(unique) == 15
        assert {d for d, _ in calls} == unique
        assert {n_max for _, n_max in calls} == {3}

    @pytest.mark.parametrize(
        "state",
        [
            pytest.param(noon(6), id="noon6"),
            pytest.param(ManifoldState.mixed(6, random_density(6, np.random.default_rng(606))), id="mixed6"),
        ],
    )
    def test_finite_shot_median_at_six_photons(self, state):
        # the acceptance bound of criterion 07, at a photon number it does not reach
        distances = [
            trace_distance(run_tomography(state, shots=100_000, seed=seed).manifolds[6].state.density(), state.density())
            for seed in range(1, 11)
        ]
        assert np.median(distances) <= 0.05
        # the fit of every outcome of every direction reads about 0.004 here
        assert np.median(distances) <= 0.008

    def test_residuals_show_the_misfit_of_counted_laws(self):
        state = su2_coherent(3, 0.8, 0.3)
        noisy = run_tomography(state, shots=100_000, seed=3).manifolds[3]
        exact = run_tomography(state).manifolds[3]
        assert sorted(noisy.residuals) == [1, 2, 3]
        for residual in noisy.residuals.values():
            assert residual > 1e-4
        assert noisy.reconstruction.lstsq_residual > 1e-4
        for residual in exact.residuals.values():
            assert residual <= 1e-12
        assert exact.reconstruction.lstsq_residual <= 1e-12

    def test_manifold_above_the_tensor_bound_rejected_before_measuring(self, monkeypatch):
        def measure(*args, **kwargs):
            raise AssertionError("measured a state it cannot report")

        monkeypatch.setattr(tomography, "choose_directions", measure)
        monkeypatch.setattr(tomography, "outcome_distribution", measure)
        n = MAX_TENSOR_ORDER + 1
        with pytest.raises(ValueError, match="MAX_TENSOR_ORDER"):
            run_tomography(noon(n), max_order=n)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            pytest.param({"shots": 2.5}, "shots must be None or an integer", id="shots-float"),
            pytest.param({"shots": True}, "shots must be None or an integer", id="shots-bool"),
            pytest.param({"shots": 0}, "shots must be None or an integer of at least 1", id="shots-zero"),
            pytest.param({"shots": 100, "seed": 1.5}, "seed must be an integer", id="seed-float"),
            pytest.param({"shots": 100, "seed": -1}, r"seed must be an integer in \[0, 2\^64\)", id="seed-negative"),
            pytest.param({"shots": 100, "seed": 1 << 64}, r"in \[0, 2\^64\)", id="seed-too-wide"),
            pytest.param({"max_order": True}, "max_order must be None or an integer", id="max-order-bool"),
            pytest.param({"max_order": 2.0}, "max_order must be None or an integer", id="max-order-float"),
        ],
    )
    def test_arguments_rejected_before_measuring(self, monkeypatch, kwargs, message):
        def measure(*args, **kwargs):
            raise AssertionError("measured before checking the arguments")

        monkeypatch.setattr(tomography, "choose_directions", measure)
        monkeypatch.setattr(tomography, "outcome_distribution", measure)
        with pytest.raises(ValueError, match=message):
            run_tomography(noon(2), **kwargs)

    def test_vacuum_only_input(self):
        vacuum = ManifoldState.fock(0, 0)
        result = run_tomography(vacuum, shots=100, seed=1)
        assert result.manifolds[0].probability == pytest.approx(1.0)
        np.testing.assert_allclose(result.manifolds[0].state.density(), [[1.0]])


class TestNonResolved:
    def test_pure_single_photon(self):
        out = non_resolved_manifold_moments(1.0, 1.0, 0.3, 1.0, 0.3)
        p0, p1, p2 = out.probabilities
        assert (p0, p1, p2) == pytest.approx((0.0, 1.0, 0.0), abs=1e-12)
        assert out.single_photon_first == pytest.approx(0.3, abs=1e-12)
        assert out.two_photon_first is None
        assert out.two_photon_second is None

    def test_mixture_round_trip(self, rng):
        rho1 = random_density(1, rng)
        rho2 = random_density(2, rng)
        s1 = ManifoldState.mixed(1, rho1)
        s2 = ManifoldState.mixed(2, rho2)
        block = BlockDiagonalState(((1, 0.5, s1), (2, 0.5, s2)))
        v = random_direction(rng)
        s0 = block.mean_photon_number()
        s0sq = 0.5 * 1 + 0.5 * 4
        profiles = {r: averaged_profile(block, r, v) for r in (1, 2, 3)}
        out = non_resolved_manifold_moments(s0, s0sq, profiles[1], profiles[2], profiles[3])
        assert out.probabilities[1] == pytest.approx(0.5, abs=1e-12)
        assert out.probabilities[2] == pytest.approx(0.5, abs=1e-12)
        assert out.single_photon_first == pytest.approx(stokes_profile(s1, 1, v), abs=1e-9)
        assert out.two_photon_first == pytest.approx(stokes_profile(s2, 1, v), abs=1e-9)
        assert out.two_photon_second == pytest.approx(stokes_profile(s2, 2, v), abs=1e-9)

    def test_support_violation_detected(self):
        # a three-photon state pushes the inferred pair weight above one
        state = ManifoldState.fock(3, 0)
        with pytest.raises(NonPhysicalStateError):
            non_resolved_manifold_moments(3.0, 9.0, 0.0, 0.0, 0.0)

    @given(non_finite, st.integers(0, 4))
    def test_non_finite_averaged_moments_rejected(self, bad, index):
        moments = [1.0, 1.0, 0.3, 1.0, 0.3]
        moments[index] = bad
        with pytest.raises(ValueError, match="finite"):
            non_resolved_manifold_moments(*moments)
        measured = [0.0] * 5
        measured[index] = bad
        with pytest.raises(ValueError, match="finite"):
            closed_form_second_order(measured, 2)
        with pytest.raises(ValueError, match="finite"):
            closed_form_second_order([0.0] * 5, casimir=bad)
        with pytest.raises(ValueError, match="finite"):
            averaged_second_order_components(measured, 1.0, 1.0)
        with pytest.raises(ValueError, match="finite"):
            averaged_second_order_components([0.0] * 5, *((bad, 1.0) if index % 2 else (1.0, bad)))

    def test_averaged_parameter_count(self):
        from stokes_lab.moments import averaged_parameter_count

        assert averaged_parameter_count(2) == 9
        assert averaged_parameter_count(1) == 3

    def test_averaged_second_order_components(self, rng):
        rho1 = ManifoldState.mixed(1, random_density(1, rng))
        rho2 = ManifoldState.mixed(2, random_density(2, rng))
        block = BlockDiagonalState(((1, 0.3, rho1), (2, 0.7, rho2)))
        measured = [averaged_profile(block, 2, d) for d in icosahedral_directions().directions]
        s0 = block.mean_photon_number()
        s0sq = 0.3 * 1 + 0.7 * 4
        comp = averaged_second_order_components(measured, s0, s0sq)
        want = {
            cls: 0.3 * components_from_state(rho1, 2)[cls] + 0.7 * components_from_state(rho2, 2)[cls]
            for cls in component_classes(2)
        }
        for cls in component_classes(2):
            assert comp[cls] == pytest.approx(want[cls], abs=1e-9)


def test_record_serialization_round_trip():
    record = simulate_measurement(noon(2), MeasurementSetting(E1, 1000, 77))
    back = record_from_json(record_to_json(record))
    assert back.counts == record.counts
    assert back.setting.seed == 77


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("shots", "10", "record field 'shots' must be an integer, got '10'"),
        ("shots", 10.9, "record field 'shots' must be an integer, got 10.9"),
        ("shots", True, "record field 'shots' must be an integer, got True"),
        ("seed", 3.0, "record field 'seed' must be an integer, got 3.0"),
        ("N", "2", "record count 0 field 'N' must be an integer, got '2'"),
        ("s", -2.0, "record count 0 field 's' must be an integer, got -2.0"),
        ("count", 6.5, "record count 0 field 'count' must be an integer, got 6.5"),
        ("count", None, "record count 0 has no 'count' field"),
        ("direction", [10**400, 0, 0], "direction components must be finite: int too large to convert to float"),
    ],
)
def test_record_from_json_rejects_wrong_types(field, value, message):
    payload = record_to_json(simulate_measurement(noon(2), MeasurementSetting(E1, 10, 3)))
    target = payload if field in ("direction", "shots", "seed") else payload["counts"][0]
    if value is None:
        del target[field]
    else:
        target[field] = value
    with pytest.raises(ValueError, match=re.escape(message)):
        record_from_json(payload)
