import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from stokes_lab import moments, reference
from stokes_lab.errors import TensorConsistencyError
from stokes_lab.fock import stokes_vector_operators
from stokes_lab.moments import (
    MAX_TENSOR_ORDER,
    MomentComponents,
    PolarizationTensor,
    averaged_components,
    averaged_profile,
    averaged_tensor,
    block_diagonal_parameters,
    component_classes,
    components_from_state,
    count_parameters,
    covariance_matrix,
    cutoff_block_diagonal_parameters,
    full_state_parameters,
    independent_moment_count,
    manifold_moment_total,
    moment_component_count,
    moment_components,
    multi_direction_expectation,
    polarization_tensor,
    profile_eval,
    stokes_profile,
    tensor_descend,
    uncertainty_bounds,
    variance_sum,
)
from stokes_lab.reference import (
    assemble_tensor,
    assemble_tensor_order2,
    assemble_tensor_order3,
    ordered_product,
)
from stokes_lab.states import (
    BlockDiagonalState,
    ManifoldState,
    two_mode_coherent,
    two_photon_density,
    unpolarized_two_photon,
)
from stokes_lab.tomography import casimir_constraint_matrix

from conftest import random_density, random_direction, random_pure


def polar_fock(n_photons):
    return ManifoldState.fock(n_photons, 0)


def coherent_t2(n):
    return np.array([[n, 1j * n, 0], [-1j * n, n, 0], [0, 0, n * n]], dtype=complex)


def coherent_t3(n):
    a, b = n * n, n * (n - 2)
    return np.array(
        [
            [[0, 0, a], [0, 0, 1j * a], [b, 1j * b, 0]],
            [[0, 0, -1j * a], [0, 0, a], [-1j * b, b, 0]],
            [[a, 1j * a, 0], [-1j * a, a, 0], [0, 0, n**3]],
        ],
        dtype=complex,
    )


class TestPolarizationTensor:
    def test_two_photon_polar_display(self):
        t = polarization_tensor(polar_fock(2), 2)
        np.testing.assert_allclose(t.values, coherent_t2(2), atol=1e-12)

    def test_third_order_polar_display(self):
        t = polarization_tensor(polar_fock(3), 3)
        np.testing.assert_allclose(t.values, coherent_t3(3), atol=1e-12)

    def test_vacuum_is_zero(self):
        for r in (1, 2, 3):
            assert np.abs(polarization_tensor(polar_fock(0), r).values).max() == 0.0

    def test_averaged_coherent_third_order(self):
        nbar = 0.9
        state = two_mode_coherent(nbar, 30)
        t = averaged_tensor(state, 3)
        a, b = nbar * (nbar + 1), nbar * (nbar - 1)
        expected = np.array(
            [
                [[0, 0, a], [0, 0, 1j * a], [b, 1j * b, 0]],
                [[0, 0, -1j * a], [0, 0, a], [-1j * b, b, 0]],
                [[a, 1j * a, 0], [-1j * a, a, 0], [0, 0, nbar * (nbar**2 + 3 * nbar + 1)]],
            ]
        )
        np.testing.assert_allclose(t.values, expected, atol=1e-10)

    def test_hermiticity_and_descent_on_random_states(self, rng):
        for n in range(1, 7):
            for _ in range(34):  # about 200 states across the manifolds
                state = ManifoldState.mixed(n, random_density(n, rng))
                for r in (2, 3):
                    t = polarization_tensor(state, r)
                    assert t.check_hermiticity() < 1e-12 * max(1.0, np.abs(t.values).max())
                    lower = tensor_descend(t)
                    direct = polarization_tensor(state, r - 1)
                    np.testing.assert_allclose(lower.values, direct.values, atol=1e-10)

    def test_descend_twice_equals_direct(self, rng):
        state = ManifoldState.pure(3, random_pure(3, rng))
        t3 = polarization_tensor(state, 3)
        t1 = tensor_descend(tensor_descend(t3))
        np.testing.assert_allclose(t1.values, polarization_tensor(state, 1).values, atol=1e-10)

    def test_descend_flags_broken_tensor(self, rng):
        # slot cross-checks exist from rank 3 up; random junk cannot satisfy them
        junk = rng.normal(size=(3, 3, 3)) + 1j * rng.normal(size=(3, 3, 3))
        with pytest.raises(TensorConsistencyError):
            tensor_descend(PolarizationTensor(3, 2, junk))

    def test_first_descent_gives_third_component(self, rng):
        state = ManifoldState.mixed(2, random_density(2, rng))
        t2 = polarization_tensor(state, 2)
        s3 = (t2.element((1, 2)) - t2.element((2, 1))) / 2j
        direct = polarization_tensor(state, 1).element((3,))
        assert s3 == pytest.approx(direct, abs=1e-12)

    def test_polar_two_photon_descend(self):
        lower = tensor_descend(polarization_tensor(polar_fock(2), 2))
        np.testing.assert_allclose(lower.values, [0.0, 0.0, 2.0], atol=1e-12)


class TestMomentComponents:
    def test_first_order_is_stokes_vector(self, rng):
        state = ManifoldState.mixed(2, random_density(2, rng))
        comp = components_from_state(state, 1)
        t1 = polarization_tensor(state, 1)
        assert comp[(1, 0)] == pytest.approx(t1.element((1,)).real, abs=1e-12)
        assert comp[(0, 1)] == pytest.approx(t1.element((2,)).real, abs=1e-12)
        assert comp[(0, 0)] == pytest.approx(t1.element((3,)).real, abs=1e-12)

    def test_two_photon_polar_values(self):
        comp = components_from_state(polar_fock(2), 2)
        assert comp[(0, 0)] == pytest.approx(4.0)
        assert comp[(2, 0)] == pytest.approx(2.0)
        assert comp[(0, 2)] == pytest.approx(2.0)
        for cls in ((1, 0), (0, 1), (1, 1)):
            assert comp[cls] == pytest.approx(0.0, abs=1e-12)
        assert comp.casimir_sum() == pytest.approx(8.0)

    def test_mixed_class_is_six_permutations(self, rng):
        state = ManifoldState.mixed(3, random_density(3, rng))
        t3 = polarization_tensor(state, 3)
        comp = moment_components(t3)
        total = sum(
            t3.element(w) for w in set(itertools.permutations((1, 2, 3)))
        )
        assert comp[(1, 1)] == pytest.approx(total.real, abs=1e-10)
        assert abs(total.imag) < 1e-10

    def test_class_sums_equal_sums_over_class_words(self, rng):
        # the flat-index labelling adds each class in word order, so the
        # components are bit-equal to summing the enumerated permutations
        for n, r in ((1, 1), (2, 2), (3, 3), (2, 4), (4, 5), (3, 6), (5, 7)):
            tensor = polarization_tensor(ManifoldState.mixed(n, random_density(n, rng)), r)
            comp = moment_components(tensor)
            for ones, twos in component_classes(r):
                total = 0.0 + 0j
                for w in reference.class_words(ones, twos, r):
                    total += tensor.element(w)
                assert comp[(ones, twos)] == total.real

    def test_order_above_the_tensor_bound_raises_before_building(self, monkeypatch):
        def build(*args):
            raise AssertionError("built word products above the bound")

        monkeypatch.setattr(moments, "_word_products", build)
        with pytest.raises(ValueError, match="MAX_TENSOR_ORDER"):
            moments.matrix_tensor(np.eye(3, dtype=complex), 2, MAX_TENSOR_ORDER + 1)
        # the profile path sums one tensor per block and must not allocate first
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="MAX_TENSOR_ORDER"):
                averaged_tensor(BlockDiagonalState.single(polar_fock(1)), MAX_TENSOR_ORDER + 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_imaginary_residue_raises(self):
        values = np.zeros((3, 3), dtype=complex)
        values[0, 1] = 1j  # no conjugate partner
        with pytest.raises(TensorConsistencyError):
            moment_components(PolarizationTensor(2, 2, values))

    def test_profile_eval_matches_matrix_route(self, rng):
        for n in (1, 2, 4):
            state = ManifoldState.mixed(n, random_density(n, rng))
            for r in range(1, 6):
                comp = components_from_state(state, r)
                for _ in range(7):  # > 100 (state, direction, order) triples
                    v = random_direction(rng)
                    assert profile_eval(comp, v) == pytest.approx(
                        stokes_profile(state, r, v), rel=1e-9, abs=1e-9
                    )

    def test_polar_first_order_profile(self, rng):
        comp = components_from_state(polar_fock(4), 1)
        for _ in range(5):
            v = random_direction(rng)
            assert profile_eval(comp, v) == pytest.approx(4.0 * v[2], abs=1e-12)

    def test_diagonal_direction_sums_tensor(self, rng):
        state = ManifoldState.mixed(3, random_density(3, rng))
        for r in (1, 2, 3):
            t = polarization_tensor(state, r)
            total = complex(t.values.sum())
            diag = np.ones(3) / math.sqrt(3.0)
            assert abs(total.imag) < 1e-10
            assert stokes_profile(state, r, diag) * 3 ** (r / 2.0) == pytest.approx(
                total.real, abs=1e-9
            )

    def test_two_photon_density_profile_formula(self, rng):
        state = two_photon_density(0.35, 0.3, (0.05, 0.1, -0.04), (0.03, -0.06, 0.02))
        comp = components_from_state(state, 2)
        for _ in range(10):
            v = random_direction(rng)
            assert profile_eval(comp, v) == pytest.approx(stokes_profile(state, 2, v), abs=1e-10)


class TestMultiDirection:
    def test_reduces_to_profile(self, rng):
        state = ManifoldState.mixed(2, random_density(2, rng))
        t = polarization_tensor(state, 3)
        v = random_direction(rng)
        value = multi_direction_expectation(t, [v, v, v])
        assert value.real == pytest.approx(stokes_profile(state, 3, v), abs=1e-10)
        assert abs(value.imag) < 1e-10

    def test_polar_two_photon_off_diagonal(self):
        t = polarization_tensor(polar_fock(2), 2)
        value = multi_direction_expectation(t, [(1, 0, 0), (0, 1, 0)])
        assert value == pytest.approx(2j, abs=1e-12)

    def test_matches_operator_product(self, rng):
        state = ManifoldState.mixed(3, random_density(3, rng))
        t = polarization_tensor(state, 2)
        gens = stokes_vector_operators(3)
        for _ in range(5):
            a, b = random_direction(rng), random_direction(rng)
            op = sum(a[i] * gens[i] for i in range(3)) @ sum(b[i] * gens[i] for i in range(3))
            direct = complex(np.trace(state.density() @ op))
            assert multi_direction_expectation(t, [a, b]) == pytest.approx(direct, abs=1e-10)


class TestOrderedProducts:
    def test_pure_third_component_is_diagonal(self):
        for r in (1, 2, 4):
            op = ordered_product(0, 0, r, 3)
            assert np.abs(op - np.diag(np.diag(op))).max() == 0.0

    def test_class_sum_minus_ordered_is_commutator(self):
        # order 2, one first-index one third-index: the leftover is 2i S2
        s1, s2, s3 = stokes_vector_operators(2)
        class_sum = s1 @ s3 + s3 @ s1
        leftover = class_sum - 2.0 * ordered_product(1, 0, 2, 2)
        np.testing.assert_allclose(leftover, s3 @ s1 - s1 @ s3, atol=1e-12)
        np.testing.assert_allclose(leftover, 2j * s2, atol=1e-12)

    def test_casimir_recombination_order2(self):
        for n in (1, 2, 4):
            total = (
                ordered_product(2, 0, 2, n)
                + ordered_product(0, 2, 2, n)
                + ordered_product(0, 0, 2, n)
            )
            np.testing.assert_allclose(total, n * (n + 2) * np.eye(n + 1), atol=1e-12)

    def test_order_coupling_identity_exact(self):
        # the coupling between orders r and r-2 holds as a matrix identity
        n = 3
        s1, s2, s3 = stokes_vector_operators(n)
        for r in range(2, 6):
            for k, l in component_classes(r - 2):
                lhs = (
                    ordered_product(k + 2, l, r, n)
                    + ordered_product(k, l + 2, r, n)
                    + ordered_product(k, l, r, n)
                )
                s2l = np.linalg.matrix_power(s2, l)
                comm = np.linalg.matrix_power(s1, 2) @ s2l - s2l @ np.linalg.matrix_power(s1, 2)
                rest = (
                    np.linalg.matrix_power(s1, k)
                    @ comm
                    @ np.linalg.matrix_power(s3, r - k - l - 2)
                )
                rhs = n * (n + 2) * ordered_product(k, l, r - 2, n) + rest
                np.testing.assert_allclose(lhs, rhs, atol=1e-10)


class TestWordAlgebra:
    def test_reduction_reproduces_matrix_products(self, rng):
        gens = stokes_vector_operators(3)
        for _ in range(10):
            word = tuple(rng.integers(1, 4, size=4))
            direct = reference.word_matrix(word, gens)
            rebuilt = sum(
                c * reference.word_matrix(w, gens) for w, c in reference.reduce_to_standard(word)
            )
            np.testing.assert_allclose(direct, rebuilt, atol=1e-12)

    def test_sorted_leading_term(self):
        terms = dict(reference.reduce_to_standard((3, 1, 2)))
        assert terms[(1, 2, 3)] == 1.0
        assert all(len(w) < 3 for w in terms if w != (1, 2, 3))

    def test_class_words_count_is_trinomial(self):
        for r in range(1, 6):
            for k, l in component_classes(r):
                assert len(reference.class_words(k, l, r)) == moments.trinomial(k, l, r)


class TestCounting:
    def test_cutoff_two_gives_thirteen(self):
        assert cutoff_block_diagonal_parameters(2) == 13
        assert block_diagonal_parameters([0, 1, 2]) == 13
        counts = count_parameters(2)
        assert counts.block_diagonal == counts.cutoff_closed_form == 13
        assert counts.full_state == full_state_parameters(2)

    def test_counts_match_enumeration(self):
        # dimension of the Hermitian block-diagonal algebra minus the trace
        for manifolds in ([0, 1], [0, 1, 2], [1, 3]):
            dim = sum((n + 1) ** 2 for n in manifolds)
            assert block_diagonal_parameters(manifolds) == dim - 1

    def test_order_counts(self):
        assert moment_component_count(2) == 6
        assert independent_moment_count(2) == 5
        assert manifold_moment_total(2) == 8

    def test_independent_count_from_constraint_rank(self):
        for r in range(2, 5):
            b = casimir_constraint_matrix(r)
            rank = np.linalg.matrix_rank(b, tol=1e-10)
            assert rank == moment_component_count(r - 2)
            assert moment_component_count(r) - rank == independent_moment_count(r)

    @given(r=st.integers(1, 10))
    def test_trinomial_completeness(self, r):
        assert sum(moments.trinomial(k, l, r) for k, l in component_classes(r)) == 3**r


class TestDegreeAndCovariance:
    def test_polar_covariance(self):
        for n in (1, 2, 5):
            np.testing.assert_allclose(
                covariance_matrix(polar_fock(n)), np.diag([n, n, 0.0]), atol=1e-12
            )

    def test_unpolarized_covariance_is_real_tensor(self, rng):
        state = unpolarized_two_photon(0.4, 0.7)
        gamma = covariance_matrix(state)
        t2 = polarization_tensor(state, 2)
        np.testing.assert_allclose(gamma, t2.values.real, atol=1e-10)

    def test_uncertainty_relation_random_blocks(self, rng):
        for _ in range(50):
            blocks = []
            weights = rng.dirichlet(np.ones(3))
            for n, w in zip((1, 2, 3), weights):
                blocks.append((n, float(w), ManifoldState.mixed(n, random_density(n, rng))))
            state = BlockDiagonalState(tuple(blocks))
            low, high = uncertainty_bounds(state)
            total = variance_sum(state)
            assert low <= total + 1e-9
            assert total <= high + 1e-9


class TestAssembly:
    def test_order2_display_on_polar_state(self):
        state = polar_fock(2)
        comp = components_from_state(state, 2)
        t1 = polarization_tensor(state, 1)
        assembled = assemble_tensor_order2(comp, t1)
        np.testing.assert_allclose(assembled.values, coherent_t2(2), atol=1e-12)

    def test_order2_vacuum(self):
        state = polar_fock(0)
        assembled = assemble_tensor_order2(
            components_from_state(state, 2), polarization_tensor(state, 1)
        )
        np.testing.assert_allclose(assembled.values, np.zeros((3, 3)), atol=1e-15)

    def test_order2_matches_direct_on_random_states(self, rng):
        for _ in range(10):
            state = ManifoldState.mixed(2, random_density(2, rng))
            assembled = assemble_tensor_order2(
                components_from_state(state, 2), polarization_tensor(state, 1)
            )
            np.testing.assert_allclose(
                assembled.values, polarization_tensor(state, 2).values, atol=1e-10
            )

    def test_order3_display_on_polar_state(self):
        state = polar_fock(3)
        assembled = assemble_tensor_order3(
            components_from_state(state, 3), polarization_tensor(state, 2)
        )
        np.testing.assert_allclose(assembled.values, coherent_t3(3), atol=1e-12)

    def test_order3_matches_direct_on_random_pure_states(self, rng):
        for _ in range(10):
            state = ManifoldState.pure(3, random_pure(3, rng))
            assembled = assemble_tensor_order3(
                components_from_state(state, 3), polarization_tensor(state, 2)
            )
            np.testing.assert_allclose(
                assembled.values, polarization_tensor(state, 3).values, atol=1e-9
            )

    def test_general_assembly_matches_displays(self, rng):
        state = ManifoldState.mixed(3, random_density(3, rng))
        t1 = polarization_tensor(state, 1)
        t2 = polarization_tensor(state, 2)
        lower = {1: t1, 2: t2}
        assembled2 = assemble_tensor(components_from_state(state, 2), {1: t1})
        display2 = assemble_tensor_order2(components_from_state(state, 2), t1)
        np.testing.assert_allclose(assembled2.values, display2.values, atol=1e-12)
        assembled3 = assemble_tensor(components_from_state(state, 3), lower)
        display3 = assemble_tensor_order3(components_from_state(state, 3), t2)
        np.testing.assert_allclose(assembled3.values, display3.values, atol=1e-12)

    def test_general_assembly_high_orders(self, rng):
        state = ManifoldState.mixed(4, random_density(4, rng))
        lower = {r: polarization_tensor(state, r) for r in (1, 2, 3)}
        for r in (4, 5):
            assembled = assemble_tensor(components_from_state(state, r), lower)
            np.testing.assert_allclose(
                assembled.values, polarization_tensor(state, r).values, atol=1e-8
            )
            lower[r] = assembled


class TestAveraged:
    def test_single_manifold_average_is_identity(self, rng):
        state = ManifoldState.mixed(2, random_density(2, rng))
        block = BlockDiagonalState.single(state)
        np.testing.assert_allclose(
            averaged_tensor(block, 2).values, polarization_tensor(state, 2).values, atol=1e-12
        )
        comp_a = averaged_components(block, 2)
        comp_b = components_from_state(state, 2)
        for cls in component_classes(2):
            assert comp_a[cls] == pytest.approx(comp_b[cls], abs=1e-12)

    def test_coherent_second_profile(self, rng):
        nbar = 1.1
        state = two_mode_coherent(nbar, 30)
        for _ in range(5):
            v = random_direction(rng)
            assert averaged_profile(state, 2, v) == pytest.approx(
                nbar * (1 + nbar * v[2] ** 2), abs=1e-10
            )


def test_profile_parity_invariant(rng):
    state = ManifoldState.mixed(3, random_density(3, rng))
    for r in range(1, 5):
        comp = components_from_state(state, r)
        v = random_direction(rng)
        assert profile_eval(comp, -v) == pytest.approx((-1.0) ** r * profile_eval(comp, v), abs=1e-10)
