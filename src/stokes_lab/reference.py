"""The paper's order-by-order reconstruction: the reference that checks.py
and the tests hold run_tomography against.

A word is a tuple over {1, 2, 3} standing for an ordered product of Stokes
generators; swapping an adjacent out-of-order pair costs a commutator term,
so every word reduces to sorted words of its own and lower lengths, whose
expectations are entries of the tensors of those orders.  On that algebra
rest the route's three steps: a Casimir-constrained inversion for each
order's moment components (solve_moment_components), tensor assembly
(assemble_all_tensors) and inversion of the complete tensor set
(reconstruct_density); paper_route_density chains them.  Each order's
inversion reads the design of its 2r+1 direction moments restricted to the
null space of the Casimir constraints (reduced_design).  The paper's
sample moments of the eigenvalue along one direction (estimate_moments,
distribution_moment) sit here too: the moments follow from the outcome
laws that run_tomography fits, so no production path needs them.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import RankDeficientError, StokesLabError, TensorConsistencyError
from .fock import Direction, as_direction, stokes_vector_operators
from .moments import (
    MomentComponents,
    PolarizationTensor,
    component_classes,
    independent_moment_count,
    moment_component_count,
    stokes_profile,
    trinomial,
)
from .states import ManifoldState
from .tomography import (
    RANK_TOL,
    MeasurementRecord,
    ReconstructionDiagnostics,
    _diagonal_lines,
    _split_by_manifold,
    choose_directions,
    project_to_physical,
)

Word = tuple[int, ...]

# S_a S_b = S_b S_a + 2i eps(a, b, c) S_c for the unique c not in {a, b}
_THIRD = {(1, 2): 3, (2, 1): 3, (1, 3): 2, (3, 1): 2, (2, 3): 1, (3, 2): 1}
_EPS = {(1, 2): 1, (2, 3): 1, (3, 1): 1, (2, 1): -1, (3, 2): -1, (1, 3): -1}


def standard_word(ones: int, twos: int, order: int) -> Word:
    """The sorted word with the given index multiplicities."""
    threes = order - ones - twos
    if threes < 0 or ones < 0 or twos < 0:
        raise ValueError("multiplicities must be non-negative and sum to at most the order")
    return (1,) * ones + (2,) * twos + (3,) * threes


def class_words(ones: int, twos: int, order: int) -> tuple[Word, ...]:
    """All distinct words sharing a multiset, in lexicographic order."""
    base = standard_word(ones, twos, order)
    return tuple(sorted(set(itertools.permutations(base))))


@lru_cache(maxsize=None)
def reduce_to_standard(word: Word) -> tuple[tuple[Word, complex], ...]:
    """Rewrite a word as its sorted form plus strictly shorter words.

    Returns (word', coefficient) pairs; exactly one entry has the original
    length (the sorted multiset, coefficient 1) and the rest are shorter,
    left unsorted since tensors value any word directly.
    """
    for i in range(len(word) - 1):
        a, b = word[i], word[i + 1]
        if a > b:
            swapped = word[:i] + (b, a) + word[i + 2 :]
            shorter = word[:i] + (_THIRD[(a, b)],) + word[i + 2 :]
            terms: dict[Word, complex] = dict(reduce_to_standard(swapped))
            terms[shorter] = terms.get(shorter, 0.0) + 2j * _EPS[(a, b)]
            return tuple(sorted(terms.items()))
    return ((word, 1.0 + 0j),)


def lower_order_terms(word: Word) -> tuple[tuple[Word, complex], ...]:
    """The shorter-word part of reduce_to_standard (the sorted term removed)."""
    return tuple((w, c) for w, c in reduce_to_standard(word) if len(w) < len(word))


def evaluate_word(word: Word, tensors) -> complex:
    """Expectation of a word from the tensor of its length.

    tensors maps order -> complex ndarray of shape (3,)*order; order 0 is
    implicitly 1 (the state trace).
    """
    if len(word) == 0:
        return 1.0 + 0j
    tensor = tensors[len(word)]
    return complex(tensor[tuple(j - 1 for j in word)])


def evaluate_terms_with_magnitude(terms, tensors) -> tuple[complex, float]:
    """Sum of terms plus the cancellation-free magnitude of the summands."""
    value = 0.0 + 0j
    magnitude = 0.0
    for w, c in terms:
        contribution = c * evaluate_word(w, tensors)
        value += contribution
        magnitude += abs(contribution)
    return value, magnitude


def word_matrix(word: Word, generators) -> np.ndarray:
    """Dense matrix of a word given the three generator matrices."""
    dim = generators[0].shape[0]
    out = np.eye(dim, dtype=complex)
    for j in word:
        out = out @ generators[j - 1]
    return out


def ordered_product(ones: int, twos: int, order: int, n_photons: int) -> np.ndarray:
    """Matrix of the standard-ordered product S1^ones S2^twos S3^(order-ones-twos)."""
    return word_matrix(standard_word(ones, twos, order), stokes_vector_operators(n_photons))


@lru_cache(maxsize=None)
def commutator_with_square_terms(ones: int, twos: int, order: int) -> tuple[tuple[Word, complex], ...]:
    """S_1^k [S_1^2, S_2^l] S_3^(r-k-l-2) as a combination of shorter words.

    Both expansions share the same sorted leading word, so the difference
    survives only in commutator corrections of lower order.
    """
    threes = order - ones - twos - 2
    if threes < 0:
        raise ValueError("order too small for the requested multiplicities")
    left = (1,) * ones + (1, 1) + (2,) * twos + (3,) * threes
    right = (1,) * ones + (2,) * twos + (1, 1) + (3,) * threes
    terms: dict[Word, complex] = {}
    for w, c in reduce_to_standard(left):
        terms[w] = terms.get(w, 0.0) + c
    for w, c in reduce_to_standard(right):
        terms[w] = terms.get(w, 0.0) - c
    return tuple((w, c) for w, c in sorted(terms.items()) if abs(c) > 0.0)


def _arrays(tensors) -> dict:
    """Order -> ndarray of each tensor, given as a PolarizationTensor or an array."""
    return {q: np.asarray(t.values if isinstance(t, PolarizationTensor) else t) for q, t in tensors.items()}


def _constraint_rhs(order: int, n_photons: int, lower_arrays: dict) -> np.ndarray:
    """Right-hand sides of the order-coupling constraints from lower tensors."""
    lower = component_classes(order - 2)
    rhs = np.zeros(len(lower))
    for i, (k, l) in enumerate(lower):
        value = n_photons * (n_photons + 2) * evaluate_word(standard_word(k, l, order - 2), lower_arrays)
        scale = max(1.0, abs(value))
        commutator_part, magnitude = evaluate_terms_with_magnitude(
            commutator_with_square_terms(k, l, order), lower_arrays
        )
        value += commutator_part
        scale = max(scale, magnitude)
        # move the ordering corrections of each class onto the known side
        for kk, ll in ((k + 2, l), (k, l + 2), (k, l)):
            correction = 0.0 + 0j
            for w in class_words(kk, ll, order):
                part, magnitude = evaluate_terms_with_magnitude(lower_order_terms(w), lower_arrays)
                correction += part
                scale = max(scale, magnitude)
            value += correction / trinomial(kk, ll, order)
        # imaginary parts cancel identically; residue scales with the summands
        if abs(value.imag) > 1e-9 * scale:
            raise StokesLabError(f"constraint ({k},{l}) has imaginary residue {value.imag:.3e}")
        rhs[i] = value.real
    return rhs


def design_matrix(directions, order: int) -> np.ndarray:
    """Rows of direction monomials x^k y^l z^(r-k-l) over the component classes of one order."""
    k, l = np.array(component_classes(order)).T
    # Python powers, multiplied x, y, z into a row-major array: the bits of a
    # row-by-row build, on which derive_third_order_fallback's reproduction
    # of the frozen tomography._FALLBACK_AXES depends
    powers = np.array([[[c**e for e in range(order + 1)] for c in (d.x, d.y, d.z)] for d in map(as_direction, directions)])
    return np.ascontiguousarray(powers[:, 0, k] * powers[:, 1, l] * powers[:, 2, order - k - l])


def casimir_constraint_matrix(order: int) -> np.ndarray:
    """Coefficient rows coupling the components of one order through the
    squared-total identity; the right-hand sides depend on lower-order data."""
    if order < 2:
        return np.zeros((0, moment_component_count(order)))
    classes = component_classes(order)
    lower = component_classes(order - 2)
    rows = np.zeros((len(lower), len(classes)))
    for i, (k, l) in enumerate(lower):
        for kk, ll in ((k + 2, l), (k, l + 2), (k, l)):
            rows[i, classes.index((kk, ll))] += 1.0 / trinomial(kk, ll, order)
    return rows


def constraint_nullspace(order: int) -> np.ndarray:
    """Orthonormal basis of component space consistent with the constraints."""
    b = casimir_constraint_matrix(order)
    if b.shape[0] == 0:
        return np.eye(moment_component_count(order))
    _, sv, vt = np.linalg.svd(b)
    if sv.min() < 1e-10:
        raise StokesLabError("order-coupling constraints are unexpectedly degenerate")
    return vt[b.shape[0] :].T


class DesignSVD(NamedTuple):
    """Thin SVD of a per-order design, read by the rank rule."""

    u: np.ndarray
    sv: np.ndarray
    vt: np.ndarray
    rank: int  # singular values above RANK_TOL times the largest
    condition_number: float  # largest over smallest singular value


def _design_svd(reduced: np.ndarray) -> DesignSVD:
    """The one route from a design to its rank and conditioning."""
    u, sv, vt = np.linalg.svd(reduced, full_matrices=False)
    with np.errstate(divide="ignore"):
        condition = sv[0] / sv[-1]
    return DesignSVD(u, sv, vt, int((sv > sv[0] * RANK_TOL).sum()), float(condition))


def reduced_design(directions, order: int) -> tuple[np.ndarray, np.ndarray, DesignSVD]:
    """Design of a direction set, the constraint null space, and the SVD of
    their product, the design restricted to the free component subspace."""
    a = design_matrix(directions, order)
    null = constraint_nullspace(order)
    return a, null, _design_svd(a @ null)


def reduced_design_singular_values(directions, order: int) -> np.ndarray:
    """Singular values of the design restricted to the free component subspace."""
    return reduced_design(directions, order)[2].sv


@dataclass(frozen=True)
class SolveDiagnostics:
    condition_number: float
    residual: float
    rank: int


def _checked_design(directions, order: int) -> tuple[np.ndarray, np.ndarray, DesignSVD]:
    """reduced_design of a direction set that resolves every free component of
    its order on its own; otherwise RankDeficientError names the unresolved
    combinations, in moment-component coordinates."""
    n_free = independent_moment_count(order)
    a, null, svd = reduced_design(directions, order)
    rank = svd.rank
    if rank < n_free:
        raise RankDeficientError(
            f"order-{order} design resolves only {rank} of {n_free} component combinations",
            rank=rank,
            expected=n_free,
            condition_number=svd.condition_number,
            deficient_directions=(null @ svd.vt[rank:].T).T,
        )
    return a, null, svd


def solve_moment_components(
    directions,
    measured,
    n_photons: int,
    order: int,
    lower_tensors: dict | None = None,
) -> tuple[MomentComponents, SolveDiagnostics]:
    """Least-squares inversion of direction moments for one order.

    The order-coupling constraints are substituted (the unknown vector is
    parameterized on their null space), reducing the problem to 2r+1 free
    unknowns.  Orders of three and above need the lower tensors to value
    the constraint right-hand sides.  A numerically rank-deficient reduced
    design raises RankDeficientError naming the unresolved component
    combinations.
    """
    dirs = [as_direction(d) for d in directions]
    values = np.asarray([float(v) for v in measured])
    if len(dirs) != len(values):
        raise ValueError("one measured moment per direction required")
    if order >= 2:
        if order > 2:
            if lower_tensors is None:
                raise ValueError("orders above two need the lower-order tensors")
            for q in range(1, order):
                if q not in lower_tensors:
                    raise ValueError(f"missing lower tensor of order {q}")
        rhs = _constraint_rhs(order, n_photons, _arrays(lower_tensors or {}))
        particular, *_ = np.linalg.lstsq(casimir_constraint_matrix(order), rhs, rcond=None)
    else:
        particular = np.zeros(moment_component_count(order))
    a, null, svd = _checked_design(dirs, order)
    target = values - a @ particular
    solution = svd.vt.T @ ((svd.u.T @ target) / svd.sv)
    x = particular + null @ solution
    residual = float(np.linalg.norm((a @ null) @ solution - target))
    components = MomentComponents(
        order, n_photons, dict(zip(component_classes(order), x))
    )
    return components, SolveDiagnostics(svd.condition_number, residual, svd.rank)


def assemble_tensor_order2(components: MomentComponents, first_order: PolarizationTensor) -> PolarizationTensor:
    """Second-rank tensor from its components and the first-order Stokes vector.

    Diagonal entries are the pure-class components; each off-diagonal pair
    splits its class evenly with the commutator supplying the imaginary
    part.
    """
    if components.order != 2 or first_order.order != 1:
        raise ValueError("need order-2 components and an order-1 tensor")
    m = components.values
    s1, s2, s3 = (first_order.element((j,)).real for j in (1, 2, 3))
    values = np.array(
        [
            [m[(2, 0)], m[(1, 1)] / 2 + 1j * s3, m[(1, 0)] / 2 - 1j * s2],
            [m[(1, 1)] / 2 - 1j * s3, m[(0, 2)], m[(0, 1)] / 2 + 1j * s1],
            [m[(1, 0)] / 2 + 1j * s2, m[(0, 1)] / 2 - 1j * s1, m[(0, 0)]],
        ]
    )
    return PolarizationTensor(2, components.n_photons, values)


def assemble_tensor_order3(components: MomentComponents, second_order: PolarizationTensor) -> PolarizationTensor:
    """Third-rank tensor from its components and the full second-order tensor."""
    if components.order != 3 or second_order.order != 2:
        raise ValueError("need order-3 components and an order-2 tensor")
    m = components.values
    t = lambda i, j: second_order.element((i, j))
    d = np.empty((3, 3, 3), dtype=complex)
    d[0, 0, 0] = m[(3, 0)]
    d[0, 0, 1] = (m[(2, 1)] + 4j * t(1, 3) + 2j * t(3, 1)) / 3
    d[0, 0, 2] = (m[(2, 0)] - 4j * t(1, 2) - 2j * t(2, 1)) / 3
    d[0, 1, 0] = (m[(2, 1)] - 2j * t(1, 3) + 2j * t(3, 1)) / 3
    d[0, 1, 1] = (m[(1, 2)] + 2j * t(2, 3) + 4j * t(3, 2)) / 3
    d[0, 1, 2] = m[(1, 1)] / 6 + 1j * t(1, 1) - 1j * t(2, 2) + 1j * t(3, 3)
    d[0, 2, 0] = (m[(2, 0)] + 2j * t(1, 2) - 2j * t(2, 1)) / 3
    d[0, 2, 1] = m[(1, 1)] / 6 - 1j * t(1, 1) - 1j * t(2, 2) + 1j * t(3, 3)
    d[0, 2, 2] = (m[(1, 0)] - 2j * t(3, 2) - 4j * t(2, 3)) / 3
    d[1, 0, 0] = (m[(2, 1)] - 2j * t(1, 3) - 4j * t(3, 1)) / 3
    d[1, 0, 1] = (m[(1, 2)] + 2j * t(2, 3) - 2j * t(3, 2)) / 3
    d[1, 0, 2] = m[(1, 1)] / 6 + 1j * t(1, 1) - 1j * t(2, 2) - 1j * t(3, 3)
    d[1, 1, 0] = (m[(1, 2)] - 4j * t(2, 3) - 2j * t(3, 2)) / 3
    d[1, 1, 1] = m[(0, 3)]
    d[1, 1, 2] = (m[(0, 2)] + 4j * t(2, 1) + 2j * t(1, 2)) / 3
    d[1, 2, 0] = m[(1, 1)] / 6 + 1j * t(1, 1) + 1j * t(2, 2) - 1j * t(3, 3)
    d[1, 2, 1] = (m[(0, 2)] - 2j * t(2, 1) + 2j * t(1, 2)) / 3
    d[1, 2, 2] = (m[(0, 1)] + 2j * t(3, 1) + 4j * t(1, 3)) / 3
    d[2, 0, 0] = (m[(2, 0)] + 2j * t(1, 2) + 4j * t(2, 1)) / 3
    d[2, 0, 1] = m[(1, 1)] / 6 - 1j * t(1, 1) + 1j * t(2, 2) + 1j * t(3, 3)
    d[2, 0, 2] = (m[(1, 0)] - 2j * t(3, 2) + 2j * t(2, 3)) / 3
    d[2, 1, 0] = m[(1, 1)] / 6 - 1j * t(1, 1) + 1j * t(2, 2) - 1j * t(3, 3)
    d[2, 1, 1] = (m[(0, 2)] - 2j * t(2, 1) - 4j * t(1, 2)) / 3
    d[2, 1, 2] = (m[(0, 1)] + 2j * t(3, 1) - 2j * t(1, 3)) / 3
    d[2, 2, 0] = (m[(1, 0)] + 4j * t(3, 2) + 2j * t(2, 3)) / 3
    d[2, 2, 1] = (m[(0, 1)] - 4j * t(3, 1) - 2j * t(1, 3)) / 3
    d[2, 2, 2] = m[(0, 0)]
    return PolarizationTensor(3, components.n_photons, d)


def assemble_tensor(components: MomentComponents, lower_tensors) -> PolarizationTensor:
    """General rank-r assembly from components plus all lower tensors.

    Within each permutation class the pairwise differences are fixed by
    commutator reductions against lower orders, so the class sum pins every
    element.  lower_tensors maps order -> ndarray for orders 1..r-1.
    """
    r = components.order
    arrays = _arrays(lower_tensors)
    values = np.zeros((3,) * r, dtype=complex)
    for ones, twos in component_classes(r):
        words = class_words(ones, twos, r)
        offsets = {w: evaluate_terms_with_magnitude(lower_order_terms(w), arrays)[0] for w in words}
        base = (components.values[(ones, twos)] - sum(offsets.values())) / len(words)
        for w in words:
            values[tuple(j - 1 for j in w)] = base + offsets[w]
    tensor = PolarizationTensor(r, components.n_photons, values)
    dev = tensor.check_hermiticity()
    scale = max(1.0, float(np.abs(values).max(initial=0.0)))
    if dev > 1e-9 * scale:
        raise TensorConsistencyError(f"assembled order-{r} tensor breaks Hermiticity by {dev:.3e}")
    return tensor


def assemble_all_tensors(components_by_order: dict, n_photons: int) -> dict:
    """Tensors for every order present, assembled in increasing order.

    Each order distributes its classes with commutator differences from the
    tensors below; order one has none, so its tensor is the component
    vector itself.
    """
    tensors: dict[int, PolarizationTensor] = {}
    for order in sorted(components_by_order):
        missing = [q for q in range(1, order) if q not in tensors]
        if missing:
            raise ValueError(f"cannot assemble order {order}; missing orders {missing}")
        tensors[order] = assemble_tensor(components_by_order[order], tensors)
    return tensors


def reconstruct_density(tensors: dict, n_photons: int) -> tuple[ManifoldState, ReconstructionDiagnostics]:
    """Invert the complete tensor set of one manifold to its density matrix.

    The spanning operator family is the identity plus all standard-ordered
    products of orders up to the photon number; their expectations are the
    corresponding sorted-word tensor entries.  The linear system is solved
    by least squares, whose singular values give the rank and condition
    number, then the estimate is projected onto the physical cone.
    """
    for q in range(1, n_photons + 1):
        if q not in tensors:
            raise ValueError(f"missing tensor of order {q}")
    dim = n_photons + 1
    rows = [np.eye(dim, dtype=complex).T.reshape(-1)]
    rhs = [1.0 + 0j]
    arrays = _arrays(tensors)
    for order in range(1, n_photons + 1):
        for k, l in component_classes(order):
            rows.append(ordered_product(k, l, order, n_photons).T.reshape(-1))
            rhs.append(evaluate_word(standard_word(k, l, order), arrays))
    a = np.array(rows)
    b = np.array(rhs)
    solution, _, rank, sv = np.linalg.lstsq(a, b, rcond=RANK_TOL)
    if rank < dim * dim:
        raise StokesLabError(
            f"ordered products span only {rank} of {dim * dim} dimensions on manifold {n_photons}"
        )
    residual = float(np.linalg.norm(a @ solution - b))
    raw = solution.reshape(dim, dim)
    projected, distance = project_to_physical((raw + raw.conj().T) / 2.0)
    condition = float(sv[0] / sv[-1])
    return ManifoldState.mixed(n_photons, projected), ReconstructionDiagnostics(int(rank), condition, residual, distance)


def paper_route_density(state: ManifoldState) -> np.ndarray:
    """Exact-moment reconstruction by the paper's order-by-order route.

    Each order's components come from the Casimir-constrained inversion,
    valued with the tensors assembled from the orders below; the complete
    tensor set is then inverted to the density matrix.
    """
    n = state.n_photons
    components = {}
    for r in range(1, n + 1):
        dirs = choose_directions(r).directions
        measured = [stokes_profile(state, r, d) for d in dirs]
        components[r], _ = solve_moment_components(
            dirs, measured, n, r, lower_tensors=assemble_all_tensors(components, n)
        )
    rebuilt, _ = reconstruct_density(assemble_all_tensors(components, n), n)
    return rebuilt.density()


def derive_third_order_fallback(seed: int = 0xD1CE, iterations: int = 400, step: float = 0.08):
    """Reproduce the conditioned fallback set (tomography._FALLBACK_AXES).

    Starts from the axes tilted 30 degrees toward their nearest diagonals
    (itself rank-deficient) and locally minimizes the reduced-design
    condition number by seeded random perturbation of the three
    replacement lines.
    """
    diagonals = [d.as_array() for d in _diagonal_lines()]

    def tilt(axis, target, angle):
        perp = target - (target @ axis) * axis
        perp /= np.linalg.norm(perp)
        return math.cos(angle) * axis + math.sin(angle) * perp

    current = [tilt(np.eye(3)[i], diagonals[i], math.pi / 6.0) for i in range(3)]

    def cond(axes):
        _, _, svd = reduced_design(
            [Direction.from_vector(v, normalize=True) for v in axes] + list(_diagonal_lines()), 3
        )
        return svd.condition_number if svd.rank == independent_moment_count(3) else math.inf

    best = cond(current)
    gen = np.random.Generator(np.random.Philox(key=seed))
    for _ in range(iterations):
        idx = int(gen.integers(0, 3))
        perturbation = gen.normal(size=3) * step
        candidate = [v.copy() for v in current]
        vec = candidate[idx] + perturbation
        candidate[idx] = vec / np.linalg.norm(vec)
        c = cond(candidate)
        if c < best:
            current, best = candidate, c
    return tuple(Direction.from_vector(v, normalize=True) for v in current), best


# ---------------------------------------------------------------------------
# Sample moments along one direction


class MomentEstimate(NamedTuple):
    value: float
    standard_error: float


@dataclass(frozen=True)
class EmpiricalMoments:
    """Sample moments per manifold and order, with plug-in standard errors."""

    shots: int
    manifold_probabilities: dict  # n_photons -> MomentEstimate
    moments: dict  # (n_photons, order) -> MomentEstimate

    def moment(self, n_photons: int, order: int) -> MomentEstimate | None:
        return self.moments.get((n_photons, order))


def estimate_moments(record: MeasurementRecord, orders) -> EmpiricalMoments:
    """Per-manifold sample moments of the measured eigenvalue.

    Manifolds with no counts yield no estimates (undefined, not zero).
    """
    orders = sorted(set(int(r) for r in orders))
    if any(r < 0 for r in orders):
        raise ValueError("orders must be non-negative")
    shots = record.setting.shots
    probs = {}
    moments = {}
    for n, (tot, law) in sorted(_split_by_manifold(record.counts).items()):
        p_hat = tot / shots
        probs[n] = MomentEstimate(p_hat, math.sqrt(p_hat * (1.0 - p_hat) / shots))
        for r in orders:
            powered = (n - 2.0 * np.arange(n + 1)) ** r
            mean = float(powered @ law)
            var = max(float(powered**2 @ law) - mean * mean, 0.0)
            moments[(n, r)] = MomentEstimate(mean, math.sqrt(var / tot))
    return EmpiricalMoments(shots, probs, moments)


def distribution_moment(distribution: dict, order: int, n_photons: int) -> float | None:
    """Manifold-conditioned moment of the eigenvalue, or None if unpopulated."""
    _, law = _split_by_manifold(distribution).get(n_photons, (None, None))
    return None if law is None else float(law @ (n_photons - 2.0 * np.arange(n_photons + 1)) ** order)
