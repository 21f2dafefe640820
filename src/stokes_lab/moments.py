"""Polarization tensors, moment components, direction-moment profiles and
derived polarization measures.

A rank-r polarization tensor collects all expectations of ordered products
of r Stokes generators within one photon-number manifold.  Summing each
class of index permutations yields the real moment components, the
coefficients of the direction-moment profile as a polynomial on the sphere.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import TensorConsistencyError
from .fock import as_direction, stokes_in_direction, stokes_vector_operators
from .states import BlockDiagonalState, ManifoldState, as_block_diagonal

IMAG_RESIDUE_TOL = 1e-10
DESCEND_TOL = 1e-9
DEFAULT_ORDER_CAP = 6
# A rank-14 tensor holds 3^14 complex entries (77 MB); its products and
# class labels take a few times that, and the next order triples it.
MAX_TENSOR_ORDER = 14


def component_classes(order: int) -> tuple[tuple[int, int], ...]:
    """Canonical (ones, twos) enumeration of the moment-component classes."""
    return tuple((k, l) for k in range(order + 1) for l in range(order - k + 1))


def moment_component_count(order: int) -> int:
    """Number of moment components of one order: (r+1)(r+2)/2."""
    return (order + 1) * (order + 2) // 2


def trinomial(ones: int, twos: int, order: int) -> int:
    """Number of distinct words with the given index multiplicities."""
    return math.comb(order, ones) * math.comb(order - ones, twos)


def independent_moment_count(order: int) -> int:
    """Components not fixed by lower orders through the Casimir coupling: 2r+1."""
    return 2 * order + 1


def manifold_moment_total(n_photons: int) -> int:
    """Independent moment components across orders 1..N: N(N+2)."""
    return n_photons * (n_photons + 2)


def block_diagonal_parameters(manifolds) -> int:
    """Real parameters of a block-diagonal state on the given manifolds."""
    ms = list(manifolds)
    if len(set(ms)) != len(ms):
        raise ValueError("manifolds must be distinct")
    return -1 + sum((n + 1) ** 2 for n in ms)


def cutoff_block_diagonal_parameters(max_photons: int) -> int:
    """Closed form of the previous count for manifolds 0..max_photons."""
    n = max_photons
    return n * (2 * n * n + 9 * n + 13) // 6


def full_state_parameters(max_photons: int) -> int:
    """Real parameters of a general (not block-diagonal) state with <= N photons."""
    n = max_photons
    return n * (n + 3) * (n * n + 3 * n + 4) // 4


def averaged_parameter_count(max_order: int) -> int:
    """Moment components through a given order when photon number is unresolved."""
    r = max_order
    return r * (r * r + 6 * r + 11) // 6


class ParameterCounts(NamedTuple):
    block_diagonal: int
    cutoff_closed_form: int
    full_state: int


def count_parameters(max_photons: int) -> ParameterCounts:
    """Parameter-counting summary for states limited to manifolds 0..max_photons."""
    return ParameterCounts(
        block_diagonal=block_diagonal_parameters(range(max_photons + 1)),
        cutoff_closed_form=cutoff_block_diagonal_parameters(max_photons),
        full_state=full_state_parameters(max_photons),
    )


@dataclass(frozen=True)
class PolarizationTensor:
    """Rank-r array of ordered Stokes-product expectations.

    n_photons is None for a photon-number-averaged tensor.  The leftmost
    index is the leftmost operator in the product and varies slowest in
    the serialized form.
    """

    order: int
    n_photons: int | None
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=complex)
        if v.shape != (3,) * self.order:
            raise ValueError(f"rank-{self.order} tensor needs shape {(3,) * self.order}, got {v.shape}")
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    def element(self, indices) -> complex:
        """Entry by 1-based subscripts."""
        return complex(self.values[tuple(j - 1 for j in indices)])

    def check_hermiticity(self) -> float:
        """Max deviation from the reversal-conjugation symmetry."""
        rev = np.transpose(self.values, axes=tuple(reversed(range(self.order))))
        return float(np.abs(self.values - rev.conj()).max())


@dataclass(frozen=True)
class MomentComponents:
    """The real coefficients of one direction-moment profile.

    values maps (ones, twos) -> coefficient of n1^ones n2^twos n3^rest.
    """

    order: int
    n_photons: int | None
    values: dict

    def __post_init__(self):
        expected = set(component_classes(self.order))
        if set(self.values) != expected:
            raise ValueError("component classes do not match the order")
        object.__setattr__(self, "values", {k: float(v) for k, v in self.values.items()})

    def __getitem__(self, key) -> float:
        return self.values[key]

    def as_vector(self) -> np.ndarray:
        return np.array([self.values[c] for c in component_classes(self.order)])

    def casimir_sum(self) -> float:
        """M(2,0) + M(0,2) + M(0,0); equals N(N+2) at order 2."""
        if self.order < 2:
            raise ValueError("defined for order >= 2")
        return self.values[(2, 0)] + self.values[(0, 2)] + self.values[(0, 0)]


def polarization_tensor(state: ManifoldState, order: int) -> PolarizationTensor:
    """All ordered-product expectations of one rank for a manifold state."""
    return matrix_tensor(state.density(), state.n_photons, order)


def _word_products(gens: np.ndarray, length: int) -> np.ndarray:
    """Stacked products of every word of one length, leftmost subscript slowest."""
    dim = gens.shape[-1]
    words = np.eye(dim, dtype=complex)[None]
    for _ in range(length):
        words = (words[:, None] @ gens).reshape(-1, dim, dim)
    return words


def matrix_tensor(rho: np.ndarray, n_photons: int, order: int) -> PolarizationTensor:
    """Tr(rho S_i1 ... S_ir) for every index word of one rank.

    rho is any matrix on the manifold, not necessarily a physical state:
    tomography takes the components of its linear-inversion estimate.
    Each word splits into a left half u and a right half w, so the whole
    tensor is one matrix product, Tr(rho P_u P_w) = sum_ab (rho P_u)_ab
    (P_w)_ba, between two stacks of about 3^(r/2) half-word products.
    Orders above MAX_TENSOR_ORDER raise ValueError before anything is built.
    """
    if order < 1:
        raise ValueError("order must be at least 1")
    if order > MAX_TENSOR_ORDER:
        raise ValueError(
            f"order {order} exceeds MAX_TENSOR_ORDER = {MAX_TENSOR_ORDER}: "
            f"a dense rank-{order} tensor has 3^{order} entries"
        )
    gens = np.stack(stokes_vector_operators(n_photons))
    left = rho @ _word_products(gens, (order + 1) // 2)
    right = _word_products(gens, order // 2).transpose(0, 2, 1)
    values = left.reshape(len(left), -1) @ right.reshape(len(right), -1).T
    return PolarizationTensor(order, n_photons, values.reshape((3,) * order))


def averaged_tensor(state, order: int) -> PolarizationTensor:
    """Probability-weighted tensor over the populated manifolds."""
    block = as_block_diagonal(state)
    total = sum(p * polarization_tensor(ms, order).values for _, p, ms in block.blocks)
    return PolarizationTensor(order, None, total)


def _class_labels(order: int) -> np.ndarray:
    """Position in component_classes(order) of each flat tensor index."""
    digits = np.indices((3,) * order).reshape(order, -1)
    ones = (digits == 0).sum(axis=0)
    twos = (digits == 1).sum(axis=0)
    return ones * (order + 1) - ones * (ones - 1) // 2 + twos


def moment_components(tensor: PolarizationTensor) -> MomentComponents:
    """Sum each permutation class of tensor elements into a real coefficient.

    The imaginary parts must cancel; a residue beyond tolerance signals a
    broken tensor and raises.
    """
    classes = component_classes(tensor.order)
    labels = _class_labels(tensor.order)
    flat = tensor.values.reshape(-1)
    real = np.bincount(labels, weights=flat.real, minlength=len(classes))
    imag = np.bincount(labels, weights=flat.imag, minlength=len(classes))
    scale = max(1.0, float(np.abs(flat).max(initial=0.0)))
    for (ones, twos), residue in zip(classes, imag):
        if abs(residue) > IMAG_RESIDUE_TOL * scale:
            raise TensorConsistencyError(
                f"class ({ones},{twos}) of order {tensor.order} has imaginary residue {residue:.3e}"
            )
    return MomentComponents(tensor.order, tensor.n_photons, dict(zip(classes, real)))


def components_from_state(state: ManifoldState, order: int) -> MomentComponents:
    return moment_components(polarization_tensor(state, order))


def averaged_components(state, order: int) -> MomentComponents:
    return moment_components(averaged_tensor(state, order))


def profile_eval(components: MomentComponents, n) -> float:
    """Evaluate the direction-moment polynomial at a unit direction."""
    d = as_direction(n)
    r = components.order
    total = 0.0
    for (ones, twos), coeff in components.values.items():
        total += coeff * d.x**ones * d.y**twos * d.z ** (r - ones - twos)
    return total


def stokes_profile(state: ManifoldState, order: int, n) -> float:
    """Direct matrix route: Tr(rho (n.S)^r) on the state's manifold."""
    op = np.linalg.matrix_power(stokes_in_direction(n, state.n_photons), order)
    return float(state.expectation(op).real)


def averaged_profile(state, order: int, n) -> float:
    """Probability-weighted direction moment over populated manifolds."""
    block = as_block_diagonal(state)
    return sum(p * stokes_profile(ms, order, n) for _, p, ms in block.blocks)


def multi_direction_expectation(tensor: PolarizationTensor, directions) -> complex:
    """Full contraction of the tensor with one unit vector per slot."""
    vecs = [as_direction(d).as_array() for d in directions]
    if len(vecs) != tensor.order:
        raise ValueError(f"need {tensor.order} directions, got {len(vecs)}")
    out = tensor.values
    for v in vecs:
        out = np.tensordot(v, out, axes=([0], [0]))
    return complex(out)


def tensor_descend(tensor: PolarizationTensor) -> PolarizationTensor:
    """Recover the rank-(r-1) tensor from antisymmetrized neighbor pairs.

    Every insertion slot must reproduce the same value; disagreement beyond
    tolerance marks the input as inconsistent.
    """
    r = tensor.order
    if r < 2:
        raise ValueError("descent needs order >= 2")
    cyclic = {1: (2, 3), 2: (3, 1), 3: (1, 2)}
    out = np.zeros((3,) * (r - 1), dtype=complex)
    scale = max(1.0, float(np.abs(tensor.values).max(initial=0.0)))
    for w in itertools.product((1, 2, 3), repeat=r - 1):
        candidates = []
        for slot in range(r - 1):
            mu, nu = cyclic[w[slot]]
            plus = w[:slot] + (mu, nu) + w[slot + 1 :]
            minus = w[:slot] + (nu, mu) + w[slot + 1 :]
            candidates.append((tensor.element(plus) - tensor.element(minus)) / 2j)
        spread = max(abs(a - b) for a in candidates for b in candidates)
        if spread > DESCEND_TOL * scale:
            raise TensorConsistencyError(
                f"slot reconstructions of element {w} disagree by {spread:.3e}"
            )
        out[tuple(i - 1 for i in w)] = sum(candidates) / len(candidates)
    return PolarizationTensor(r - 1, tensor.n_photons, out)


def stokes_vector_mean(state) -> np.ndarray:
    """Photon-number-averaged first moments of the three generators."""
    block = as_block_diagonal(state)
    out = np.zeros(3)
    for n, p, ms in block.blocks:
        gens = stokes_vector_operators(n)
        out += p * np.array([ms.expectation(g).real for g in gens])
    return out


def degree_of_polarization(state) -> float:
    """First-order polarization measure |<S>| / <S0> over the whole state."""
    block = as_block_diagonal(state)
    mean_photons = block.mean_photon_number()
    if mean_photons <= 0.0:
        raise ValueError("degree of polarization is undefined for the vacuum")
    return float(np.linalg.norm(stokes_vector_mean(block)) / mean_photons)


def covariance_matrix(state, n_photons: int | None = None) -> np.ndarray:
    """Symmetrized second-moment covariance of the generators.

    With a manifold given, the covariance within that manifold; otherwise
    the probability-weighted average of per-manifold covariances.
    """
    block = as_block_diagonal(state)
    if n_photons is not None:
        ms = block.block(n_photons)
        if ms is None:
            raise ValueError(f"manifold {n_photons} is unpopulated")
        t2 = polarization_tensor(ms, 2).values
        t1 = np.array([ms.expectation(g).real for g in stokes_vector_operators(n_photons)])
        return t2.real - np.outer(t1, t1)
    total = np.zeros((3, 3))
    for n, p, ms in block.blocks:
        total += p * covariance_matrix(BlockDiagonalState.single(ms), n_photons=n)
    return total


def variance_sum(state) -> float:
    """Sum of the three generator variances of the full state."""
    block = as_block_diagonal(state)
    first = stokes_vector_mean(block)
    second = np.zeros(3)
    for n, p, ms in block.blocks:
        gens = stokes_vector_operators(n)
        second += p * np.array([ms.expectation(g @ g).real for g in gens])
    return float(second.sum() - (first**2).sum())


def uncertainty_bounds(state) -> tuple[float, float]:
    """(lower, upper) bounds that the variance sum must satisfy."""
    block = as_block_diagonal(state)
    lower = 2.0 * block.mean_photon_number()
    upper = sum(p * n * (n + 2) for n, p, _ in block.blocks)
    return float(lower), float(upper)

