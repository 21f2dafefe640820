"""Two-mode polarization states: single-manifold, block-diagonal, and lattice forms.

All state values are immutable after construction and validated for
physicality (unit norm or trace, Hermitian PSD density matrices) at build
time.  Constructors for the standard families live here together with the
projection onto the block-diagonal polarization sector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import NonPhysicalStateError, TruncationError
from .fock import check_manifold, su2_unitary

PSD_TOL = 1e-10
PROBABILITY_TOL = 1e-12
TRUNCATION_TOL = 1e-10


def check_finite(name: str, values):
    """Reject NaN and infinite entries.

    The range checks in this module compare with tolerances, and every
    comparison with NaN is false, so without this a NaN passes them all.
    """
    if not np.isfinite(values).all():
        raise ValueError(f"{name} must be finite, not NaN or infinite")
    return values


def check_truncation_deficit(value):
    """Reject a dropped probability mass that is non-finite or outside [0, 1)."""
    if not 0.0 <= check_finite("truncation deficit", value) < 1.0:
        raise ValueError(f"truncation deficit must lie in [0, 1), got {value!r}")


def _as_complex_vector(values, dim: int) -> np.ndarray:
    v = np.asarray(values, dtype=complex)
    if v.shape != (dim,):
        raise ValueError(f"expected a vector of length {dim}, got shape {v.shape}")
    return check_finite("state vector", v)


def check_density_matrix(matrix: np.ndarray, tol: float = PSD_TOL) -> np.ndarray:
    """Validate Hermiticity, unit trace and positive semidefiniteness."""
    rho = np.asarray(matrix, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError(f"density matrix must be square, got shape {rho.shape}")
    check_finite("density matrix", rho)
    if np.abs(rho - rho.conj().T).max(initial=0.0) > tol:
        raise NonPhysicalStateError("density matrix is not Hermitian within tolerance")
    if abs(np.trace(rho).real - 1.0) > tol or abs(np.trace(rho).imag) > tol:
        raise NonPhysicalStateError(f"density matrix trace {np.trace(rho)} is not 1")
    min_eig = float(np.linalg.eigvalsh((rho + rho.conj().T) / 2.0).min())
    if min_eig < -tol:
        raise NonPhysicalStateError(f"density matrix has negative eigenvalue {min_eig}")
    return rho


@dataclass(frozen=True)
class ManifoldState:
    """State confined to a single total-photon-number manifold.

    Exactly one of amplitudes (pure) or matrix (mixed) is set.  Basis order
    matches the operator basis: index k is the ket with N-k horizontal and
    k vertical photons.
    """

    n_photons: int
    amplitudes: np.ndarray | None = None
    matrix: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "n_photons", check_manifold(self.n_photons))
        if (self.amplitudes is None) == (self.matrix is None):
            raise ValueError("provide exactly one of amplitudes or matrix")
        dim = self.n_photons + 1
        if self.amplitudes is not None:
            vec = _as_complex_vector(self.amplitudes, dim)
            norm = np.linalg.norm(vec)
            if abs(norm - 1.0) > PSD_TOL:
                raise NonPhysicalStateError(f"state vector norm {norm} differs from 1")
            vec.setflags(write=False)
            object.__setattr__(self, "amplitudes", vec)
        else:
            rho = check_density_matrix(np.asarray(self.matrix, dtype=complex))
            if rho.shape != (dim, dim):
                raise ValueError(f"matrix shape {rho.shape} does not match manifold {self.n_photons}")
            rho = rho.copy()
            rho.setflags(write=False)
            object.__setattr__(self, "matrix", rho)

    @classmethod
    def pure(cls, n_photons: int, amplitudes) -> "ManifoldState":
        return cls(n_photons, amplitudes=np.asarray(amplitudes, dtype=complex))

    @classmethod
    def mixed(cls, n_photons: int, matrix) -> "ManifoldState":
        return cls(n_photons, matrix=np.asarray(matrix, dtype=complex))

    @classmethod
    def fock(cls, n_horizontal: int, n_vertical: int) -> "ManifoldState":
        """The number state with the given occupation of each mode."""
        n_horizontal, n_vertical = check_manifold(n_horizontal), check_manifold(n_vertical)
        total = n_horizontal + n_vertical
        vec = np.zeros(total + 1, dtype=complex)
        vec[n_vertical] = 1.0
        return cls.pure(total, vec)

    @property
    def is_pure(self) -> bool:
        return self.amplitudes is not None

    def density(self) -> np.ndarray:
        if self.amplitudes is not None:
            return np.outer(self.amplitudes, self.amplitudes.conj())
        return np.asarray(self.matrix)

    def expectation(self, operator: np.ndarray) -> complex:
        if self.amplitudes is not None:
            return complex(self.amplitudes.conj() @ operator @ self.amplitudes)
        return complex(np.trace(self.matrix @ operator))


@dataclass(frozen=True)
class BlockDiagonalState:
    """Distribution over manifolds with a normalized state in each.

    blocks is a tuple of (n_photons, probability, ManifoldState); the
    probabilities are strictly positive, sum to 1 within 1e-12 and no
    manifold repeats.  truncation_deficit records probability mass dropped
    by a truncating constructor.
    """

    blocks: tuple[tuple[int, float, ManifoldState], ...]
    truncation_deficit: float = 0.0

    def __post_init__(self):
        check_truncation_deficit(self.truncation_deficit)
        blocks = tuple((check_manifold(n), p, state) for n, p, state in self.blocks)
        object.__setattr__(self, "blocks", blocks)
        seen = set()
        total = 0.0
        for n, p, state in blocks:
            if n in seen:
                raise ValueError(f"duplicate manifold {n}")
            seen.add(n)
            if check_finite(f"probability of manifold {n}", p) <= 0.0:
                raise ValueError(f"manifold {n} has non-positive probability {p}")
            if state.n_photons != n:
                raise ValueError(f"block state photon number {state.n_photons} mismatches label {n}")
            total += p
        if abs(total - 1.0) > PROBABILITY_TOL:
            raise NonPhysicalStateError(f"probabilities sum to {total}, not 1")

    @classmethod
    def single(cls, state: ManifoldState) -> "BlockDiagonalState":
        return cls(((state.n_photons, 1.0, state),))

    @property
    def manifolds(self) -> tuple[int, ...]:
        return tuple(n for n, _, _ in self.blocks)

    def probability(self, n_photons: int) -> float:
        for n, p, _ in self.blocks:
            if n == n_photons:
                return p
        return 0.0

    def block(self, n_photons: int) -> ManifoldState | None:
        """The normalized manifold state, or None when the manifold is unpopulated."""
        for n, _, state in self.blocks:
            if n == n_photons:
                return state
        return None

    def mean_photon_number(self) -> float:
        return sum(n * p for n, p, _ in self.blocks)


def _lattice_points(n_max: int) -> tuple[tuple[int, int], ...]:
    return tuple((total - k, k) for total in range(n_max + 1) for k in range(total + 1))


@dataclass(frozen=True)
class GeneralTwoModeState:
    """State on the truncated two-mode Fock lattice n_H + n_V <= n_max.

    Either pure (amplitudes keyed by occupation) or mixed (density matrix
    over the lattice enumeration, manifolds stacked in ascending order with
    vertical count ascending inside each).
    """

    n_max: int
    amplitudes: dict | None = None  # (n_H, n_V) -> complex
    matrix: np.ndarray | None = None
    truncation_deficit: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "n_max", check_manifold(self.n_max))
        check_truncation_deficit(self.truncation_deficit)
        if (self.amplitudes is None) == (self.matrix is None):
            raise ValueError("provide exactly one of amplitudes or matrix")
        if self.amplitudes is not None:
            clean = {}
            norm_sq = 0.0
            for (nh, nv), amp in self.amplitudes.items():
                nh, nv = check_manifold(nh), check_manifold(nv)
                if nh + nv > self.n_max:
                    raise ValueError(
                        f"occupation ({nh}, {nv}) outside the lattice (n_max={self.n_max})"
                    )
                amp = check_finite(f"amplitude of ({nh}, {nv})", complex(amp))
                if amp != 0:
                    clean[(nh, nv)] = amp
                    norm_sq += abs(amp) ** 2
            if abs(norm_sq - 1.0) > PSD_TOL:
                raise NonPhysicalStateError(f"lattice state norm^2 {norm_sq} differs from 1")
            object.__setattr__(self, "amplitudes", clean)
        else:
            rho = check_density_matrix(np.asarray(self.matrix, dtype=complex))
            dim = len(self.lattice)
            if rho.shape != (dim, dim):
                raise ValueError(f"matrix shape {rho.shape} does not match the lattice ({dim})")
            rho = rho.copy()
            rho.setflags(write=False)
            object.__setattr__(self, "matrix", rho)

    @cached_property
    def lattice(self) -> tuple[tuple[int, int], ...]:
        return _lattice_points(self.n_max)

    @property
    def is_pure(self) -> bool:
        return self.amplitudes is not None

    def _manifold_slice(self, n_photons: int) -> slice:
        start = n_photons * (n_photons + 1) // 2
        return slice(start, start + n_photons + 1)

    def manifold_amplitudes(self, n_photons: int) -> np.ndarray:
        """Unnormalized amplitude slice of one manifold, in operator basis order."""
        if self.amplitudes is None:
            raise ValueError("manifold amplitudes are defined for pure lattice states only")
        return np.array(
            [self.amplitudes.get((n_photons - k, k), 0.0) for k in range(n_photons + 1)],
            dtype=complex,
        )

    def manifold_block(self, n_photons: int) -> np.ndarray:
        """Unnormalized density sub-block of one manifold."""
        if self.matrix is not None:
            idx = self._manifold_slice(n_photons)
            return np.asarray(self.matrix[idx, idx])
        slice_ = self.manifold_amplitudes(n_photons)
        return np.outer(slice_, slice_.conj())


def polarization_sector(state: GeneralTwoModeState) -> BlockDiagonalState:
    """Project a lattice state onto the block-diagonal polarization sector.

    Manifold weights are the block traces; empty manifolds are omitted and
    kept weights renormalize to one.
    """
    blocks = []
    for n in range(state.n_max + 1):
        sub = state.manifold_block(n)
        weight = float(np.trace(sub).real)
        if weight <= 0.0:
            continue
        if state.is_pure:
            slice_ = state.manifold_amplitudes(n)
            blocks.append((n, weight, ManifoldState.pure(n, slice_ / math.sqrt(weight))))
        else:
            blocks.append((n, weight, ManifoldState.mixed(n, sub / weight)))
    total = sum(p for _, p, _ in blocks)
    blocks = [(n, p / total, s) for n, p, s in blocks]
    return BlockDiagonalState(tuple(blocks), truncation_deficit=state.truncation_deficit)


# ---------------------------------------------------------------------------
# State families


def su2_coherent(n_photons: int, theta: float, phi: float) -> ManifoldState:
    """Spin coherent state pointing along (theta, phi); eigenstate of n.S
    with the maximal eigenvalue.

    Amplitude on the ket with n horizontal photons is
    exp(-i n phi) sqrt(C(N,n)) sin^(N-n)(theta/2) cos^n(theta/2).
    """
    n = check_manifold(n_photons)
    check_finite("angles (theta, phi)", (theta, phi))
    vec = np.zeros(n + 1, dtype=complex)
    for nh in range(n + 1):
        vec[n - nh] = (
            np.exp(-1j * nh * phi)
            * math.sqrt(math.comb(n, nh))
            * math.sin(theta / 2.0) ** (n - nh)
            * math.cos(theta / 2.0) ** nh
        )
    return ManifoldState.pure(n, vec)


def two_mode_coherent(mean_photons: float, n_max: int) -> BlockDiagonalState:
    """Poissonian mixture over manifolds, each in its polar spin coherent state.

    Fails when the Poisson tail beyond n_max exceeds 1e-10; kept weights are
    renormalized and the deficit recorded on the result.
    """
    if check_finite("mean photon number", mean_photons) < 0:
        raise ValueError("mean photon number must be non-negative")
    n_max = check_manifold(n_max)
    weights = [math.exp(-mean_photons + n * math.log(mean_photons) - math.lgamma(n + 1)) if mean_photons > 0 else (1.0 if n == 0 else 0.0) for n in range(n_max + 1)]
    kept = sum(weights)
    deficit = 1.0 - kept
    if deficit > TRUNCATION_TOL:
        raise TruncationError(
            f"Poisson tail beyond n_max={n_max} holds {deficit:.3e} probability (> {TRUNCATION_TOL})"
        )
    blocks = tuple(
        (n, w / kept, ManifoldState.fock(n, 0))
        for n, w in enumerate(weights)
        if w / kept > 0.0
    )
    return BlockDiagonalState(blocks, truncation_deficit=max(deficit, 0.0))


def twin_fock(pairs: int) -> ManifoldState:
    """Equal occupation of both modes; all odd-order direction moments vanish."""
    return ManifoldState.fock(pairs, pairs)


def transformed_twin_fock(pairs: int, angles) -> ManifoldState:
    """Linear-optics image of the twin Fock state in closed form.

    The middle-rotation expansion uses binomials that vanish outside their
    integer support; the azimuthal angle only contributes photon-number
    difference phases, and the final angle acts trivially.
    """
    m = check_manifold(pairs)
    phi, theta, _ = angles
    n = check_manifold(2 * m)
    vec = np.zeros(n + 1, dtype=complex)
    st, ct = math.sin(theta), math.cos(theta)
    for k in range(n + 1):
        total = 0.0
        for j in range(max(0, k - m), min(m, k // 2) + 1):
            upper, lower = m - j, j + m - k
            if lower < 0 or lower > upper:
                continue
            total += (
                math.comb(m, j)
                * math.comb(upper, lower)
                * (-1.0) ** j
                * 2.0 ** (k - 2 * j - m)
                * st ** (m - k + 2 * j)
                * ct ** (k - 2 * j)
            )
        coeff = math.sqrt(math.factorial(n - k) * math.factorial(k)) / math.factorial(m) * total
        # the tabulated expansion carries the opposite rotation sense
        coeff *= (-1.0) ** (m + k)
        vec[k] = coeff * np.exp(-1j * phi * (m - k))
    return ManifoldState.pure(n, vec)


def tmsv(mean_photons: float, m_max: int, phases=None) -> GeneralTwoModeState:
    """Two-mode squeezed vacuum with thermal pair statistics on the lattice.

    Amplitude on the m-pair ket is exp(i phase_m) sqrt(2 nbar^m / (2+nbar)^(m+1)).
    Pair phases default to zero; they drop out of the polarization sector.
    """
    if check_finite("mean photon number", mean_photons) < 0:
        raise ValueError("mean photon number must be non-negative")
    m_max = check_manifold(m_max)
    check_manifold(2 * m_max)
    q = mean_photons / (2.0 + mean_photons)
    tail = q ** (m_max + 1)
    if tail > TRUNCATION_TOL:
        raise TruncationError(
            f"pair-number tail beyond m_max={m_max} holds {tail:.3e} probability (> {TRUNCATION_TOL})"
        )
    if phases is None:
        phases = [0.0] * (m_max + 1)
    if len(phases) < m_max + 1:
        raise ValueError("need one phase per kept pair number")
    weights = [2.0 * mean_photons**m / (2.0 + mean_photons) ** (m + 1) for m in range(m_max + 1)]
    kept = sum(weights)
    amps = {
        (m, m): np.exp(1j * phases[m]) * math.sqrt(w / kept)
        for m, w in enumerate(weights)
        if w > 0.0
    }
    return GeneralTwoModeState(2 * m_max, amps, truncation_deficit=max(1.0 - kept, 0.0))


def noon(n_photons: int) -> ManifoldState:
    """Equal superposition of all photons horizontal and all vertical."""
    n = check_manifold(n_photons)
    if n < 1:
        raise ValueError("the superposition needs at least one photon")
    vec = np.zeros(n + 1, dtype=complex)
    vec[0] = vec[n] = 1.0 / math.sqrt(2.0)
    return ManifoldState.pure(n, vec)


def unpolarized_two_photon(a: float, theta: float) -> ManifoldState:
    """The two-photon family with vanishing first-order polarization.

    a e^(-i theta)|2,0> + i sqrt(1-2a^2)|1,1> + a e^(i theta)|0,2>,
    0 <= a <= 1/sqrt(2).  Equals a rotated two-photon NOON state.
    """
    check_finite("parameters (a, theta)", (a, theta))
    if not 0.0 <= a <= 1.0 / math.sqrt(2.0) + 1e-15:
        raise ValueError(f"a must lie in [0, 1/sqrt(2)], got {a}")
    middle = 1.0 - 2.0 * a * a
    vec = np.array(
        [a * np.exp(-1j * theta), 1j * math.sqrt(max(middle, 0.0)), a * np.exp(1j * theta)],
        dtype=complex,
    )
    return ManifoldState.pure(2, vec)


def single_photon_density(pi0: float, re_coh: float, im_coh: float) -> ManifoldState:
    """General single-photon density matrix from its population and coherence."""
    rho = np.array(
        [[pi0, re_coh + 1j * im_coh], [re_coh - 1j * im_coh, 1.0 - pi0]], dtype=complex
    )
    try:
        return ManifoldState.mixed(1, rho)
    except NonPhysicalStateError as exc:
        raise NonPhysicalStateError(f"single-photon parameters are non-physical: {exc}") from exc


def two_photon_density(pi1: float, pi2: float, coh, coh_imag) -> ManifoldState:
    """General two-photon density matrix from populations and three coherences.

    coh and coh_imag are the real and imaginary parts (each length 3) of the
    upper-triangle entries in the order (0,1), (0,2), (1,2).
    """
    r1, r2, r3 = coh
    i1, i2, i3 = coh_imag
    rho = np.array(
        [
            [pi1, r1 + 1j * i1, r2 + 1j * i2],
            [r1 - 1j * i1, pi2, r3 + 1j * i3],
            [r2 - 1j * i2, r3 - 1j * i3, 1.0 - pi1 - pi2],
        ],
        dtype=complex,
    )
    try:
        return ManifoldState.mixed(2, rho)
    except NonPhysicalStateError as exc:
        raise NonPhysicalStateError(f"two-photon parameters are non-physical: {exc}") from exc


def apply_su2(state, angles):
    """Apply a linear-optics transformation; manifold weights are untouched."""
    if isinstance(state, ManifoldState):
        u = su2_unitary(angles, state.n_photons)
        if state.is_pure:
            return ManifoldState.pure(state.n_photons, u @ state.amplitudes)
        return ManifoldState.mixed(state.n_photons, u @ state.matrix @ u.conj().T)
    if isinstance(state, BlockDiagonalState):
        blocks = tuple((n, p, apply_su2(s, angles)) for n, p, s in state.blocks)
        return BlockDiagonalState(blocks, truncation_deficit=state.truncation_deficit)
    if isinstance(state, GeneralTwoModeState):
        if state.is_pure:
            amps: dict = {}
            for n in range(state.n_max + 1):
                slice_ = state.manifold_amplitudes(n)
                if not np.any(slice_):
                    continue
                rotated = su2_unitary(angles, n) @ slice_
                for k, amp in enumerate(rotated):
                    if amp != 0:
                        amps[(n - k, k)] = amp
            return GeneralTwoModeState(
                state.n_max, amps, truncation_deficit=state.truncation_deficit
            )
        dim = len(state.lattice)
        unitary = np.zeros((dim, dim), dtype=complex)
        for n in range(state.n_max + 1):
            idx = state._manifold_slice(n)
            unitary[idx, idx] = su2_unitary(angles, n)
        rotated = unitary @ state.matrix @ unitary.conj().T
        return GeneralTwoModeState(
            state.n_max, matrix=rotated, truncation_deficit=state.truncation_deficit
        )
    raise TypeError(f"cannot apply an SU(2) transformation to {type(state).__name__}")


def as_block_diagonal(state) -> BlockDiagonalState:
    """View any supported state as a block-diagonal polarization sector."""
    if isinstance(state, BlockDiagonalState):
        return state
    if isinstance(state, ManifoldState):
        return BlockDiagonalState.single(state)
    if isinstance(state, GeneralTwoModeState):
        return polarization_sector(state)
    raise TypeError(f"unsupported state type {type(state).__name__}")
