"""Simulated direction measurements and block-diagonal sector reconstruction.

One measurement setting fixes a direction on the polarization sphere; each
shot draws a joint outcome (total photon number, difference eigenvalue).
Along direction d, manifold N is characterized by its conditional outcome
law p_N(d) over the eigenvalues N-2k, exact or counted.  Each entry
p_k(d) = Tr(rho_N Pi_k(d)) is linear in rho_N, so run_tomography recovers
each manifold by one least-squares solve with one row per outcome
projector of all its directions, followed by a physicality projection.
Order r has one direction set of 2r+1 lines (choose_directions): named sets
up to order 3, a golden-angle spiral over the upper hemisphere above; each
unique direction is rotated once per run, and the solve rows read those bases.
Shot mode samples the joint law of the whole state along each direction
(outcome_distribution) and splits the counts by manifold; exact mode
computes only the laws of the manifolds it solves, from the same bases.
The paper's order-by-order route, a Casimir-constrained inversion per
order, tensor assembly and inversion of the complete tensor set, lives in
reference.py with its per-order design, as the reference this module is
checked against, next to the sample moments of one direction.  The names
solve_moment_components, assemble_all_tensors, reconstruct_density,
estimate_moments, distribution_moment, design_matrix,
casimir_constraint_matrix, constraint_nullspace and
reduced_design_singular_values stay importable from here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    NoManifoldReconstructedError,
    NonPhysicalStateError,
    RankDeficientError,
)
from .fock import Direction, as_direction, rotated_fock_bases
from .moments import (
    DEFAULT_ORDER_CAP,
    MAX_TENSOR_ORDER,
    MomentComponents,
    matrix_tensor,
    moment_components,
)
from .states import BlockDiagonalState, ManifoldState, as_block_diagonal, check_finite

RANK_TOL = 1e-12
PHILOX_KEY_BOUND = 1 << 128
SAMPLE_CHUNK = 1 << 20  # uniforms drawn per pass; bounds sampling memory
MIN_COUNTS = 10  # samples a manifold needs across settings to be solved
SUPPORT_TOL = 1e-9  # slack on inferred photon-number probabilities


# ---------------------------------------------------------------------------
# Measurement simulation


@dataclass(frozen=True)
class MeasurementSetting:
    """One measurement direction with a shot budget and its own RNG key."""

    direction: Direction
    shots: int
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "direction", as_direction(self.direction))
        # type(x) is int: bool is a subclass of int, but True is no shot count
        if type(self.shots) is not int or self.shots < 1:
            raise ValueError(f"shots must be an integer of at least 1, got {self.shots!r}")
        if type(self.seed) is not int or not 0 <= self.seed < PHILOX_KEY_BOUND:
            raise ValueError(f"seed must be an integer that fits a 128-bit RNG key, got {self.seed!r}")


@dataclass(frozen=True)
class MeasurementRecord:
    """Empirical counts over joint (photon number, eigenvalue) outcomes."""

    setting: MeasurementSetting
    counts: dict  # (n_photons, eigenvalue) -> int

    def __post_init__(self):
        total = 0
        for (n, s), c in self.counts.items():
            if type(c) is not int or c < 0:
                raise ValueError(f"counts must be non-negative integers, got {c!r}")
            if type(n) is not int or type(s) is not int or (n - s) % 2 or abs(s) > n:
                raise ValueError(f"outcome ({n}, {s}) is impossible: outcomes are integer pairs (N, N - 2k)")
            total += c
        if total != self.setting.shots:
            raise ValueError(f"counts total {total} differs from shots {self.setting.shots}")


def outcome_distribution(state, n) -> dict:
    """Joint law over (photon number, difference eigenvalue) for one direction.

    On manifold N the eigenvectors of the directional operator are the
    rotated Fock states of fock.rotated_fock_bases, with eigenvalues exactly
    N-2k, so nothing is diagonalized or rounded.  The N+1 probabilities of a
    block are the diagonal of U^dag rho U, taken in one contraction.
    """
    block = as_block_diagonal(state)
    bases = rotated_fock_bases(n, max(block.manifolds))
    dist: dict[tuple[int, int], float] = {}
    for n_photons, p, ms in block.blocks:
        probs = _outcome_probabilities(ms.density(), bases[n_photons])
        # keys in ascending eigenvalue order, k = N..0
        for k in range(n_photons, -1, -1):
            dist[(n_photons, n_photons - 2 * k)] = p * float(probs[k])
    total = sum(dist.values())
    return {k: v / total for k, v in dist.items() if v > 0.0}


def _outcome_probabilities(density: np.ndarray, u: np.ndarray) -> np.ndarray:
    """clip(diag(U^dag rho U)): the outcome probabilities of one manifold
    along the direction whose rotated Fock basis is u, entry k the
    eigenvalue N-2k."""
    return np.clip(((density @ u) * u.conj()).sum(axis=0).real, 0.0, None)


def _split_by_manifold(tally: dict) -> dict:
    """Weight and conditional outcome law of every manifold in one tally.

    tally maps (N, eigenvalue) to a probability or a count.  Manifold N maps
    to (its summed tally, the shares of its eigenvalues N-2k, k = 0..N);
    manifolds without outcomes have no entry.
    """
    tallies: dict[int, np.ndarray] = {}
    for (n, s), weight in tally.items():
        tallies.setdefault(n, np.zeros(n + 1))[(n - s) // 2] = weight
    return {n: (float(w), t / w) for n, t in tallies.items() if (w := t.sum()) > 0.0}


def simulate_measurement(state, setting: MeasurementSetting) -> MeasurementRecord:
    """Draw i.i.d. joint outcomes with a counter-based generator.

    Shot i consumes the i-th uniform variate of a Philox stream keyed by
    the setting seed, so any worker partition of the shot range reproduces
    the same record.  The stream is drawn and binned SAMPLE_CHUNK variates
    at a time, so memory stays flat in the shot count and the chunk size
    does not change the record.
    """
    dist = outcome_distribution(state, setting.direction)
    outcomes = sorted(dist)
    probs = np.array([dist[o] for o in outcomes])
    edges = np.cumsum(probs)
    edges[-1] = 1.0
    gen = np.random.Generator(np.random.Philox(key=setting.seed))
    counts = np.zeros(len(outcomes), dtype=np.int64)
    for start in range(0, setting.shots, SAMPLE_CHUNK):
        draws = gen.random(min(SAMPLE_CHUNK, setting.shots - start))
        # outcome i takes the draws in [edges[i-1], edges[i]); counting them
        # from the sorted chunk replaces one binary search per shot
        draws.sort()
        counts += np.diff(np.searchsorted(draws, edges, side="left"), prepend=0)
    return MeasurementRecord(
        setting, {o: int(c) for o, c in zip(outcomes, counts) if c > 0}
    )


# ---------------------------------------------------------------------------
# Measurement directions


@dataclass(frozen=True)
class DirectionSet:
    """A labelled list of measurement lines with provenance tags."""

    label: str
    order: int
    directions: tuple
    tags: tuple = ()


def axes_directions() -> DirectionSet:
    dirs = tuple(Direction.from_vector(v) for v in np.eye(3))
    return DirectionSet("coordinate-axes", 1, dirs, tags=("uniform lines",))


def icosahedral_directions() -> DirectionSet:
    """The five lines maximizing the minimal pairwise angle; exact surds."""
    golden = 1.0 + math.sqrt(5.0)
    norm = math.sqrt(10.0 + 2.0 * math.sqrt(5.0))
    raw = [
        (0.0, 2.0, golden),
        (0.0, -2.0, golden),
        (2.0, golden, 0.0),
        (-2.0, golden, 0.0),
        (golden, 0.0, 2.0),
    ]
    dirs = tuple(Direction(x / norm, y / norm, z / norm) for x, y, z in raw)
    return DirectionSet("icosahedral-five", 2, dirs, tags=("max-min-angle lines",))


def _diagonal_lines() -> tuple[Direction, ...]:
    r3 = math.sqrt(3.0)
    return (
        Direction(1 / r3, 1 / r3, 1 / r3),
        Direction(-1 / r3, 1 / r3, 1 / r3),
        Direction(1 / r3, -1 / r3, 1 / r3),
        Direction(-1 / r3, -1 / r3, 1 / r3),
    )


def third_order_symmetric_directions() -> DirectionSet:
    """Axes plus the four cube diagonals: maximally spread seven lines.

    Kept for reference and failure reproduction: the third powers along the
    axes are linear combinations of the diagonal ones, so the design only
    carries four independent measurements.
    """
    dirs = tuple(Direction.from_vector(v) for v in np.eye(3)) + _diagonal_lines()
    return DirectionSet("symmetric-seven", 3, dirs, tags=("max-min-angle lines",))


# Derived once by reference.derive_third_order_fallback() and frozen for bit-stable output.
_FALLBACK_AXES = (
    (0.8734821795775402, 0.19911441860296364, 0.4442773123454244),
    (-0.4554249004256072, 0.868261541485753, 0.19674871193761365),
    (-0.1832203258390451, -0.4551765778371658, 0.8713464266225465),
)


def third_order_fallback_directions() -> DirectionSet:
    """Seven third-order lines with a well-conditioned reduced design.

    The four diagonal lines are kept; the three axes are replaced by
    conditioned replacements found by seeded local search (see
    reference.derive_third_order_fallback).
    """
    dirs = tuple(Direction(*v) for v in _FALLBACK_AXES) + _diagonal_lines()
    return DirectionSet("conditioned-seven", 3, dirs, tags=("conditioned fallback",))


def spiral_directions(order: int) -> DirectionSet:
    """2r+1 lines on a golden-angle spiral over the upper hemisphere.

    Line i = 0..2r has height z = 1 - (i + 1/2)/(2r + 1) and azimuth
    (i + r) pi (3 - sqrt 5), the golden angle per step (Swinbank and Purser,
    Q. J. R. Meteorol. Soc. 132, 2006).  A line and its opposite give the
    same projectors in reverse order, so the hemisphere covers every line.
    The offset r turns the spiral of each order against the others, which
    keeps the stacked fit of orders 1..N well conditioned.
    """
    m = 2 * order + 1
    dirs = tuple(
        Direction.from_spherical(math.acos(1.0 - (i + 0.5) / m), (i + order) * math.pi * (3.0 - math.sqrt(5.0)))
        for i in range(m)
    )
    return DirectionSet(f"spiral-{order}", order, dirs, tags=("golden-angle spiral",))


def choose_directions(order: int) -> DirectionSet:
    """Measurement lines for one moment order.

    The named sets serve orders 1..3: at order 3 the conditioned fallback,
    since the symmetric seven lines resolve only four of the seven free
    components.  Higher orders take the closed-form spiral_directions.
    """
    if order < 1:
        raise ValueError("order must be at least 1")
    if order == 1:
        return axes_directions()
    if order == 2:
        return icosahedral_directions()
    if order == 3:
        return third_order_fallback_directions()
    return spiral_directions(order)


# ---------------------------------------------------------------------------
# Moment-component inversion


def closed_form_second_order(measured, n_photons: int | None = None, casimir: float | None = None) -> MomentComponents:
    """Second-order components from the five icosahedral direction moments.

    measured follows icosahedral_directions() order.  casimir defaults to
    N(N+2); pass the measured mean of S0(S0+2) for the photon-number-
    averaged variant.
    """
    v1, v2, v3, v4, v5 = (float(v) for v in measured)
    if casimir is None:
        if n_photons is None:
            raise ValueError("need a manifold or an explicit casimir value")
        casimir = float(n_photons * (n_photons + 2))
    check_finite("measured moments and the casimir value", [v1, v2, v3, v4, v5, casimir])
    rt5 = math.sqrt(5.0)
    pair12 = v1 + v2
    pair34 = v3 + v4
    den = 4.0 * (7.0 + 3.0 * rt5)
    values = {
        (0, 1): rt5 / 2.0 * (v1 - v2),
        (1, 1): rt5 / 2.0 * (v3 - v4),
        (1, 0): rt5 / 2.0 * (pair12 + pair34 + 2.0 * v5) - rt5 * casimir,
        (0, 0): ((15 + 7 * rt5) * pair12 - (10 + 4 * rt5) * pair34 + (6 + 2 * rt5) * casimir) / den,
        (0, 2): ((10 + 4 * rt5) * pair12 + (25 + 11 * rt5) * pair34 - (14 + 6 * rt5) * casimir) / den,
        (2, 0): ((36 + 16 * rt5) * casimir - (25 + 11 * rt5) * pair12 - (15 + 7 * rt5) * pair34) / den,
    }
    return MomentComponents(2, n_photons, values)


# ---------------------------------------------------------------------------
# Density-matrix reconstruction


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Half the trace norm of the difference of two Hermitian matrices."""
    return 0.5 * float(np.abs(np.linalg.eigvalsh(np.asarray(a) - np.asarray(b))).sum())


@dataclass(frozen=True)
class ReconstructionDiagnostics:
    system_rank: int
    condition_number: float  # largest over smallest singular value of the fit
    lstsq_residual: float
    projection_distance: float


def project_to_physical(hermitian: np.ndarray) -> tuple[np.ndarray, float]:
    """Clip negative eigenvalues of a Hermitian matrix and renormalize the
    trace to one; returns the projected matrix and its trace distance from
    the input."""
    evals, evecs = np.linalg.eigh(hermitian)
    clipped = np.clip(evals, 0.0, None)
    total = clipped.sum()
    if total <= 0.0:
        raise NonPhysicalStateError("reconstruction collapsed to the zero matrix")
    projected = (evecs * (clipped / total)) @ evecs.conj().T
    return projected, trace_distance(hermitian, projected)


# ---------------------------------------------------------------------------
# Full pipeline


@dataclass(frozen=True)
class ManifoldReconstruction:
    n_photons: int
    probability: float
    probability_error: float
    components: dict  # order -> MomentComponents
    tensors: dict  # order -> PolarizationTensor
    state: ManifoldState
    residuals: dict  # order -> misfit of that order's outcome rows
    reconstruction: ReconstructionDiagnostics


@dataclass(frozen=True)
class ReconstructionResult:
    manifolds: dict  # n_photons -> ManifoldReconstruction
    skipped: dict = field(default_factory=dict)  # n_photons -> reason
    shots: int | None = None
    seed: int | None = None
    records: tuple = ()

    def state(self) -> BlockDiagonalState:
        """The reconstructed polarization sector (probabilities renormalized)."""
        blocks = []
        for n, rec in sorted(self.manifolds.items()):
            if rec.probability > 0.0:
                blocks.append((n, rec.probability, rec.state))
        total = sum(p for _, p, _ in blocks)
        return BlockDiagonalState(tuple((n, p / total, s) for n, p, s in blocks))


def _solve_manifold(n_photons, probability, probability_error, measured, bases):
    """Reconstruct one manifold from the outcome laws of all its directions.

    measured maps each order r to (direction, law) pairs, law being the
    conditional outcome law p_N(d).  The rows of the least-squares system
    are the trace and, per pair, the N+1 outcome projectors
    vec(Pi_k(d)) = vec(u_k u_k^dag), with u_k the columns of the rotated
    Fock basis of d; the right-hand side is the law itself,
    p_k(d) = Tr(rho Pi_k(d)).  Each row has unit norm, and since
    sum_k Pi_k (x) Pi_k equals the sum over ranks r <= N of the orthonormal
    multipole rows t_r(d.S) (x) t_r(d.S), every direction informs every
    rank, not only its own order.  Components and tensors are those of the
    Hermitian part of the raw estimate; the state is its physicality
    projection.  The diagnostics hold the rank and condition number of this
    fit, from the singular values lstsq returns, and the misfit of each
    order's outcome rows in probability units.  Rows that leave a direction
    of vec(rho) unresolved raise RankDeficientError.
    """
    dim = n_photons + 1
    rows, rhs, row_orders = [np.eye(dim, dtype=complex).reshape(1, -1)], [np.ones(1)], [0]
    for r, pairs in measured.items():
        for d, law in pairs:
            u = bases[d][n_photons]
            # row k is vec(Pi_k^T) = vec(conj(u_k) u_k^T): row . vec(rho) = Tr(rho Pi_k)
            rows.append(np.einsum("ik,jk->kij", u.conj(), u).reshape(dim, -1))
            rhs.append(law)
            row_orders += [r] * dim
    a, b = np.concatenate(rows), np.concatenate(rhs)
    # unit-norm rows, so the relative cut RANK_TOL of the design rank rule applies
    x, _, rank, sv = np.linalg.lstsq(a, b, rcond=RANK_TOL)
    if rank < dim * dim:
        _, sv, vt = np.linalg.svd(a, full_matrices=False)
        with np.errstate(divide="ignore"):
            condition = sv[0] / sv[-1]  # inf when a singular value is exactly zero
        raise RankDeficientError(
            f"outcome laws span only {rank} of {dim * dim} dimensions on manifold {n_photons}",
            rank=int(rank),
            expected=dim * dim,
            condition_number=float(condition),
            deficient_directions=vt[rank:].conj(),
        )
    misfit, row_orders = a @ x - b, np.array(row_orders)
    residuals = {r: float(np.linalg.norm(misfit[row_orders == r])) for r in measured}
    raw = x.reshape(dim, dim)
    # the anti-Hermitian rounding noise of raw grows by about N^r in the
    # order-r tensor and fails its consistency gate from N = 11 on
    hermitian = (raw + raw.conj().T) / 2.0
    projected, distance = project_to_physical(hermitian)
    tensors = {r: matrix_tensor(hermitian, n_photons, r) for r in measured}
    return ManifoldReconstruction(
        n_photons,
        probability,
        probability_error,
        {r: moment_components(t) for r, t in tensors.items()},
        tensors,
        ManifoldState.mixed(n_photons, projected),
        residuals,
        ReconstructionDiagnostics(int(rank), float(sv[0] / sv[-1]), float(np.linalg.norm(misfit)), distance),
    )


def run_tomography(
    state,
    shots: int | None = None,
    seed: int = 0,
    max_order: int | None = None,
) -> ReconstructionResult:
    """Measure every populated manifold and invert its outcome laws to a state.

    shots=None runs the exact mode (no sampling).  Each unique direction is
    rotated once, up to the top manifold within the cap, before anything is
    measured; the solve rows of both modes read those bases.  Shot mode
    samples the whole state along the direction and splits the counts into
    one conditional law per manifold (_split_by_manifold).  Exact mode reads
    the exact law of each manifold it solves from the same bases, so
    manifolds the cap skips are never rotated.  From the laws on, both
    modes take one route.  Manifold N is recovered from the laws along the
    direction sets of orders one to N (choose_directions) by one
    least-squares fit of every outcome projector of those directions
    (_solve_manifold), which reports its condition number and per-order
    misfit; the paper's order-by-order route with its per-order design
    (reference.py) is the reference it is checked against and never runs
    here.  Every direction set is closed-form, so nothing is searched or
    cached and each call does the same work.  Manifolds beyond the order
    cap (default 6) are skipped with a reason, as are manifolds whose
    records hold fewer than MIN_COUNTS samples.  If that leaves nothing to
    reconstruct, NoManifoldReconstructedError carries the reasons.  The
    report holds dense 3^r tensors, so a manifold above MAX_TENSOR_ORDER
    within the cap raises ValueError before anything is measured, as do
    arguments of the wrong type or range.  The stacked fit of a solved manifold must resolve all of rho,
    or RankDeficientError says which directions of vec(rho) it leaves open.
    """
    # type(x) is int: bool is a subclass of int, but True is no shot count
    if shots is not None and not (type(shots) is int and shots >= 1):
        raise ValueError(f"shots must be None or an integer of at least 1, got {shots!r}")
    if shots is not None and not (type(seed) is int and 0 <= seed < 1 << 64):
        raise ValueError(f"seed must be an integer in [0, 2^64), got {seed!r}")
    if max_order is not None and type(max_order) is not int:
        raise ValueError(f"max_order must be None or an integer, got {max_order!r}")
    block = as_block_diagonal(state)
    order_cap = DEFAULT_ORDER_CAP if max_order is None else max_order
    deep_manifolds = {n for n in block.manifolds if n > order_cap}
    populated = [n for n in block.manifolds if n <= order_cap]
    if not populated:
        raise ValueError("every populated manifold exceeds the order cap")
    top = max(populated)
    if top > MAX_TENSOR_ORDER:
        raise ValueError(
            f"manifold {top} needs order-{top} tensors, above MAX_TENSOR_ORDER = "
            f"{MAX_TENSOR_ORDER}; lower max_order to skip it"
        )
    sets = {r: choose_directions(r) for r in range(1, top + 1)}
    unique = list(dict.fromkeys(d for dset in sets.values() for d in dset.directions))
    if not unique:
        # vacuum-only input: one setting still pins the photon distribution
        unique.append(Direction(0.0, 0.0, 1.0))
    # the solve rows of both modes and the exact laws read these bases
    bases = {d: rotated_fock_bases(d, top) for d in unique}

    records = []
    if shots is None:
        densities = {n: ms.density() for n, _, ms in block.blocks if n <= order_cap}
        probs = {
            (d, n): _outcome_probabilities(densities[n], bases[d][n])
            for n in populated
            for r in range(1, n + 1)
            for d in sets[r].directions
        }
        laws = {key: p / p.sum() for key, p in probs.items()}
        probabilities = {n: block.probability(n) for n in populated}
        prob_errors = {n: 0.0 for n in populated}
    else:
        # disjoint Philox keys per setting from the 64-bit base seed
        records = [
            simulate_measurement(block, MeasurementSetting(d, shots, (seed << 32) + i))
            for i, d in enumerate(unique)
        ]
        split = {d: _split_by_manifold(record.counts) for d, record in zip(unique, records)}
        laws = {(d, n): law for d, by_n in split.items() for n, (_, law) in by_n.items()}
        counts = {n: sum(int(by_n[n][0]) for by_n in split.values() if n in by_n) for n in populated}
        grand_total = shots * len(unique)
        probabilities = {n: c / grand_total for n, c in counts.items()}
        prob_errors = {n: math.sqrt(p * (1 - p) / grand_total) for n, p in probabilities.items()}

    solvable = {}
    skipped = {
        n: f"photon number exceeds the order cap {order_cap}; raise max_order"
        for n in sorted(deep_manifolds)
    }
    for n in sorted(populated):
        if shots is not None and counts[n] < MIN_COUNTS:
            skipped[n] = f"only {counts[n]} samples across settings"
            continue
        orders = range(1, n + 1)
        unsampled = [sets[r].label for r in orders if any((d, n) not in laws for d in sets[r].directions)]
        if unsampled:
            skipped[n] = f"no samples for manifold {n} along {unsampled[0]}"
            continue
        solvable[n] = {r: [(d, laws[d, n]) for d in sets[r].directions] for r in orders}
    if not solvable:
        raise NoManifoldReconstructedError(
            f"every populated manifold was skipped: {skipped}", skipped=skipped
        )
    return ReconstructionResult(
        manifolds={
            n: _solve_manifold(n, probabilities.get(n, 0.0), prob_errors.get(n, 0.0), m, bases)
            for n, m in solvable.items()
        },
        skipped=skipped,
        shots=shots,
        seed=None if shots is None else seed,
        records=tuple(records),
    )


# ---------------------------------------------------------------------------
# Non-resolved photon numbers (support limited to at most two photons)


@dataclass(frozen=True)
class LowExcitationMoments:
    """Per-manifold data recovered from photon-number-averaged moments."""

    probabilities: tuple  # (p0, p1, p2)
    single_photon_first: float | None
    two_photon_first: float | None
    two_photon_second: float | None


def non_resolved_manifold_moments(
    s0_mean: float,
    s0_sq_mean: float,
    first: float,
    second: float,
    third: float,
) -> LowExcitationMoments:
    """Recover per-manifold direction moments without photon resolution.

    The caller asserts that the state has support on at most two photons;
    inferred probabilities outside [0, 1] beyond tolerance flag a
    violation.  Manifolds with zero weight return None entries (undefined,
    following the sum convention for empty manifolds).
    """
    check_finite("averaged moments", [s0_mean, s0_sq_mean, first, second, third])
    p1 = 2.0 * s0_mean - s0_sq_mean
    p2 = (s0_sq_mean - s0_mean) / 2.0
    p0 = 1.0 - p1 - p2
    for name, p in (("p0", p0), ("p1", p1), ("p2", p2)):
        if p < -SUPPORT_TOL or p > 1.0 + SUPPORT_TOL:
            raise NonPhysicalStateError(
                f"inferred {name} = {p:.6g}; support is not limited to two photons"
            )
    p0, p1, p2 = (min(max(p, 0.0), 1.0) for p in (p0, p1, p2))
    single_first = None
    if p1 > SUPPORT_TOL:
        single_first = (4.0 * first - third) / (6.0 * s0_mean - 3.0 * s0_sq_mean)
    two_first = None
    two_second = None
    if p2 > SUPPORT_TOL:
        # the odd-moment split needs the pair weight restored explicitly
        two_first = 2.0 * (third - first) / (3.0 * (s0_sq_mean - s0_mean))
        two_second = 2.0 * (second + s0_sq_mean - 2.0 * s0_mean) / (s0_sq_mean - s0_mean)
    return LowExcitationMoments((p0, p1, p2), single_first, two_first, two_second)


def averaged_second_order_components(measured, s0_mean: float, s0_sq_mean: float) -> MomentComponents:
    """Averaged second-order components from the five icosahedral moments.

    Knowing the mean and second moment of the total photon number fixes the
    averaged squared-total value and removes the second-order redundancy.
    """
    return closed_form_second_order(measured, n_photons=None, casimir=s0_sq_mean + 2.0 * s0_mean)


# The paper's order-by-order route, its per-order design and sample moments,
# re-exported for callers of this module.
from .reference import (  # noqa: E402
    assemble_all_tensors,
    casimir_constraint_matrix,
    constraint_nullspace,
    design_matrix,
    distribution_moment,
    estimate_moments,
    reconstruct_density,
    reduced_design_singular_values,
    solve_moment_components,
)
