"""Exception hierarchy for stokes_lab."""


class StokesLabError(Exception):
    """Base class for all stokes_lab errors."""


class TruncationError(StokesLabError):
    """Raised when a requested truncation leaves too much probability mass behind."""


class NonPhysicalStateError(StokesLabError):
    """Raised when a constructed state fails a physicality check (norm, trace, PSD)."""


class TensorConsistencyError(StokesLabError):
    """Raised when tensor data violates an exact algebraic identity beyond tolerance.

    Signals broken input data (e.g. a non-Hermitian tensor or residual
    imaginary parts in moment components), not a numerical tolerance issue.
    """


class RankDeficientError(StokesLabError):
    """Raised when a tomography system cannot resolve all unknowns.

    Attributes:
        rank: numerical rank actually achieved.
        expected: number of independent unknowns.
        condition_number: ratio of extreme singular values.
        deficient_directions: rows of the unresolved subspace, one per
            missing rank, in the unknowns of the system that raised it:
            vec(rho) for the stacked fit of run_tomography, moment
            components for the per-order design of the reference route.
    """

    def __init__(self, message, rank, expected, condition_number, deficient_directions):
        super().__init__(f"{message} (rank {rank}, condition number {condition_number:.3e})")
        self.rank = rank
        self.expected = expected
        self.condition_number = condition_number
        self.deficient_directions = deficient_directions


class NoManifoldReconstructedError(StokesLabError):
    """Raised when tomography skips every populated manifold.

    Attributes:
        skipped: photon number -> reason the manifold was skipped.
    """

    def __init__(self, message, skipped):
        super().__init__(message)
        self.skipped = skipped
