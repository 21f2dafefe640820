"""Exact polarization moments and photon-resolved tomography for two-mode states."""

from .errors import (
    NoManifoldReconstructedError,
    NonPhysicalStateError,
    RankDeficientError,
    StokesLabError,
    TensorConsistencyError,
    TruncationError,
)
from .fock import (
    Direction,
    EulerAngles,
    conjugate_stokes,
    rotation_matrix,
    stokes_in_direction,
    stokes_operator,
    su2_unitary,
)
from .states import (
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
from .moments import (
    MomentComponents,
    PolarizationTensor,
    averaged_components,
    averaged_profile,
    averaged_tensor,
    covariance_matrix,
    degree_of_polarization,
    moment_components,
    polarization_tensor,
    profile_eval,
    stokes_profile,
)
from .closed_forms import closed_form_profile
from .tomography import (
    MeasurementRecord,
    MeasurementSetting,
    ReconstructionResult,
    choose_directions,
    closed_form_second_order,
    estimate_moments,
    outcome_distribution,
    reconstruct_density,
    run_tomography,
    simulate_measurement,
    solve_moment_components,
    trace_distance,
)

__version__ = "0.1.0"
