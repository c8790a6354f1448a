"""Floquet spectral analysis for the 1-periodic two-component transfer problem.

The package propagates the 3x3 first-order system over one period, extracts
Floquet multipliers and their averaged branch data, classifies the real line
into single- and triple-covered spectrum, locates the period-2 eigenvalue
triples by contour counting, integrates the gap magnitude profile, and checks
everything against an independently coded 2x2 reduction for potentials whose
two components are proportional.
"""

from .errors import (
    BranchTrackingError,
    ClassificationConflictWarning,
    ConfigError,
    ContourThroughZeroError,
    LabelAmbiguityError,
    NonFiniteError,
    NumericalError,
    RangeOverflowError,
    RootResidualError,
    SheetConflictError,
    UndersampledContourError,
    WindowTooSmallError,
    ZeroAtOriginError,
)
from .monodromy import monodromy_grid
from .multipliers import (
    MultiplierTriple,
    derived_grid,
    identity_suite,
    lyapunov_triple,
    multiplier_triple,
    multipliers_from_traces,
    unimodular_count,
)
from .periodic_eigen import (
    EigenEntry,
    EigenvalueTable,
    asymptotic_residuals,
    count_in_disk,
    d_pm,
    d_pm_from_traces,
    d_pm_grid,
    eigenvalues_in_window,
    find_cluster_onset,
    hadamard_eval,
    recover_traces,
)
from .potential import Potential, PotentialMoments, fourier_hat, is_rank_one, moments
from .quasimomentum import (
    BoundsReport,
    GapMassResult,
    HerglotzFit,
    QProfile,
    discriminant_bounds_check,
    eps_map,
    herglotz_asymptotic,
    q0_integral,
    q_profile,
)
from .spectrum import (
    Classification,
    SheetVerdict,
    SpectralScan,
    classify,
    scan,
    sheet_count,
)
from .zs_oracle import (
    GapLengthReport,
    ReductionReport,
    gap_length_estimate,
    reduction_check,
    scalar_reduction,
    zs_delta_grid,
    zs_gaps,
    zs_q0_integral,
)

__version__ = "0.1.0"
