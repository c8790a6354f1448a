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
    ConfigError,
    ContourThroughZeroError,
    NonFiniteError,
    NumericalError,
    RangeOverflowError,
    RootResidualError,
    SheetConflictError,
    UndersampledContourError,
)
from .monodromy import monodromy_grid
from .multipliers import (
    derived_grid,
    identity_suite,
    lyapunov_triple,
    multipliers_from_traces,
    unimodular_count,
)
from .periodic_eigen import (
    EigenEntry,
    EigenvalueTable,
    asymptotic_residuals,
    count_in_disk,
    d_pm_from_traces,
    d_pm_grid,
    eigenvalues_in_window,
    recover_traces,
)
from .potential import Potential, PotentialMoments, fourier_hat, is_rank_one, moments
from .quasimomentum import (
    GapMassResult,
    HerglotzFit,
    QProfile,
    eps_map,
    herglotz_asymptotic,
    q0_integral,
    q_profile,
)
from .spectrum import (
    SheetVerdict,
    SpectralScan,
    scan,
    sheet_count,
)
from .zs_oracle import (
    ReductionReport,
    reduction_check,
    scalar_reduction,
    zs_delta_grid,
    zs_gaps,
    zs_q0_integral,
)

__version__ = "0.1.0"
