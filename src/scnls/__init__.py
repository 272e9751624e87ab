"""Pseudo-spectral simulation and verification suite for the semiclassical
cubic nonlinear Schrodinger equation: oscillatory WKB profiles, the ghost
effect of order-eps data perturbations, and the rescaling bookkeeping that
turns desk-scale sweeps into norm-inflation statements."""

from .errors import GuardError, NonFiniteError, ResolutionError, SingularityError
from .grid import (
    Field,
    Grid,
    SobolevIndex,
    derivatives,
    inverse_transform,
    load_field,
    lp_norm,
    make_gaussian,
    make_grid,
    norm,
    resample,
    save_field,
    tail_fraction,
    transform,
)
from .nls import (
    NlsRunConfig,
    NlsState,
    kinetic_substep,
    mass,
    nonlinear_substep,
    semiclassical_energy,
    solve_nls,
)
from .studies import (
    GaussianSpec,
    RunCache,
    ScalingParams,
    StudyReport,
    SweepConfig,
    corollary_bookkeeping,
    ghost_higher_order_study,
    ghost_separation_study,
    inflation_bookkeeping,
    small_time_study,
    wkb_error_study,
)
from .wkb import (
    CorrectorState,
    GrenierState,
    WkbRunConfig,
    corrector_rhs,
    grenier_rhs,
    reconstruct,
    solve_grenier,
    solve_limit_with_corrector,
)

__version__ = "0.1.0"

__all__ = [
    "Field", "Grid", "SobolevIndex", "make_grid", "make_gaussian",
    "transform", "inverse_transform", "derivatives", "norm",
    "lp_norm", "resample", "tail_fraction", "save_field", "load_field",
    "NlsState", "NlsRunConfig", "solve_nls", "kinetic_substep",
    "nonlinear_substep", "mass", "semiclassical_energy",
    "GrenierState", "CorrectorState", "WkbRunConfig", "grenier_rhs",
    "corrector_rhs", "solve_grenier", "solve_limit_with_corrector",
    "reconstruct",
    "SweepConfig", "GaussianSpec", "ScalingParams", "StudyReport",
    "RunCache", "wkb_error_study", "small_time_study",
    "ghost_separation_study", "ghost_higher_order_study",
    "inflation_bookkeeping", "corollary_bookkeeping",
    "GuardError", "ResolutionError", "SingularityError", "NonFiniteError",
]
