"""Entanglement transfer from broadband squeezed light to mechanical motion.

Closed-form entanglement measures for two optomechanical nanoresonators
driven through a shared two-mode squeezed vacuum, validated against an
independent steady-state covariance oracle.
"""

__version__ = "0.1.0"

from .closedform import (
    AdiabaticRates,
    DegenerateSqueeze,
    DuanResult,
    duan_sum_adiabatic_general,
    duan_sum_adiabatic_identical,
    duan_sum_nonadiabatic,
    duan_sum_strong_coupling_approx,
    duan_sum_weak_coupling_approx,
    field_sum_nonadiabatic,
    field_sum_strong_coupling_limit,
    is_entangled,
    minimum_power,
    threshold_cooperativity,
)
from .model import (
    HBAR,
    KB,
    MirrorParams,
    NonConvergence,
    OptomechanicalUnit,
    ResonatorParams,
    SqueezedBath,
    SteadyState,
    SystemParams,
    drive_amplitude,
    mean_fields_from_bare_detuning,
    mean_fields_from_effective_detuning,
    single_photon_coupling,
    stability_check,
    thermal_occupation,
)
from .oracle import (
    DriftDiffusion,
    QuadratureFailure,
    UnstableDrift,
    build_rwa_drift_diffusion,
    duan_from_covariance,
    solve_lyapunov,
    spectral_duan_sum,
)
from .sweep import (
    BracketFailure,
    OptimizeSpec,
    SweepSpec,
    UnknownFigure,
    figure_dataset,
    run_sweep,
)

__all__ = [name for name in dir() if not name.startswith("_")]
