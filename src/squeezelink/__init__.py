"""Entanglement transfer from broadband squeezed light to mechanical motion.

Closed-form entanglement measures for two optomechanical nanoresonators
driven through a shared two-mode squeezed vacuum, validated against an
independent steady-state covariance oracle.
"""

__version__ = "0.1.0"

from ._lazy import lazy_import as _lazy_import

# Bound before sweep's ``from . import oracle`` reads them, so that neither runs
# until first use: a closed-form command needs neither (see squeezelink._lazy).
oracle = _lazy_import(__name__ + ".oracle")
selfcheck = _lazy_import(__name__ + ".selfcheck")

from .closedform import (
    DegenerateSqueeze,
    DuanResult,
    duan_sum_adiabatic_general,
    duan_sum_adiabatic_identical,
    duan_sum_nonadiabatic,
    duan_sum_strong_coupling_approx,
    duan_sum_weak_coupling_approx,
    field_sum_nonadiabatic,
    minimum_power,
    threshold_cooperativity,
)
from .model import (
    HBAR,
    KB,
    MirrorParams,
    OptomechanicalUnit,
    ResonatorParams,
    SqueezedBath,
    SteadyState,
    SystemParams,
    UnstableDrift,
    mean_fields_from_effective_detuning,
    stability_check,
    thermal_occupation,
)

from .sweep import (
    BracketFailure,
    OptimizeSpec,
    SweepSpec,
    UnknownFigure,
    figure_dataset,
    run_sweep,
)

# selfcheck is bound only for the lazy load; it has never been exported
__all__ = sorted({name for name in dir() if not name.startswith("_")} - {"selfcheck"})
