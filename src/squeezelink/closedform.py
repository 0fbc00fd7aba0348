"""Closed-form entanglement measures and thresholds.

Every function here evaluates an analytic expression for the sum of the
variances of the joint EPR quadratures (relative position and total
momentum) of either the two mirrors or the two cavity fields. A sum below
2 certifies entanglement; the boundary value 2 counts as separable.

A form evaluated over grids has an array twin (``*_arrays``) that takes its
arguments as arrays, or records of arrays, and gives the same bits; the first
failing element raises what the per-point form raises.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ._lazy import lazy_import
from .model import (
    HBAR,
    KB,
    OptomechanicalUnit,
    mean_fields_from_effective_detuning,
    per_distinct,
    raise_for_first,
    thermal_occupation,
)

np = lazy_import("numpy")

SEPARABILITY_BOUND = 2.0


class DegenerateSqueeze(ValueError):
    """A threshold diverges: r = 0, or r so small that the threshold overflows."""


def is_entangled(total: float) -> bool:
    """Strict inequality: a total variance of exactly 2 is separable."""
    if total < 0:
        raise ValueError(f"total variance must be >= 0, got {total!r}")
    if not total < math.inf:  # NaN or +inf: an overflow upstream, not a verdict of "separable"
        raise FloatingPointError(f"total variance is {'NaN' if math.isnan(total) else total}")
    return total < SEPARABILITY_BOUND


@dataclass(frozen=True)
class DuanResult:
    """Joint-quadrature variances and the resulting verdict."""

    var_X: float
    var_Y: float
    total: float | None = None  # var_X + var_Y unless given, as a closed form gives it

    def __post_init__(self):
        if self.total is None:
            object.__setattr__(self, "total", self.var_X + self.var_Y)
        # a non-finite or negative total comes from an overflow or a
        # cancellation upstream, such as (2N + 1) - 2M at large r; never a verdict
        if not 0.0 <= self.total < math.inf:
            raise FloatingPointError(
                f"total variance is {'NaN' if math.isnan(self.total) else self.total}")

    @property
    def entangled(self) -> bool:
        return is_entangled(self.total)

    @classmethod
    def from_total(cls, total: float) -> "DuanResult":
        # all closed forms here are X/Y symmetric; the halves are for display
        return cls(var_X=total / 2.0, var_Y=total / 2.0, total=total)


def _rates_out_of_bounds(Gamma_a, Gamma):
    # bitwise | so that the same expression serves floats and arrays
    return (Gamma_a < 0) | (Gamma <= 0) | (Gamma < Gamma_a)


def _require_rates(Gamma_a1, Gamma_1, Gamma_a2, Gamma_2):
    """ValueError unless each unit has 0 <= Gamma_a <= Gamma and Gamma > 0."""
    for j, (ga, g_tot) in enumerate([(Gamma_a1, Gamma_1), (Gamma_a2, Gamma_2)], start=1):
        if _rates_out_of_bounds(ga, g_tot):
            raise ValueError(
                f"unit {j}: need 0 <= Gamma_a <= Gamma and Gamma > 0, "
                f"got Gamma_a={ga!r}, Gamma={g_tot!r}"
            )


def _adiabatic_sum(unit1, unit2, N, M, sqrt):
    """The adiabatic mirror total in + - * / and the given ``sqrt``, for floats or arrays."""
    Ga1, Ga2, G1, G2 = unit1.Gamma_a, unit2.Gamma_a, unit1.Gamma, unit2.Gamma
    return (
        (2.0 * N + 1.0) * (Ga1 / G1 + Ga2 / G2)
        - 8.0 * sqrt(Ga1 * Ga2) * M / (G1 + G2)
        + ((G1 - Ga1) / G1) * (2.0 * unit1.n_th + 1.0)
        + ((G2 - Ga2) / G2) * (2.0 * unit2.n_th + 1.0)
    )


def duan_sum_adiabatic_general(unit1, unit2, N: float, M: float) -> DuanResult:
    """Mirror-mirror variance sum in the adiabatic regime, arbitrary asymmetry.

    ``unit1`` and ``unit2`` carry the rates after the cavity fields are eliminated,
    ``Gamma_a``, ``Gamma`` and ``n_th`` (a :class:`model.SteadyState` does);
    ``N`` and ``M`` are the bath's ``SqueezedBath.N`` and ``SqueezedBath.M_corr``.
    """
    _require_rates(unit1.Gamma_a, unit1.Gamma, unit2.Gamma_a, unit2.Gamma)
    return DuanResult.from_total(_adiabatic_sum(unit1, unit2, N, M, math.sqrt))


def duan_sum_adiabatic_arrays(unit1, unit2, N, M) -> np.ndarray:
    """:func:`duan_sum_adiabatic_general` totals over arrays.

    ``unit1`` and ``unit2`` carry ``Gamma_a``, ``Gamma`` and ``n_th`` arrays
    (see :func:`model.red_sideband_arrays`); ``N`` and ``M`` are the bath's
    terms (see :func:`model.squeeze_arrays`). All broadcast together. The
    totals equal the per-point ones bit for bit. Every element passes the
    per-point rate bounds and the finite, non-negative total check of
    :class:`DuanResult`, or the first failing element raises what the
    per-point route raises.
    """
    rates = (unit1.Gamma_a, unit1.Gamma, unit2.Gamma_a, unit2.Gamma)
    raise_for_first(_rates_out_of_bounds(*rates[:2]) | _rates_out_of_bounds(*rates[2:]),
                    _require_rates, *rates)
    with np.errstate(all="ignore"):  # an overflow shows as a non-finite total
        return require_totals(_adiabatic_sum(unit1, unit2, N, M, np.sqrt))


def require_totals(total) -> np.ndarray:
    """``total`` as an array, once every element passes :class:`DuanResult`'s check.

    The first non-finite or negative total raises what a per-point
    :class:`DuanResult` with that total raises.
    """
    total = np.asarray(total)
    raise_for_first(~((0.0 <= total) & (total < math.inf)), DuanResult.from_total, total)
    return total


def _adiabatic_identical_sum(C, r, n_th, exp):
    """The adiabatic total of identical units in + - * / and ``exp``, for floats or arrays."""
    return (2.0 * C * exp(-2.0 * r) + 2.0 * (1.0 + 2.0 * n_th)) / (C + 1.0)


def duan_sum_adiabatic_identical(C: float, r: float, n_th: float) -> DuanResult:
    """Mirror-mirror variance sum for identical units, adiabatic regime."""
    _check_nonnegative(C=C, r=r, n_th=n_th)
    return DuanResult.from_total(_adiabatic_identical_sum(C, r, n_th, math.exp))


def duan_sum_adiabatic_identical_arrays(C, r, n_th) -> np.ndarray:
    """:func:`duan_sum_adiabatic_identical` as :func:`duan_sum_nonadiabatic_arrays`."""
    return _identical_units_arrays(_adiabatic_identical_sum, duan_sum_adiabatic_identical,
                                   (C, r, n_th))


def duan_sum_strong_coupling_approx(C: float, r: float, n_th: float) -> float:
    """Large-cooperativity approximation 2 e^{-2r} + 4 n_th / C."""
    if C <= 0:
        raise ValueError("C must be > 0 in the strong-coupling approximation")
    return 2.0 * math.exp(-2.0 * r) + 4.0 * n_th / C


def duan_sum_weak_coupling_approx(C: float, r: float, n_th: float) -> float:
    """Small-cooperativity approximation 2 + 2 C e^{-2r} + 4 n_th; never below 2."""
    _check_nonnegative(C=C, r=r, n_th=n_th)
    return 2.0 + 2.0 * C * math.exp(-2.0 * r) + 4.0 * n_th


def _nonadiabatic_sum(C, r, n_th, gamma, kappa, exp):
    """The nonadiabatic mirror total in + - * / and the given ``exp``, for floats or arrays."""
    return (2.0 * C / (C + 1.0)) * kappa * exp(-2.0 * r) / (kappa + gamma) + (
        2.0 * (2.0 * n_th + 1.0) / (C + 1.0)
    ) * (1.0 + C * gamma / (kappa + gamma))


def duan_sum_nonadiabatic(
    C: float, r: float, n_th: float, gamma: float, kappa: float
) -> DuanResult:
    """Mirror-mirror variance sum for identical units, no adiabatic elimination."""
    _check_nonnegative(C=C, r=r, n_th=n_th)
    _check_positive(gamma=gamma, kappa=kappa)
    return DuanResult.from_total(_nonadiabatic_sum(C, r, n_th, gamma, kappa, math.exp))


def duan_sum_nonadiabatic_arrays(C, r, n_th, gamma, kappa) -> np.ndarray:
    """:func:`duan_sum_nonadiabatic` totals over arrays that broadcast together.

    The totals equal the per-point ones bit for bit (``exp`` is
    ``math.exp``, once per distinct r). Every element passes the per-point
    checks, or the first failing element raises what they raise.
    """
    return _identical_units_arrays(_nonadiabatic_sum, duan_sum_nonadiabatic,
                                   (C, r, n_th, gamma, kappa))


def _field_sum(C, r, n_th, gamma, kappa, exp):
    """The field total in + - * / and the given ``exp``, for floats or arrays."""
    return (2.0 * C * (2.0 * n_th + 1.0) / (C + 1.0)) * gamma / (gamma + kappa) + 2.0 * (
        kappa / (kappa + gamma) + gamma / ((1.0 + C) * (gamma + kappa))
    ) * exp(-2.0 * r)


def field_sum_nonadiabatic(
    C: float, r: float, n_th: float, gamma: float, kappa: float
) -> DuanResult:
    """Field-field variance sum for identical units."""
    _check_nonnegative(C=C, r=r, n_th=n_th)
    _check_positive(gamma=gamma, kappa=kappa)
    return DuanResult.from_total(_field_sum(C, r, n_th, gamma, kappa, math.exp))


def field_sum_nonadiabatic_arrays(C, r, n_th, gamma, kappa) -> np.ndarray:
    """:func:`field_sum_nonadiabatic` as :func:`duan_sum_nonadiabatic_arrays`."""
    return _identical_units_arrays(_field_sum, field_sum_nonadiabatic,
                                   (C, r, n_th, gamma, kappa))


def _identical_units_arrays(total, per_point, args) -> np.ndarray:
    """``total`` over the broadcast (C, r, n_th, *rates) with the checks of ``per_point``."""
    C, r, n_th, *rates = args = np.broadcast_arrays(
        *(np.asarray(x, dtype=float) for x in args))
    bad = np.any([C < 0, r < 0, n_th < 0, *(~(rate > 0) for rate in rates)], axis=0)
    raise_for_first(bad, per_point, *args)
    with np.errstate(all="ignore"):  # an overflow shows as a non-finite total
        return require_totals(total(*args, lambda x: per_distinct(math.exp, x)))


def field_sum_strong_coupling_limit(
    r: float, n_th: float, gamma: float, kappa: float
) -> float:
    """Large-C limit of the field-field sum: 2(2n_th+1) gamma/(gamma+kappa) + 2e^{-2r}."""
    _check_nonnegative(r=r, n_th=n_th)
    if gamma < 0 or kappa <= 0:
        raise ValueError("need gamma >= 0 and kappa > 0")
    return 2.0 * (2.0 * n_th + 1.0) * gamma / (gamma + kappa) + 2.0 * math.exp(-2.0 * r)


def threshold_cooperativity(r: float, n_th: float) -> float:
    """Cooperativity above which the mirrors become entangled."""
    if r <= 0:
        raise DegenerateSqueeze(
            "threshold cooperativity diverges at r = 0: no entanglement without squeezing"
        )
    _check_nonnegative(n_th=n_th)
    return _finite_threshold(2.0 * n_th / (-math.expm1(-2.0 * r)), "C_min", r)


def cooperativity_power_slope(unit: OptomechanicalUnit) -> float:
    """dC/dP at the red-detuned operating point; C is linear in drive power."""
    ss = mean_fields_from_effective_detuning(unit, -unit.mirror.omega_M)
    return ss.C / unit.resonator.power


def minimum_power(unit: OptomechanicalUnit, r: float, temperature: float) -> float:
    """Smallest drive power at which the mirror-mirror sum drops below 2.

    Inverts the (linear) cooperativity-vs-power map of this unit against
    :func:`threshold_cooperativity`, so the variance sum evaluated at the
    returned power sits exactly on the boundary.
    """
    if temperature <= 0:
        raise ValueError("temperature must be > 0 for a finite power threshold")
    n_th = thermal_occupation(unit.mirror.omega_M, temperature)
    c_min = threshold_cooperativity(r, n_th)
    slope = cooperativity_power_slope(unit)
    if not 0.0 < slope < math.inf:
        raise OverflowError(
            f"power threshold degenerates at gamma = {unit.mirror.gamma!r} rad/s, "
            f"P = {unit.resonator.power!r} W: the cooperativity slope C/P is {slope!r} /W, "
            "as C = Gamma_a / gamma overflows or underflows to 0")
    return c_min / slope


def diagnostic_minimum_power(
    unit: OptomechanicalUnit, r: float, temperature: float
) -> float:
    """Alternative power threshold built from the textbook-style prefactor
    gamma w_L M L^2 w_M [(kappa/2)^2 + w_M^2] / (2 w_r^2).

    Differs from :func:`minimum_power` by a constant factor (close to 2 for
    these systems); both are reported by the CLI so the discrepancy is
    visible rather than silently resolved.
    """
    if r <= 0:
        raise DegenerateSqueeze("power threshold diverges at r = 0")
    if temperature <= 0:
        raise ValueError("temperature must be > 0")
    res, mir = unit.resonator, unit.mirror
    alpha = (mir.gamma * res.omega_L * mir.mass * res.length**2 * mir.omega_M
             * ((res.kappa / 2.0) ** 2 + mir.omega_M**2) / (2.0 * res.omega_r**2))
    x = HBAR * unit.mirror.omega_M / (KB * temperature)
    p_min = alpha / ((-math.expm1(-2.0 * r)) * math.expm1(x))
    return _finite_threshold(p_min, "diagnostic P_min", r)


def _finite_threshold(value: float, name: str, r: float) -> float:
    if not math.isfinite(value):
        raise DegenerateSqueeze(f"{name} is not finite at r = {r!r}; the threshold diverges")
    return value


def _check_nonnegative(**kwargs):
    for name, value in kwargs.items():
        if value < 0:
            raise ValueError(f"{name} must be >= 0, got {value!r}")


def _check_positive(**kwargs):
    for name, value in kwargs.items():
        if not value > 0:
            raise ValueError(f"{name} must be > 0, got {value!r}")
