"""Closed-form entanglement measures and thresholds.

Every function here evaluates an analytic expression for the sum of the
variances of the joint EPR quadratures (relative position and total
momentum) of either the two mirrors or the two cavity fields. A sum below
2 certifies entanglement; the boundary value 2 counts as separable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .model import (
    HBAR,
    KB,
    OptomechanicalUnit,
    SqueezedBath,
    SteadyState,
    mean_fields_from_effective_detuning,
    thermal_occupation,
)

SEPARABILITY_BOUND = 2.0


class DegenerateSqueeze(ValueError):
    """A threshold diverges: r = 0, or r so small that the threshold overflows."""


def is_entangled(total: float) -> bool:
    """Strict inequality: a total variance of exactly 2 is separable."""
    if total < 0:
        raise ValueError(f"total variance must be >= 0, got {total!r}")
    if math.isnan(total):  # an overflow upstream, not a verdict of "separable"
        raise FloatingPointError("total variance is NaN")
    return total < SEPARABILITY_BOUND


@dataclass(frozen=True)
class DuanResult:
    """Joint-quadrature variances and the resulting verdict."""

    var_X: float
    var_Y: float

    def __post_init__(self):
        total = self.var_X + self.var_Y
        # a non-finite or negative total comes from an overflow or a
        # cancellation upstream, such as (2N + 1) - 2M at large r; never a verdict
        if not 0.0 <= total < math.inf:
            raise FloatingPointError(
                f"total variance is {'NaN' if math.isnan(total) else total}"
            )

    @property
    def total(self) -> float:
        return self.var_X + self.var_Y

    @property
    def entangled(self) -> bool:
        return is_entangled(self.total)

    @classmethod
    def from_total(cls, total: float) -> "DuanResult":
        # all closed forms here are X/Y symmetric
        return cls(var_X=total / 2.0, var_Y=total / 2.0)


@dataclass(frozen=True)
class AdiabaticRates:
    """Effective mirror rates after the cavity fields are eliminated."""

    Gamma_a1: float
    Gamma_a2: float
    Gamma_1: float
    Gamma_2: float
    n_th1: float
    n_th2: float

    def __post_init__(self):
        for j, (ga, g_tot) in enumerate(
            [(self.Gamma_a1, self.Gamma_1), (self.Gamma_a2, self.Gamma_2)], start=1
        ):
            if ga < 0 or g_tot <= 0 or g_tot < ga:
                raise ValueError(
                    f"unit {j}: need 0 <= Gamma_a <= Gamma and Gamma > 0, "
                    f"got Gamma_a={ga!r}, Gamma={g_tot!r}"
                )

    @property
    def gamma1(self) -> float:
        return self.Gamma_1 - self.Gamma_a1

    @property
    def gamma2(self) -> float:
        return self.Gamma_2 - self.Gamma_a2

    @classmethod
    def from_steady_states(
        cls, ss1: SteadyState, ss2: SteadyState
    ) -> "AdiabaticRates":
        return cls(
            Gamma_a1=ss1.Gamma_a,
            Gamma_a2=ss2.Gamma_a,
            Gamma_1=ss1.Gamma,
            Gamma_2=ss2.Gamma,
            n_th1=ss1.n_th,
            n_th2=ss2.n_th,
        )


def duan_sum_adiabatic_general(
    rates: AdiabaticRates, bath: SqueezedBath
) -> DuanResult:
    """Mirror-mirror variance sum in the adiabatic regime, arbitrary asymmetry."""
    N, M = bath.N, bath.M_corr
    total = (
        (2.0 * N + 1.0) * (rates.Gamma_a1 / rates.Gamma_1 + rates.Gamma_a2 / rates.Gamma_2)
        - 8.0
        * math.sqrt(rates.Gamma_a1 * rates.Gamma_a2)
        * M
        / (rates.Gamma_1 + rates.Gamma_2)
        + (rates.gamma1 / rates.Gamma_1) * (2.0 * rates.n_th1 + 1.0)
        + (rates.gamma2 / rates.Gamma_2) * (2.0 * rates.n_th2 + 1.0)
    )
    return DuanResult.from_total(total)


def duan_sum_adiabatic_identical(C: float, r: float, n_th: float) -> DuanResult:
    """Mirror-mirror variance sum for identical units, adiabatic regime."""
    _check_nonnegative(C=C, r=r, n_th=n_th)
    total = (2.0 * C * math.exp(-2.0 * r) + 2.0 * (1.0 + 2.0 * n_th)) / (C + 1.0)
    return DuanResult.from_total(total)


def duan_sum_strong_coupling_approx(C: float, r: float, n_th: float) -> float:
    """Large-cooperativity approximation 2 e^{-2r} + 4 n_th / C."""
    if C <= 0:
        raise ValueError("C must be > 0 in the strong-coupling approximation")
    return 2.0 * math.exp(-2.0 * r) + 4.0 * n_th / C


def duan_sum_weak_coupling_approx(C: float, r: float, n_th: float) -> float:
    """Small-cooperativity approximation 2 + 2 C e^{-2r} + 4 n_th; never below 2."""
    _check_nonnegative(C=C, r=r, n_th=n_th)
    return 2.0 + 2.0 * C * math.exp(-2.0 * r) + 4.0 * n_th


def duan_sum_nonadiabatic(
    C: float, r: float, n_th: float, gamma: float, kappa: float
) -> DuanResult:
    """Mirror-mirror variance sum for identical units, no adiabatic elimination."""
    _check_nonnegative(C=C, r=r, n_th=n_th)
    _check_positive(gamma=gamma, kappa=kappa)
    total = (2.0 * C / (C + 1.0)) * kappa * math.exp(-2.0 * r) / (kappa + gamma) + (
        2.0 * (2.0 * n_th + 1.0) / (C + 1.0)
    ) * (1.0 + C * gamma / (kappa + gamma))
    return DuanResult.from_total(total)


def field_sum_nonadiabatic(
    C: float, r: float, n_th: float, gamma: float, kappa: float
) -> DuanResult:
    """Field-field variance sum for identical units."""
    _check_nonnegative(C=C, r=r, n_th=n_th)
    _check_positive(gamma=gamma, kappa=kappa)
    total = (2.0 * C * (2.0 * n_th + 1.0) / (C + 1.0)) * gamma / (gamma + kappa) + 2.0 * (
        kappa / (kappa + gamma) + gamma / ((1.0 + C) * (gamma + kappa))
    ) * math.exp(-2.0 * r)
    return DuanResult.from_total(total)


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
    return c_min / cooperativity_power_slope(unit)


def power_threshold_prefactor(unit: OptomechanicalUnit) -> float:
    """Diagnostic prefactor gamma w_L M L^2 w_M [(kappa/2)^2 + w_M^2] / (2 w_r^2).

    Used only by :func:`diagnostic_minimum_power`; see that function.
    """
    res, mir = unit.resonator, unit.mirror
    return (
        mir.gamma
        * res.omega_L
        * mir.mass
        * res.length**2
        * mir.omega_M
        * ((res.kappa / 2.0) ** 2 + mir.omega_M**2)
        / (2.0 * res.omega_r**2)
    )


def diagnostic_minimum_power(
    unit: OptomechanicalUnit, r: float, temperature: float
) -> float:
    """Alternative power threshold built from the textbook-style prefactor.

    Differs from :func:`minimum_power` by a constant factor (close to 2 for
    these systems); both are reported by the CLI so the discrepancy is
    visible rather than silently resolved.
    """
    if r <= 0:
        raise DegenerateSqueeze("power threshold diverges at r = 0")
    if temperature <= 0:
        raise ValueError("temperature must be > 0")
    alpha = power_threshold_prefactor(unit)
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
