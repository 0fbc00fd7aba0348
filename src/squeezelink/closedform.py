"""Closed-form entanglement measures and thresholds.

Every function here evaluates an analytic expression for the sum of the
variances of the joint EPR quadratures (relative position and total
momentum) of either the two mirrors or the two cavity fields. A sum below
2 certifies entanglement; the boundary value 2 counts as separable. The
nonadiabatic form of any two units integrates the noise spectra in closed form.

A form evaluated over grids has an array twin (``*_arrays``) that takes its
arguments as arrays, or records of arrays, and gives the same bits; the first
failing element raises what the per-point form raises. Every argument passes
:mod:`squeezelink.model`'s range gate first: a unit record its unit gate, and
the other arguments their rows of this module's tables.
"""

from __future__ import annotations

import math

from ._lazy import lazy_import
from .model import (
    _require_unit,
    HBAR,
    KB,
    OptomechanicalUnit,
    Record,
    mean_fields_from_effective_detuning,
    map_math,
    raise_for_first,
    require_bounds,
    require_bounds_arrays,
    require_units,
    thermal_occupation,
)

np = lazy_import("numpy")

SEPARABILITY_BOUND = 2.0
#: the largest relative rounding error a Duan variance or total may carry: the
#: three routes' agreement tolerance
_CANCELLATION_TOL = 1e-6


#: the range gate's tables (see :func:`model.require_bounds`) of the closed forms'
#: arguments; a form checks the rows of the arguments it takes, such as C, r and n_th
_IDENTICAL_BOUNDS = (("C", ">= 0"), ("r", ">= 0"), ("n_th", ">= 0"), ("gamma", "> 0"),
                     ("kappa", "> 0"))
_STRONG_BOUNDS = (("C", "> 0"),) + _IDENTICAL_BOUNDS[1:3]
_POWER_BOUNDS = (("r", ">= 0"), ("temperature", "> 0"))


class DegenerateSqueeze(ValueError):
    """A threshold diverges: r = 0, or r so small that the threshold overflows."""


class DuanResult(Record):
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
        return self.total < SEPARABILITY_BOUND

    @classmethod
    def from_total(cls, total: float) -> "DuanResult":
        # all closed forms here are X/Y symmetric; the halves are for display
        return cls(var_X=total / 2.0, var_Y=total / 2.0, total=total)


def _adiabatic_share(unit):
    """A unit's terms of the adiabatic mirror total, ``(Gamma_a, Gamma, Gamma_a / Gamma,
    ((Gamma - Gamma_a) / Gamma)(2 n_th + 1))``, from its gated record, for floats or arrays:
    ``Gamma_a = 4 G^2 / kappa`` by the ops of C, and ``Gamma = Gamma_a + gamma > 0``."""
    gamma, kappa, G, n_th = unit
    Ga = 4.0 * (G * G) / kappa
    Gt = Ga + gamma
    return Ga, Gt, Ga / Gt, (Gt - Ga) / Gt * (2.0 * n_th + 1.0)


def _adiabatic_sum(share1, share2, squeezed, M, sqrt):
    """The adiabatic mirror total in + - * / and the given ``sqrt``, for floats or arrays,
    and the sum ``a + b`` of its two squeezed terms, which cancel as r grows.

    ``share1`` and ``share2`` are the units' :func:`_adiabatic_share` and
    ``squeezed`` is the bath's ``2N + 1``. The point, array and partner-step
    routes all form the total here, so all give the same bits.
    """
    (Ga1, G1, pumped1, thermal1), (Ga2, G2, pumped2, thermal2) = share1, share2
    a = squeezed * (pumped1 + pumped2)
    b = 8.0 * sqrt(Ga1 * Ga2) * M / (G1 + G2)
    return a - b + thermal1 + thermal2, a + b


def duan_sum_adiabatic_general(unit1, unit2, N: float, M: float) -> DuanResult:
    """Mirror-mirror variance sum in the adiabatic regime, arbitrary asymmetry.

    Each unit is ``(gamma, kappa, G, n_th)`` (see :func:`model.unit_record`), and passes the
    unit gate first; its mirror's rates with the cavity eliminated are ``Gamma_a = 4 G^2 /
    kappa`` and ``Gamma = Gamma_a + gamma``. ``N`` and ``M`` are the bath's
    ``SqueezedBath.N`` and ``SqueezedBath.M_corr``. The squeezed terms
    ``a = (2N + 1)(Gamma_a1/Gamma_1 + Gamma_a2/Gamma_2)`` and
    ``b = 8 sqrt(Gamma_a1 Gamma_a2) M / (Gamma_1 + Gamma_2)`` both grow like
    e^{2r} and cancel in ``a - b``. Once the total passes :class:`DuanResult`'s
    check, a relative rounding error estimated as ``ulp(1) (a + b) / total``
    beyond ``_CANCELLATION_TOL`` raises ``FloatingPointError`` instead of a verdict.
    """
    _require_unit(1, *unit1)
    _require_unit(2, *unit2)
    total, size = _adiabatic_sum(_adiabatic_share(unit1), _adiabatic_share(unit2),
                                 2.0 * N + 1.0, M, math.sqrt)
    result = DuanResult.from_total(total)
    _require_digits(math.ulp(1.0) * size / total if total else math.inf)
    return result


def duan_sum_adiabatic_arrays(unit1, unit2, N, M) -> np.ndarray:
    """:func:`duan_sum_adiabatic_general` totals over arrays.

    ``unit1`` and ``unit2`` are unit records of arrays (see :func:`model.sideband_rate_arrays`);
    ``N`` and ``M`` are the bath's terms (see :func:`model.squeeze_arrays`). All broadcast
    together. The totals equal the per-point ones bit for bit: both units pass the unit gate
    jointly, and then every element the checks of :func:`duan_sum_adiabatic_steps`."""
    require_units({1: unit1, 2: unit2})
    return duan_sum_adiabatic_steps(adiabatic_held(unit1, N, M), unit2)


def adiabatic_held(unit1, N, M) -> tuple:
    """What a partner search holds over its steps (:func:`duan_sum_adiabatic_steps`): unit
    1's :func:`_adiabatic_share` and the bath's ``2N + 1`` and ``M``, one flat tuple."""
    with np.errstate(all="ignore"):  # an overflow shows as a non-finite total
        return (*_adiabatic_share(unit1), 2.0 * N + 1.0, M)


def duan_sum_adiabatic_steps(held, unit2) -> np.ndarray:
    """:func:`duan_sum_adiabatic_arrays` totals from unit 1's and the bath's ``held``
    terms (:func:`adiabatic_held`) and unit 2's record, both past the unit gate, as a
    partner search's step forms them. Every element passes the total check of
    :class:`DuanResult` and the rounding-error estimate, in that order, or the first
    failing element raises what the per-point route raises."""
    with np.errstate(all="ignore"):  # an overflow shows as a non-finite total
        total, size = _adiabatic_sum(held[:4], _adiabatic_share(unit2), *held[4:], np.sqrt)
        total = require_totals(total)
        lost = math.ulp(1.0) * size / total  # a zero total gives inf, as per point
    raise_for_first(lost > _CANCELLATION_TOL, _require_digits, lost)
    return total


def require_totals(total) -> np.ndarray:
    """``total`` as an array, once every element passes :class:`DuanResult`'s check.

    The first non-finite or negative total raises what a per-point
    :class:`DuanResult` with that total raises.
    """
    total = np.asarray(total)
    raise_for_first(~((0.0 <= total) & (total < math.inf)), DuanResult.from_total, total)
    return total


def _require_digits(lost: float):
    """Raise unless the relative rounding error estimate ``lost`` of a Duan
    variance or total is within ``_CANCELLATION_TOL``."""
    if lost > _CANCELLATION_TOL:
        raise FloatingPointError(
            f"Duan variance lost its digits to cancellation: relative rounding error "
            f"estimate {lost:.2g} exceeds {_CANCELLATION_TOL:g}")


def _adiabatic_identical_sum(C, e, n_th):
    """The adiabatic total of identical units, ``e = exp(-2r)``, for floats or arrays."""
    return (2.0 * C * e + 2.0 * (1.0 + 2.0 * n_th)) / (C + 1.0)


def duan_sum_adiabatic_identical(C: float, r: float, n_th: float) -> DuanResult:
    """Mirror-mirror variance sum for identical units, adiabatic regime."""
    require_bounds(_IDENTICAL_BOUNDS, (C, r, n_th))
    return DuanResult.from_total(_adiabatic_identical_sum(C, math.exp(-2.0 * r), n_th))


def duan_sum_adiabatic_identical_arrays(C, r, n_th) -> np.ndarray:
    """:func:`duan_sum_adiabatic_identical` as :func:`duan_sum_nonadiabatic_arrays`."""
    return _identical_units_arrays(_adiabatic_identical_sum, (C, r, n_th))


def duan_sum_strong_coupling_approx(C: float, r: float, n_th: float) -> float:
    """Large-cooperativity approximation 2 e^{-2r} + 4 n_th / C."""
    require_bounds(_STRONG_BOUNDS, (C, r, n_th))
    return 2.0 * math.exp(-2.0 * r) + 4.0 * n_th / C


def duan_sum_weak_coupling_approx(C: float, r: float, n_th: float) -> float:
    """Small-cooperativity approximation 2 + 2 C e^{-2r} + 4 n_th; never below 2."""
    require_bounds(_IDENTICAL_BOUNDS, (C, r, n_th))
    return 2.0 + 2.0 * C * math.exp(-2.0 * r) + 4.0 * n_th


def _nonadiabatic_sum(C, e, n_th, gamma, kappa):
    """The nonadiabatic mirror total of identical units, ``e = exp(-2r)``, for floats or arrays."""
    return (2.0 * C / (C + 1.0)) * kappa * e / (kappa + gamma) + (
        2.0 * (2.0 * n_th + 1.0) / (C + 1.0)
    ) * (1.0 + C * gamma / (kappa + gamma))


def duan_sum_nonadiabatic(
    C: float, r: float, n_th: float, gamma: float, kappa: float
) -> DuanResult:
    """Mirror-mirror variance sum for identical units, no adiabatic elimination."""
    require_bounds(_IDENTICAL_BOUNDS, (C, r, n_th, gamma, kappa))
    return DuanResult.from_total(_nonadiabatic_sum(C, math.exp(-2.0 * r), n_th, gamma, kappa))


def duan_sum_nonadiabatic_arrays(C, r, n_th, gamma, kappa) -> np.ndarray:
    """:func:`duan_sum_nonadiabatic` totals over arrays that broadcast together.

    The totals equal the per-point ones bit for bit (``exp(-2r)`` is
    ``math.exp``, mapped over the elements of r: ``np.exp(-2r)`` differs from it
    in the last bit at 9,265 of 200,001 r in [0, 20] with numpy 2.4 on an
    AVX-512 Xeon). Every element passes the per-point
    gate and total check, or the first failing element raises what they raise.
    """
    return _identical_units_arrays(_nonadiabatic_sum, (C, r, n_th, gamma, kappa))


def _field_sum(C, e, n_th, gamma, kappa):
    """The field total of identical units, ``e = exp(-2r)``, for floats or arrays."""
    return (2.0 * C * (2.0 * n_th + 1.0) / (C + 1.0)) * gamma / (gamma + kappa) + 2.0 * (
        kappa / (kappa + gamma) + gamma / ((1.0 + C) * (gamma + kappa))
    ) * e


def field_sum_nonadiabatic(
    C: float, r: float, n_th: float, gamma: float, kappa: float
) -> DuanResult:
    """Field-field variance sum for identical units."""
    require_bounds(_IDENTICAL_BOUNDS, (C, r, n_th, gamma, kappa))
    return DuanResult.from_total(_field_sum(C, math.exp(-2.0 * r), n_th, gamma, kappa))


def field_sum_nonadiabatic_arrays(C, r, n_th, gamma, kappa) -> np.ndarray:
    """:func:`field_sum_nonadiabatic` as :func:`duan_sum_nonadiabatic_arrays`."""
    return _identical_units_arrays(_field_sum, (C, r, n_th, gamma, kappa))


def _identical_units_arrays(total, args) -> np.ndarray:
    """``total`` over (C, exp(-2r), n_th, *rates), broadcast together, past the gate of
    ``_IDENTICAL_BOUNDS``; ``math.exp`` maps over r's own elements, once the gate passes."""
    C, r, n_th, *rates = args = [np.asarray(x, dtype=float) for x in args]
    require_bounds_arrays(_IDENTICAL_BOUNDS, args)
    e = map_math(math.exp, -2.0 * r)
    with np.errstate(all="ignore"):  # an overflow shows as a non-finite total
        return require_totals(total(C, e, n_th, *rates))


def _require_pair(pair: str):
    if pair not in ("mirror", "field"):
        raise ValueError(f"pair must be 'mirror' or 'field', got {pair!r}")


def duan_sum_nonadiabatic_general(unit1, unit2, N: float, M: float,
                                  pair: str = "mirror") -> DuanResult:
    """Variance sum of either pair for any two units, no adiabatic elimination.

    Each unit is ``(gamma, kappa, G, n_th)``; ``N`` and ``M`` are the bath's ``N`` and
    ``M_corr``. Both units pass the unit gate first. A division by zero, where q or the
    Hurwitz term underflows to 0, a NaN (or, at subnormal rates, inf) total in the array
    twin, raises the ``FloatingPointError`` of a NaN total."""
    _require_pair(pair)
    _require_unit(1, *unit1)
    _require_unit(2, *unit2)
    try:
        total = _general_sum(unit1, unit2, N, M, pair == "mirror", math.sqrt, _scale)
    except ZeroDivisionError:
        total = math.nan
    return DuanResult.from_total(total)


def _scale(s: float, i: float) -> float:
    """``s * i`` for a positive ``s``, but ``i`` itself where ``i`` is 0: the bits of
    ``s * i`` wherever that is finite, and 0, not NaN, where ``s`` is inf."""
    return s * i if i != 0.0 else i


def _scale_arrays(s, i):
    """:func:`_scale` over arrays."""
    return np.where(i == 0.0, i, s * i)


def duan_sum_nonadiabatic_general_arrays(unit1, unit2, N, M, pair: str = "mirror"
                                         ) -> np.ndarray:
    """:func:`duan_sum_nonadiabatic_general` totals over arrays that broadcast together,
    bit for bit, past the units' joint gate; the first bad total raises what it raises per point."""
    _require_pair(pair)
    require_units({1: unit1, 2: unit2})
    unit1, unit2, (N, M) = ([np.asarray(x, dtype=float) for x in args]
                            for args in (unit1, unit2, (N, M)))
    with np.errstate(all="ignore"):  # an overflow, or x / 0, shows in the total
        return require_totals(_general_sum(unit1, unit2, N, M, pair == "mirror", np.sqrt,
                                           _scale_arrays))


def _general_sum(unit1, unit2, N, M, mirror: bool, sqrt, scale):
    """The nonadiabatic total in + - * / and the given ``sqrt`` and ``scale``, for floats
    or arrays.

    The noise spectra integrated over frequency in the EPR basis, ``sum_j (2 n_th_j
    + 1) I_2(b_j) / 2 + (e^{2r} I_4(a_1 - a_2) + e^{-2r} I_4(a_1 + a_2)) / 4`` with
    ``e^{2r} = 2N + 1 + 2M``, ``a_j`` unit j's response to its squeezed input and
    ``b_j`` to its mirror's bath (``docs/noise_conventions.md``). ``a_1 - a_2`` is
    built from the inputs' differences, exact for close inputs (Sterbenz): it is 0
    for identical units and keeps its digits for nearly identical ones. Its I_4 is then
    0, and ``scale`` (:func:`_scale`) keeps the anti-squeezed term at 0 where e^{2r}
    overflows to inf before N and M do, at r above about 354.9.
    """
    (g1, k1, G1, n1), (g2, k2, G2, n2) = unit1, unit2
    sg1, sk1, sg2, sk2 = sqrt(g1), sqrt(k1), sqrt(g2), sqrt(k2)
    dg, dk, dG = g1 - g2, k1 - k2, G1 - G2
    dsk = dk / (sk1 + sk2)
    # d_j = s^2 + p_j s + q_j, and the differences p1 - p2 and q1 - q2
    pq = ((g1 + k1) / 2.0, G1 * G1 + g1 * k1 / 4.0, (g2 + k2) / 2.0, G2 * G2 + g2 * k2 / 4.0,
          (dg + dk) / 2.0, dG * (G1 + G2) + (dg * k1 + g2 * dk) / 4.0)
    # the numerators (s, 1 coefficients) over d_j of a_j, of a_1 - a_2 and of b_j
    if mirror:
        a1, a2, da = (0.0, G1 * sk1), (0.0, G2 * sk2), (0.0, dG * sk1 + G2 * dsk)
        b1, b2 = (sg1, sg1 * k1 / 2.0), (sg2, sg2 * k2 / 2.0)
    else:
        a1, a2 = (sk1, sk1 * g1 / 2.0), (sk2, sk2 * g2 / 2.0)
        da = (dsk, (dsk * g1 + sk2 * dg) / 2.0)
        b1, b2 = (0.0, G1 * sg1), (0.0, G2 * sg2)
    e2r = 2.0 * N + 1.0 + 2.0 * M
    thermal = ((2.0 * n1 + 1.0) * _i2(b1, *pq[:2]) + (2.0 * n2 + 1.0) * _i2(b2, *pq[2:4])) / 2.0
    both = (a1[0] + a2[0], a1[1] + a2[1])
    return thermal + (scale(e2r, _i4(da, a2, -1.0, *pq)) + _i4(both, a2, 1.0, *pq) / e2r) / 4.0


def _i2(n, p, q):
    """The table's I_2 of ``(n1 s + n0) / (s^2 + p s + q)``, with ``n = (n1, n0)``."""
    n1, n0 = n
    return (n1 * n1 + n0 * n0 / q) / p


def _i4(m, n, sign, p1, q1, p2, q2, dp, dq):
    """The table's I_4: 1/pi times the integral over all w of ``|a_1 + sign a_2|^2``.

    ``a_j = (n1 s + n0) / (s^2 + p_j s + q_j)`` at ``s = iw``, ``n`` is unit 2's
    numerator, ``m = n_1 + sign n_2``, ``dp = p1 - p2`` and ``dq = q1 - q2``: a sum of
    non-negative terms and squares, whose differences ``c_k q_j - c_l`` of the
    coefficients of ``n_1 d_2 + sign n_2 d_1`` are written in m, dp and dq."""
    (m1, m0), (n1, n0) = m, n
    sn1, sn0 = sign * n1, sign * n0
    c3, c2, c0 = m1, m1 * p2 + sn1 * dp + m0, m0 * q2 + sn0 * dq
    u = -(sn1 * dq + m0 * p2 + sn0 * dp)  # c3 q2 - c1
    v = (m1 * p2 + sn1 * dp) * q2 - sn0 * dq  # c2 q2 - c0
    w, x = u + c3 * dq, v + c2 * dq  # c3 q1 - c1 and c2 q1 - c0
    hurwitz = p1 * p2 * (dq * dq + (p1 + p2) * (p1 * q2 + p2 * q1))
    num = (p1 * u * u + p2 * w * w + p1 * v * v / q2 + p2 * x * x / q1
           + p1 * p2 * (c3 * c3 * (p1 * q2 + p2 * q1) + c0 * c0 * (p1 + p2) / (q1 * q2)))
    return num / hurwitz


def threshold_cooperativity(r: float, n_th: float) -> float:
    """Cooperativity above which the mirrors become entangled."""
    require_bounds(_IDENTICAL_BOUNDS[1:3], (r, n_th))
    if r == 0:
        raise DegenerateSqueeze(
            "threshold cooperativity diverges at r = 0: no entanglement without squeezing"
        )
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
    require_bounds(_POWER_BOUNDS, (r, temperature))
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
    require_bounds(_POWER_BOUNDS, (r, temperature))
    if r == 0:
        raise DegenerateSqueeze("power threshold diverges at r = 0")
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
