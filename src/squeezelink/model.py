"""Physical parameters, derived quantities and steady-state mean fields.

All frequencies are angular frequencies in rad/s. Conversions from Hz
happen at config ingestion (see :mod:`squeezelink.config`), never here.
"""

from __future__ import annotations

import dataclasses
import math
import warnings
from dataclasses import dataclass

import numpy as np

# CODATA 2018, pinned for reproducibility.
HBAR = 1.054571817e-34  # J s
KB = 1.380649e-23  # J/K

#: warn when omega_r/kappa or omega_L/kappa drops below this ratio
_OPTICAL_RATIO_FLOOR = 1e3


class NonConvergence(RuntimeError):
    """Fixed-point iteration for the bare-detuning map failed to converge."""


class MultipleBranches(UserWarning):
    """The bare-detuning map has more than one self-consistent solution."""


def _require_positive(**kwargs):
    for name, value in kwargs.items():
        if not 0.0 < value < math.inf:  # also rejects NaN
            raise ValueError(f"{name} must be positive and finite, got {value!r}")


@dataclass(frozen=True)
class ResonatorParams:
    """One driven optical cavity: frequency, drive, loss and geometry."""

    omega_r: float  # cavity angular frequency (rad/s)
    omega_L: float  # drive laser angular frequency (rad/s)
    kappa: float  # cavity amplitude damping rate (rad/s)
    length: float  # cavity length (m)
    power: float  # drive power (W)

    def __post_init__(self):
        _require_positive(
            omega_r=self.omega_r,
            omega_L=self.omega_L,
            kappa=self.kappa,
            length=self.length,
            power=self.power,
        )
        if min(self.omega_r, self.omega_L) < _OPTICAL_RATIO_FLOOR * self.kappa:
            warnings.warn(
                "optical frequencies are not large compared to the cavity "
                f"linewidth (ratio below {_OPTICAL_RATIO_FLOOR:g}); results "
                "assume a high-finesse cavity",
                stacklevel=2,
            )


@dataclass(frozen=True)
class MirrorParams:
    """One mechanical oscillator (movable mirror) and its thermal bath."""

    omega_M: float  # mechanical angular frequency (rad/s)
    gamma: float  # mechanical damping rate (rad/s)
    mass: float  # kg
    temperature: float  # K

    def __post_init__(self):
        _require_positive(omega_M=self.omega_M, gamma=self.gamma, mass=self.mass)
        if not 0.0 <= self.temperature < math.inf:
            raise ValueError(
                f"temperature must be >= 0 and finite, got {self.temperature!r}"
            )


@dataclass(frozen=True)
class SqueezedBath:
    """Broadband two-mode squeezed vacuum shared by the two cavities.

    The occupation ``N = sinh^2 r`` and the cross-correlation
    ``M_corr = sinh r cosh r`` satisfy ``M_corr^2 = N (N + 1)`` exactly,
    which is what makes the bath a pure squeezed state.
    """

    r: float

    def __post_init__(self):
        if not 0.0 <= self.r < math.inf:
            raise ValueError(f"squeeze parameter r must be >= 0 and finite, got {self.r!r}")

    @property
    def N(self) -> float:
        try:
            return math.sinh(self.r) ** 2
        except OverflowError:
            raise self._overflow("N = sinh^2 r") from None

    @property
    def M_corr(self) -> float:
        try:
            value = math.sinh(self.r) * math.cosh(self.r)
        except OverflowError:
            value = math.inf
        if value == math.inf:
            raise self._overflow("M_corr = sinh r cosh r")
        return value

    def _overflow(self, what: str) -> OverflowError:
        return OverflowError(f"squeezed-bath {what} overflows a float at r = {self.r!r}")


@dataclass(frozen=True)
class OptomechanicalUnit:
    """One nanoresonator: a driven cavity with a movable mirror."""

    resonator: ResonatorParams
    mirror: MirrorParams


@dataclass(frozen=True)
class SystemParams:
    """The full two-unit system sharing one squeezed bath."""

    unit1: OptomechanicalUnit
    unit2: OptomechanicalUnit
    bath: SqueezedBath


def _unit_paths() -> dict[str, tuple[str, str, str]]:
    """``unitN.part.field`` and ``unitN.field`` -> (unit, part, field).

    The short form is unambiguous because no field name is shared by
    :class:`ResonatorParams` and :class:`MirrorParams`.
    """
    paths = {}
    for unit in ("unit1", "unit2"):
        for part, params in (("resonator", ResonatorParams), ("mirror", MirrorParams)):
            for field in dataclasses.fields(params):
                key = (unit, part, field.name)
                paths[f"{unit}.{part}.{field.name}"] = paths[f"{unit}.{field.name}"] = key
    return paths


_UNIT_PATHS = _unit_paths()


def set_param(system: SystemParams, path: str, value: float) -> SystemParams:
    """Return a copy of the system with one parameter replaced.

    Paths address dataclass fields, e.g. ``unit2.resonator.power``,
    ``unit1.mirror.omega_M`` or ``bath.r``. The intermediate level may be
    omitted (``unit2.power``), and the bare path ``temperature`` sets both
    mirror baths at once.
    """
    if path == "temperature":
        sys1 = set_param(system, "unit1.mirror.temperature", value)
        return set_param(sys1, "unit2.mirror.temperature", value)
    if path == "bath.r":
        return dataclasses.replace(system, bath=SqueezedBath(r=value))
    if path not in _UNIT_PATHS:
        kind = "bath parameter" if path.startswith("bath.") else "parameter"
        raise ValueError(f"unknown {kind} path {path!r}")
    unit_name, part_name, field = _UNIT_PATHS[path]
    unit = getattr(system, unit_name)
    part = dataclasses.replace(getattr(unit, part_name), **{field: value})
    return dataclasses.replace(system, **{unit_name: dataclasses.replace(unit, **{part_name: part})})


@dataclass(frozen=True)
class SteadyState:
    """Steady-state mean fields and every rate derived from them."""

    alpha: complex  # optical amplitude
    beta: complex  # mechanical amplitude
    n_bar: float  # mean cavity photon number |alpha|^2
    delta_eff: float  # effective detuning (rad/s)
    delta_bare: float  # bare laser detuning (rad/s)
    phi: float  # drive phase (rad)
    g: float  # single-photon coupling (rad/s)
    G: float  # many-photon coupling g*sqrt(n_bar) (rad/s)
    Gamma_a: float  # radiation-pressure damping 4 G^2 / kappa (rad/s)
    Gamma: float  # total effective damping Gamma_a + gamma (rad/s)
    C: float  # cooperativity 4 G^2 / (gamma kappa)
    n_th: float  # thermal occupation of the mirror bath


def thermal_occupation(omega_M: float, temperature: float) -> float:
    """Bose-Einstein occupation of a mechanical bath at a given temperature."""
    if omega_M <= 0:
        raise ValueError("omega_M must be positive")
    if temperature < 0:
        raise ValueError("temperature must be >= 0")
    if temperature == 0.0:
        return 0.0
    x = HBAR * omega_M / (KB * temperature)
    if x > 700.0:  # expm1 would overflow; occupation is exp(-x) to ~1e-300
        return math.exp(-x)
    return 1.0 / math.expm1(x)


def temperature_for_occupation(omega_M: float, n_th: float) -> float:
    """Inverse of :func:`thermal_occupation`; n_th = 0 maps to T = 0."""
    if n_th < 0:
        raise ValueError("n_th must be >= 0")
    if n_th == 0.0:
        return 0.0
    return HBAR * omega_M / (KB * math.log1p(1.0 / n_th))


def single_photon_coupling(
    omega_r: float, length: float, mass: float, omega_M: float
) -> float:
    """Single-photon optomechanical coupling (omega_r/L) sqrt(hbar/(M omega_M))."""
    _require_positive(omega_r=omega_r, length=length, mass=mass, omega_M=omega_M)
    return (omega_r / length) * math.sqrt(HBAR / (mass * omega_M))


def drive_amplitude(power: float, kappa: float, omega_L: float) -> float:
    """Coherent drive amplitude sqrt(2 kappa P / (hbar omega_L))."""
    _require_positive(kappa=kappa, omega_L=omega_L)
    if power < 0:
        raise ValueError("power must be >= 0")
    return math.sqrt(2.0 * kappa * power / (HBAR * omega_L))


def _radiation_shift(unit: OptomechanicalUnit, g: float, n_bar: float) -> float:
    """Static detuning shift -g (beta + beta*) from the displaced mirror."""
    m = unit.mirror
    return 2.0 * g * g * n_bar * m.omega_M / ((m.gamma / 2.0) ** 2 + m.omega_M**2)


def mean_fields_from_effective_detuning(
    unit: OptomechanicalUnit, delta_eff: float
) -> SteadyState:
    """Closed-form steady state for a prescribed effective detuning.

    The drive phase is fixed to ``phi = -arctan(2 delta_eff / kappa)`` so the
    cavity amplitude comes out purely imaginary, ``alpha = -i |alpha|``.
    """
    if not math.isfinite(delta_eff):
        raise ValueError("delta_eff must be finite")
    res, mir = unit.resonator, unit.mirror
    g = single_photon_coupling(res.omega_r, res.length, mir.mass, mir.omega_M)
    eps = drive_amplitude(res.power, res.kappa, res.omega_L)
    n_bar = eps**2 / ((res.kappa / 2.0) ** 2 + delta_eff**2)
    alpha = -1j * math.sqrt(n_bar)
    beta = -1j * g * n_bar / (mir.gamma / 2.0 + 1j * mir.omega_M)
    delta_bare = delta_eff + g * (2.0 * beta.real)
    phi = -math.atan(2.0 * delta_eff / res.kappa)
    G = g * math.sqrt(n_bar)
    Gamma_a = 4.0 * G**2 / res.kappa
    return SteadyState(
        alpha=alpha,
        beta=beta,
        n_bar=n_bar,
        delta_eff=delta_eff,
        delta_bare=delta_bare,
        phi=phi,
        g=g,
        G=G,
        Gamma_a=Gamma_a,
        Gamma=Gamma_a + mir.gamma,
        C=Gamma_a / mir.gamma,
        n_th=thermal_occupation(mir.omega_M, mir.temperature),
    )


def mean_fields_from_bare_detuning(
    unit: OptomechanicalUnit, delta_bare: float
) -> SteadyState:
    """Solve the radiation-pressure self-consistency for the bare detuning.

    The effective detuning satisfies ``d' = delta_bare + shift(d')`` where
    the static shift is a Lorentzian in d', so the self-consistency is
    exactly a cubic in d'. All real branches are found by polynomial root
    finding; when the operating point is bistable a
    :class:`MultipleBranches` warning is emitted and the branch closest to
    the red mechanical sideband ``-omega_M`` is returned. Raises
    :class:`NonConvergence` if no branch meets the residual tolerance.
    """
    if not math.isfinite(delta_bare):
        raise ValueError("delta_bare must be finite")
    res, mir = unit.resonator, unit.mirror
    g = single_photon_coupling(res.omega_r, res.length, mir.mass, mir.omega_M)
    eps = drive_amplitude(res.power, res.kappa, res.omega_L)
    q = (res.kappa / 2.0) ** 2
    K = 2.0 * g**2 * eps**2 * mir.omega_M / ((mir.gamma / 2.0) ** 2 + mir.omega_M**2)

    # (x - delta_bare) (q + x^2) = K, with x the effective detuning
    roots = np.roots([1.0, -delta_bare, q, -(delta_bare * q + K)])
    scale = max(abs(delta_bare), res.kappa, mir.omega_M)
    candidates = []
    for root in roots:
        if abs(root.imag) > 1e-9 * max(abs(root), scale):
            continue
        x = float(root.real)
        # polish with Newton on f(x) = (x - delta)(q + x^2) - K
        for _ in range(5):
            f = (x - delta_bare) * (q + x * x) - K
            fp = q + x * x + 2.0 * x * (x - delta_bare)
            if fp != 0.0:
                x -= f / fp
        shift = K / (q + x * x)
        if abs(x - (delta_bare + shift)) <= 1e-9 * max(abs(x), res.kappa):
            candidates.append(x)

    if not candidates:
        raise NonConvergence(
            f"bare-detuning self-consistency has no real branch within "
            f"tolerance (delta_bare={delta_bare:g})"
        )
    if len(candidates) > 1:
        warnings.warn(
            f"bare-detuning self-consistency has {len(candidates)} branches; "
            "the operating point is bistable, returning the branch nearest "
            "the red sideband",
            MultipleBranches,
            stacklevel=2,
        )
    best = min(candidates, key=lambda x: abs(x + mir.omega_M))
    return mean_fields_from_effective_detuning(unit, best)


@dataclass(frozen=True)
class StabilityReport:
    stable: bool
    max_real_part: float
    worst_index: tuple[int, ...] = ()  # stack index of the least stable matrix


def stability_check(drift: np.ndarray) -> StabilityReport:
    """Whether every eigenvalue of the drift matrix has negative real part.

    Accepts one ``(n, n)`` matrix or a stack ``(..., n, n)``; for a stack
    the report covers every matrix and names the least stable one.
    """
    drift = np.asarray(drift, dtype=float)
    if drift.ndim < 2 or drift.shape[-1] != drift.shape[-2]:
        raise ValueError(f"drift must be a square matrix, got shape {drift.shape}")
    max_re = np.linalg.eigvals(drift).real.max(axis=-1)
    worst = np.unravel_index(np.argmax(max_re), max_re.shape)
    worst_re = float(max_re[worst])
    return StabilityReport(
        stable=worst_re < 0.0,
        max_real_part=worst_re,
        worst_index=tuple(int(i) for i in worst),
    )


def unit_with_cooperativity(
    C: float,
    kappa: float,
    gamma: float,
    n_th: float,
    omega_M: float = 2.0 * math.pi * 947e3,
    omega_L: float = 2.0 * math.pi * 2.82e14,
    omega_r: float = 2.0 * math.pi * 5.64e14,
    length: float = 25e-3,
    mass: float = 145e-12,
) -> OptomechanicalUnit:
    """Build a unit whose red-detuned operating point has the given cooperativity.

    The drive power is chosen so that C = 4 g^2 n_bar / (gamma kappa) at
    delta_eff = -omega_M; the bath temperature realizes the requested n_th.
    Convenient for scans parameterized directly by (C, n_th, gamma/kappa).
    """
    if C < 0:
        raise ValueError("C must be >= 0")
    g = single_photon_coupling(omega_r, length, mass, omega_M)
    n_bar = C * gamma * kappa / (4.0 * g**2)
    eps_sq = n_bar * ((kappa / 2.0) ** 2 + omega_M**2)
    power = eps_sq * HBAR * omega_L / (2.0 * kappa)
    if power == 0.0:
        power = 1e-300  # C = 0: keep the strictly-positive invariant
    return OptomechanicalUnit(
        resonator=ResonatorParams(
            omega_r=omega_r, omega_L=omega_L, kappa=kappa, length=length, power=power
        ),
        mirror=MirrorParams(
            omega_M=omega_M,
            gamma=gamma,
            mass=mass,
            temperature=temperature_for_occupation(omega_M, n_th),
        ),
    )
