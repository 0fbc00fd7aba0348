"""Units of the reference device built from their rates, for the tests."""

import math

from squeezelink import model
from squeezelink.model import (
    HBAR,
    KB,
    REFERENCE_DEVICE,
    MirrorParams,
    OptomechanicalUnit,
    ResonatorParams,
)


def temperature_for_occupation(omega_M: float, n_th: float) -> float:
    """Inverse of :func:`model.thermal_occupation`; n_th = 0 maps to T = 0."""
    model._require_positive(omega_M=omega_M)
    if not 0.0 <= n_th < math.inf:  # also rejects NaN
        raise ValueError(f"n_th must be >= 0 and finite, got {n_th!r}")
    if n_th == 0.0:
        return 0.0
    return HBAR * omega_M / (KB * math.log1p(1.0 / n_th))


def unit_with_cooperativity(C: float, kappa: float, gamma: float,
                            n_th: float) -> OptomechanicalUnit:
    """A unit of the reference device whose red-detuned operating point has cooperativity C.

    omega_r, omega_L, the length, omega_M and the mass are those of
    :data:`model.REFERENCE_DEVICE`; ``kappa`` and ``gamma`` replace its rates.
    The drive power is chosen so that C = 4 g^2 n_bar / (gamma kappa) at
    delta_eff = -omega_M; the bath temperature realizes the requested n_th.
    """
    if C < 0:
        raise ValueError("C must be >= 0")
    d = REFERENCE_DEVICE
    g = model._coupling(d["omega_r"], d["length"], d["mass"], d["omega_M"], math.sqrt)
    n_bar = C * gamma * kappa / (4.0 * g**2)
    power = n_bar * ((kappa / 2.0) ** 2 + d["omega_M"] ** 2) * HBAR * d["omega_L"] / (2.0 * kappa)
    if power == 0.0:
        power = 1e-300  # C = 0: keep the strictly-positive invariant
    return OptomechanicalUnit(
        resonator=ResonatorParams(omega_r=d["omega_r"], omega_L=d["omega_L"], kappa=kappa,
                                  length=d["length"], power=power),
        mirror=MirrorParams(omega_M=d["omega_M"], gamma=gamma, mass=d["mass"],
                            temperature=temperature_for_occupation(d["omega_M"], n_th)),
    )
