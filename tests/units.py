"""Units of the reference device built from their rates, systems of two such
units, and the 8x8 matrices of the oracle's rows, for the tests."""

import math

import numpy as np
from hypothesis import strategies as st

from squeezelink import model, oracle
from squeezelink.model import (
    HBAR,
    KB,
    REFERENCE_DEVICE,
    MirrorParams,
    OptomechanicalUnit,
    ResonatorParams,
    SqueezedBath,
    SystemParams,
)

KAPPA = 2 * math.pi * 215e3


def temperature_for_occupation(omega_M: float, n_th: float) -> float:
    """Inverse of :func:`model.thermal_occupation`; n_th = 0 maps to T = 0."""
    model.require_bounds((("omega_M", "> 0"), ("n_th", ">= 0")), (omega_M, n_th))
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
    model.require_bounds((("C", ">= 0"),), (C,))
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


def make_system(C, r, n_th, ratio, kappa=KAPPA):
    """Two identical units of cooperativity C and gamma = ratio * kappa, and their
    steady states."""
    unit = unit_with_cooperativity(C=C, kappa=kappa, gamma=ratio * kappa, n_th=n_th)
    system = SystemParams(unit1=unit, unit2=unit, bath=SqueezedBath(r=r))
    ss = model.mean_fields_from_effective_detuning(unit, -unit.mirror.omega_M)
    return system, (ss, ss)


def asymmetric_system(C1, C2, ratio1, ratio2, kappa_ratio, n1, n2, r):
    """Two units of their own C, gamma/kappa and n_th, unit 2 at kappa_ratio * KAPPA,
    and their steady states."""
    u1 = unit_with_cooperativity(C=C1, kappa=KAPPA, gamma=ratio1 * KAPPA, n_th=n1)
    kappa2 = kappa_ratio * KAPPA
    u2 = unit_with_cooperativity(C=C2, kappa=kappa2, gamma=ratio2 * kappa2, n_th=n2)
    steady = tuple(model.mean_fields_from_effective_detuning(u, -u.mirror.omega_M)
                   for u in (u1, u2))
    return SystemParams(u1, u2, SqueezedBath(r=r)), steady


def system_units(system, steady):
    """Each unit's record (gamma, kappa, G, n_th), as every route takes it."""
    return list(map(model.unit_record, (system.unit1, system.unit2), steady))


SYSTEM_ARGS = st.tuples(
    st.floats(0.0, 1e3), st.floats(0.0, 1e3),  # C1, C2
    st.floats(1e-6, 1.0), st.floats(1e-6, 1.0),  # gamma/kappa of each unit
    st.floats(0.1, 10.0),  # kappa2/kappa1
    st.floats(0.0, 50.0), st.floats(0.0, 50.0),  # n_th of each unit
    st.floats(0.0, 3.0),  # r
)

#: arguments of :func:`asymmetric_system`
SPECTRAL_CASES = [
    (0.0, 0.0, 0.01, 0.01, 1.0, 3.0, 3.0, 0.0),  # decoupled thermal mirrors
    (15.0, 15.0, 1e-6, 1e-6, 1.0, 5.0, 5.0, 1.0),  # adiabatic, identical
    (90.0, 90.0, 0.05, 0.05, 1.0, 10.0, 10.0, 2.0),
    (15.0, 40.0, 0.01, 0.02, 1.7, 5.0, 2.0, 1.0),  # asymmetric units
    (0.5, 300.0, 0.3, 1e-4, 0.2, 0.0, 30.0, 2.5),
    (900.0, 2.0, 1.0, 0.05, 6.0, 40.0, 0.5, 0.3),
]


#: the oracle's four drift blocks, as pairs (p, p) of blocks
DRIFT_BLOCKS = [(p, p) for p in range(len(oracle._BLOCKS))]


def rows_of(M, pairs=oracle._PAIRS):
    """The rows ``(4, k, ...)`` of entries 00, 01, 10, 11 of the pairs of blocks ``pairs``
    of the 8x8 matrices ``M`` ``(..., 8, 8)``, as the oracle's kernel takes them."""
    return np.array([[M[..., oracle._BLOCKS[p][i], oracle._BLOCKS[q][j]] for p, q in pairs]
                     for i in (0, 1) for j in (0, 1)])


def matrix_of(rows, pairs=oracle._PAIRS):
    """The 8x8 matrices ``(..., 8, 8)`` holding the rows ``(4, k, ...)`` of the pairs of
    blocks ``pairs`` and zero elsewhere: a dense reference. A cross pair is written
    with its transpose, as a symmetric D or V holds it; A has no cross pairs."""
    M = np.zeros(np.shape(rows)[2:] + (8, 8))
    for e, (i, j) in enumerate(((0, 0), (0, 1), (1, 0), (1, 1))):
        for k, (p, q) in enumerate(pairs):
            r, c = oracle._BLOCKS[p][i], oracle._BLOCKS[q][j]
            M[..., r, c] = rows[e][k]
            if p != q:
                M[..., c, r] = rows[e][k]
    return M
