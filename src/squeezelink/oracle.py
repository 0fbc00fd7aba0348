"""Independent numerical ground truth for the entanglement measures.

Builds the linearized red-detuned rotating-frame system as an
eight-dimensional linear stochastic model, solves its steady-state
covariance from the Lyapunov equation, and (separately) integrates the
symmetrized noise spectra over frequency. Both routes are independent of
the closed-form expressions in :mod:`squeezelink.closedform` and are used
to validate them.

The quadrature ordering is fixed everywhere:
``(X1, Y1, x1, y1, X2, Y2, x2, y2)`` -- mirror then field quadratures of
unit 1, then unit 2. Uppercase denotes mirror, lowercase field.

In the rotating-wave model the X quadratures ``(X1, x1, X2, x2)`` and the
Y quadratures ``(Y1, y1, Y2, y2)`` never couple: every entry of A and D
between the two sets is exactly zero. The Lyapunov equation therefore
splits into two decoupled 4x4 blocks of 16 unknowns each, in place of one
8x8 system of 64. :func:`solve_lyapunov_stack` finds the blocks from the
nonzero pattern, solves each on its own (Y is never derived from X) and
solves a whole stack of systems per call; a generic drift matrix forms a
single block and gets the full solve.

Noise normalization (derivation note in ``docs/noise_conventions.md``):
with symmetrized white-noise correlators ``<n_i(t) n_j(t')>_sym = D_ij
delta(t - t')``, the decoupled (G = 0) steady state has mirror quadrature
variance ``n_th + 1/2`` and field quadrature variance ``N + 1/2``, which
pins the diffusion matrix used here.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .closedform import DuanResult
from .model import SteadyState, SystemParams, stability_check

QUADRATURES = ("X1", "Y1", "x1", "y1", "X2", "Y2", "x2", "y2")
IDX = {name: i for i, name in enumerate(QUADRATURES)}


class UnstableDrift(RuntimeError):
    """The drift matrix has an eigenvalue with non-negative real part."""


class RwaViolation(UserWarning):
    """Operating point is not at the red sideband delta_eff = -omega_M."""


class QuadratureFailure(RuntimeError):
    """Adaptive spectral integration could not reach the requested tolerance."""


@dataclass(frozen=True)
class DriftDiffusion:
    """Drift matrix A and symmetrized diffusion matrix D (both 8x8, 1/s)."""

    A: np.ndarray
    D: np.ndarray


@dataclass(frozen=True)
class CovarianceMatrix:
    """Symmetrized steady-state quadrature covariance V_ij = <u_i u_j>_sym."""

    V: np.ndarray

    def variance(self, name: str) -> float:
        i = IDX[name]
        return float(self.V[i, i])

    def covariance(self, a: str, b: str) -> float:
        return float(self.V[IDX[a], IDX[b]])


def build_rwa_drift_diffusion(
    system: SystemParams, steady: tuple[SteadyState, SteadyState]
) -> DriftDiffusion:
    """Assemble drift and diffusion of the rotating-frame beam-splitter model."""
    units = (system.unit1, system.unit2)
    for j, (unit, ss) in enumerate(zip(units, steady), start=1):
        target = -unit.mirror.omega_M
        if abs(ss.delta_eff - target) > 1e-6 * abs(target):
            warnings.warn(
                f"unit {j}: delta_eff = {ss.delta_eff:g} is not at the red "
                f"sideband {target:g}; the rotating-wave model does not apply",
                RwaViolation,
                stacklevel=2,
            )

    A = np.zeros((8, 8))
    D = np.zeros((8, 8))
    N, M = system.bath.N, system.bath.M_corr
    for j, (unit, ss) in enumerate(zip(units, steady)):
        o = 4 * j
        gamma, kappa, G = unit.mirror.gamma, unit.resonator.kappa, ss.G
        # X' = -gamma/2 X + G x ; x' = -kappa/2 x - G X (same for Y, y)
        for q in (0, 1):  # X/Y then x/y rows
            A[o + q, o + q] = -gamma / 2.0
            A[o + q, o + q + 2] = G
            A[o + q + 2, o + q + 2] = -kappa / 2.0
            A[o + q + 2, o + q] = -G
        D[o + 0, o + 0] = D[o + 1, o + 1] = gamma * (2.0 * ss.n_th + 1.0) / 2.0
        D[o + 2, o + 2] = D[o + 3, o + 3] = kappa * (2.0 * N + 1.0) / 2.0

    # squeezed-bath cross correlations: only x1-x2 (+) and y1-y2 (-)
    kgm = math.sqrt(units[0].resonator.kappa * units[1].resonator.kappa) * M
    D[IDX["x1"], IDX["x2"]] = D[IDX["x2"], IDX["x1"]] = kgm
    D[IDX["y1"], IDX["y2"]] = D[IDX["y2"], IDX["y1"]] = -kgm
    return DriftDiffusion(A=A, D=D)


def solve_lyapunov(dd: DriftDiffusion) -> CovarianceMatrix:
    """Steady-state covariance from A V + V A^T + D = 0 (a stack of one)."""
    A, D = np.asarray(dd.A, dtype=float), np.asarray(dd.D, dtype=float)
    return CovarianceMatrix(V=solve_lyapunov_stack(A[None], D[None])[0])


def solve_lyapunov_stack(A: np.ndarray, D: np.ndarray) -> np.ndarray:
    """Steady-state covariances ``V[b]`` from ``A[b] V + V A[b]^T + D[b] = 0``.

    ``A`` and ``D`` are stacks of shape ``(B, n, n)``. Every drift matrix
    must be stable. The indices split into the connected components of the
    joint nonzero pattern of all ``A`` and ``D`` in the stack; each
    component's Kronecker system (m^2 unknowns for m indices) is solved for
    the whole stack in one LU call. Each item must then satisfy the full
    n x n equation to ``1e-10 * ||D[b]||``, checked on V and D divided by
    ``max |D[b]|`` so that the norms cannot overflow. A non-finite A, D or
    V raises ``FloatingPointError``. Errors name the stack index.
    """
    A, D = np.asarray(A, dtype=float), np.asarray(D, dtype=float)
    if A.ndim != 3 or A.shape != D.shape:
        raise ValueError(
            f"need stacks A and D of equal shape (B, n, n), got {A.shape} and {D.shape}"
        )
    _require_finite("drift or diffusion matrix", A, D)
    report = stability_check(A)
    if not report.stable:
        raise UnstableDrift(
            f"drift matrix is not stable (max Re eigenvalue = "
            f"{report.max_real_part:g} at stack index {report.worst_index[0]})"
        )
    V = np.zeros_like(D)
    for block in _blocks(A, D):
        rows = block[:, None]
        V[:, rows, block] = _kronecker_solve(A[:, rows, block], D[:, rows, block])
    V = 0.5 * V + 0.5 * V.transpose(0, 2, 1)  # halved first, so the sum cannot overflow
    _require_finite("Lyapunov solution", V)
    scale = np.abs(D).max(axis=(1, 2), keepdims=True)
    scale[scale == 0.0] = 1.0
    Vs, Ds = V / scale, D / scale
    residual = np.linalg.norm(A @ Vs + Vs @ A.transpose(0, 2, 1) + Ds, axis=(1, 2))
    bound = 1e-10 * np.maximum(np.linalg.norm(Ds, axis=(1, 2)), 1e-300)
    worst = int(np.argmax(residual / bound))
    if not residual[worst] <= bound[worst]:
        raise UnstableDrift(
            f"Lyapunov residual {residual[worst]:g} at stack index {worst} exceeds "
            "tolerance; system nearly singular"
        )
    return V


def _require_finite(what: str, *stacks: np.ndarray):
    for x in stacks:
        if not np.isfinite(x).all():
            index = int(np.argmin(np.isfinite(x).all(axis=(1, 2))))
            raise FloatingPointError(f"{what} is not finite at stack index {index}")


def _blocks(A: np.ndarray, D: np.ndarray) -> list[np.ndarray]:
    """Index sets of the connected components of the stack's nonzero pattern."""
    n = A.shape[-1]
    linked = ((A != 0) | (D != 0)).any(axis=0)
    reach = linked | linked.T | np.eye(n, dtype=bool)
    for _ in range(max(n - 1, 1).bit_length()):  # paths of length up to n - 1
        reach = reach @ reach
    blocks: dict[int, list[int]] = {}
    for i, first in enumerate(reach.argmax(axis=1).tolist()):  # by smallest member
        blocks.setdefault(first, []).append(i)
    return [np.array(block) for block in blocks.values()]


def _kronecker_solve(A: np.ndarray, D: np.ndarray) -> np.ndarray:
    """Solve ``(I (x) A + A (x) I) vec V = -vec D`` for a stack of m x m blocks."""
    B, m, _ = A.shape
    # K[b, (i, k), (j, l)] = delta_ij A[b, k, l] + A[b, i, j] delta_kl, filled
    # in place so that no temporary of K's size is made
    K = np.zeros((B, m, m, m, m))
    diag = np.arange(m)
    K[:, diag, :, diag, :] = A
    K[:, :, diag, :, diag] += A
    rhs = -D.reshape(B, m * m, 1)
    return np.linalg.solve(K.reshape(B, m * m, m * m), rhs).reshape(B, m, m)


def duan_from_covariance(V: CovarianceMatrix, pair: str = "mirror") -> DuanResult:
    """Variances of the joint EPR quadratures (u1 - u2, v1 + v2) from V."""
    if pair == "mirror":
        X1, Y1, X2, Y2 = "X1", "Y1", "X2", "Y2"
    elif pair == "field":
        X1, Y1, X2, Y2 = "x1", "y1", "x2", "y2"
    else:
        raise ValueError(f"pair must be 'mirror' or 'field', got {pair!r}")
    var_X = (
        V.variance(X1) + V.variance(X2) - 2.0 * V.covariance(X1, X2)
    )
    var_Y = (
        V.variance(Y1) + V.variance(Y2) + 2.0 * V.covariance(Y1, Y2)
    )
    return DuanResult(var_X=var_X, var_Y=var_Y)


@dataclass(frozen=True)
class QuadratureConfig:
    """Controls for the spectral-density integration."""

    abs_tol: float = 1e-11  # per dimensionless variance integral
    rel_tol: float = 1e-11
    subdivision_limit: int = 400


def spectral_duan_sum(
    system: SystemParams,
    steady: tuple[SteadyState, SteadyState],
    pair: str = "mirror",
    config: QuadratureConfig = QuadratureConfig(),
) -> float:
    """Joint-quadrature variance sum by direct frequency-domain integration.

    The rotating-frame fluctuation equations are solved in Fourier space;
    the symmetrized spectra are integrated over the whole real line after
    compactifying with omega = scale * tan(theta).
    """
    if pair not in ("mirror", "field"):
        raise ValueError(f"pair must be 'mirror' or 'field', got {pair!r}")
    # imported here: scipy.integrate is the package's only scipy import and
    # dominates its import time, and only this route needs it
    from scipy import integrate

    units = (system.unit1, system.unit2)
    p = [
        (u.mirror.gamma, u.resonator.kappa, ss.G, ss.n_th)
        for u, ss in zip(units, steady)
    ]
    N, M = system.bath.N, system.bath.M_corr

    scale = max(max(kappa, gamma, G, gamma / 2.0 + 2.0 * G**2 / kappa)
                for gamma, kappa, G, _ in p) / 2.0

    def kernel(w: float) -> float:
        d = [G**2 + (gamma / 2.0 + 1j * w) * (kappa / 2.0 + 1j * w)
             for gamma, kappa, G, _ in p]
        s = 0.0
        for (gamma, kappa, G, n_th), dj in zip(p, d):
            dd = abs(dj) ** 2
            if pair == "mirror":
                s += (
                    gamma * ((kappa / 2.0) ** 2 + w**2) * (2.0 * n_th + 1.0)
                    + G**2 * kappa * (2.0 * N + 1.0)
                ) / (2.0 * dd)
            else:
                s += (
                    G**2 * gamma * (2.0 * n_th + 1.0)
                    + ((gamma / 2.0) ** 2 + w**2) * kappa * (2.0 * N + 1.0)
                ) / (2.0 * dd)
        (g1, k1, G1, _), (g2, k2, G2, _) = p
        if pair == "mirror":
            num = G1 * G2 * math.sqrt(k1 * k2)
        else:
            num = math.sqrt(k1 * k2) * ((g1 / 2.0 + 1j * w) * (g2 / 2.0 - 1j * w))
        cross = M * (num / (d[0] * np.conj(d[1]))).real
        return s - 2.0 * cross

    def integrand(theta: float) -> float:
        w = scale * math.tan(theta)
        return kernel(w) * scale / math.cos(theta) ** 2

    # place breakpoints at the characteristic linewidths and at the
    # hybridized-mode splitting so the adaptive rule finds narrow features
    features = set()
    for gamma, kappa, G, _ in p:
        for w in (gamma / 2.0, kappa / 2.0, G, gamma / 2.0 + 2.0 * G**2 / kappa):
            if w > 0:
                features.add(math.atan(w / scale))
                features.add(-math.atan(w / scale))
    points = sorted(features)

    try:
        var_X, err = integrate.quad(
            integrand,
            -math.pi / 2.0,
            math.pi / 2.0,
            points=points,
            epsabs=config.abs_tol,
            epsrel=config.rel_tol,
            limit=config.subdivision_limit,
        )
    except ValueError as exc:
        # quadpack rejects tolerances below machine resolution or a
        # subdivision budget smaller than the breakpoint list
        raise QuadratureFailure(f"spectral integration rejected: {exc}") from exc
    var_X /= 2.0 * math.pi
    err /= 2.0 * math.pi
    if err > max(config.abs_tol, config.rel_tol * abs(var_X)) * 10.0:
        raise QuadratureFailure(
            f"spectral integral error estimate {err:g} exceeds tolerance "
            f"(abs={config.abs_tol:g}, rel={config.rel_tol:g})"
        )
    # the Y integrand is identical term by term (cross term flips sign twice)
    return 2.0 * var_X
