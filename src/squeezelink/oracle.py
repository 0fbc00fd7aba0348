"""Independent numerical ground truth for the entanglement measures.

Builds the linearized red-detuned rotating-frame system as an
eight-dimensional linear stochastic model, solves its steady-state
covariance from the Lyapunov equation, and (separately) integrates the
symmetrized noise spectra over frequency. Both routes are independent of
the closed-form expressions in :mod:`squeezelink.closedform` and are used
to validate them, and both run on numpy alone.

The quadrature ordering is fixed everywhere:
``(X1, Y1, x1, y1, X2, Y2, x2, y2)`` -- mirror then field quadratures of
unit 1, then unit 2. Uppercase denotes mirror, lowercase field.

In the rotating-wave model the X quadratures ``QUADRATURES[::2]`` never
couple with the Y quadratures ``QUADRATURES[1::2]``, and the units couple
only through the bath's x1-x2 and y1-y2 terms of D; so A is block diagonal
in the 2x2 drift blocks (X1, x1), (X2, x2), (Y1, y1), (Y2, y2), and V and D
live on the pairs of blocks within X and within Y. The model fixes this
split, and the solver works on it as rows of entries 00, 01, 10, 11 of the
four drift blocks and of D's six block pairs; with the transposes of the
cross pairs, these are every entry of A and D that the model can make
nonzero. :func:`_model_rows` writes those rows straight
from each unit's (gamma, kappa, G, n_th) and the bath's N and M;
:func:`build_rwa_drift_diffusion_stack` scatters the same rows into 8x8 A
and D, and :func:`build_rwa_drift_diffusion` calls it on one system's floats.
One kernel, :func:`_solve_split`, solves the rows elementwise over a stack,
with no LAPACK call: stability from each block's trace and determinant, the
2x2 Sylvester equation of each pair (Y is never derived from X) in closed
form, ``0.5 V + 0.5 V^T``, and a residual gate that holds each pair to its
own bound and the whole to the 8x8 bound ``1e-10 ||D||``. Each block pair is
scaled by powers of two so that no product overflows, and a system's bits
do not depend on its stack. :func:`covariance_chunks` runs the kernel on the
rows of parameter arrays, ``STACK_CHUNK`` systems at a time, for the sweeps
and the selfcheck grids alike, and forms no 8x8 A or D;
:func:`solve_lyapunov_stack` gathers the rows of an explicit 8x8 split stack
and runs the same kernel, so both routes give the same bits. Only generic
stacks take the eigenvalues and a Kronecker LU solve.
:func:`solve_lyapunov` returns one system's 8x8 covariance V as a plain
array, which :func:`duan_from_covariance` reads; a Duan variance whose
terms cancel past ``_CANCELLATION_TOL`` of relative error raises instead.
:func:`spectral_duan_sum_stack` takes the same arguments as the builder and
integrates the spectra of a whole stack in closed form: each term is
``|B/A|^2`` of a Hurwitz A, whose integral over frequency is the table's
I_2 or I_4 (James, Nichols & Phillips 1947; Astrom 1970, ch. 5), written in
sums of non-negative terms of the rates.

Noise normalization (derivation note in ``docs/noise_conventions.md``):
with symmetrized white-noise correlators ``<n_i(t) n_j(t')>_sym = D_ij
delta(t - t')``, the decoupled (G = 0) steady state has mirror quadrature
variance ``n_th + 1/2`` and field quadrature variance ``N + 1/2``, which
pins the diffusion matrix used here.
"""

from __future__ import annotations

import functools
import math
import warnings

from ._lazy import lazy_import
from .closedform import _CANCELLATION_TOL, DuanResult, _require_digits, require_totals
from .model import (Record, StabilityReport, SteadyState, SystemParams, UnstableDrift,
                    raise_for_first, stability_check)

np = lazy_import("numpy")

QUADRATURES = ("X1", "Y1", "x1", "y1", "X2", "Y2", "x2", "y2")
IDX = {name: i for i, name in enumerate(QUADRATURES)}

#: systems per stacked Lyapunov solve; bounds the stack's working memory
STACK_CHUNK = 256

#: the model's 2x2 drift blocks (X1, x1), (X2, x2), (Y1, y1), (Y2, y2) as indices
#: into QUADRATURES, and the pairs (p, q) of blocks, within X and within Y, whose
#: covariance blocks the split solves
_BLOCKS = ((0, 2), (4, 6), (1, 3), (5, 7))
_PAIRS = ((0, 0), (0, 1), (1, 1), (2, 2), (2, 3), (3, 3))


def _at(pairs, transposed=False):
    """Flat 8x8 positions of entries 00, 01, 10, 11 of each pair of blocks (or
    of its transpose), entry by entry, as the rows ``(4, k)`` flatten."""
    return [8 * _BLOCKS[q][j] + _BLOCKS[p][i] if transposed else
            8 * _BLOCKS[p][i] + _BLOCKS[q][j]
            for i in (0, 1) for j in (0, 1) for p, q in pairs]


#: where the rows of the drift blocks and of the pairs sit in the 8x8 matrices
#: (D and V, being symmetric, also hold each pair's transpose), and the
#: positions that a split stack holds at zero
_DRIFT_AT = _at([(p, p) for p in range(len(_BLOCKS))])
_PAIR_AT = _at(_PAIRS)
_SYMMETRIC_AT = _PAIR_AT + _at(_PAIRS, transposed=True)
_OFF_DRIFT = sorted(set(range(64)).difference(_DRIFT_AT))
_OFF_PAIRS = sorted(set(range(64)).difference(_SYMMETRIC_AT))
#: 0.5 V + 0.5 V^T on the pair rows: entry 01 meets 10 on the diagonal pairs,
#: and every entry itself on the cross pairs
_TRANSPOSED = [len(_PAIRS) * (e if p != q else (0, 2, 1, 3)[e]) + k
               for e in range(4) for k, (p, q) in enumerate(_PAIRS)]


class RwaViolation(UserWarning):
    """Operating point is not at the red sideband delta_eff = -omega_M."""


class DriftDiffusion(Record):
    """Drift matrix A and symmetrized diffusion matrix D (both 8x8, 1/s)."""

    A: np.ndarray
    D: np.ndarray


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
    A, D = build_rwa_drift_diffusion_stack(
        *((u.mirror.gamma, u.resonator.kappa, ss.G, ss.n_th) for u, ss in zip(units, steady)),
        system.bath.N, system.bath.M_corr,
    )
    return DriftDiffusion(A=A, D=D)


def build_rwa_drift_diffusion_stack(unit1, unit2, N, M) -> tuple[np.ndarray, np.ndarray]:
    """Drift and diffusion stacks ``(..., 8, 8)`` of the model over parameter arrays.

    ``unit1`` and ``unit2`` are each unit's ``(gamma, kappa, G, n_th)``; these
    and the bath's ``N`` and ``M`` (``M_corr``) broadcast together, and their
    shape is the stack's. Floats give one 8x8 pair. The entries are those of
    :func:`_model_rows`, so they do not depend on the route.
    """
    drift, diffusion = _model_rows(unit1, unit2, N, M)
    return _matrices(drift, _DRIFT_AT), _matrices(np.concatenate([diffusion, diffusion]),
                                                  _SYMMETRIC_AT)


def _model_rows(unit1, unit2, N, M) -> tuple[np.ndarray, np.ndarray]:
    """The model's drift blocks ``_BLOCKS`` and diffusion pairs ``_PAIRS`` as rows.

    Takes the arguments of :func:`build_rwa_drift_diffusion_stack` and returns
    arrays ``(4, 4, ...)`` and ``(4, 6, ...)`` over their broadcast shape: entry
    00, 01, 10 or 11, then block or pair. These are the only entries of A and D
    that the model does not hold at zero.
    """
    shape = np.broadcast(*unit1, *unit2, N, M).shape
    drift, diffusion = np.zeros((4, len(_BLOCKS)) + shape), np.zeros((4, len(_PAIRS)) + shape)
    for j, (gamma, kappa, G, n_th) in enumerate((unit1, unit2)):
        # X' = -gamma/2 X + G x ; x' = -kappa/2 x - G X (same for Y, y); unit
        # j's blocks are j (X) and j + 2 (Y), and its own pairs 2j and 2j + 3
        block, own = drift[:, j::2], diffusion[:, 2 * j::3]
        block[0], block[1], block[2], block[3] = -gamma / 2.0, G, -G, -kappa / 2.0
        own[0], own[3] = gamma * (2.0 * n_th + 1.0) / 2.0, kappa * (2.0 * N + 1.0) / 2.0

    # squeezed-bath cross correlations: only x1-x2 (+) and y1-y2 (-); an
    # overflow shows as a non-finite entry, which the solve reports
    with np.errstate(over="ignore"):
        kgm = np.sqrt(unit1[1] * unit2[1]) * M
    diffusion[3, 1], diffusion[3, 4] = kgm, -kgm
    return drift, diffusion


def _matrices(rows: np.ndarray, at) -> np.ndarray:
    """8x8 matrices ``(..., 8, 8)`` holding the rows ``(m, k, ...)`` at the flat
    positions ``at`` and zero elsewhere, in one scatter."""
    shape = rows.shape[2:]
    M = np.zeros((64,) + shape)
    M[at] = rows.reshape((-1,) + shape)
    return np.ascontiguousarray(M.reshape(64, -1).T).reshape(shape + (8, 8))


def _rows(M: np.ndarray, at) -> np.ndarray:
    """The entries ``(4, k, B)`` of the 8x8 stack ``M`` at the flat positions ``at``."""
    return M.reshape(len(M), 64)[:, at].T.reshape(4, -1, len(M))


def covariance_chunks(unit1, unit2, N, M) -> Iterator[np.ndarray]:
    """Covariance stacks of the model over parameter arrays, ``STACK_CHUNK`` systems each.

    The arguments are those of :func:`build_rwa_drift_diffusion_stack`; they
    broadcast together and the systems come in flat order. No 8x8 A or D is
    formed: each chunk's drift blocks and diffusion pairs are written as rows
    by :func:`_model_rows` and solved by :func:`_solve_split`, the kernel that
    :func:`solve_lyapunov_stack` runs on a split stack, which holds each block
    pair's residual to its own bound and the whole to the 8x8 bound
    ``1e-10 ||D||``. So a system's V is the same bits by either route, and
    errors name the stack index within the chunk. Each input is sliced chunk
    by chunk, so no broadcast input, such as a scalar kappa, is copied out to
    the stack's size.
    """
    inputs = np.broadcast_arrays(*unit1, *unit2, N, M)
    size = inputs[0].size
    inputs = [x.flat for x in inputs]  # a .flat slice copies its chunk alone
    for start in range(0, size, STACK_CHUNK):
        c = [x[start:start + STACK_CHUNK] for x in inputs]
        yield _solve_split(*_model_rows(c[:4], c[4:8], c[8], c[9]))


def duan_variance_arrays(unit1, unit2, N, M, pair: str = "mirror"
                         ) -> tuple[np.ndarray, np.ndarray]:
    """``(var_X, var_Y)`` of the pair's Lyapunov covariances over parameter arrays.

    Takes the arguments of :func:`build_rwa_drift_diffusion_stack`; the
    variances come in flat order, each chunk of :func:`covariance_chunks` read
    by :func:`duan_from_covariance_stack`, whose errors name the stack index
    within the chunk.
    """
    var_X, var_Y = zip(*(duan_from_covariance_stack(V, pair)
                         for V in covariance_chunks(unit1, unit2, N, M)))
    return np.concatenate(var_X), np.concatenate(var_Y)


def solve_lyapunov(dd: DriftDiffusion) -> np.ndarray:
    """The 8x8 steady-state covariance V from A V + V A^T + D = 0 (a stack of one)."""
    A, D = np.asarray(dd.A, dtype=float), np.asarray(dd.D, dtype=float)
    return solve_lyapunov_stack(A[None], D[None])[0]


def solve_lyapunov_stack(A: np.ndarray, D: np.ndarray) -> np.ndarray:
    """Steady-state covariances ``V[b]`` from ``A[b] V + V A[b]^T + D[b] = 0``.

    ``A`` and ``D`` are stacks of shape ``(B, n, n)``. Every drift matrix
    must be stable. An 8 x 8 stack whose ``A`` is zero outside the model's
    drift blocks and whose symmetric ``D`` is zero between X and Y takes the
    split: its block entries are gathered as rows and solved by
    :func:`_solve_split`, the kernel of :func:`covariance_chunks`, whose
    residual gate holds each block pair to its own bound (see
    :func:`_split_residual`) as well as the whole to the 8x8 one. Any other
    stack gets :func:`stability_check`, the full n^2-unknown LU solve and
    ``0.5 V + 0.5 V^T``, and each item must then satisfy the full equation to
    ``1e-10 * ||D[b]||``, checked on V and D divided by ``max |D[b]|`` so that
    the norms cannot overflow. A non-finite A, D or V raises
    ``FloatingPointError``. Errors name the stack index.
    """
    A, D = np.asarray(A, dtype=float), np.asarray(D, dtype=float)
    if A.ndim != 3 or A.shape != D.shape:
        raise ValueError(
            f"need stacks A and D of equal shape (B, n, n), got {A.shape} and {D.shape}"
        )
    if A.shape[1:] == (8, 8) and not (
            A.reshape(-1, 64)[:, _OFF_DRIFT].any() or D.reshape(-1, 64)[:, _OFF_PAIRS].any()
            or (D != D.transpose(0, 2, 1)).any()):
        return _solve_split(_rows(A, _DRIFT_AT), _rows(D, _PAIR_AT))
    _require_finite("drift or diffusion matrix", A.T, D.T)  # items on the last axis
    _require_stable(stability_check(A))
    V = _kronecker_solve(A, A, D)
    V = 0.5 * V + 0.5 * V.transpose(0, 2, 1)  # halved first, so the sum cannot overflow
    _require_finite("Lyapunov solution", V.T)
    scale = np.abs(D).max(axis=(1, 2), keepdims=True)
    scale[scale == 0.0] = 1.0
    Vs, Ds = V / scale, D / scale
    residual = np.linalg.norm(A @ Vs + Vs @ A.transpose(0, 2, 1) + Ds, axis=(1, 2))
    _require_residual(residual[None], _bound(np.linalg.norm(Ds, axis=(1, 2)))[None])
    return V


def _solve_split(drift: np.ndarray, diffusion: np.ndarray) -> np.ndarray:
    """The covariance stack ``(B, 8, 8)`` of a split system from its rows.

    ``drift`` holds the rows ``(4, 4, B)`` of the drift blocks ``_BLOCKS`` and
    ``diffusion`` those ``(4, 6, B)`` of D's pairs ``_PAIRS``. The kernel checks
    that they are finite and that every block is stable
    (:func:`_split_stability`), solves ``A_p W_pq + W_pq A_q^T + D_pq = 0`` for
    every pair by :func:`_sylvester_2x2`, with no LAPACK call, and forms
    ``0.5 V + 0.5 V^T`` on the rows. The residual gate (:func:`_split_residual`)
    then holds each pair to its own bound and the whole to the 8x8 one. Only
    the result is assembled into 8x8 matrices.
    """
    _require_finite("drift or diffusion matrix", drift, diffusion)
    _require_stable(_split_stability(drift))
    p, q = zip(*_PAIRS)
    A, C = drift[:, p], drift[:, q]  # the rows of A_p and A_q, pair by pair
    W = _sylvester_2x2(A.reshape(4, -1), C.reshape(4, -1), diffusion.reshape(4, -1))
    half = 0.5 * W.reshape(4 * len(_PAIRS), -1)  # halved first, so the sum cannot overflow
    V = (half + half[_TRANSPOSED]).reshape(diffusion.shape)
    _require_finite("Lyapunov solution", V)
    _require_residual(*_split_residual(A, C, diffusion, V))
    return _matrices(np.concatenate([V, V]), _SYMMETRIC_AT)


def _split_residual(A: np.ndarray, C: np.ndarray, D: np.ndarray, V: np.ndarray):
    """Residual norms ``(7, B)`` of the split and their bounds, from the rows
    ``(4, 6, B)`` of each pair's ``A_p``, ``A_q``, ``D_pq`` and ``V_pq``.

    Rows 0 to 5 are the pairs: ``||A_p V_pq + V_pq A_q^T + D_pq||`` against
    ``1e-10 (||D_pq|| + ||A_p|| ||V_pq|| + ||V_pq|| ||A_q||)``, raised by
    ``1e-310 (1 + ||A_p|| + ||A_q||)``, the reach of the subnormal spacing in
    a pair that is nothing beside its system. Row 6 is the 8x8 residual
    against ``1e-10 ||D||``, each cross pair counted twice, as the 8x8
    matrix holds it and its transpose. V and D are divided by ``max |D|`` of
    their system first, so that the norms cannot overflow. Norms are
    Frobenius, and the products are 2x2 ones.
    """
    scale = np.abs(D).max(axis=(0, 1))
    scale[scale == 0.0] = 1.0
    A, C, V, D = (x.reshape(2, 2, -1) for x in (A, C, V / scale, D / scale))
    R = np.einsum("ikm,kjm->ijm", A, V) + np.einsum("ikm,jkm->ijm", V, C) + D
    R2, D2, V2, A2, C2 = (np.einsum("ijm,ijm->m", x, x).reshape(len(_PAIRS), -1)
                          for x in (R, D, V, A, C))
    A_pq = np.sqrt(A2) + np.sqrt(C2)
    twice = np.array([1.0 + (i != j) for i, j in _PAIRS])
    residual = np.vstack([np.sqrt(R2), np.sqrt(twice @ R2)])
    # ||A_p|| ||V_pq|| is 0 where V_pq = 0, also where ||A_p||^2 overflows to inf
    AV = np.multiply(A_pq, np.sqrt(V2), out=np.zeros_like(A_pq), where=V2 != 0.0)
    bound = np.vstack([1e-10 * (np.sqrt(D2) + AV + 1e-300 * (1.0 + A_pq)),
                       _bound(np.sqrt(twice @ D2))])
    return residual, bound


def _bound(D_norm: np.ndarray) -> np.ndarray:
    """The 8x8 gate's bound ``1e-10 ||D||`` on D divided by ``max |D|``."""
    return 1e-10 * np.maximum(D_norm, 1e-300)


def _require_residual(residual: np.ndarray, bound: np.ndarray):
    """Raise unless every residual is within its bound; both are ``(k, B)``, and
    the error names the item that exceeds a bound by the largest factor."""
    ratio = residual / bound
    worst = int(np.argmax(ratio.max(axis=0)))
    if not (residual[:, worst] <= bound[:, worst]).all():
        k = int(np.argmax(ratio[:, worst]))
        raise UnstableDrift(
            f"Lyapunov residual {residual[k, worst]:g} at stack index {worst} exceeds "
            "tolerance; system nearly singular"
        )


def _require_stable(report: StabilityReport):
    if not report.stable:
        raise UnstableDrift(
            f"drift matrix is not stable (max Re eigenvalue = "
            f"{report.max_real_part:g} at stack index {report.worst_index[0]})"
        )


def _require_finite(what: str, *stacks: np.ndarray):
    """Raise for the first item (along the last axis) with a non-finite entry."""
    for x in stacks:
        finite = np.isfinite(x).reshape(-1, x.shape[-1]).all(axis=0)
        if not finite.all():
            raise FloatingPointError(
                f"{what} is not finite at stack index {int(np.argmin(finite))}")


def _entries(*rows: np.ndarray):
    """The rows ``(4, m)`` of entries 00, 01, 10, 11 of 2x2 blocks, each item
    scaled by ``2**-e`` with ``e`` the exponent of its largest entry over all
    the stacks; returns the rows and ``e``."""
    e = np.frexp(functools.reduce(np.maximum, [np.abs(x).max(axis=0) for x in rows]))[1]
    return [np.ldexp(x, -e) for x in rows], e


def _split_stability(drift: np.ndarray) -> StabilityReport:
    """:func:`stability_check`'s report on a split stack, from its drift block rows.

    A 2x2 block is stable when its trace is negative and its determinant
    positive. With ``h = tr/2``, a real pair of eigenvalues is
    ``q = h + sign(h) sqrt(disc)`` and ``det / q``, which unlike
    ``h - sign(h) sqrt(disc)`` does not cancel when the block is overdamped.
    Each block is scaled by a power of two first, so that no product
    overflows.
    """
    ((a, b, c, d),), e = _entries(drift.reshape(4, -1))
    h, det = (a + d) / 2.0, a * d - b * c
    disc = ((a - d) / 2.0) ** 2 + b * c
    q = h + np.copysign(np.sqrt(np.fmax(disc, 0.0)), h)  # the real root of larger size
    real = np.fmax(q, np.divide(det, q, out=np.zeros_like(q), where=q != 0.0))
    max_re = np.ldexp(np.where(disc < 0.0, h, real), e).reshape(drift.shape[1], -1).max(axis=0)
    worst = int(np.argmax(max_re))
    return StabilityReport(stable=bool(((h < 0.0) & (det > 0.0)).all()),
                           max_real_part=float(max_re[worst]), worst_index=(worst,))


def _sylvester_2x2(A: np.ndarray, C: np.ndarray, D: np.ndarray) -> np.ndarray:
    """Solve ``A W + W C^T + D = 0`` in closed form for 2 x 2 blocks given as rows.

    Each argument and the result hold the rows ``(4, m)`` of entries 00, 01,
    10, 11 of m blocks. With ``B = C^T`` and ``Q = -D``, Cayley-Hamilton for B
    gives ``(A^2 + tr(B) A + det(B) I) W = A Q - Q B + tr(B) Q``, and for A
    turns the left matrix into ``(tr A + tr B) A + (det B - det A) I``, whose
    explicit inverse gives W. A and C of each item are scaled by one power of
    two and D by another, so that no product overflows; both scalings are
    exact and are undone on W. A non-finite W is left to the caller.
    """
    ((a, b, c, d), (e, g, f, h)), eA = _entries(A, C)  # B = [[e, f], [g, h]]
    ((q11, q12, q21, q22),), eD = _entries(-D)
    t, k = a + d + e + h, (e * h - f * g) - (a * d - b * c)
    r11 = (a + h) * q11 + b * q21 - g * q12
    r12 = (a + e) * q12 + b * q22 - f * q11
    r21 = (d + h) * q21 + c * q11 - g * q22
    r22 = (d + e) * q22 + c * q12 - f * q21
    m11, m12, m21, m22 = t * a + k, t * b, t * c, t * d + k
    W = np.array([m22 * r11 - m12 * r21, m22 * r12 - m12 * r22,
                  m11 * r21 - m21 * r11, m11 * r22 - m21 * r12])
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        return np.ldexp(W / (m11 * m22 - m12 * m21), eD - eA)


def _kronecker_solve(A: np.ndarray, C: np.ndarray, D: np.ndarray) -> np.ndarray:
    """Solve ``A V + V C^T + D = 0`` as ``(A (x) I + I (x) C) vec V = -vec D``
    for a stack of m x m blocks."""
    B, m, _ = A.shape
    # K[b, (i, k), (j, l)] = delta_ij C[b, k, l] + A[b, i, j] delta_kl, filled
    # in place so that no temporary of K's size is made
    K = np.zeros((B, m, m, m, m))
    diag = np.arange(m)
    K[:, diag, :, diag, :] = C
    K[:, :, diag, :, diag] += A
    rhs = -D.reshape(B, m * m, 1)
    return np.linalg.solve(K.reshape(B, m * m, m * m), rhs).reshape(B, m, m)


def duan_from_covariance(V: np.ndarray, pair: str = "mirror") -> DuanResult:
    """Variances of the joint EPR quadratures (u1 - u2, v1 + v2) from the 8x8 V."""
    var_X, var_Y = _duan_variances(V, pair)
    return DuanResult(var_X=float(var_X), var_Y=float(var_Y))


def duan_from_covariance_stack(
    V: np.ndarray, pair: str = "mirror"
) -> tuple[np.ndarray, np.ndarray]:
    """``(var_X, var_Y)`` of :func:`duan_from_covariance` over a stack ``(..., 8, 8)``.

    Every total passes :class:`DuanResult`'s check, or the first that fails raises.
    """
    var_X, var_Y = _duan_variances(V, pair)
    require_totals(var_X + var_Y)
    return var_X, var_Y


_PAIR_INDICES = {pair: tuple(IDX[q] for q in names) for pair, names in
                 (("mirror", ("X1", "Y1", "X2", "Y2")), ("field", ("x1", "y1", "x2", "y2")))}


def _duan_variances(V: np.ndarray, pair: str):
    """``(var_X, var_Y)`` of the pair from V (one matrix or a stack).

    Each variance sums three covariances, which cancel as the squeezing
    grows. Its relative rounding error is estimated as ``ulp(1) (|V_11| +
    |V_22| + 2 |V_12|) / |var|``; where that exceeds ``_CANCELLATION_TOL``
    the first such item raises ``FloatingPointError`` naming the estimate,
    rather than letting cancelled digits decide a verdict.
    """
    if pair not in _PAIR_INDICES:
        raise ValueError(f"pair must be 'mirror' or 'field', got {pair!r}")
    X1, Y1, X2, Y2 = _PAIR_INDICES[pair]
    var_X = V[..., X1, X1] + V[..., X2, X2] - 2.0 * V[..., X1, X2]
    var_Y = V[..., Y1, Y1] + V[..., Y2, Y2] + 2.0 * V[..., Y1, Y2]
    with np.errstate(all="ignore"):  # 0/0 is no estimate; a NaN V fails the total check
        lost = np.fmax(*(math.ulp(1.0) * (abs(V[..., a, a]) + abs(V[..., b, b])
                                          + 2.0 * abs(V[..., a, b])) / abs(var)
                         for a, b, var in ((X1, X2, var_X), (Y1, Y2, var_Y))))
    raise_for_first(np.asarray(lost > _CANCELLATION_TOL), _require_digits, lost)
    return var_X, var_Y


def spectral_duan_sum(system: SystemParams, steady: tuple[SteadyState, SteadyState],
                      pair: str = "mirror") -> float:
    """Joint-quadrature variance sum by frequency-domain integration (a stack of one)."""
    units = [(u.mirror.gamma, u.resonator.kappa, ss.G, ss.n_th)
             for u, ss in zip((system.unit1, system.unit2), steady)]
    return float(spectral_duan_sum_stack(*units, system.bath.N, system.bath.M_corr, pair))


def spectral_duan_sum_stack(unit1, unit2, N, M, pair: str = "mirror") -> np.ndarray:
    """Joint-quadrature variance sums by frequency-domain integration, over parameter arrays.

    Takes the arguments of :func:`build_rwa_drift_diffusion_stack`; the result
    has their broadcast shape. With ``d_j = G_j^2 + (gamma_j/2 + iw)(kappa_j/2 + iw)``
    the total is 1/pi times the integral over all w of the non-negative
    ``sum_j (2 n_th_j + 1) |b_j|^2 / 2 + (e^{2r} |a1 - a2|^2 + e^{-2r} |a1 + a2|^2) / 4``,
    where ``e^{2r} = 2N + 1 + 2M`` and, for the mirrors (the fields),
    ``a_j = G_j sqrt(kappa_j) / d_j`` (``sqrt(kappa_j) (gamma_j/2 + iw) / d_j``) and
    ``b_j = sqrt(gamma_j) (kappa_j/2 + iw) / d_j`` (``G_j sqrt(gamma_j) / d_j``).

    In ``s = iw`` each term is ``|B(s) / A(s)|^2`` with Hurwitz ``A = d_j`` or
    ``d_1 d_2``, whose integral is the table's I_2 (:func:`_i2`) or I_4
    (:func:`_i4`) in closed form. The arithmetic is elementwise, so a system's
    bits do not depend on its stack. A non-finite or negative total, as a NaN
    or negative rate gives, raises what :func:`duan_from_covariance_stack` raises.
    """
    if pair not in _PAIR_INDICES:
        raise ValueError(f"pair must be 'mirror' or 'field', got {pair!r}")
    with np.errstate(all="ignore"):  # a NaN or negative rate shows in the total
        total, squeezed = 0.0, []
        for g, k, G, n_th in (unit1, unit2):
            g, k, G, n_th = (np.asarray(x, dtype=float) for x in (g, k, G, n_th))
            # d_j = s^2 + p s + q, and the numerators (s, 1 coefficients) of a_j and b_j
            p, q, sg, sk = (g + k) / 2.0, G * G + g * k / 4.0, np.sqrt(g), np.sqrt(k)
            a, b = ((0.0, G * sk), (sg, sg * k / 2.0)) if pair == "mirror" else (
                (sk, sk * g / 2.0), (0.0, G * sg))
            total = total + (2.0 * n_th + 1.0) * _i2(b, p, q) / 2.0
            squeezed.append((a, p, q))
        e2r = 2.0 * np.asarray(N, dtype=float) + 1.0 + 2.0 * np.asarray(M, dtype=float)
        total = total + (e2r * _i4(*squeezed, -1.0) + _i4(*squeezed, 1.0) / e2r) / 4.0
    return require_totals(total)


def _i2(n, p, q):
    """1/pi times the integral over all w of ``|(n1 s + n0) / (s^2 + p s + q)|^2``
    at ``s = iw``, with ``n = (n1, n0)``: the table's I_2."""
    n1, n0 = n
    return (n1 * n1 + n0 * n0 / q) / p


def _i4(unit1, unit2, sign):
    """1/pi times the integral over all w of ``|a_1 + sign a_2|^2``: the table's I_4.

    Each unit is ``(n, p, q)`` with ``a_j = (n1 s + n0) / d_j`` and ``d_j = s^2
    + p s + q`` at ``s = iw``. Then ``a_1 + sign a_2 = B / A`` with ``A = d_1
    d_2 = s^4 + A3 s^3 + A2 s^2 + A1 s + A0`` and ``B = n_1 d_2 + sign n_2 d_1 =
    c3 s^3 + c2 s^2 + c1 s + c0``, and the integral is ``(c3^2 (A1 A2 - A0 A3)
    + (c2^2 - 2 c1 c3) A1 + (c1^2 - 2 c0 c2) A3 + c0^2 (A2 A3 - A1) / A0) / H``
    with the Hurwitz determinant ``H = A1 A2 A3 - A0 A3^2 - A1^2``. In p and q,
    H and both coefficient sums are sums of non-negative terms, and the
    numerator regroups as the squares below: only the differences inside the
    squares cancel, not the sum (``docs/noise_conventions.md``).
    """
    (n_1, p1, q1), (n_2, p2, q2) = unit1, unit2
    c3, c2, c1, c0 = (x + sign * y for x, y in zip(_times(n_1, p2, q2), _times(n_2, p1, q1)))
    sq = np.square
    hurwitz = p1 * p2 * (sq(q1 - q2) + (p1 + p2) * (p1 * q2 + p2 * q1))
    num = (p1 * sq(c3 * q2 - c1) + p2 * sq(c3 * q1 - c1)
           + p1 * sq(c2 * q2 - c0) / q2 + p2 * sq(c2 * q1 - c0) / q1
           + p1 * p2 * (sq(c3) * (p1 * q2 + p2 * q1) + sq(c0) * (p1 + p2) / (q1 * q2)))
    return num / hurwitz


def _times(n, p, q):
    """The coefficients of ``s^3, s^2, s, 1`` in ``(n1 s + n0)(s^2 + p s + q)``."""
    n1, n0 = n
    return n1, n1 * p + n0, n1 * q + n0 * p, n0 * q
