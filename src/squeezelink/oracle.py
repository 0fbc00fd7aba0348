"""Independent numerical ground truth for the entanglement measures.

Builds the linearized red-detuned rotating-frame system as an
eight-dimensional linear stochastic model and solves its steady-state
covariance from the Lyapunov equation, on numpy alone. The route shares
no formula with the closed-form expressions in :mod:`squeezelink.closedform`
and is used to validate them.

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
nonzero. :func:`_model_rows` writes those rows straight from each unit's
(gamma, kappa, G, n_th), past the unit gate, and the bath's N and M, and
raises where the bath's field terms overflow a float. One kernel,
:func:`_solve_split`, solves the rows elementwise over a stack, with no
LAPACK call: stability from each block's trace and determinant
(:func:`model.stability_check`), the 2x2 Sylvester equation of each pair (Y is
never derived from X) in closed form, ``0.5 V + 0.5 V^T``, and a residual gate
that holds each pair to its own bound and the whole to the 8x8 bound
``1e-10 ||D||``. Each block pair is scaled by powers of two so that no product
overflows, and a system's bits do not depend on its stack; the pairs' scales
and the norms of their drift blocks come from the four blocks, once. The
Sylvester solves, and then the residual gate, each gather the pairs' drift
rows into one work array of their own and work them there in place; no
gathered copy outlives its work array, so that a chunk of ``STACK_CHUNK``
(1024) systems peaks at about 1.6 KB per system. The kernel returns V as its
pairs' rows ``(4, 6, B)``, which
:func:`covariance_chunks` yields from parameter arrays, ``STACK_CHUNK``
systems at a time, copying no input out to the stack's size; every route,
one point or a grid, reads them there. No function here forms an 8x8
matrix. Three names are thin shims over the same rows for callers that take
one system at a time: :func:`build_rwa_drift_diffusion` writes one operating
point's rows into a :class:`DriftDiffusion` and alone warns
:class:`RwaViolation` off the red sideband, :func:`solve_lyapunov` checks the
rows' shapes and runs the kernel on them, and :func:`duan_from_covariance`
reads one system's V rows, so they give the bits of every route. Errors name
the system's index in the whole input. One reader, :func:`_duan_variances`,
reads pair rows for :func:`duan_variance_arrays` and
:func:`duan_from_covariance` alike; a Duan variance whose terms cancel past
``_CANCELLATION_TOL`` of relative error raises instead.
:func:`spectral_duan_sum` integrates one system's noise spectra over
frequency. The integrals have a closed form, the table's I_2 and I_4
(James, Nichols & Phillips 1947; Astrom 1970, ch. 5), which is the
nonadiabatic closed form of any two units: it lives in
:mod:`squeezelink.closedform`, and this function is its stack of one.

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
from collections.abc import Iterator

from ._lazy import lazy_import
from .closedform import (_CANCELLATION_TOL, DuanResult, _require_digits, _require_pair,
                         duan_sum_nonadiabatic_general, require_totals)
from .model import (Record, SteadyState, SystemParams, UnstableDrift, _scaled, raise_for_first,
                    require_units, stability_check, unit_record)

np = lazy_import("numpy")

QUADRATURES = ("X1", "Y1", "x1", "y1", "X2", "Y2", "x2", "y2")

#: systems per stacked Lyapunov solve; bounds the stack's working memory
STACK_CHUNK = 1024

#: the model's 2x2 drift blocks (X1, x1), (X2, x2), (Y1, y1), (Y2, y2) as indices
#: into QUADRATURES, and the pairs (p, q) of blocks, within X and within Y, whose
#: covariance blocks the split solves
_BLOCKS = ((0, 2), (4, 6), (1, 3), (5, 7))
_PAIRS = ((0, 0), (0, 1), (1, 1), (2, 2), (2, 3), (3, 3))
#: each pair's blocks p and q, as lists that index the blocks' axis
_P, _Q = ([pair[i] for pair in _PAIRS] for i in (0, 1))
#: each pair's weight in a sum over the 8x8 matrix, which holds a cross pair twice
_TWICE = [1.0 + (p != q) for p, q in _PAIRS]
#: 0.5 V + 0.5 V^T on the pair rows: entry 01 meets 10 on the diagonal pairs,
#: and every entry itself on the cross pairs
_TRANSPOSED = [len(_PAIRS) * (e if p != q else (0, 2, 1, 3)[e]) + k
               for e in range(4) for k, (p, q) in enumerate(_PAIRS)]


class RwaViolation(UserWarning):
    """Operating point is not at the red sideband delta_eff = -omega_M."""


class DriftDiffusion(Record):
    """Drift A and symmetrized diffusion D (1/s) as rows: A's drift blocks
    ``(4, 4, ...)`` and D's pairs ``(4, 6, ...)``, of one system or a stack."""

    A: np.ndarray
    D: np.ndarray


def build_rwa_drift_diffusion(
    system: SystemParams, steady: tuple[SteadyState, SteadyState]
) -> DriftDiffusion:
    """Drift and diffusion rows ``(4, 4)`` and ``(4, 6)`` of the rotating-frame
    beam-splitter model at one operating point, by :func:`_model_rows`; warns
    :class:`RwaViolation` where a unit is off the red sideband."""
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
    return DriftDiffusion(*_model_rows(*map(unit_record, units, steady), system.bath.N,
                                       system.bath.M_corr))


def _model_rows(unit1, unit2, N, M, start: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """The model's drift blocks ``_BLOCKS`` and diffusion pairs ``_PAIRS`` as rows.

    ``unit1`` and ``unit2`` are each unit's ``(gamma, kappa, G, n_th)``; these
    and the bath's ``N`` and ``M`` (``M_corr``) broadcast together, and the
    rows ``(4, 4, ...)`` and ``(4, 6, ...)`` are over their broadcast shape:
    entry 00, 01, 10 or 11, then block or pair. These are the only entries of A and D
    that the model does not hold at zero, once both units pass the unit gate.
    Raises ``OverflowError`` where the bath's field terms overflow a float
    although its N and M do not, naming the system's flat index plus ``start``."""
    require_units({1: unit1, 2: unit2})
    shape = np.broadcast(*unit1, *unit2, N, M).shape
    drift, diffusion = np.zeros((4, len(_BLOCKS)) + shape), np.zeros((4, len(_PAIRS)) + shape)
    with np.errstate(over="ignore"):
        for j, (gamma, kappa, G, n_th) in enumerate((unit1, unit2)):
            # X' = -gamma/2 X + G x ; x' = -kappa/2 x - G X (same for Y, y); unit
            # j's blocks are j (X) and j + 2 (Y), and its own pairs 2j and 2j + 3
            block, own = drift[:, j::2], diffusion[:, 2 * j::3]
            block[0], block[1], block[2], block[3] = -gamma / 2.0, G, -G, -kappa / 2.0
            own[0], own[3] = gamma * (2.0 * n_th + 1.0) / 2.0, kappa * (2.0 * N + 1.0) / 2.0
        # squeezed-bath cross correlations: only x1-x2 (+) and y1-y2 (-); where
        # kappa1 kappa2 overflows, sqrt(kappa1) sqrt(kappa2) is its root
        kk = unit1[1] * unit2[1]
        root = np.where(np.isinf(kk), np.sqrt(unit1[1]) * np.sqrt(unit2[1]), np.sqrt(kk))
        kgm = root * M
    diffusion[3, 1], diffusion[3, 4] = kgm, -kgm
    # the first non-finite system is the kernel's to report, unless its mirror terms
    # (entry 00), N and M are finite: then its field terms (entry 11) overflowed
    finite = np.isfinite(diffusion).reshape(4 * len(_PAIRS), -1).all(axis=0)
    if not finite.all():
        k = int(np.argmin(finite))
        if np.isfinite(diffusion[0].reshape(len(_PAIRS), -1)[:, k]).all() and all(
                math.isfinite(np.broadcast_to(x, shape).flat[k]) for x in (N, M)):
            raise OverflowError("squeezed-bath diffusion terms kappa (2N + 1)/2 and sqrt(kappa1 "
                                f"kappa2) M overflow a float at stack index {start + k}")
    return drift, diffusion


def covariance_chunks(unit1, unit2, N, M) -> Iterator[np.ndarray]:
    """The model's covariances V over parameter arrays as pair rows ``(4, 6, B)``,
    ``STACK_CHUNK`` systems each.

    The arguments are those of :func:`_model_rows`; they broadcast together
    and the systems come in flat order. Each chunk's drift blocks and
    diffusion pairs are written as rows by :func:`_model_rows` and solved by
    :func:`_solve_split`, which :func:`solve_lyapunov` runs too, so a system
    has the same bits by either. Errors name the system's index in
    the whole input. No input is copied out to the stack's size: a size-1
    input, such as a scalar kappa, stays a scalar, a full-size one is sliced
    as a view, and only a partly broadcast one is copied, chunk by chunk,
    through ``.flat``.
    """
    inputs = [np.asarray(x) for x in (*unit1, *unit2, N, M)]
    shape = np.broadcast_shapes(*(x.shape for x in inputs))
    size = math.prod(shape)
    sources = []  # (input, whether it holds one value for every system)
    for x in inputs:
        if x.size == 1 < size:
            sources.append((x.reshape(()), True))
        elif x.size == size and (x.ndim < 2 or x.flags.c_contiguous):  # a flat view
            sources.append((x.reshape(-1), False))
        else:  # a .flat slice copies its chunk alone
            sources.append((np.broadcast_to(x, shape).flat, False))
    for start in range(0, size, STACK_CHUNK):
        part = slice(start, start + STACK_CHUNK)
        c = [x if scalar else x[part] for x, scalar in sources]
        yield _solve_split(*_model_rows(c[:4], c[4:8], c[8], c[9], start), start)


def duan_variance_arrays(unit1, unit2, N, M, pair: str = "mirror"
                         ) -> tuple[np.ndarray, np.ndarray]:
    """``(var_X, var_Y)`` of the pair's Lyapunov covariances over parameter arrays.

    Takes the arguments of :func:`_model_rows`; the variances come in flat
    order, each chunk of :func:`covariance_chunks` read by
    :func:`_duan_variances`.
    """
    # reading no systems first checks the pair, and is the result when there are none
    var_X, var_Y = zip(_duan_variances(np.empty((4, len(_PAIRS), 0)), pair),
                       *(_duan_variances(V, pair) for V in covariance_chunks(unit1, unit2, N, M)))
    return np.concatenate(var_X), np.concatenate(var_Y)


def solve_lyapunov(dd: DriftDiffusion) -> np.ndarray:
    """Covariance rows, in D's shape, of ``A V + V A^T + D = 0``.

    ``dd.A`` holds the drift block rows ``(4, 4, ...)`` and ``dd.D`` the
    diffusion pair rows ``(4, 6, ...)`` of the same systems, one or a stack,
    or ``ValueError`` names both shapes. :func:`_solve_split` solves them, as
    it does the chunks of :func:`covariance_chunks`; errors name the system's
    flat index."""
    A, D = np.asarray(dd.A, dtype=float), np.asarray(dd.D, dtype=float)
    if (A.shape[:2] != (4, len(_BLOCKS)) or D.shape[:2] != (4, len(_PAIRS))
            or A.shape[2:] != D.shape[2:]):
        raise ValueError(f"need drift rows (4, 4, ...) and diffusion rows (4, 6, ...) of the "
                         f"same systems, got {A.shape} and {D.shape}")
    if not D.size:
        return np.zeros(D.shape)
    return _solve_split(A.reshape(4, len(_BLOCKS), -1),
                        D.reshape(4, len(_PAIRS), -1)).reshape(D.shape)


def _solve_split(drift: np.ndarray, diffusion: np.ndarray, start: int = 0) -> np.ndarray:
    """The covariance rows ``(4, 6, B)`` of a split system's pairs from its rows.

    ``drift`` holds the rows ``(4, 4, B)`` of the drift blocks ``_BLOCKS`` and
    ``diffusion`` those ``(4, 6, B)`` of D's pairs ``_PAIRS``. The kernel checks
    that they are finite and that every block is stable
    (:func:`model.stability_check`), solves ``A_p W_pq + W_pq A_q^T + D_pq = 0`` for
    every pair by :func:`_sylvester_2x2`, with no LAPACK call, and forms
    ``0.5 V + 0.5 V^T`` on the rows. The residual gate (:func:`_split_residual`)
    then holds each pair to its own bound and the whole to the 8x8 one. Errors
    name the stack index plus ``start``, the first system's index in the input.
    """
    _require_finite("drift or diffusion matrix", drift, diffusion, start=start)
    report = stability_check(drift)
    if not report.stable:
        raise UnstableDrift(f"drift matrix is not stable (max Re eigenvalue = "
                            f"{report.max_real_part:g} at stack index "
                            f"{start + report.worst_index[0]})")
    W = _sylvester_2x2(drift, _pair_exponents(drift), diffusion)
    W = W.reshape(4 * len(_PAIRS), -1)
    W *= 0.5  # halved first, so the sum cannot overflow
    V = np.take(W, _TRANSPOSED, axis=0)
    V += W
    del W  # and the work array it lives in, so that the gate's peak does not hold it
    V = V.reshape(diffusion.shape)
    _require_finite("Lyapunov solution", V, start=start)
    _require_residual(*_split_residual(drift, diffusion, V), start)
    return V


def _pair_exponents(drift: np.ndarray) -> np.ndarray:
    """The exponent of ``frexp`` of each pair's largest entry, ``(6, B)``, from the
    drift block rows ``(4, 4, B)``: the larger of its two blocks' exponents.
    ``frexp``'s exponent grows with the value, so the two agree for blocks that
    are not all zero, as no stable block is."""
    e = np.frexp(np.abs(drift).max(axis=0))[1]
    return np.maximum(e[_P], e[_Q])


def _split_residual(drift: np.ndarray, D: np.ndarray, V: np.ndarray):
    """Residual norms ``(7, B)`` of the split and their bounds, from the drift block
    rows ``(4, 4, B)`` and the pair rows ``(4, 6, B)`` of D and V.

    Rows 0 to 5 are the pairs: ``||A_p V_pq + V_pq A_q^T + D_pq||`` against
    ``1e-10 (||D_pq|| + ||A_p|| ||V_pq|| + ||V_pq|| ||A_q||)``, raised by
    ``1e-310 (1 + ||A_p|| + ||A_q||)``, the reach of the subnormal spacing in
    a pair that is nothing beside its system. Row 6 is the 8x8 residual
    against ``1e-10 ||D||``, each cross pair counted twice, as the 8x8
    matrix holds it and its transpose. Norms are Frobenius: those of the
    residual, D and V by :func:`_pair_squares`, and ``||A_p||`` and ``||A_q||``
    from the four blocks' norms.
    """
    R2, D2, V2 = _pair_squares(drift, D, V)
    with np.errstate(over="ignore"):  # as ||A_p||^2 of a huge drift does, quietly
        norm = np.sqrt(np.square(drift).sum(axis=0))
    A_pq = norm[_P] + norm[_Q]
    residual = np.vstack([np.sqrt(R2), np.sqrt(_TWICE @ R2)])
    # ||A_p|| ||V_pq|| is 0 where V_pq = 0, also where ||A_p||^2 overflows to inf;
    # where ||A_p||^2 underflows to 0 and ||V_pq||^2 overflows, it is 0 * inf =
    # NaN, formed quietly, and the bound fails
    with np.errstate(invalid="ignore"):
        AV = np.multiply(A_pq, np.sqrt(V2), out=np.zeros_like(A_pq), where=V2 != 0.0)
    bound = np.vstack([1e-10 * (np.sqrt(D2) + AV + 1e-300 * (1.0 + A_pq)),
                       1e-10 * np.maximum(np.sqrt(_TWICE @ D2), 1e-300)])
    return residual, bound


def _pair_squares(drift: np.ndarray, D: np.ndarray, V: np.ndarray):
    """The squared norms ``(6, B)`` of each pair's residual ``A_p V_pq + V_pq A_q^T +
    D_pq``, of ``D_pq`` and of ``V_pq``, from the rows of :func:`_split_residual`.

    V and D are divided by ``max |D|`` of their system first, so that the norms
    cannot overflow. The products are 2x2 ones, worked in place in one array,
    into which the entries of A_p and A_q are gathered pair by pair; the array
    is freed on return, before the gate forms its bounds.
    """
    Vs, R, T, A, C = np.empty((5,) + D.shape)
    scale = np.abs(D, out=A).max(axis=(0, 1))
    scale[scale == 0.0] = 1.0
    np.divide(V, scale, out=Vs)
    # the indices are valid: "clip" writes out directly, where "raise" buffers a copy
    np.take(drift, _P, axis=1, out=A, mode="clip")
    np.take(drift, _Q, axis=1, out=C, mode="clip")
    # entry ij of R = A_p V_pq + V_pq A_q^T + D_pq is
    # (A_i0 V_0j + A_i1 V_1j) + (V_i0 C_j0 + V_i1 C_j1) + D_ij, two j at a time.
    # A product, its two-term sum or a squared norm may overflow: these run
    # quietly, as in an einsum, and the gate reports what they give
    quiet = functools.partial(np.errstate, over="ignore", invalid="ignore")
    for i in (0, 1):
        r, s, t = R[2 * i:2 * i + 2], T[:2], T[2:]
        with quiet():
            np.multiply(A[2 * i], Vs[:2], out=r)
            r += np.multiply(A[2 * i + 1], Vs[2:], out=s)
            np.multiply(Vs[2 * i], C[::2], out=s)
            s += np.multiply(Vs[2 * i + 1], C[1::2], out=t)
        r += s
    Ds = np.divide(D, scale, out=A)  # A is read for the last time above
    R += Ds
    with quiet():  # the squares of entries 00, 01, 10 and 11, summed in that order
        return [np.square(x, out=x).sum(axis=0) for x in (R, Ds, Vs)]


def _require_residual(residual: np.ndarray, bound: np.ndarray, start: int):
    """Raise unless every residual is within its bound; both are ``(k, B)``, and the
    error names the item, counted from ``start``, that exceeds its bound the most."""
    ratio = residual / bound
    worst = int(np.argmax(ratio.max(axis=0)))
    if not (residual[:, worst] <= bound[:, worst]).all():
        k = int(np.argmax(ratio[:, worst]))
        raise UnstableDrift(
            f"Lyapunov residual {residual[k, worst]:g} at stack index {start + worst} exceeds "
            "tolerance; system nearly singular"
        )


def _require_finite(what: str, *stacks: np.ndarray, start: int = 0):
    """Raise for the first item, along the last axis, that is not finite; its index
    counts from ``start``."""
    for x in stacks:
        finite = np.isfinite(x).reshape(-1, x.shape[-1]).all(axis=0)
        if not finite.all():
            raise FloatingPointError(
                f"{what} is not finite at stack index {start + int(np.argmin(finite))}")


def _sylvester_2x2(drift: np.ndarray, exponent: np.ndarray, D: np.ndarray) -> np.ndarray:
    """Solve ``A_p W_pq + W_pq A_q^T + D_pq = 0`` in closed form for every pair (p, q)
    of ``_PAIRS``.

    ``drift`` holds the rows ``(4, 4, B)`` of entries 00, 01, 10, 11 of the drift
    blocks, ``exponent`` each pair's ``(6, B)`` from :func:`_pair_exponents`,
    and D and the result the pairs' rows ``(4, 6, B)``. With ``A = A_p``, ``B =
    A_q^T`` and ``Q = -D``, Cayley-Hamilton for B gives ``(A^2 + tr(B) A +
    det(B) I) W = A Q - Q B + tr(B) Q``, and for A turns the left matrix into
    ``(tr A + tr B) A + (det B - det A) I``, whose explicit inverse gives W.
    A_p and A_q of each pair are gathered from the blocks and scaled by
    ``2**-exponent``, and D by a power of two of its own, so that no product
    overflows; both scalings are exact and are undone on W. A non-finite W is
    left to the caller. The intermediate rows are written in place into one
    work array, each operation in the order of the expression in its comment
    (``r11 = (a + h) q11 + b q21 - g q12`` is ``((a + h) q11 + b q21) - g
    q12``), so W has the bits of those expressions. W is a view of that array.
    """
    work = np.empty((20, D[0].size))  # every row below lives here
    S, Q, R, (t, k, x, y) = work[:8], work[8:12], work[12:16], work[16:]
    eA = exponent.reshape(-1)
    for rows, blocks in ((S[:4], _P), (S[4:], _Q)):  # A_p, then A_q
        np.take(drift, blocks, axis=1, out=rows.reshape(D.shape), mode="clip")  # as in the gate
        np.ldexp(rows, -eA, out=rows)
    eD = _scaled(Q, D.reshape(4, -1))
    np.negative(Q, out=Q)  # Q = -D, scaled: the sign commutes with the exact scaling
    (a, b, c, d, e, g, f, h), (q11, q12, q21, q22) = S, Q  # B = [[e, f], [g, h]]
    np.add(a, d, out=t)
    t += e
    t += h  # tr A + tr B
    np.multiply(e, h, out=k)
    k -= np.multiply(f, g, out=x)
    np.multiply(a, d, out=x)
    x -= np.multiply(b, c, out=y)
    k -= x  # det B - det A
    # the right-hand side, row by row: r11 = (a + h) q11 + b q21 - g q12, ...
    for r, (s1, s2, q1, u, q2, v, q3) in zip(R, ((a, h, q11, b, q21, g, q12),
                                                 (a, e, q12, b, q22, f, q11),
                                                 (d, h, q21, c, q11, g, q22),
                                                 (d, e, q22, c, q12, f, q21))):
        np.add(s1, s2, out=r)
        r *= q1
        r += np.multiply(u, q2, out=x)
        r -= np.multiply(v, q3, out=x)
    M = Q  # Q and B are read for the last time above
    np.multiply(t, S[:4], out=M)
    M[0] += k
    M[3] += k  # m11 = t a + k, m12 = t b, m21 = t c, m22 = t d + k
    m11, m12, m21, m22 = M
    W, xy = S[:4], work[18:]  # and so is A
    np.multiply(m22, R[:2], out=W[:2])
    W[:2] -= np.multiply(m12, R[2:], out=xy)  # m22 r1j - m12 r2j
    np.multiply(m11, R[2:], out=W[2:])
    W[2:] -= np.multiply(m21, R[:2], out=xy)  # m11 r2j - m21 r1j
    np.multiply(m11, m22, out=t)
    t -= np.multiply(m12, m21, out=x)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        W /= t
        np.ldexp(W, eD - eA, out=W)
    return W.reshape(D.shape)


def duan_from_covariance(V: np.ndarray, pair: str = "mirror") -> DuanResult:
    """Variances of the joint EPR quadratures (u1 - u2, v1 + v2) from one system's
    covariance rows ``(4, 6)``, as :func:`solve_lyapunov` gives them."""
    V = np.asarray(V, dtype=float)
    if V.shape != (4, len(_PAIRS)):
        raise ValueError(f"need one system's covariance rows (4, 6), got {V.shape}")
    (var_X,), (var_Y,) = _duan_variances(V[..., None], pair)
    return DuanResult(var_X=float(var_X), var_Y=float(var_Y))


#: the entry of the pair rows that holds each pair's quadratures: 00 mirror, 11 field
_PAIR_ENTRY = {"mirror": 0, "field": 3}


def _duan_variances(rows: np.ndarray, pair: str):
    """``(var_X, var_Y)`` of the pair from V's pair rows ``(4, 6, B)``.

    Each variance sums three covariances, which cancel as the squeezing
    grows. Its relative rounding error is estimated as ``ulp(1) (|V_11| +
    |V_22| + 2 |V_12|) / |var|``; where that exceeds ``_CANCELLATION_TOL``
    the first such item raises ``FloatingPointError`` naming the estimate,
    rather than letting cancelled digits decide a verdict. Then every total
    passes :class:`DuanResult`'s check, or the first that fails raises.
    """
    _require_pair(pair)
    x11, x12, x22, y11, y12, y22 = rows[_PAIR_ENTRY[pair]]  # in _PAIRS order
    var_X = x11 + x22 - 2.0 * x12
    var_Y = y11 + y22 + 2.0 * y12
    with np.errstate(all="ignore"):  # 0/0 is no estimate; a NaN V fails the total check
        lost = np.fmax(*(math.ulp(1.0) * (abs(v11) + abs(v22) + 2.0 * abs(v12)) / abs(var)
                         for v11, v12, v22, var in ((x11, x12, x22, var_X),
                                                    (y11, y12, y22, var_Y))))
    raise_for_first(lost > _CANCELLATION_TOL, _require_digits, lost)
    require_totals(var_X + var_Y)
    return var_X, var_Y


def spectral_duan_sum(system: SystemParams, steady: tuple[SteadyState, SteadyState],
                      pair: str = "mirror") -> float:
    """Joint-quadrature variance sum by frequency-domain integration: the integral of
    the noise spectra in closed form, :func:`closedform.duan_sum_nonadiabatic_general`."""
    return duan_sum_nonadiabatic_general(*map(unit_record, (system.unit1, system.unit2), steady),
                                         system.bath.N, system.bath.M_corr, pair).total
