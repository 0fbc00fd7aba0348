"""Cross-validation suite: closed forms against the numerical oracles.

Each check returns a :class:`CheckResult` with the measured worst residual
and the tolerance it was held to, so the CLI can print one machine-readable
line per check and the test suite can assert on the same numbers.
The oracle checks hand the grid's C and n_th to the oracles as given, with
no drive power or bath temperature in between (see :func:`_symmetric_units`),
and each grid whole: only :func:`oracle.covariance_chunks` chunks a stack.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Callable, Iterable

from . import closedform, config, model, oracle, sweep
from ._lazy import lazy_import

np = lazy_import("numpy")

KAPPA_REF = model.REFERENCE_DEVICE["kappa"]

GRID_C = (0.5, 2.0, 15.0, 90.0)
GRID_R = (0.0, 0.5, 1.0, 2.0)
GRID_NTH = (0.0, 1.0, 5.0, 10.0)
GRID_RATIO = (6.5e-4, 0.01, 0.05)

# each seed feeds the standard library's Mersenne Twister, random.Random(seed),
# through SeededUniform, whose stream every Python version keeps
SEPARABILITY_SAMPLES = 10_000  # random r = 0 parameter sets, drawn from this seed:
SEPARABILITY_SEED = 20240817
LYAPUNOV_TRIALS = 50  # random constructed systems, drawn from this seed:
LYAPUNOV_SEED = 7


class SeededUniform:
    """Seeded uniform draws with ``numpy.random.Generator.uniform``'s signature,
    from ``random.Random(seed).random()``: each value is ``low + (high - low) u``,
    filled in row-major order. Loads ``random`` at first use, and never
    ``numpy.random``, whose import costs about 6 MB of RSS and 10 ms."""

    def __init__(self, seed: int):
        import random

        self._random = random.Random(seed).random

    def uniform(self, low, high, size=None):
        low, high = np.asarray(low, dtype=float), np.asarray(high, dtype=float)
        shape = np.broadcast_shapes(low.shape, high.shape) if size is None else size
        # random() < 1, so the sentinel 2.0 never ends the stream
        u = np.fromiter(iter(self._random, 2.0), float, int(np.prod(shape))).reshape(shape)
        return low + (high - low) * u


class CheckResult(model.Record):
    name: str
    passed: bool
    max_err: float
    tolerance: float
    detail: str = ""

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        line = f"{status} {self.name} max_err={self.max_err:.3e} tol={self.tolerance:.3e}"
        if self.detail:
            line += f" ({self.detail})"
        return line


def _grid():
    """(C, r, n_th, gamma/kappa) arrays over the acceptance grid, in product order."""
    return np.array(list(itertools.product(GRID_C, GRID_R, GRID_NTH, GRID_RATIO))).T


def _symmetric_units(C, r, n_th, ratio):
    """Oracle inputs ``(unit, unit, N, M)`` over arrays, each unit ``(gamma, kappa, G, n_th)``
    with gamma = ratio * KAPPA_REF, kappa = KAPPA_REF and C = 4 G^2 / (gamma kappa)."""
    gamma = ratio * KAPPA_REF
    with np.errstate(invalid="ignore"):  # a negative C: the routes' unit gate rejects G = NaN
        unit = (gamma, KAPPA_REF, np.sqrt(C * gamma * KAPPA_REF) / 2.0, n_th)
    return (unit, unit, *model.squeeze_arrays(r))


def _mirror_variances(C, r, n_th, ratio) -> tuple[np.ndarray, np.ndarray]:
    """Lyapunov mirror ``(var_X, var_Y)`` of the :func:`_symmetric_units` systems over
    arrays, in flat order."""
    return oracle.duan_variance_arrays(*_symmetric_units(C, r, n_th, ratio), "mirror")


def check_triple_agreement(tolerance: float = 1e-6) -> CheckResult:
    """Identical-unit closed form, Lyapunov and any-unit spectral form agree pairwise."""
    grid = _grid()
    C, r, n_th, ratio = grid
    exact = closedform.duan_sum_nonadiabatic_arrays(C, r, n_th, ratio * KAPPA_REF, KAPPA_REF)
    lyap = np.add(*_mirror_variances(*grid))
    spec = closedform.duan_sum_nonadiabatic_general_arrays(*_symmetric_units(*grid))
    worst = float(np.max(np.abs(np.stack([lyap, spec]) - exact) / exact, initial=0.0))
    return CheckResult("triple", worst <= tolerance, worst, tolerance,
                       "relative, closed-form vs Lyapunov vs spectral")


def check_adiabatic_limit(tolerance: float = 1e-4) -> CheckResult:
    """The full expression reduces to the adiabatic one for gamma << kappa."""
    worst = 0.0
    for C, r, n_th in itertools.product(GRID_C, GRID_R, GRID_NTH):
        full = closedform.duan_sum_nonadiabatic(C, r, n_th, 1e-6, 1.0).total
        adiab = closedform.duan_sum_adiabatic_identical(C, r, n_th).total
        worst = max(worst, abs(full - adiab))
    return CheckResult("adiabatic-limit", worst <= tolerance, worst, tolerance,
                       "absolute, gamma/kappa = 1e-6")


def check_threshold(tolerance: float = 1e-10) -> CheckResult:
    """Variance sum evaluated at the threshold cooperativity sits at 2."""
    c_ref = closedform.threshold_cooperativity(1.0, 1.0)
    if abs(c_ref - 2.313035) > 1e-5:
        return CheckResult("threshold", False, abs(c_ref - 2.313035), 1e-5,
                           "reference value C_min(r=1, n_th=1)")
    worst = 0.0
    for r in (0.25, 0.5, 1.0, 2.0, 3.0):
        for n_th in (0.5, 1.0, 5.0, 10.0):
            c_min = closedform.threshold_cooperativity(r, n_th)
            total = closedform.duan_sum_adiabatic_identical(c_min, r, n_th).total
            worst = max(worst, abs(total - 2.0))
    return CheckResult("threshold", worst <= tolerance, worst, tolerance,
                       "boundary exactness")


def check_separability_floor(tolerance: float = 1e-9) -> CheckResult:
    """Without squeezing no parameter set drops below the vacuum bound 2."""
    closed, lyap = _separability_totals()
    # largest dip below 2; negative while every total is above
    worst = float(np.max(2.0 - np.concatenate([closed, lyap]), initial=-math.inf))
    return CheckResult("separability", worst <= tolerance, max(worst, 0.0), tolerance,
                       f"{SEPARABILITY_SAMPLES} random r=0 parameter sets, closed form and "
                       f"oracle, min total {2.0 - worst:.12f}")


def _separability_totals() -> tuple[np.ndarray, np.ndarray]:
    """(closed-form, Lyapunov) totals at the random r = 0 parameter sets, in draw order."""
    # row k holds sample k's (log10 C, n_th, log10 gamma/kappa), drawn in that order
    rng = SeededUniform(SEPARABILITY_SEED)
    log_C, n_th, log_ratio = rng.uniform([-2, 0, -6], [3, 50, 0],
                                         size=(SEPARABILITY_SAMPLES, 3)).T
    C, ratio = (model.map_math(math.pow, 10.0, u) for u in (log_C, log_ratio))
    closed = closedform.duan_sum_nonadiabatic_arrays(C, 0.0, n_th, ratio * KAPPA_REF, KAPPA_REF)
    return closed, np.add(*_mirror_variances(C, 0.0, n_th, ratio))


def check_xy_symmetry(tolerance: float = 1e-10) -> CheckResult:
    """Oracle covariance gives equal X and Y joint variances for identical units."""
    var_X, var_Y = _mirror_variances(*_grid())
    worst = float(np.max(np.abs(var_X - var_Y)))
    return CheckResult("xy-symmetry", worst <= tolerance, worst, tolerance)


def check_strong_coupling(tolerance: float = 1e-4) -> CheckResult:
    C = 1e6
    worst = 0.0
    for r in (0.5, 1.0, 2.0):
        for n_th in (1.0, 5.0, 10.0):
            exact = closedform.duan_sum_adiabatic_identical(C, r, n_th).total
            approx = closedform.duan_sum_strong_coupling_approx(C, r, n_th)
            worst = max(worst, abs(exact - approx))
    return CheckResult("strong-coupling", worst <= tolerance, worst, tolerance,
                       "absolute, C = 1e6")


def check_weak_coupling(tolerance: float = 1e-12) -> CheckResult:
    """Small-C form overshoots the exact value by exactly approx * C/(C+1)."""
    worst = 0.0
    floor_ok = True
    for C in (1e-3, 1e-2, 0.1):
        for r in (0.5, 1.0, 2.0):
            for n_th in (0.0, 1.0, 5.0):
                exact = closedform.duan_sum_adiabatic_identical(C, r, n_th).total
                approx = closedform.duan_sum_weak_coupling_approx(C, r, n_th)
                worst = max(worst, abs((approx - exact) - approx * C / (C + 1.0)))
                floor_ok = floor_ok and approx >= 2.0
    return CheckResult("weak-coupling", worst <= tolerance and floor_ok, worst,
                       tolerance, "first-order defect identity + floor >= 2")


def _constructed_systems(rng):
    """Rows (V0, A, D) of random stable split systems with V0 as the exact solution,
    and each system's largest real part of a drift eigenvalue, ``-min(margin) 2**k``.

    Each A has four random 2x2 drift blocks, each shifted stable in closed
    form to a log-uniform margin from the stability boundary of 1e-4 to 1
    times its largest entry, and scaled by 2**k, k from -60 to 60, to reach
    the solver's power-of-two scaling. A, V0 and D = -(A V0 + V0 A^T) are
    formed as 4x4 matrices of the X and Y sectors, between which V0 is zero,
    and come as the rows :func:`oracle.solve_lyapunov` takes: the drift
    blocks ``(4, 4, trials)`` and the pairs ``(4, 6, trials)``.
    """
    # row t of one draw: trial t's 16 block entries, 4 log10 margins, k and V0's 32 factors
    low, high = (np.repeat(bounds, [16, 4, 1, 32]) for bounds in ([-1.0, -4.0, -60.5, -1.0],
                                                                  [1.0, 0.0, 60.5, 1.0]))
    draw = rng.uniform(low, high, size=(LYAPUNOV_TRIALS, low.size))
    blocks, log_margin, k, L = np.split(draw, [16, 20, 21], axis=1)
    blocks = blocks.reshape(-1, 4, 2, 2)
    a, b, c, d = (blocks[..., i, j] for i in (0, 1) for j in (0, 1))
    # the block's largest real part: h + sqrt(disc) for a real pair, else h
    h, disc = (a + d) / 2.0, ((a - d) / 2.0) ** 2 + b * c
    margin = model.map_math(math.pow, 10.0, log_margin) * np.abs(blocks).max(axis=(2, 3))
    shift = h + np.sqrt(np.fmax(disc, 0.0)) + margin
    k = np.rint(k).astype(int)
    blocks = np.ldexp(blocks - shift[..., None, None] * np.eye(2), k[..., None, None])
    # sector s holds blocks 2s and 2s + 1 (X1 x1, X2 x2; Y1 y1, Y2 y2) on its diagonal
    A = np.zeros((2, LYAPUNOV_TRIALS, 4, 4))
    for p in range(4):
        at = slice(2 * (p % 2), 2 * (p % 2) + 2)
        A[p // 2, :, at, at] = blocks[:, p]
    L = L.reshape(-1, 2, 4, 4).swapaxes(0, 1)
    V0 = _product(L, L.swapaxes(-1, -2))
    S = _product(A, V0)
    return (_pair_rows(V0), blocks.reshape(-1, 4, 4).T, _pair_rows(-(S + S.swapaxes(-1, -2))),
            -np.ldexp(margin.min(axis=1), k[:, 0]))


def _product(X, Y):
    """The products ``X Y`` of stacks of 4x4 matrices, summed elementwise in the order
    of k, so that their bits do not depend on the BLAS build."""
    return sum(X[..., :, k, None] * Y[..., None, k, :] for k in range(4))


def _pair_rows(M):
    """The rows ``(4, 6, trials)`` of the pairs of blocks ``oracle._PAIRS`` of the X and
    Y sector stacks ``M``, ``(2, trials, 4, 4)``."""
    return np.array([[M[p // 2, :, 2 * (p % 2) + i, 2 * (q % 2) + j] for p, q in oracle._PAIRS]
                     for i in (0, 1) for j in (0, 1)])


def check_lyapunov_solver(tolerance: float = 1e-9) -> CheckResult:
    """Constructed-solution recovery, each constructed system's stability margin as
    the stability check computes it, plus the uncertainty-principle floor."""
    V0, A, D, max_real = _constructed_systems(SeededUniform(LYAPUNOV_SEED))
    # the 8x8 Frobenius norms from the pair rows
    error = oracle.solve_lyapunov(oracle.DriftDiffusion(A, D)) - V0
    errors = np.sqrt(oracle._squared_norm(np.square(error).sum(axis=0))
                     / oracle._squared_norm(np.square(V0).sum(axis=0)))
    _, reported, _ = model._stability(A)
    margins = np.abs(reported / max_real - 1.0)
    worst = float(np.max(np.fmax(errors, margins)))
    terms = f"constructed solutions {np.max(errors):.3e}, stability margins {np.max(margins):.3e}"
    if worst > tolerance:
        return CheckResult("lyapunov", False, worst, tolerance, terms)

    # uncertainty products X1 Y1, x1 y1, X2 Y2 and x2 y2 on physical solutions: the
    # variances are entries 00 (mirror) and 11 (field) of V's diagonal pairs, which
    # come at 0 and 2 within X and at 3 and 5 within Y in the pair rows
    V = np.concatenate(list(oracle.covariance_chunks(*_symmetric_units(*_grid()))), axis=-1)
    uncert_worst = float(np.max(0.25 - V[::3, [0, 2]] * V[::3, [3, 5]], initial=0.0))
    ok = uncert_worst <= 1e-10
    return CheckResult("lyapunov", ok, worst if ok else uncert_worst, tolerance,
                       f"{terms} + uncertainty floor")


def check_symmetric_drive_optimum(tolerance: float = 1e-3) -> CheckResult:
    """Minimizing over the second drive power lands on the first."""
    base = config.default_system()
    base = model.set_param(base, "temperature", 0.25e-3)
    base = model.set_param(base, "bath.r", 2.0)
    p1 = np.array([5e-3, 10e-3, 15e-3])
    p2_star, _ = sweep.optimize_partners(
        base, "power", p1,
        [sweep.OptimizeSpec(lo=0.2 * p, hi=3.0 * p, tolerance=1e-7) for p in p1.tolist()],
    )
    worst = float(np.max(np.abs(p2_star - p1) / p1))
    return CheckResult("symmetric-drive", worst <= tolerance, worst, tolerance,
                       "relative offset of optimal P2 from P1")


def check_field_insensitivity(tolerance: float = 2e-3) -> CheckResult:
    ratio, n_th, r = 6.5e-4, 5.0, 1.0
    field15 = closedform.field_sum_nonadiabatic(15.0, r, n_th, ratio, 1.0).total
    field90 = closedform.field_sum_nonadiabatic(90.0, r, n_th, ratio, 1.0).total
    mirror15 = closedform.duan_sum_nonadiabatic(15.0, r, n_th, ratio, 1.0).total
    mirror90 = closedform.duan_sum_nonadiabatic(90.0, r, n_th, ratio, 1.0).total
    field_shift = abs(field90 - field15)
    mirror_drop = mirror15 - mirror90
    passed = field_shift <= tolerance and mirror_drop >= 0.05
    return CheckResult("field-insensitivity", passed, field_shift, tolerance,
                       f"mirror drop {mirror_drop:.3f} (needs >= 0.05)")


def check_dissipation_ordering(tolerance: float = 0.0) -> CheckResult:
    """Stronger mechanical dissipation never improves the transfer."""
    n_th, r = 5.0, 2.0
    C = np.linspace(1.0, 100.0, 397)
    adiab = closedform.duan_sum_adiabatic_identical_arrays(C, r, n_th)
    n1, n5 = closedform.duan_sum_nonadiabatic_arrays(C, r, n_th, [[0.01], [0.05]], 1.0)
    worst = float(np.max([adiab - n1, n1 - n5], initial=0.0))
    return CheckResult("dissipation-ordering", worst <= tolerance, max(worst, 0.0),
                       tolerance, "adiabatic <= gk 0.01 <= gk 0.05 over C in [1, 100]")


def check_thermal_occupation(tolerance: float = 0.10) -> CheckResult:
    """Reference temperatures reproduce n_th = 1, 5, 10 within 10 percent."""
    omega_M = model.REFERENCE_DEVICE["omega_M"]
    worst = 0.0
    for temp, expected in ((62.2e-6, 1.0), (236e-6, 5.0), (452e-6, 10.0)):
        n = model.thermal_occupation(omega_M, temp)
        worst = max(worst, abs(n - expected) / expected)
    return CheckResult("thermal-occupation", worst <= tolerance, worst, tolerance,
                       "the labels assume a rounded hbar = 1e-34 J s; CODATA hbar here")


def check_power_threshold(tolerance: float = 1e-8) -> CheckResult:
    """Variance sum crosses 2 exactly at the returned minimum power."""
    unit = config.preset_system("fig3").unit1
    temperature = 50e-6
    n_th = model.thermal_occupation(unit.mirror.omega_M, temperature)
    worst = 0.0
    previous = math.inf
    monotone = True
    for r in (0.5, 1.0, 2.0):
        p_min = closedform.minimum_power(unit, r, temperature)
        probe = model.set_param(
            model.SystemParams(unit, unit, model.SqueezedBath(r=r)),
            "unit1.power", p_min,
        )
        probe = model.set_param(probe, "unit2.power", p_min)
        ss = model.mean_fields_from_effective_detuning(
            probe.unit1, -probe.unit1.mirror.omega_M
        )
        total = closedform.duan_sum_adiabatic_identical(ss.C, r, n_th).total
        worst = max(worst, abs(total - 2.0))
        if p_min >= previous:
            monotone = False
        previous = p_min
    return CheckResult("power-threshold", worst <= tolerance and monotone, worst,
                       tolerance, "boundary root + P_min decreasing in r")


def check_determinism(tolerance: float = 0.0) -> CheckResult:
    """Figure CSV emission is byte-identical across runs."""
    from .cli import render_figure_csv

    first = render_figure_csv("fig2")
    second = render_figure_csv("fig2")
    same = first == second
    return CheckResult("determinism", same, 0.0 if same else 1.0, tolerance,
                       "fig2 CSV bytes")


#: check name -> check; each takes only its ``tolerance``
ALL_CHECKS: dict[str, Callable[..., CheckResult]] = {
    "triple": check_triple_agreement,
    "adiabatic-limit": check_adiabatic_limit,
    "threshold": check_threshold,
    "separability": check_separability_floor,
    "xy-symmetry": check_xy_symmetry,
    "strong-coupling": check_strong_coupling,
    "weak-coupling": check_weak_coupling,
    "lyapunov": check_lyapunov_solver,
    "symmetric-drive": check_symmetric_drive_optimum,
    "field-insensitivity": check_field_insensitivity,
    "dissipation-ordering": check_dissipation_ordering,
    "thermal-occupation": check_thermal_occupation,
    "power-threshold": check_power_threshold,
    "determinism": check_determinism,
}


def run_checks(only: Iterable[str] | None = None,
               tolerance: float | None = None) -> list[CheckResult]:
    names = list(ALL_CHECKS) if only is None else list(only)
    for name in names:  # before any check runs
        if name not in ALL_CHECKS:
            raise KeyError(f"unknown check {name!r}; known: {sorted(ALL_CHECKS)}")
    return [ALL_CHECKS[name]() if tolerance is None else ALL_CHECKS[name](tolerance=tolerance)
            for name in names]
