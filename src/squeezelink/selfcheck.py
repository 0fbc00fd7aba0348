"""Cross-validation suite: closed forms against the numerical oracles.

Each check returns a :class:`CheckResult` with the measured worst residual
and the tolerance it was held to, so the CLI can print one machine-readable
line per check and the test suite can assert on the same numbers.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, Optional

import numpy as np

from . import closedform, config, model, oracle, sweep

KAPPA_REF = 2.0 * math.pi * 215e3

GRID_C = (0.5, 2.0, 15.0, 90.0)
GRID_R = (0.0, 0.5, 1.0, 2.0)
GRID_NTH = (0.0, 1.0, 5.0, 10.0)
GRID_RATIO = (6.5e-4, 0.01, 0.05)

#: systems per stacked Lyapunov solve; bounds the stack's working memory
STACK_CHUNK = 256


@dataclass(frozen=True)
class CheckResult:
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


def _symmetric_system(C, r, n_th, ratio, kappa=KAPPA_REF):
    unit = model.unit_with_cooperativity(C=C, kappa=kappa, gamma=ratio * kappa, n_th=n_th)
    system = model.SystemParams(unit1=unit, unit2=unit, bath=model.SqueezedBath(r=r))
    ss = model.mean_fields_from_effective_detuning(unit, -unit.mirror.omega_M)
    return system, (ss, ss)


def _covariances(
    items: Iterable[tuple[Any, oracle.DriftDiffusion]],
) -> Iterator[tuple[Any, oracle.CovarianceMatrix]]:
    """Pair each ``(tag, drift/diffusion)`` with its covariance, in order.

    Items are drawn lazily and solved STACK_CHUNK at a time, one stacked
    Lyapunov call per chunk, so memory stays flat however many there are.
    """
    items = iter(items)
    while chunk := list(itertools.islice(items, STACK_CHUNK)):
        V = oracle.solve_lyapunov_stack(
            np.stack([dd.A for _, dd in chunk]), np.stack([dd.D for _, dd in chunk])
        )
        for (tag, _), v in zip(chunk, V):
            yield tag, oracle.CovarianceMatrix(V=v)


def _grid_systems():
    """((grid point, system, steady states), drift/diffusion) over the grid."""
    for point in itertools.product(GRID_C, GRID_R, GRID_NTH, GRID_RATIO):
        system, steady = _symmetric_system(*point)
        yield (point, system, steady), oracle.build_rwa_drift_diffusion(system, steady)


def check_triple_agreement(tolerance: float = 1e-6) -> CheckResult:
    """Closed form, Lyapunov and spectral integration agree pairwise."""
    worst = 0.0
    for ((C, r, n_th, ratio), system, steady), V in _covariances(_grid_systems()):
        exact = closedform.duan_sum_nonadiabatic(
            C, r, n_th, ratio * KAPPA_REF, KAPPA_REF
        ).total
        lyap = oracle.duan_from_covariance(V, "mirror").total
        spec = oracle.spectral_duan_sum(system, steady, "mirror")
        worst = max(
            worst,
            abs(lyap - exact) / exact,
            abs(spec - exact) / exact,
        )
    return CheckResult("triple", worst <= tolerance, worst, tolerance,
                       "relative, closed-form vs Lyapunov vs spectral")


def check_adiabatic_limit(tolerance: float = 1e-4) -> CheckResult:
    """The full expression reduces to the adiabatic one for gamma << kappa."""
    ratio = 1e-6
    worst = 0.0
    for C in GRID_C:
        for r in GRID_R:
            for n_th in GRID_NTH:
                full = closedform.duan_sum_nonadiabatic(C, r, n_th, ratio, 1.0).total
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


def _separability_samples(rng, samples):
    """(closed-form total, drift/diffusion) at random r = 0 parameter sets."""
    bath = model.SqueezedBath(r=0.0)
    for _ in range(samples):
        C = float(10.0 ** rng.uniform(-2, 3))
        n_th = float(rng.uniform(0.0, 50.0))
        ratio = float(10.0 ** rng.uniform(-6, 0))
        closed = closedform.duan_sum_nonadiabatic(
            C, 0.0, n_th, ratio * KAPPA_REF, KAPPA_REF
        ).total
        system, steady = _symmetric_system(C, 0.0, n_th, ratio)
        system = model.SystemParams(system.unit1, system.unit2, bath)
        yield closed, oracle.build_rwa_drift_diffusion(system, steady)


def check_separability_floor(
    tolerance: float = 1e-9, samples: int = 10_000, seed: int = 20240817
) -> CheckResult:
    """Without squeezing no parameter set drops below the vacuum bound 2."""
    rng = np.random.default_rng(seed)
    worst = -math.inf  # largest dip below 2; negative while every total is above
    for closed, V in _covariances(_separability_samples(rng, samples)):
        lyap = oracle.duan_from_covariance(V, "mirror").total
        worst = max(worst, 2.0 - closed, 2.0 - lyap)
    return CheckResult("separability", worst <= tolerance, max(worst, 0.0), tolerance,
                       f"{samples} random r=0 parameter sets, closed form and oracle, "
                       f"min total {2.0 - worst:.12f}")


def check_xy_symmetry(tolerance: float = 1e-10) -> CheckResult:
    """Oracle covariance gives equal X and Y joint variances for identical units."""
    worst = 0.0
    for _, V in _covariances(_grid_systems()):
        res = oracle.duan_from_covariance(V, "mirror")
        worst = max(worst, abs(res.var_X - res.var_Y))
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


def _constructed_systems(rng, trials):
    """(V0, drift/diffusion) with random stable A and V0 as the exact solution."""
    for _ in range(trials):
        B = rng.standard_normal((8, 8))
        shift = max(np.linalg.eigvals(B).real.max(), 0.0) + 1.0
        A = B - shift * np.eye(8)
        L = rng.standard_normal((8, 8))
        V0 = L @ L.T
        yield V0, oracle.DriftDiffusion(A=A, D=-(A @ V0 + V0 @ A.T))


def check_lyapunov_solver(
    tolerance: float = 1e-9, trials: int = 50, seed: int = 7
) -> CheckResult:
    """Constructed-solution recovery plus the uncertainty-principle floor."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for V0, V in _covariances(_constructed_systems(rng, trials)):
        worst = max(worst, np.linalg.norm(V.V - V0) / np.linalg.norm(V0))
    if worst > tolerance:
        return CheckResult("lyapunov", False, worst, tolerance, "constructed solutions")

    # uncertainty products on physical solutions
    uncert_worst = 0.0
    for _, V in _covariances(_grid_systems()):
        for x, y in (("X1", "Y1"), ("x1", "y1"), ("X2", "Y2"), ("x2", "y2")):
            product = V.variance(x) * V.variance(y)
            uncert_worst = max(uncert_worst, 0.25 - product)
    ok = uncert_worst <= 1e-10
    return CheckResult("lyapunov", ok, worst if ok else uncert_worst, tolerance,
                       "constructed solutions + uncertainty floor")


def check_symmetric_drive_optimum(tolerance: float = 1e-3) -> CheckResult:
    """Minimizing over the second drive power lands on the first."""
    base = config.default_system()
    base = model.set_param(base, "temperature", 0.25e-3)
    base = model.set_param(base, "bath.r", 2.0)
    worst = 0.0
    for p1 in (5e-3, 10e-3, 15e-3):
        p2_star, _ = sweep.optimize_partner(
            base, "power", p1, sweep.OptimizeSpec(lo=0.2 * p1, hi=3.0 * p1, tolerance=1e-7)
        )
        worst = max(worst, abs(p2_star - p1) / p1)
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
    worst = 0.0
    for C in np.linspace(1.0, 100.0, 397):
        adiab = closedform.duan_sum_adiabatic_identical(float(C), r, n_th).total
        n1 = closedform.duan_sum_nonadiabatic(float(C), r, n_th, 0.01, 1.0).total
        n5 = closedform.duan_sum_nonadiabatic(float(C), r, n_th, 0.05, 1.0).total
        worst = max(worst, adiab - n1, n1 - n5)
    return CheckResult("dissipation-ordering", worst <= tolerance, max(worst, 0.0),
                       tolerance, "adiabatic <= gk 0.01 <= gk 0.05 over C in [1, 100]")


def check_thermal_occupation(tolerance: float = 0.10) -> CheckResult:
    """Reference temperatures reproduce n_th = 1, 5, 10 within 10 percent."""
    omega_M = 2.0 * math.pi * 947e3
    worst = 0.0
    for temp, expected in ((62.2e-6, 1.0), (236e-6, 5.0), (452e-6, 10.0)):
        n = model.thermal_occupation(omega_M, temp)
        worst = max(worst, abs(n - expected) / expected)
    return CheckResult("thermal-occupation", worst <= tolerance, worst, tolerance,
                       "known ~5% offset against the quoted temperature labels")


def check_power_threshold(tolerance: float = 1e-8) -> CheckResult:
    """Variance sum crosses 2 exactly at the returned minimum power."""
    system = config.fig3_system()
    unit = system.unit1
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


def run_checks(
    only: Optional[Iterable[str]] = None,
    tolerance: Optional[float] = None,
) -> list[CheckResult]:
    names = list(ALL_CHECKS) if only is None else list(only)
    results = []
    for name in names:
        if name not in ALL_CHECKS:
            raise KeyError(f"unknown check {name!r}; known: {sorted(ALL_CHECKS)}")
        check = ALL_CHECKS[name]
        results.append(check() if tolerance is None else check(tolerance=tolerance))
    return results
