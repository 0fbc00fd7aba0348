"""Parameter sweeps, scalar optimization and figure datasets.

Grid points are independent pure evaluations; rows come back in axis
order and are identical regardless of how the evaluation is scheduled.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import closedform, config, oracle
from .closedform import AdiabaticRates, DuanResult
from .model import SystemParams, mean_fields_from_effective_detuning, set_param

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

#: sweep quantity name -> (pair, route) key of EVALUATORS
QUANTITIES = {
    "mirror-duan-adiabatic": ("mirror", "adiabatic"),
    "mirror-duan-nonadiabatic": ("mirror", "nonadiabatic"),
    "field-duan": ("field", "nonadiabatic"),
    "oracle-duan": ("mirror", "oracle"),
}


class BracketFailure(RuntimeError):
    """No interior minimum found inside the requested bracket."""


class UnknownFigure(KeyError):
    """Figure identifier outside fig2..fig9."""


@dataclass(frozen=True)
class SweepSpec:
    base: SystemParams
    axis: str
    start: float
    stop: float
    count: int
    scale: str = "linear"
    quantity: str = "mirror-duan-adiabatic"

    def __post_init__(self):
        if not self.start < self.stop:
            raise ValueError("sweep range needs start < stop")
        if self.count < 2:
            raise ValueError("sweep needs at least 2 grid points")
        if self.scale not in ("linear", "log"):
            raise ValueError(f"scale must be 'linear' or 'log', got {self.scale!r}")
        if self.quantity not in QUANTITIES:
            raise ValueError(f"unknown quantity {self.quantity!r}")

    def grid(self) -> np.ndarray:
        if self.scale == "log":
            if self.start <= 0:
                raise ValueError("log scale needs a positive start")
            return np.geomspace(self.start, self.stop, self.count)
        return np.linspace(self.start, self.stop, self.count)


@dataclass(frozen=True)
class SweepRow:
    axis_value: float
    total: float
    var_X: float
    var_Y: float
    entangled: bool
    C1: float
    C2: float
    error: Optional[str] = None


@dataclass(frozen=True)
class OptimizeSpec:
    lo: float
    hi: float
    tolerance: float = 1e-6  # relative bracket width

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError("optimize bracket needs lo < hi")
        if self.tolerance <= 0:
            raise ValueError("tolerance must be > 0")


def _steady_states(system: SystemParams):
    ss1 = mean_fields_from_effective_detuning(system.unit1, -system.unit1.mirror.omega_M)
    ss2 = mean_fields_from_effective_detuning(system.unit2, -system.unit2.mirror.omega_M)
    return ss1, ss2


def _require_identical(system: SystemParams, ss1, ss2, pair: str):
    """(C, r, n_th, gamma, kappa) shared by two identical units; else ValueError."""
    def close(a, b):
        return abs(a - b) <= 1e-9 * max(abs(a), abs(b), 1e-300)

    ok = (
        close(system.unit1.mirror.gamma, system.unit2.mirror.gamma)
        and close(system.unit1.resonator.kappa, system.unit2.resonator.kappa)
        and close(ss1.C, ss2.C)
        and close(ss1.n_th, ss2.n_th)
    )
    if not ok:
        raise ValueError(
            f"the nonadiabatic {pair} closed form assumes identical units; "
            "for asymmetric units use the adiabatic mirror form or the oracle route"
        )
    return (ss1.C, system.bath.r, ss1.n_th,
            system.unit1.mirror.gamma, system.unit1.resonator.kappa)


def _mirror_adiabatic(system: SystemParams, ss1, ss2) -> DuanResult:
    rates = AdiabaticRates.from_steady_states(ss1, ss2)
    return closedform.duan_sum_adiabatic_general(rates, system.bath)


def _mirror_nonadiabatic(system: SystemParams, ss1, ss2) -> DuanResult:
    args = _require_identical(system, ss1, ss2, "mirror")
    return closedform.duan_sum_nonadiabatic(*args)


def _field_nonadiabatic(system: SystemParams, ss1, ss2) -> DuanResult:
    args = _require_identical(system, ss1, ss2, "field")
    return closedform.field_sum_nonadiabatic(*args)


def _oracle_duan(pair: str, system: SystemParams, ss1, ss2) -> DuanResult:
    dd = oracle.build_rwa_drift_diffusion(system, (ss1, ss2))
    return oracle.duan_from_covariance(oracle.solve_lyapunov(dd), pair)


#: (pair, route) -> evaluator(system, ss1, ss2) at the red-detuned steady
#: states. The field pair has no adiabatic closed form. The evaluators look
#: up closedform and oracle functions at call time, so that wrappers put on
#: those modules (such as the benchmark's per-layer tracer) see every call.
EVALUATORS: dict[tuple[str, str], Callable[..., DuanResult]] = {
    ("mirror", "adiabatic"): _mirror_adiabatic,
    ("mirror", "nonadiabatic"): _mirror_nonadiabatic,
    ("field", "nonadiabatic"): _field_nonadiabatic,
    ("mirror", "oracle"): functools.partial(_oracle_duan, "mirror"),
    ("field", "oracle"): functools.partial(_oracle_duan, "field"),
}


def evaluate(system: SystemParams, pair: str, route: str) -> tuple[DuanResult, float, float]:
    """Duan sum of one pair by one route at the red-detuned operating point.

    Returns the result together with the cooperativities of both units.
    """
    evaluator = EVALUATORS[(pair, route)]
    ss1, ss2 = _steady_states(system)
    return evaluator(system, ss1, ss2), ss1.C, ss2.C


def evaluate_quantity(system: SystemParams, quantity: str) -> tuple[DuanResult, float, float]:
    """:func:`evaluate` for a named sweep quantity (see ``QUANTITIES``)."""
    key = QUANTITIES.get(quantity)
    if key is None:
        raise ValueError(f"unknown quantity {quantity!r}")
    return evaluate(system, *key)


def run_sweep(spec: SweepSpec) -> list[SweepRow]:
    """Evaluate the quantity over the grid; failures become error rows."""
    rows = []
    for x in spec.grid():
        x = float(x)
        try:
            system = set_param(spec.base, spec.axis, x)
            result, c1, c2 = evaluate_quantity(system, spec.quantity)
            rows.append(
                SweepRow(
                    axis_value=x,
                    total=result.total,
                    var_X=result.var_X,
                    var_Y=result.var_Y,
                    entangled=result.entangled,
                    C1=c1,
                    C2=c2,
                )
            )
        except (ValueError, RuntimeError, ArithmeticError) as exc:
            rows.append(
                SweepRow(
                    axis_value=x, total=math.nan, var_X=math.nan, var_Y=math.nan,
                    entangled=False, C1=math.nan, C2=math.nan,
                    error=f"{type(exc).__name__}: {exc}",
                )
            )
    return rows


def minimize_scalar(
    objective: Callable[[float], float],
    spec: OptimizeSpec,
    scan_points: int = 33,
) -> tuple[float, float]:
    """Golden-section search after verifying an interior minimum exists.

    A coarse scan locates a three-point bracket; the search then shrinks it
    to ``tolerance * (hi - lo)``. Raises :class:`BracketFailure` when every
    scanned interior point lies above both endpoints.
    """
    xs = np.linspace(spec.lo, spec.hi, scan_points)
    ys = np.array([objective(float(x)) for x in xs])
    k = int(np.argmin(ys))
    if k == 0 or k == scan_points - 1:
        raise BracketFailure(
            f"no interior minimum in [{spec.lo:g}, {spec.hi:g}]; "
            f"objective is smallest at the bracket edge"
        )
    a, b = float(xs[k - 1]), float(xs[k + 1])

    tol = spec.tolerance * (spec.hi - spec.lo)
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = objective(c), objective(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = objective(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = objective(d)
    x_min = c if fc < fd else d
    return x_min, min(fc, fd)


# ---------------------------------------------------------------------------
# figure datasets


@dataclass(frozen=True)
class FigureDataset:
    axis_name: str
    axis_unit: str
    columns: Sequence[str]  # one per curve, axis excluded
    rows: list[tuple]  # (axis_value, *curve_values)
    metadata: dict


def figure_dataset(fig_id: str, base: Optional[SystemParams] = None) -> FigureDataset:
    """Dataset behind one of the reference figures (fig2..fig9).

    ``base`` (the default preset if omitted) supplies every parameter that
    the figure does not fix; each figure applies its own fixed parameters
    on top of it, whatever preset or override it came from.
    """
    builders = {
        "fig2": _fig2, "fig3": _fig3, "fig4": _fig4,
        "fig5a": _fig5a, "fig5b": _fig5b, "fig6a": _fig6a, "fig6b": _fig6b,
        "fig8": _fig8, "fig9": _fig9,
    }
    if fig_id not in builders:
        raise UnknownFigure(fig_id)
    return builders[fig_id](base if base is not None else config.default_system())


def _adiabatic_total(system: SystemParams) -> float:
    result, _, _ = evaluate_quantity(system, "mirror-duan-adiabatic")
    return result.total


def _curve_rows(base: SystemParams, axis_paths: Sequence[str], axis_values,
                curve_path: str, curve_values: Sequence[float]) -> list[tuple]:
    """(axis value, adiabatic total of each curve) for every axis value.

    The axis value goes to every path in ``axis_paths``, then each curve
    sets ``curve_path`` to its own value.
    """
    rows = []
    for x in axis_values:
        x = float(x)
        system = base
        for path in axis_paths:
            system = set_param(system, path, x)
        rows.append((x, *[_adiabatic_total(set_param(system, curve_path, v))
                          for v in curve_values]))
    return rows


def optimize_partner(base: SystemParams, field: str, value1: float,
                     spec: OptimizeSpec) -> tuple[float, float]:
    """(argmin, min) of the adiabatic total over unit 2's ``field``.

    Unit 1's ``field`` is held at ``value1``; ``field`` is a unit path
    without its unit, such as ``power`` or ``mirror.omega_M``.
    """
    fixed = set_param(base, f"unit1.{field}", value1)
    path2 = f"unit2.{field}"
    return minimize_scalar(lambda value2: _adiabatic_total(set_param(fixed, path2, value2)),
                           spec)


_FIG23_R = (0.5, 1.0, 2.0)


def _r_curves(base: SystemParams, axis_name: str, axis_unit: str,
              axis_paths: Sequence[str], axis_values) -> FigureDataset:
    return FigureDataset(
        axis_name=axis_name, axis_unit=axis_unit,
        columns=[f"total_r_{r:g}" for r in _FIG23_R],
        rows=_curve_rows(base, axis_paths, axis_values, "bath.r", _FIG23_R),
        metadata=_system_metadata(base) | {"r_values": list(_FIG23_R)},
    )


def _fig2(base: SystemParams) -> FigureDataset:
    return _r_curves(base, "temperature", "K", ("temperature",),
                     np.linspace(1e-6, 1.0, 241))


def _fig3(base: SystemParams) -> FigureDataset:
    for unit in ("unit1", "unit2"):  # resonant cavity, omega_r = omega_L
        base = set_param(base, f"{unit}.omega_r", getattr(base, unit).resonator.omega_L)
    return _r_curves(base, "power", "W", ("unit1.power", "unit2.power"),
                     np.linspace(1e-8, 2e-5, 241))


def _fig4(base: SystemParams) -> FigureDataset:
    cs = np.linspace(0.0, 20.0, 241)
    n_values = (1.0, 5.0, 10.0)
    rows = [
        (float(c), *[
            closedform.duan_sum_adiabatic_identical(float(c), 1.0, n).total
            for n in n_values
        ])
        for c in cs
    ]
    return FigureDataset(
        axis_name="cooperativity", axis_unit="1",
        columns=[f"total_nth_{n:g}" for n in n_values], rows=rows,
        metadata={"r": 1.0, "n_th_values": list(n_values)},
    )


_FIG5_T = 0.25e-3  # K
_FIG5_R = 2.0
_FIG6_P = 11e-3  # W
_OPT_TEMPERATURES = (0.25e-3, 0.4e-3, 0.5e-3)  # K, one optimized curve each
_OPT_COLUMNS = tuple(f"optimized_total_T_{T * 1e3:g}mK" for T in _OPT_TEMPERATURES)


def _optimized_rows(base: SystemParams, field: str, values1, lo: float,
                    hi: float) -> list[tuple]:
    """(unit 1's value, optimized total at each temperature) for every value.

    Unit 2's ``field`` is searched over ``[lo, hi]`` times unit 1's value.
    """
    rows = []
    for v1 in values1:
        v1 = float(v1)
        spec = OptimizeSpec(lo=lo * v1, hi=hi * v1)
        rows.append((v1, *[
            optimize_partner(set_param(base, "temperature", T), field, v1, spec)[1]
            for T in _OPT_TEMPERATURES
        ]))
    return rows


def _fig5a(base: SystemParams) -> FigureDataset:
    base = set_param(set_param(base, "temperature", _FIG5_T), "bath.r", _FIG5_R)
    p1_values = (5e-3, 10e-3, 15e-3)
    return FigureDataset(
        axis_name="power_2", axis_unit="W",
        columns=[f"total_P1_{p1 * 1e3:g}mW" for p1 in p1_values],
        rows=_curve_rows(base, ("unit2.power",), np.linspace(0.2e-3, 30e-3, 241),
                         "unit1.power", p1_values),
        metadata=_system_metadata(base)
        | {"r": _FIG5_R, "temperature": _FIG5_T, "p1_values": list(p1_values)},
    )


def _fig5b(base: SystemParams) -> FigureDataset:
    base = set_param(base, "bath.r", _FIG5_R)
    return FigureDataset(
        axis_name="power_1", axis_unit="W", columns=_OPT_COLUMNS,
        rows=_optimized_rows(base, "power", np.linspace(1e-3, 30e-3, 59), 0.1, 3.0),
        metadata=_system_metadata(base)
        | {"r": _FIG5_R, "temperatures": list(_OPT_TEMPERATURES)},
    )


def _fig6_base(base: SystemParams) -> SystemParams:
    base = set_param(set_param(base, "temperature", _FIG5_T), "bath.r", _FIG5_R)
    return set_param(set_param(base, "unit1.power", _FIG6_P), "unit2.power", _FIG6_P)


def _fig6a(base: SystemParams) -> FigureDataset:
    base = _fig6_base(base)
    wm_ref = base.unit1.mirror.omega_M
    wm1_values = (0.5 * wm_ref, wm_ref, 1.5 * wm_ref)
    return FigureDataset(
        axis_name="omega_M2", axis_unit="rad/s",
        columns=[f"total_wM1_{wm1:.6g}" for wm1 in wm1_values],
        rows=_curve_rows(base, ("unit2.mirror.omega_M",),
                         np.linspace(0.2 * wm_ref, 2.0 * wm_ref, 241),
                         "unit1.mirror.omega_M", wm1_values),
        metadata=_system_metadata(base) | {"omega_M1_values": list(wm1_values)},
    )


def _fig6b(base: SystemParams) -> FigureDataset:
    base = _fig6_base(base)
    wm_ref = base.unit1.mirror.omega_M
    return FigureDataset(
        axis_name="omega_M1", axis_unit="rad/s", columns=_OPT_COLUMNS,
        rows=_optimized_rows(base, "mirror.omega_M",
                             np.linspace(0.4 * wm_ref, 2.0 * wm_ref, 49), 0.2, 3.0),
        metadata=_system_metadata(base) | {"temperatures": list(_OPT_TEMPERATURES)},
    )


def _fig8(base: SystemParams) -> FigureDataset:
    cs = np.linspace(1.0, 100.0, 241)
    r, n_th = 2.0, 5.0
    ratios = (0.01, 0.05)
    rows = []
    for c in cs:
        adiab = closedform.duan_sum_adiabatic_identical(float(c), r, n_th).total
        nonad = [
            closedform.duan_sum_nonadiabatic(float(c), r, n_th, ratio, 1.0).total
            for ratio in ratios
        ]
        rows.append((float(c), adiab, *nonad))
    return FigureDataset(
        axis_name="cooperativity", axis_unit="1",
        columns=["total_adiabatic"] + [f"total_gk_{q:g}" for q in ratios], rows=rows,
        metadata={"r": r, "n_th": n_th, "gamma_over_kappa": list(ratios)},
    )


def _fig9(base: SystemParams) -> FigureDataset:
    rs = np.linspace(0.0, 3.0, 301)
    ratio, n_th = 6.5e-4, 5.0
    c_values = (15.0, 30.0, 90.0)
    c_field = 15.0
    rows = []
    for r in rs:
        mirror = [
            closedform.duan_sum_nonadiabatic(c, float(r), n_th, ratio, 1.0).total
            for c in c_values
        ]
        field = closedform.field_sum_nonadiabatic(c_field, float(r), n_th, ratio, 1.0).total
        rows.append((float(r), *mirror, field))
    return FigureDataset(
        axis_name="squeeze_parameter", axis_unit="1",
        columns=[f"mirror_total_C_{c:g}" for c in c_values] + ["field_total"],
        rows=rows,
        metadata={
            "gamma_over_kappa": ratio, "n_th": n_th,
            "mirror_C_values": list(c_values), "field_C": c_field,
        },
    )


def _system_metadata(system: SystemParams) -> dict:
    md = {}
    for name in ("unit1", "unit2"):
        unit = getattr(system, name)
        for sub in ("resonator", "mirror"):
            obj = getattr(unit, sub)
            for f in dataclasses.fields(obj):
                md[f"{name}.{sub}.{f.name}"] = getattr(obj, f.name)
    md["bath.r"] = system.bath.r
    return md
