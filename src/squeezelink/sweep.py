"""Parameter sweeps, scalar optimization and figure datasets.

Grid points are independent pure evaluations; rows come back in axis
order and are identical regardless of how the evaluation is scheduled.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import closedform, oracle
from .closedform import AdiabaticRates, DuanResult
from .model import (
    OptomechanicalUnit,
    SqueezedBath,
    SystemParams,
    mean_fields_from_effective_detuning,
)

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

QUANTITIES = (
    "mirror-duan-adiabatic",
    "mirror-duan-nonadiabatic",
    "field-duan",
    "oracle-duan",
)


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

    parts = path.split(".")
    head, rest = parts[0], parts[1:]
    if head == "bath":
        if rest != ["r"]:
            raise ValueError(f"unknown bath parameter path {path!r}")
        return dataclasses.replace(system, bath=SqueezedBath(r=value))
    if head not in ("unit1", "unit2"):
        raise ValueError(f"unknown parameter path {path!r}")
    unit = getattr(system, head)
    return dataclasses.replace(system, **{head: _set_unit_param(unit, rest, value, path)})


def _set_unit_param(unit: OptomechanicalUnit, rest, value, path):
    if len(rest) == 2:
        sub, field = rest
        if sub not in ("resonator", "mirror"):
            raise ValueError(f"unknown parameter path {path!r}")
    elif len(rest) == 1:
        field = rest[0]
        in_res = field in {f.name for f in dataclasses.fields(unit.resonator)}
        in_mir = field in {f.name for f in dataclasses.fields(unit.mirror)}
        if in_res and in_mir:
            raise ValueError(f"ambiguous parameter path {path!r}")
        if not (in_res or in_mir):
            raise ValueError(f"unknown parameter path {path!r}")
        sub = "resonator" if in_res else "mirror"
    else:
        raise ValueError(f"unknown parameter path {path!r}")
    target = getattr(unit, sub)
    if field not in {f.name for f in dataclasses.fields(target)}:
        raise ValueError(f"unknown parameter path {path!r}")
    return dataclasses.replace(unit, **{sub: dataclasses.replace(target, **{field: value})})


def _steady_states(system: SystemParams):
    ss1 = mean_fields_from_effective_detuning(system.unit1, -system.unit1.mirror.omega_M)
    ss2 = mean_fields_from_effective_detuning(system.unit2, -system.unit2.mirror.omega_M)
    return ss1, ss2


def _require_identical(system: SystemParams, ss1, ss2, quantity):
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
            f"quantity {quantity!r} assumes identical units; "
            "use 'mirror-duan-adiabatic' or 'oracle-duan' for asymmetric systems"
        )


def evaluate_quantity(system: SystemParams, quantity: str) -> tuple[DuanResult, float, float]:
    """Evaluate one entanglement quantity at the red-detuned operating point.

    Returns the Duan result together with the cooperativities of both units.
    """
    ss1, ss2 = _steady_states(system)
    if quantity == "mirror-duan-adiabatic":
        result = closedform.duan_sum_adiabatic_general(
            AdiabaticRates.from_steady_states(ss1, ss2), system.bath
        )
    elif quantity == "mirror-duan-nonadiabatic":
        _require_identical(system, ss1, ss2, quantity)
        result = closedform.duan_sum_nonadiabatic(
            ss1.C, system.bath.r, ss1.n_th,
            system.unit1.mirror.gamma, system.unit1.resonator.kappa,
        )
    elif quantity == "field-duan":
        _require_identical(system, ss1, ss2, quantity)
        result = closedform.field_sum_nonadiabatic(
            ss1.C, system.bath.r, ss1.n_th,
            system.unit1.mirror.gamma, system.unit1.resonator.kappa,
        )
    elif quantity == "oracle-duan":
        dd = oracle.build_rwa_drift_diffusion(system, (ss1, ss2))
        V = oracle.solve_lyapunov(dd)
        result = oracle.duan_from_covariance(V, pair="mirror")
    else:
        raise ValueError(f"unknown quantity {quantity!r}")
    return result, ss1.C, ss2.C


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

    ``base`` overrides the built-in default system; figure-specific
    parameters from the reference parameter sets still take precedence.
    """
    from .config import default_system, fig3_system

    builders = {
        "fig2": _fig2, "fig3": _fig3, "fig4": _fig4,
        "fig5a": _fig5a, "fig5b": _fig5b, "fig6a": _fig6a, "fig6b": _fig6b,
        "fig8": _fig8, "fig9": _fig9,
    }
    if fig_id not in builders:
        raise UnknownFigure(fig_id)
    if base is None:
        base = fig3_system() if fig_id == "fig3" else default_system()
    return builders[fig_id](base)


def _adiabatic_total(system: SystemParams) -> float:
    result, _, _ = evaluate_quantity(system, "mirror-duan-adiabatic")
    return result.total


def _fig2(base: SystemParams) -> FigureDataset:
    temps = np.linspace(1e-6, 1.0, 241)
    r_values = (0.5, 1.0, 2.0)
    rows = []
    for T in temps:
        sys_t = set_param(base, "temperature", float(T))
        vals = [
            _adiabatic_total(set_param(sys_t, "bath.r", r)) for r in r_values
        ]
        rows.append((float(T), *vals))
    return FigureDataset(
        axis_name="temperature", axis_unit="K",
        columns=[f"total_r_{r:g}" for r in r_values], rows=rows,
        metadata=_system_metadata(base) | {"r_values": list(r_values)},
    )


def _fig3(base: SystemParams) -> FigureDataset:
    powers = np.linspace(1e-8, 2e-5, 241)
    r_values = (0.5, 1.0, 2.0)
    rows = []
    for P in powers:
        sys_p = set_param(set_param(base, "unit1.power", float(P)), "unit2.power", float(P))
        vals = [_adiabatic_total(set_param(sys_p, "bath.r", r)) for r in r_values]
        rows.append((float(P), *vals))
    return FigureDataset(
        axis_name="power", axis_unit="W",
        columns=[f"total_r_{r:g}" for r in r_values], rows=rows,
        metadata=_system_metadata(base) | {"r_values": list(r_values)},
    )


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


def _fig5a(base: SystemParams) -> FigureDataset:
    base = set_param(set_param(base, "temperature", _FIG5_T), "bath.r", _FIG5_R)
    p1_values = (5e-3, 10e-3, 15e-3)
    p2s = np.linspace(0.2e-3, 30e-3, 241)
    rows = []
    for p2 in p2s:
        vals = []
        for p1 in p1_values:
            sys_p = set_param(set_param(base, "unit1.power", p1), "unit2.power", float(p2))
            vals.append(_adiabatic_total(sys_p))
        rows.append((float(p2), *vals))
    return FigureDataset(
        axis_name="power_2", axis_unit="W",
        columns=[f"total_P1_{p1 * 1e3:g}mW" for p1 in p1_values], rows=rows,
        metadata=_system_metadata(base)
        | {"r": _FIG5_R, "temperature": _FIG5_T, "p1_values": list(p1_values)},
    )


def _optimized_total(base: SystemParams, fixed_path: str, fixed_value: float,
                     opt_path: str, spec: OptimizeSpec) -> float:
    sys_fixed = set_param(base, fixed_path, fixed_value)

    def objective(v: float) -> float:
        return _adiabatic_total(set_param(sys_fixed, opt_path, v))

    _, best = minimize_scalar(objective, spec)
    return best


def _fig5b(base: SystemParams) -> FigureDataset:
    base = set_param(base, "bath.r", _FIG5_R)
    temp_values = (0.25e-3, 0.4e-3, 0.5e-3)
    p1s = np.linspace(1e-3, 30e-3, 59)
    rows = []
    for p1 in p1s:
        vals = []
        for T in temp_values:
            sys_t = set_param(base, "temperature", T)
            spec = OptimizeSpec(lo=0.1 * float(p1), hi=3.0 * float(p1))
            vals.append(
                _optimized_total(sys_t, "unit1.power", float(p1), "unit2.power", spec)
            )
        rows.append((float(p1), *vals))
    return FigureDataset(
        axis_name="power_1", axis_unit="W",
        columns=[f"optimized_total_T_{T * 1e3:g}mK" for T in temp_values], rows=rows,
        metadata=_system_metadata(base) | {"r": _FIG5_R, "temperatures": list(temp_values)},
    )


_FIG6_P = 11e-3  # W


def _fig6_base(base: SystemParams) -> SystemParams:
    base = set_param(set_param(base, "temperature", _FIG5_T), "bath.r", _FIG5_R)
    return set_param(set_param(base, "unit1.power", _FIG6_P), "unit2.power", _FIG6_P)


def _fig6a(base: SystemParams) -> FigureDataset:
    base = _fig6_base(base)
    wm_ref = base.unit1.mirror.omega_M
    wm1_values = (0.5 * wm_ref, wm_ref, 1.5 * wm_ref)
    wm2s = np.linspace(0.2 * wm_ref, 2.0 * wm_ref, 241)
    rows = []
    for wm2 in wm2s:
        vals = []
        for wm1 in wm1_values:
            sys_w = set_param(
                set_param(base, "unit1.mirror.omega_M", wm1),
                "unit2.mirror.omega_M", float(wm2),
            )
            vals.append(_adiabatic_total(sys_w))
        rows.append((float(wm2), *vals))
    return FigureDataset(
        axis_name="omega_M2", axis_unit="rad/s",
        columns=[f"total_wM1_{wm1:.6g}" for wm1 in wm1_values], rows=rows,
        metadata=_system_metadata(base) | {"omega_M1_values": list(wm1_values)},
    )


def _fig6b(base: SystemParams) -> FigureDataset:
    base = _fig6_base(base)
    temp_values = (0.25e-3, 0.4e-3, 0.5e-3)
    wm_ref = base.unit1.mirror.omega_M
    wm1s = np.linspace(0.4 * wm_ref, 2.0 * wm_ref, 49)
    rows = []
    for wm1 in wm1s:
        vals = []
        for T in temp_values:
            sys_t = set_param(base, "temperature", T)
            spec = OptimizeSpec(lo=0.2 * float(wm1), hi=3.0 * float(wm1))
            vals.append(
                _optimized_total(
                    sys_t, "unit1.mirror.omega_M", float(wm1),
                    "unit2.mirror.omega_M", spec,
                )
            )
        rows.append((float(wm1), *vals))
    return FigureDataset(
        axis_name="omega_M1", axis_unit="rad/s",
        columns=[f"optimized_total_T_{T * 1e3:g}mK" for T in temp_values], rows=rows,
        metadata=_system_metadata(base) | {"temperatures": list(temp_values)},
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
