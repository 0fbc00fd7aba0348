"""Parameter sweeps, scalar optimization and figure datasets.

Grid points are independent pure evaluations; rows come back in axis
order and are identical regardless of how the evaluation is scheduled.
A point goes through :func:`evaluate` and a grid through the array core
:func:`_sweep_columns`; the two branch alike, the core on the array twins.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import partial
from itertools import repeat

from . import closedform, config, oracle
from ._lazy import lazy_import
from .closedform import DuanResult
from .model import (
    Record,
    SidebandArrays,
    SystemParams,
    mean_fields_from_effective_detuning,
    red_sideband_arrays,
    set_param,
    squeeze_arrays,
    unit_targets,
)

np = lazy_import("numpy")

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

#: points each golden-section search scans for its starting bracket
SCAN_POINTS = 33

#: sweep quantity name -> (pair, route) of :func:`evaluate`
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


#: the most grid points one sweep may have
MAX_SWEEP_POINTS = 10**6


class SweepSpec(Record):
    base: SystemParams
    axis: str
    start: float
    stop: float
    count: int
    scale: str = "linear"
    quantity: str = "mirror-duan-adiabatic"

    def __post_init__(self):
        if self.axis != "bath.r":
            unit_targets(self.axis)  # raises UnknownPath
        if not (math.isfinite(self.start) and math.isfinite(self.stop)):
            raise ValueError("sweep range needs a finite start and stop")
        if not self.start < self.stop:
            raise ValueError("sweep range needs start < stop")
        if not math.isfinite(self.stop - self.start):
            raise ValueError("sweep range needs a finite width stop - start")
        if not 2 <= self.count <= MAX_SWEEP_POINTS:
            raise ValueError(f"sweep needs 2 to {MAX_SWEEP_POINTS} grid points, got {self.count}")
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


SweepRow = namedtuple("SweepRow", "axis_value total var_X var_Y entangled C1 C2 error",
                      defaults=(None,))
SweepRow.__doc__ = (
    """One grid point; a failing point has NaN values and its exception in ``error``.""")


class OptimizeSpec(Record):
    lo: float
    hi: float
    tolerance: float = 1e-6  # relative bracket width

    def __post_init__(self):
        if not (math.isfinite(self.lo) and math.isfinite(self.hi) and self.lo < self.hi):
            raise ValueError("optimize bracket needs finite lo < hi")
        if not 0.0 < self.tolerance < 1.0:  # also rejects NaN
            raise ValueError(f"tolerance must lie in (0, 1), got {self.tolerance!r}")


def _identical(unit1, unit2, maximum):
    """Whether two units' parameter tuples, such as (gamma, kappa, C, n_th), agree to 1e-9.

    ``maximum`` is ``max`` for floats and ``np.maximum`` for arrays.
    """
    same = True
    for a, b in zip(unit1, unit2):
        diff = abs(a - b)  # not finite for inf against a finite value: never identical
        scale = maximum(maximum(abs(a), abs(b)), 1e-300)
        # equal values agree also where their difference is inf - inf = NaN
        same = same & ((a == b) | ((diff < math.inf) & (diff <= 1e-9 * scale)))
    return same


def _require_identical(system: SystemParams, ss1, ss2, pair: str):
    """(C, r, n_th, gamma, kappa) shared by two identical units; else ValueError."""
    u1, u2 = system.unit1, system.unit2
    if not _identical((u1.mirror.gamma, u1.resonator.kappa, ss1.C, ss1.n_th),
                      (u2.mirror.gamma, u2.resonator.kappa, ss2.C, ss2.n_th), max):
        raise ValueError(
            f"the nonadiabatic {pair} closed form assumes identical units; "
            "for asymmetric units use the adiabatic mirror form or the oracle route"
        )
    return (ss1.C, system.bath.r, ss1.n_th,
            system.unit1.mirror.gamma, system.unit1.resonator.kappa)


def evaluate(system: SystemParams, pair: str, route: str) -> tuple[DuanResult, float, float]:
    """Duan sum of one pair by one route at the red-detuned operating point.

    Returns the result together with the cooperativities of both units.
    The field pair's adiabatic route gives its only closed form, the
    nonadiabatic one. Branches as :func:`_sweep_columns`, and looks up
    closedform and oracle functions at call time, so that wrappers put on
    those modules (such as the benchmark's per-layer tracer) see every call.
    """
    if pair not in ("mirror", "field") or route not in ("adiabatic", "nonadiabatic", "oracle"):
        raise ValueError(f"unknown pair {pair!r} or route {route!r}")
    ss1, ss2 = (mean_fields_from_effective_detuning(unit, -unit.mirror.omega_M)
                for unit in (system.unit1, system.unit2))
    if route == "oracle":
        dd = oracle.build_rwa_drift_diffusion(system, (ss1, ss2))
        result = oracle.duan_from_covariance(oracle.solve_lyapunov(dd), pair)
    elif (pair, route) == ("mirror", "adiabatic"):
        result = closedform.duan_sum_adiabatic_general(ss1, ss2, system.bath.N,
                                                       system.bath.M_corr)
    else:
        closed = (closedform.duan_sum_nonadiabatic if pair == "mirror"
                  else closedform.field_sum_nonadiabatic)
        result = closed(*_require_identical(system, ss1, ss2, pair))
    return result, ss1.C, ss2.C


def evaluate_quantity(system: SystemParams, quantity: str) -> tuple[DuanResult, float, float]:
    """:func:`evaluate` for a named sweep quantity (see ``QUANTITIES``)."""
    key = QUANTITIES.get(quantity)
    if key is None:
        raise ValueError(f"unknown quantity {quantity!r}")
    return evaluate(system, *key)


def run_sweep(spec: SweepSpec) -> list[SweepRow]:
    """Evaluate the quantity over the grid; failures become error rows.

    The grid goes through the array core in one call per unit and route
    (the oracle in chunks, see :func:`oracle.covariance_chunks`). The array
    core raises for a failing point, and then every point of the grid takes
    the per-point route (:func:`evaluate_quantity`) for its row. So the rows
    equal that route's, bit for bit and error text included.
    """
    grid = spec.grid()
    try:
        with np.errstate(all="ignore"):  # a non-finite value raises where it is checked
            columns = _sweep_columns(spec, grid)
    except (ValueError, RuntimeError, ArithmeticError):
        return [_point_row(spec, x) for x in grid.tolist()]
    # one pass; tuple.__new__ builds each row without the named tuple's arity check
    return list(map(partial(tuple.__new__, SweepRow),
                    zip(*(c.tolist() for c in columns), repeat(None))))


def _sweep_columns(spec: SweepSpec, grid: np.ndarray) -> Sequence[np.ndarray]:
    """The :class:`SweepRow` fields but ``error`` over the grid; a failing point raises.

    Only what the axis sets runs through the array twins: a unit or bath that
    the grid holds fixed is evaluated once, as a point (see :func:`_sideband`
    and :func:`_bath_terms`). The nonadiabatic routes read r and no bath terms.
    """
    pair, route = QUANTITIES[spec.quantity]
    overrides = {spec.axis: grid}
    u1, u2 = _unit_arrays(spec.base, overrides)
    if route == "oracle":
        units = [(u.gamma, u.kappa, u.G, u.n_th) for u in (u1, u2)]
        var_X, var_Y = oracle.duan_variance_arrays(*units, *_bath_terms(spec.base, overrides),
                                                   pair)
        total = var_X + var_Y
    elif (pair, route) == ("mirror", "adiabatic"):
        total = closedform.duan_sum_adiabatic_arrays(u1, u2, *_bath_terms(spec.base, overrides))
        var_X = var_Y = total / 2.0  # as DuanResult.from_total
    else:
        if not np.all(_identical((u1.gamma, u1.kappa, u1.C, u1.n_th),
                                 (u2.gamma, u2.kappa, u2.C, u2.n_th), np.maximum)):
            raise ValueError("units differ")  # the per-point route words the error
        closed = (closedform.duan_sum_nonadiabatic_arrays if pair == "mirror"
                  else closedform.field_sum_nonadiabatic_arrays)
        r = overrides.get("bath.r", spec.base.bath.r)
        total = closed(u1.C, r, u1.n_th, u1.gamma, u1.kappa)
        var_X = var_Y = total / 2.0
    return np.broadcast_arrays(grid, total, var_X, var_Y,
                               total < closedform.SEPARABILITY_BOUND, u1.C, u2.C)


def _point_row(spec: SweepSpec, x: float) -> SweepRow:
    """The row of one grid point by the per-point route."""
    try:
        result, c1, c2 = evaluate_quantity(set_param(spec.base, spec.axis, x), spec.quantity)
    except (ValueError, RuntimeError, ArithmeticError) as exc:
        return SweepRow(x, math.nan, math.nan, math.nan, False, math.nan, math.nan,
                        error=f"{type(exc).__name__}: {exc}")
    return SweepRow(x, result.total, result.var_X, result.var_Y, result.entangled, c1, c2)


def _golden_searches(objective: Callable[[np.ndarray, np.ndarray], np.ndarray],
                     specs: Sequence[OptimizeSpec]) -> tuple[np.ndarray, np.ndarray]:
    """(argmins, minima) of one golden-section search per spec, run in lockstep.

    ``objective(x, search)`` gets points ``x`` of shape ``(len(search), k)``
    and returns the objective of search ``search[j]`` at each point of row
    ``j``, in the same shape. Each search scans ``SCAN_POINTS`` points of its
    bracket for a three-point bracket around the smallest value, then
    shrinks that bracket by the golden ratio to ``tolerance * (hi - lo)``.
    All searches share one objective call per scan and per golden step; a
    search drops out of the calls once its bracket is small enough, so
    every search sees the same points, and returns the same bits, as it
    would alone. Raises :class:`BracketFailure` for the first search whose
    scan is smallest at a bracket edge.
    """
    n = len(specs)
    lo = np.array([spec.lo for spec in specs])
    hi = np.array([spec.hi for spec in specs])
    tol = np.array([spec.tolerance for spec in specs]) * (hi - lo)
    every = np.arange(n)

    xs = np.linspace(lo, hi, SCAN_POINTS, axis=1)
    ys = objective(xs, every)
    k = np.argmin(ys, axis=1)
    edge = np.flatnonzero((k == 0) | (k == SCAN_POINTS - 1))
    if edge.size:
        i = edge[0]
        which = f"search {i} of {n}: " if n > 1 else ""
        raise BracketFailure(
            f"{which}no interior minimum in [{lo[i]:g}, {hi[i]:g}]; "
            f"objective is smallest at the bracket edge"
        )
    a, b = xs[every, k - 1], xs[every, k + 1]
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    f = objective(np.stack([c, d], axis=1), every)
    fc, fd = f[:, 0], f[:, 1]

    active = every[b - a > tol]
    while active.size:
        a0, b0, c0, d0 = a[active], b[active], c[active], d[active]
        fc0, fd0 = fc[active], fd[active]
        # left: the minimum lies in [a, d], and c moves in; right: in [c, b], d moves in
        left = fc0 < fd0
        a1 = np.where(left, a0, c0)
        b1 = np.where(left, d0, b0)
        x = np.where(left, b1 - _GOLDEN * (b1 - a1), a1 + _GOLDEN * (b1 - a1))
        fx = objective(x[:, None], active)[:, 0]
        a[active], b[active] = a1, b1
        c[active] = np.where(left, x, d0)
        d[active] = np.where(left, c0, x)
        fc[active] = np.where(left, fx, fd0)
        fd[active] = np.where(left, fc0, fx)
        active = active[b1 - a1 > tol[active]]
    return np.where(fc < fd, c, d), np.where(fd < fc, fd, fc)


# ---------------------------------------------------------------------------
# figure datasets


class FigureDataset(Record):
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


def adiabatic_totals(system: SystemParams, overrides: dict) -> np.ndarray:
    """Adiabatic mirror totals with each path of ``overrides`` set to arrays.

    The paths are those of :func:`set_param` and the arrays broadcast
    together. Element by element the totals equal, bit for bit, the total
    of ``evaluate(s, "mirror", "adiabatic")`` where ``s`` is ``system``
    with those values set, and an invalid element raises what building and
    evaluating ``s`` would raise. A unit or bath that no path sets is
    evaluated once, as a point (see :func:`_sideband` and :func:`_bath_terms`).
    """
    u1, u2 = _unit_arrays(system, overrides)
    return closedform.duan_sum_adiabatic_arrays(u1, u2, *_bath_terms(system, overrides))


def _unit_arrays(system: SystemParams, overrides: dict):
    """Each unit's :class:`SidebandArrays` with ``overrides`` set.

    Two equal units given the same arrays, as in a ``temperature`` sweep of
    identical units, share unit 1's rates.
    """
    fields = _unit_fields(overrides)
    unit1 = _sideband(system.unit1, fields["unit1"])
    shared = (fields["unit1"].keys() == fields["unit2"].keys()
              and all(fields["unit2"][name] is values for name, values in fields["unit1"].items())
              and system.unit1 == system.unit2)
    unit2 = unit1 if shared else _sideband(system.unit2, fields["unit2"])
    return unit1, unit2


def _sideband(unit, fields: dict) -> SidebandArrays:
    """:func:`red_sideband_arrays` of ``unit`` with ``fields`` set.

    A unit with no field set is evaluated once, as a point: its per-point
    steady state, as floats. The per-point and array rates share one op
    sequence, so both give the same bits, and the per-point steady state
    raises what the array twin raises.
    """
    if fields:
        return red_sideband_arrays(unit, **fields)
    ss = mean_fields_from_effective_detuning(unit, -unit.mirror.omega_M)
    return SidebandArrays(ss.G, ss.Gamma_a, ss.Gamma, ss.C, ss.n_th,
                          unit.mirror.gamma, unit.resonator.kappa)


def _bath_terms(system: SystemParams, overrides: dict):
    """The bath's (N, M): :func:`squeeze_arrays` where ``overrides`` sets ``bath.r``,
    else, as a point, the bath's own ``N`` and ``M_corr``."""
    if "bath.r" in overrides:
        return squeeze_arrays(overrides["bath.r"])
    return system.bath.N, system.bath.M_corr


def _unit_fields(overrides: dict) -> dict[str, dict]:
    """Each unit's fields set by the paths of ``overrides``; a later path wins."""
    fields = {"unit1": {}, "unit2": {}}
    for path, values in overrides.items():
        if path != "bath.r":
            for unit, _, field in unit_targets(path):
                fields[unit][field] = values
    return fields


def _curve_rows(base: SystemParams, axis_paths: Sequence[str], axis_values,
                curve_path: str, curve_values: Sequence[float]) -> list[tuple]:
    """(axis value, adiabatic total of each curve) for every axis value.

    The axis value goes to every path in ``axis_paths``, and each curve
    sets ``curve_path`` to its own value.
    """
    axis = np.asarray(axis_values, dtype=float)
    column = axis[:, None]  # one object for every path, so that equal units share it
    totals = adiabatic_totals(base, dict.fromkeys(axis_paths, column)
                              | {curve_path: np.asarray(curve_values, dtype=float)})
    return [(x, *row) for x, row in zip(axis.tolist(), totals.tolist())]


def optimize_partners(base: SystemParams, field: str, values1, specs: Sequence[OptimizeSpec],
                      overrides: Optional[dict] = None) -> tuple[np.ndarray, np.ndarray]:
    """(argmins, minima) of the adiabatic total over unit 2's ``field``.

    Search k holds unit 1's ``field`` at ``values1[k]`` and each path of
    ``overrides`` at its k-th value, and searches unit 2's ``field`` over
    the bracket of ``specs[k]``. ``field`` is a unit path without its unit,
    such as ``power`` or ``mirror.omega_M``. All searches run in lockstep
    (see :func:`_golden_searches`), each with the result it has alone.

    Unit 1's rates and the bath's terms do not depend on unit 2's field, so
    each is built once per batch, as a column over its searches; every
    scan and golden step builds unit 2's rates alone. Unless ``field`` is
    ``omega_M`` or ``temperature``, unit 2's thermal occupation does not
    depend on it either: the scan builds it, and the golden steps take its
    rows. The totals are those of :func:`adiabatic_totals` at each search's
    values, bit for bit, and an invalid value raises what the first
    :func:`adiabatic_totals` call of the batch would raise: unit 1's before
    unit 2's, and unit 2's before the bath's.
    """
    values1 = np.asarray(values1, dtype=float)
    every = np.arange(len(specs))
    # per-search values as columns, so that they broadcast along each row; the
    # merge gives the searched field's own values precedence, as in adiabatic_totals,
    # and None stands for unit 2's points
    columns = {path: np.asarray(values, dtype=float)[every, None]
               for path, values in (overrides or {}).items()}
    fields = _unit_fields(columns | {f"unit1.{field}": values1[every, None],
                                     f"unit2.{field}": None})
    unit1 = red_sideband_arrays(base.unit1, **fields["unit1"])
    keeps_occupation = field.rpartition(".")[2] not in ("omega_M", "temperature")
    bath, occupation = [], []

    def objective(x, search):
        unit2 = red_sideband_arrays(
            base.unit2, _n_th=_rows(occupation[0], search) if occupation else None,
            **{name: x if values is None else values[search]
               for name, values in fields["unit2"].items()})
        if not bath:  # after unit 2's first build, where adiabatic_totals checks r
            bath.extend(_bath_terms(base, columns))
            if keeps_occupation:  # the scan's build is a column over every search
                occupation.append(unit2.n_th)
        return closedform.duan_sum_adiabatic_arrays(
            SidebandArrays._make(_rows(a, search) for a in unit1), unit2,
            *(_rows(a, search) for a in bath))

    return _golden_searches(objective, specs)


def _rows(column, search):
    """The rows ``search`` of a column; a scalar, the same for every search, as it is."""
    return column[search] if np.ndim(column) else column


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
    totals = closedform.duan_sum_adiabatic_identical_arrays(cs[:, None], 1.0, n_values)
    rows = [(c, *row) for c, row in zip(cs.tolist(), totals.tolist())]
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

    Unit 2's ``field`` is searched over ``[lo, hi]`` times unit 1's value;
    every (value, temperature) search runs in one lockstep batch.
    """
    values1 = np.asarray(values1, dtype=float).tolist()
    temps = len(_OPT_TEMPERATURES)
    specs = [OptimizeSpec(lo=lo * v1, hi=hi * v1) for v1 in values1 for _ in range(temps)]
    _, minima = optimize_partners(
        base, field, np.repeat(values1, temps), specs,
        {"temperature": np.tile(_OPT_TEMPERATURES, len(values1))})
    return [(v1, *row) for v1, row in zip(values1, minima.reshape(-1, temps).tolist())]


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
    adiabatic = closedform.duan_sum_adiabatic_identical_arrays(cs, r, n_th)
    nonad = closedform.duan_sum_nonadiabatic_arrays(cs[:, None], r, n_th, ratios, 1.0)
    rows = [(c, a, *t) for c, a, t in zip(cs.tolist(), adiabatic.tolist(), nonad.tolist())]
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
    mirror = closedform.duan_sum_nonadiabatic_arrays(c_values, rs[:, None], n_th, ratio, 1.0)
    field = closedform.field_sum_nonadiabatic_arrays(c_field, rs, n_th, ratio, 1.0)
    return FigureDataset(
        axis_name="squeeze_parameter", axis_unit="1",
        columns=[f"mirror_total_C_{c:g}" for c in c_values] + ["field_total"],
        rows=[(r, *m, f) for r, m, f in zip(rs.tolist(), mirror.tolist(), field.tolist())],
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
            for field in obj._fields:
                md[f"{name}.{sub}.{field}"] = getattr(obj, field)
    md["bath.r"] = system.bath.r
    return md
