"""Physical parameters, derived quantities and steady-state rates.

All frequencies are angular frequencies in rad/s. Conversions from Hz
happen at config ingestion (see :mod:`squeezelink.config`), never here.
"""

from __future__ import annotations

import itertools
import math
import warnings
from collections import namedtuple
from types import MappingProxyType, SimpleNamespace

from ._lazy import lazy_import

np = lazy_import("numpy")

# CODATA 2018, pinned for reproducibility.
HBAR = 1.054571817e-34  # J s
KB = 1.380649e-23  # J/K

#: warn when omega_r/kappa or omega_L/kappa drops below this ratio
_OPTICAL_RATIO_FLOOR = 1e3

#: The reference device: the 145 ng, 2 pi 947 kHz mirror in a 25 mm cavity of
#: Groeblacher et al., Nature 460, 724 (2009). Its fixed hardware only; a
#: preset adds an operating point (drive power and bath temperature).
REFERENCE_DEVICE = MappingProxyType({
    "omega_r": 2.0 * math.pi * 5.64e14,
    "omega_L": 2.0 * math.pi * 2.82e14,
    "kappa": 2.0 * math.pi * 215e3,
    "length": 25e-3,
    "omega_M": 2.0 * math.pi * 947e3,
    "gamma": 2.0 * math.pi * 140.0,
    "mass": 145e-12,
})


# The oracle raises this and re-exports it; it lives here so that the CLI
# catches it without loading the oracle (see squeezelink._lazy).
class UnstableDrift(RuntimeError):
    """The drift matrix has an eigenvalue with non-negative real part."""


class UnknownPath(ValueError):
    """Parameter path that names no parameter (see :func:`set_param`)."""


_setattr = object.__setattr__


class Record:
    """Base of the package's immutable records.

    A subclass's fields are its annotations, in order (``_fields``), and a
    class attribute of a field's name is its default. A record is built by
    position or keyword; the subclass's ``__post_init__`` then validates it,
    and may set a field with ``object.__setattr__``. After that, assigning or
    deleting an attribute raises :class:`AttributeError`. Two records are
    equal, and hash equal, when they have one type and equal field values,
    so a record never equals a tuple. ``vars()`` maps the fields to their
    values, in field order. Records are not dataclasses because a
    dataclass's class creation compiles each generated method and imports
    :mod:`inspect`, most of a closed-form call's start-up.
    """

    _fields = ()
    _defaults = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__annotations__)
        cls._defaults = {name: vars(cls)[name] for name in cls._fields if name in vars(cls)}

    def __init__(self, *args, **kwargs):
        # object.__setattr__, as a frozen dataclass sets its fields: writing to
        # the instance __dict__ instead makes every later read of a field slower
        fields = self._fields
        if not kwargs and len(args) < len(fields):
            # a positional prefix: the defaults fill the rest, without the dict path
            defaults, prefix = self._defaults, args
            for field in fields[len(prefix):]:
                if field not in defaults:
                    raise self._call_error(prefix, kwargs)
                args += (defaults[field],)
        if not kwargs and len(args) == len(fields):
            for field, value in zip(fields, args):
                _setattr(self, field, value)
        else:
            values = kwargs
            if args:
                given = dict(zip(fields, args))
                if len(args) > len(fields) or given.keys() & kwargs.keys():
                    raise self._call_error(args, kwargs)
                values = given | kwargs
            if len(values) < len(fields):
                values = self._defaults | values
            if len(values) != len(fields):
                raise self._call_error(args, kwargs)
            try:
                for field in fields:
                    _setattr(self, field, values[field])
            except KeyError:  # a field missing, and an unknown keyword in its place
                raise self._call_error(args, kwargs) from None
        self.__post_init__()

    @classmethod
    def _call_error(cls, args: tuple, kwargs: dict) -> TypeError:
        return TypeError(f"{cls.__name__}() takes the fields {', '.join(cls._fields)}; got "
                         f"{len(args)} by position and {', '.join(kwargs) or 'none'} by keyword")

    def __post_init__(self):
        pass

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple([getattr(self, field) for field in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        pairs = zip(self._fields, self._values())
        return f"{type(self).__qualname__}({', '.join(f'{f}={v!r}' for f, v in pairs)})"

    def replace(self, **changes):
        """A copy with ``changes`` applied, built (and so validated) by the constructor."""
        values = [changes.pop(field, getattr(self, field)) for field in self._fields]
        if changes:
            raise TypeError(f"{type(self).__name__} has no field {', '.join(changes)}")
        return type(self)(*values)


# The range gate: every input that the package takes in is checked against a
# table of (name, bound) rows, by require_bounds per point and by
# require_bounds_arrays over arrays.

#: the gate's tables of the records, one row per field in field order
RESONATOR_BOUNDS = (("omega_r", "> 0"), ("omega_L", "> 0"), ("kappa", "> 0"), ("length", "> 0"),
                    ("power", "> 0"))
MIRROR_BOUNDS = (("omega_M", "> 0"), ("gamma", "> 0"), ("mass", "> 0"), ("temperature", ">= 0"))
BATH_BOUNDS = (("squeeze parameter r", ">= 0"),)
#: the unit gate's table of unit j's record (gamma, kappa, G, n_th), by j
UNIT_BOUNDS = {j: ((f"unit {j}: gamma", "> 0"), (f"unit {j}: kappa", "> 0"),
                   (f"unit {j}: G", ">= 0"), (f"unit {j}: n_th", ">= 0")) for j in (1, 2)}


def require_bounds(bounds, values):
    """The gate per point, in :mod:`math` alone: the first of ``values`` that is not finite
    or not within its row of ``bounds`` raises ``{name} must be {bound} and finite, got
    {value!r}``, as ``FloatingPointError`` if NaN or inf, else as ``ValueError``."""
    for (name, bound), value in zip(bounds, values):
        # positive and finite, or 0 where the bound is ">= 0"; NaN fails both
        if not 0.0 < value < math.inf and not (value == 0.0 and bound == ">= 0"):
            error = ValueError if math.isfinite(value) else FloatingPointError
            raise error(f"{name} must be {bound} and finite, got {float(value)!r}")


def _in_bounds(value, bound):
    # bitwise & so that the same expression serves floats and arrays; NaN fails both sides
    return ((0.0 < value) if bound == "> 0" else (0.0 <= value)) & (value < math.inf)


def require_bounds_arrays(bounds, values):
    """The gate over arrays: ``values`` broadcast together, and the first element, in flat
    order, where one fails raises what :func:`require_bounds` raises for that element."""
    passes = True
    for (_, bound), value in zip(bounds, values):
        passes = passes & _in_bounds(value, bound)
    if passes is not True:  # not floats that pass: numpy finds the first failure
        raise_for_first(~np.asarray(passes), lambda *x: require_bounds(bounds, x), *values)


def _optical_ratio_low(omega_r, omega_L, kappa):
    # bitwise | so that the same expression serves floats and arrays
    return (omega_r < _OPTICAL_RATIO_FLOOR * kappa) | (omega_L < _OPTICAL_RATIO_FLOOR * kappa)


def _warn_optical_ratio():
    warnings.warn(
        "optical frequencies are not large compared to the cavity "
        f"linewidth (ratio below {_OPTICAL_RATIO_FLOOR:g}); results "
        "assume a high-finesse cavity",
        stacklevel=3,  # the caller of the function that checks
    )


class ResonatorParams(Record):
    """One driven optical cavity: frequency, drive, loss and geometry."""

    omega_r: float  # cavity angular frequency (rad/s)
    omega_L: float  # drive laser angular frequency (rad/s)
    kappa: float  # cavity amplitude damping rate (rad/s)
    length: float  # cavity length (m)
    power: float  # drive power (W)

    def __post_init__(self):
        require_bounds(RESONATOR_BOUNDS,
                       (self.omega_r, self.omega_L, self.kappa, self.length, self.power))
        if _optical_ratio_low(self.omega_r, self.omega_L, self.kappa):
            _warn_optical_ratio()


class MirrorParams(Record):
    """One mechanical oscillator (movable mirror) and its thermal bath."""

    omega_M: float  # mechanical angular frequency (rad/s)
    gamma: float  # mechanical damping rate (rad/s)
    mass: float  # kg
    temperature: float  # K

    def __post_init__(self):
        require_bounds(MIRROR_BOUNDS, (self.omega_M, self.gamma, self.mass, self.temperature))


class SqueezedBath(Record):
    """Broadband two-mode squeezed vacuum shared by the two cavities.

    The occupation ``N = sinh^2 r`` and the cross-correlation
    ``M_corr = sinh r cosh r`` satisfy ``M_corr^2 = N (N + 1)`` exactly,
    which is what makes the bath a pure squeezed state.
    """

    r: float

    def __post_init__(self):
        require_bounds(BATH_BOUNDS, (self.r,))

    @property
    def N(self) -> float:
        return _squeezed_occupation(self.r)

    @property
    def M_corr(self) -> float:
        return _squeezed_correlation(self.r)


# The bath's terms as functions of r. squeeze_arrays raises their errors but
# maps only the math calls per element: see its docstring.


def _squeezed_occupation(r):
    try:
        return math.sinh(r) ** 2
    except OverflowError:
        raise _bath_overflow("N = sinh^2 r", r) from None


def _squeezed_correlation(r):
    try:
        value = math.sinh(r) * math.cosh(r)
    except OverflowError:
        value = math.inf
    if value == math.inf:
        raise _bath_overflow("M_corr = sinh r cosh r", r)
    return value


def _bath_overflow(what: str, r: float) -> OverflowError:
    return OverflowError(f"squeezed-bath {what} overflows a float at r = {r!r}")


class OptomechanicalUnit(Record):
    """One nanoresonator: a driven cavity with a movable mirror."""

    resonator: ResonatorParams
    mirror: MirrorParams


class SystemParams(Record):
    """The full two-unit system sharing one squeezed bath."""

    unit1: OptomechanicalUnit
    unit2: OptomechanicalUnit
    bath: SqueezedBath


def _unit_paths() -> dict[str, tuple[tuple[str, str, str], ...]]:
    """Unit parameter path -> the (unit, part, field) triples it sets.

    ``unitN.part.field`` and ``unitN.field`` set one field; the short form
    is unambiguous because no field name is shared by
    :class:`ResonatorParams` and :class:`MirrorParams`. ``temperature``
    sets both mirror baths.
    """
    paths = {}
    for unit in ("unit1", "unit2"):
        for part, params in (("resonator", ResonatorParams), ("mirror", MirrorParams)):
            for field in params._fields:
                key = ((unit, part, field),)
                paths[f"{unit}.{part}.{field}"] = paths[f"{unit}.{field}"] = key
    paths["temperature"] = paths["unit1.temperature"] + paths["unit2.temperature"]
    return paths


_UNIT_PATHS = _unit_paths()


def unit_targets(path: str) -> tuple[tuple[str, str, str], ...]:
    """(unit, part, field) of every unit field that ``set_param(path)`` sets."""
    targets = _UNIT_PATHS.get(path)
    if targets is None:
        kind = "bath parameter" if path.startswith("bath.") else "parameter"
        raise UnknownPath(f"unknown {kind} path {path!r}")
    return targets


def set_param(system: SystemParams, path: str, value: float) -> SystemParams:
    """Return a copy of the system with one parameter replaced.

    Paths address record fields, e.g. ``unit2.resonator.power``,
    ``unit1.mirror.omega_M`` or ``bath.r``. The intermediate level may be
    omitted (``unit2.power``), and the bare path ``temperature`` sets both
    mirror baths at once.
    """
    if path == "bath.r":
        return system.replace(bath=SqueezedBath(r=value))
    for unit_name, part_name, field in unit_targets(path):
        unit = getattr(system, unit_name)
        part = getattr(unit, part_name).replace(**{field: value})
        system = system.replace(**{unit_name: unit.replace(**{part_name: part})})
    return system


class SteadyState(Record):
    """The rates of one unit's steady state at an effective detuning."""

    delta_eff: float  # effective detuning (rad/s)
    G: float  # many-photon coupling g*sqrt(n_bar) (rad/s)
    C: float  # cooperativity 4 G^2 / (gamma kappa)
    n_th: float  # thermal occupation of the mirror bath


#: the rows of :data:`MIRROR_BOUNDS` that the thermal occupation takes
_OCCUPATION_BOUNDS = (MIRROR_BOUNDS[0], MIRROR_BOUNDS[3])


def thermal_occupation(omega_M: float, temperature: float) -> float:
    """Bose-Einstein occupation of a mechanical bath at a given temperature."""
    require_bounds(_OCCUPATION_BOUNDS, (omega_M, temperature))
    return _occupation(omega_M, temperature)


def _occupation(omega_M: float, temperature: float) -> float:
    k_T = KB * temperature
    if k_T == 0.0:  # T = 0, or so small that k_B T underflows: exp(-inf)
        return 0.0
    x = HBAR * omega_M / k_T
    if x == 0.0:  # hbar omega_M underflows: 1 / expm1(0)
        raise OverflowError(f"thermal occupation diverges at omega_M = {omega_M!r} rad/s, "
                            f"T = {temperature!r} K: hbar omega_M / k_B T underflows to 0")
    if x > 700.0:  # expm1 would overflow; occupation is exp(-x) to ~1e-300
        return math.exp(-x)
    return 1.0 / math.expm1(x)


# The rate formulas below use only + - * / and the ``sqrt`` they are given,
# and write squares as x * x, so that math.sqrt on floats and np.sqrt on
# arrays give the same bits: the per-point steady state and the array core
# share one op sequence.


def _coupling(omega_r, length, mass, omega_M, sqrt):
    return (omega_r / length) * sqrt(HBAR / (mass * omega_M))


def _drive(power, kappa, omega_L, sqrt):
    return sqrt(2.0 * kappa * power / (HBAR * omega_L))


def _sideband_coupling(res, mir, delta_eff, sqrt):
    """G of one unit; ``res``/``mir`` hold its fields."""
    g = _coupling(res.omega_r, res.length, mir.mass, mir.omega_M, sqrt)
    eps = _drive(res.power, res.kappa, res.omega_L, sqrt)
    half_kappa = res.kappa / 2.0
    n_bar = eps * eps / (half_kappa * half_kappa + delta_eff * delta_eff)
    return g * sqrt(n_bar)


def _cooperativity(gamma, kappa, G):
    """C = 4 G^2 / (gamma kappa), as Gamma_a / gamma with the adiabatic form's Gamma_a."""
    return 4.0 * (G * G) / kappa / gamma


def _denominator_vanishes(mass, omega_M, omega_L, kappa, delta_eff):
    """Whether M omega_M, hbar omega_L or (kappa/2)^2 + delta_eff^2 underflows to 0."""
    half_kappa = kappa / 2.0
    return ((mass * omega_M == 0.0) | (HBAR * omega_L == 0.0)
            | (half_kappa * half_kappa + delta_eff * delta_eff == 0.0))


def _require_rate_denominators(mass, omega_M, omega_L, kappa, delta_eff):
    if _denominator_vanishes(mass, omega_M, omega_L, kappa, delta_eff):
        raise OverflowError(
            f"steady-state rates diverge at M = {mass!r} kg, omega_M = {omega_M!r} rad/s, "
            f"omega_L = {omega_L!r} rad/s, kappa = {kappa!r} rad/s, delta_eff = {delta_eff!r} "
            "rad/s: M omega_M, hbar omega_L or (kappa/2)^2 + delta_eff^2 underflows to 0")


def mean_fields_from_effective_detuning(
    unit: OptomechanicalUnit, delta_eff: float
) -> SteadyState:
    """Closed-form steady-state rates for a prescribed effective detuning."""
    if not math.isfinite(delta_eff):  # worded and typed as the range gate's errors
        raise FloatingPointError(f"delta_eff must be finite, got {float(delta_eff)!r}")
    res, mir = unit.resonator, unit.mirror
    # before the rates: where hbar omega_M underflows, this error names the cause
    n_th = thermal_occupation(mir.omega_M, mir.temperature)
    _require_rate_denominators(mir.mass, mir.omega_M, res.omega_L, res.kappa, delta_eff)
    G = _sideband_coupling(res, mir, delta_eff, math.sqrt)
    return SteadyState(delta_eff=delta_eff, G=G, C=_cooperativity(mir.gamma, res.kappa, G),
                       n_th=n_th)


# a collections.namedtuple, as typing.NamedTuple would import typing on the closed-form path
SidebandArrays = namedtuple("SidebandArrays", "gamma kappa G n_th")
SidebandArrays.__doc__ = """One unit as every route takes it: ``(gamma, kappa, G, n_th)``.

The mirror's and the cavity's damping rates, and the red-detuned steady state's
coupling and thermal occupation: floats, or arrays over a grid.
"""


def unit_record(unit: OptomechanicalUnit, steady: SteadyState) -> SidebandArrays:
    """The :class:`SidebandArrays` of ``unit`` at its steady state ``steady``, as floats."""
    return SidebandArrays(unit.mirror.gamma, unit.resonator.kappa, steady.G, steady.n_th)


def _require_unit(j, gamma, kappa, G, n_th):
    """The gate of every general route: the first field of unit ``j``'s record that is not
    finite or out of its ``UNIT_BOUNDS`` row raises (see :func:`require_bounds`)."""
    require_bounds(UNIT_BOUNDS[j], (gamma, kappa, G, n_th))


def require_units(units: dict):
    """The unit gate over arrays: ``units`` maps numbers to records that broadcast together, and
    the first element, in flat order, where one fails raises what :func:`_require_unit` does."""
    require_bounds_arrays([row for j in units for row in UNIT_BOUNDS[j]],
                          [x for unit in units.values() for x in unit])


def raise_for_first(bad, check, *arrays):
    """Raise for the first element marked in the numpy bool array ``bad``, if any.

    ``check`` runs on the floats of ``arrays`` at that element, where it
    raises what the per-point route raises.
    """
    if bad.any():
        *arrays, bad = np.broadcast_arrays(*arrays, bad)
        k = np.flatnonzero(bad)[0]
        check(*(float(a.flat[k]) for a in arrays))


_FIELD_BOUNDS = dict(RESONATOR_BOUNDS + MIRROR_BOUNDS)


def set_field_arrays(res: dict, mir: dict, fields: dict) -> None:
    """Set each of ``fields`` in a unit's resonator fields ``res`` or mirror fields ``mir``.

    Each value becomes a float array once every element passes the field's
    row of :data:`RESONATOR_BOUNDS` or :data:`MIRROR_BOUNDS`; the first failing
    element raises what building the unit raises. When ``fields`` holds
    ``omega_r``, ``omega_L`` or ``kappa``, the optical-ratio warning fires if
    any element of ``res`` would fire it.
    """
    for name, values in fields.items():
        bound = _FIELD_BOUNDS.get(name)
        if bound is None:
            raise ValueError(f"unknown unit field {name!r}")
        values = np.asarray(values, dtype=float)
        require_bounds_arrays(((name, bound),), (values,))
        (res if name in ResonatorParams._fields else mir)[name] = values
    if (fields.keys() & {"omega_r", "omega_L", "kappa"}
            and np.any(_optical_ratio_low(res["omega_r"], res["omega_L"], res["kappa"]))):
        _warn_optical_ratio()


def sideband_rate_arrays(res: dict, mir: dict, n_th=None) -> SidebandArrays:
    """The unit record of the red-detuned steady state (delta_eff = -omega_M) over arrays.

    ``res`` and ``mir`` map each resonator and mirror field to a float or an
    array that passed its check (see :func:`set_field_arrays`); the arrays
    broadcast together. Element by element ``G`` and ``n_th`` equal, bit for
    bit, those of :func:`mean_fields_from_effective_detuning` on the unit with
    those fields. ``n_th`` is the thermal occupation of these ``omega_M`` and
    ``temperature`` where a caller holds it already; otherwise it is built
    here. An element whose rate denominator underflows to 0 raises what the
    per-point steady state raises.
    """
    res, mir = SimpleNamespace(**res), SimpleNamespace(**mir)
    # only math.expm1 (or math.exp) runs per element, through map_math, not
    # np.expm1: with numpy 2.4 on an AVX-512 Xeon, np.expm1 differs from
    # math.expm1 in the last bit at 5,103 of 200,001 log-spaced x from 1e-12 to
    # 630, which would move the figures' bits
    if n_th is None:
        n_th = _occupation_arrays(mir.omega_M, mir.temperature)
    with np.errstate(all="ignore"):  # floats overflow silently too; the total check reports it
        G = _sideband_coupling(res, mir, -mir.omega_M, np.sqrt)
        # a vanishing denominator makes G inf or NaN: only then look for one
        if not np.isfinite(G).all():
            args = (mir.mass, mir.omega_M, res.omega_L, res.kappa, -mir.omega_M)
            raise_for_first(np.asarray(_denominator_vanishes(*args)),
                            _require_rate_denominators, *args)
    return SidebandArrays(mir.gamma, res.kappa, G, n_th)


def map_math(fn, *arrays) -> np.ndarray:
    """``fn``, a :mod:`math` function, over the elements of arrays that broadcast together.

    One ``map`` over the arrays' floats, so that per element only ``fn`` runs
    and the values are its own bits; every other operation belongs in numpy,
    whose ``+ - * /`` are the same IEEE operations as Python's. A size-1
    argument, such as a scalar, is the same float for every element, and is
    not copied out to the broadcast shape.
    """
    shape = np.broadcast(*arrays).shape
    columns = []
    for array in arrays:
        if np.size(array) == 1:
            columns.append(itertools.repeat(float(np.reshape(array, ()))))
        else:
            column = np.empty(shape)
            np.copyto(column, array)  # faster than np.broadcast_arrays on small arrays
            columns.append(column.ravel().tolist())
    return np.fromiter(map(fn, *columns), float, math.prod(shape)).reshape(shape)


def _occupation_arrays(omega_M, temperature) -> np.ndarray:
    """:func:`_occupation` over arrays that broadcast together: its branches, bits and error."""
    k_T, hw = KB * np.asarray(temperature), HBAR * np.asarray(omega_M)
    # where k_B T = 0, x is not formed (it may be 0 / 0) but set to inf, and
    # the occupation is exp(-inf) = 0 as per point
    x = np.divide(hw, k_T, out=np.full(np.broadcast(hw, k_T).shape, math.inf),
                  where=k_T != 0.0)
    raise_for_first(x == 0.0, _occupation, omega_M, temperature)
    flat = x.ravel()
    n = 1.0 / map_math(math.expm1, np.minimum(flat, 700.0))
    far = flat > 700.0  # math.expm1 raises above x ~ 709.78: exp(-x) as per point
    if far.any():
        n[far] = map_math(math.exp, -flat[far])
    return n.reshape(x.shape)


def squeeze_arrays(r) -> tuple[np.ndarray, np.ndarray]:
    """(N, M_corr) of :class:`SqueezedBath` for every element of ``r``, with its bits.

    Only ``math.sinh``, ``math.cosh`` and ``math.pow`` run per element
    (:func:`map_math`): N = ``math.pow(sinh, 2.0)``, as ``sinh(r) ** 2`` per
    point; with numpy 2.4 on an AVX-512 Xeon, ``np.square`` differs from it in
    the last bit at 424 of 500,001 r in [0, 355], r = 5.017925 among them. The
    first element that fails the bath's gate or overflows raises its error.
    """
    r = np.asarray(r, dtype=float)
    require_bounds_arrays(BATH_BOUNDS, (r,))
    try:
        sinh = map_math(math.sinh, r)
        N = map_math(math.pow, sinh, 2.0)
    except OverflowError:  # math's bare "math range error": raise the bath's instead
        for x in r.ravel().tolist():
            _squeezed_occupation(x)
        raise
    with np.errstate(over="ignore"):
        M = sinh * map_math(math.cosh, r)
    raise_for_first(M == math.inf, _squeezed_correlation, r)
    return N, M


class StabilityReport(Record):
    stable: bool
    max_real_part: float
    worst_index: tuple[int, ...] = ()  # stack index of the least stable system


def _scaled(out: np.ndarray, *rows: np.ndarray) -> np.ndarray:
    """Write the rows ``(4, m)`` of entries 00, 01, 10, 11 of 2x2 blocks into
    consecutive rows of ``out``, each item scaled by ``2**-e`` with ``e`` the
    exponent of its largest entry over all of them; returns ``e``."""
    parts = [out[4 * i:4 * i + 4] for i in range(len(rows))]  # np.split costs ~5 us a call
    for part, x in zip(parts, rows):
        np.abs(x, out=part)
    e = np.frexp(out.max(axis=0))[1]
    for part, x in zip(parts, rows):
        np.ldexp(x, -e, out=part)
    return e


def _stability(blocks: np.ndarray) -> tuple[bool, np.ndarray]:
    """Whether every block of :func:`stability_check`'s ``blocks`` is stable, and
    each system's largest real part of an eigenvalue, in flat order. Each block
    is scaled on its own, so a system's value does not depend on the others."""
    rows = blocks.reshape(4, -1)
    scaled = np.empty(rows.shape)
    e = _scaled(scaled, rows)
    a, b, c, d = scaled
    h, det = (a + d) / 2.0, a * d - b * c
    disc = ((a - d) / 2.0) ** 2 + b * c
    q = h + np.copysign(np.sqrt(np.fmax(disc, 0.0)), h)  # the real root of larger size
    real = np.fmax(q, np.divide(det, q, out=np.zeros_like(q), where=q != 0.0))
    max_re = np.ldexp(np.where(disc < 0.0, h, real), e).reshape(blocks.shape[1], -1).max(axis=0)
    return bool(((h < 0.0) & (det > 0.0)).all()), max_re


def stability_check(blocks: np.ndarray) -> StabilityReport:
    """Whether every eigenvalue of a block-diagonal drift has negative real part.

    ``blocks`` holds the rows ``(4, k, ...)`` of entries 00, 01, 10, 11 of the
    drift's k 2x2 blocks, over systems in flat order; the report names the least
    stable system. A block is stable when its trace is negative and its
    determinant positive. With ``h = tr/2``, a real pair of eigenvalues is ``q =
    h + sign(h) sqrt(disc)`` and ``det / q``, which does not cancel for an
    overdamped block. Each block is first scaled by a power of two, so that no
    product overflows. A stack of no systems is stable, with ``max_real_part =
    -inf`` and no worst index.
    """
    stable, max_re = _stability(blocks)
    if not max_re.size:
        return StabilityReport(stable=stable, max_real_part=-math.inf)
    worst = int(np.argmax(max_re))
    return StabilityReport(stable=stable, max_real_part=float(max_re[worst]),
                           worst_index=(worst,))
