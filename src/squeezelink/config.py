"""Configuration ingestion: unit-suffixed key files and named presets.

Config files are INI-style with sections ``[unit1]``, ``[unit2]`` and
``[bath]``. Every physical key carries an explicit unit suffix; values
are converted to SI (and angular frequencies in rad/s) at parse time.
Unknown keys are rejected, and so are keys under ``[DEFAULT]``, which
configparser copies into every section; missing keys fall back to the
chosen preset.

Recognized keys (either suffix form works)::

    [unit1] / [unit2]
      omega_r_hz | omega_r_rad_s      cavity frequency
      omega_l_hz | omega_l_rad_s      drive laser frequency
      kappa_hz   | kappa_rad_s        cavity damping rate
      length_mm  | length_m           cavity length
      power_mw   | power_w            drive power
      omega_m_hz | omega_m_rad_s      mechanical frequency
      gamma_hz   | gamma_rad_s        mechanical damping rate
      mass_ng    | mass_kg            mirror mass
      temperature_uk | temperature_mk | temperature_k
    [bath]
      r                               squeeze parameter (dimensionless)

Presets: ``fig2-text`` (the default), ``fig2-caption`` and ``fig3``; each
is :data:`model.REFERENCE_DEVICE` plus an operating point. Extra presets are
read from ``$SQUEEZELINK_PRESET_DIR/<name>.ini``.
"""

from __future__ import annotations

import math
import os

from .model import (
    REFERENCE_DEVICE,
    MirrorParams,
    OptomechanicalUnit,
    ResonatorParams,
    SqueezedBath,
    SystemParams,
    set_param,
)

PRESET_DIR_ENV = "SQUEEZELINK_PRESET_DIR"

TWO_PI = 2.0 * math.pi


class ConfigError(ValueError):
    """Malformed configuration file or unknown key/preset."""


# suffix -> (canonical field, conversion to SI / rad/s)
_UNIT_KEYS = {
    "omega_r_hz": ("omega_r", TWO_PI),
    "omega_r_rad_s": ("omega_r", 1.0),
    "omega_l_hz": ("omega_L", TWO_PI),
    "omega_l_rad_s": ("omega_L", 1.0),
    "kappa_hz": ("kappa", TWO_PI),
    "kappa_rad_s": ("kappa", 1.0),
    "length_mm": ("length", 1e-3),
    "length_m": ("length", 1.0),
    "power_mw": ("power", 1e-3),
    "power_w": ("power", 1.0),
    "omega_m_hz": ("omega_M", TWO_PI),
    "omega_m_rad_s": ("omega_M", 1.0),
    "gamma_hz": ("gamma", TWO_PI),
    "gamma_rad_s": ("gamma", 1.0),
    "mass_ng": ("mass", 1e-12),
    "mass_kg": ("mass", 1.0),
    "temperature_uk": ("temperature", 1e-6),
    "temperature_mk": ("temperature", 1e-3),
    "temperature_k": ("temperature", 1.0),
}

_RESONATOR_FIELDS = ("omega_r", "omega_L", "kappa", "length", "power")
_MIRROR_FIELDS = ("omega_M", "gamma", "mass", "temperature")

# the reference device at 10 mW; temperature defaults to the 50 uK
# operating point used in the power-threshold study
_FIG2_TEXT = REFERENCE_DEVICE | {"power": 10e-3, "temperature": 50e-6}

# variant quoted alongside the first temperature study: longer cavity and a
# lower cavity frequency; shipped as an explicit alternative, never silent
_FIG2_CAPTION = _FIG2_TEXT | {"omega_r": TWO_PI * 5.26e14, "length": 125e-3}

# resonant-cavity variant used for the power-threshold study
_FIG3 = _FIG2_TEXT | {"omega_r": _FIG2_TEXT["omega_L"]}

_BUILTIN_PRESETS = {
    "fig2-text": _FIG2_TEXT,
    "fig2-caption": _FIG2_CAPTION,
    "fig3": _FIG3,
}

DEFAULT_BATH_R = 1.0


def _system_from_values(values: dict, r: float) -> SystemParams:
    def build(unit_values: dict) -> OptomechanicalUnit:
        return OptomechanicalUnit(
            resonator=ResonatorParams(**{k: unit_values[k] for k in _RESONATOR_FIELDS}),
            mirror=MirrorParams(**{k: unit_values[k] for k in _MIRROR_FIELDS}),
        )

    return SystemParams(
        unit1=build(values["unit1"]),
        unit2=build(values["unit2"]),
        bath=SqueezedBath(r=r),
    )


def preset_system(name: str = "fig2-text") -> SystemParams:
    """Identical-unit system from a named preset."""
    if name in _BUILTIN_PRESETS:
        vals = dict(_BUILTIN_PRESETS[name])
        return _system_from_values({"unit1": vals, "unit2": vals}, DEFAULT_BATH_R)
    preset_dir = os.environ.get(PRESET_DIR_ENV)
    if preset_dir:
        path = os.path.join(preset_dir, f"{name}.ini")
        if os.path.exists(path):
            return load_config(path)
    raise ConfigError(
        f"unknown preset {name!r}; built-ins are {sorted(_BUILTIN_PRESETS)}"
        + (f", searched {preset_dir}" if preset_dir else "")
    )


def default_system() -> SystemParams:
    return preset_system("fig2-text")


def load_config(path: str, preset: str = "fig2-text") -> SystemParams:
    """Parse a config file; missing keys fall back to the given preset.

    Any preset works, also one from the preset directory: each unit falls
    back to that unit of the preset, and r to the preset's r.
    """
    import configparser  # here, so that a call without a config file never loads it

    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"malformed config {path!r}: {exc}") from exc
    if parser.defaults():
        raise ConfigError(f"keys under [DEFAULT] in {path!r} would apply to every section; "
                          "set them under [unit1], [unit2] or [bath]")

    base = preset_system(preset)
    values = {name: vars(unit.resonator) | vars(unit.mirror)
              for name, unit in (("unit1", base.unit1), ("unit2", base.unit2))}
    r = base.bath.r

    for section in parser.sections():
        if section in ("unit1", "unit2"):
            seen = set()
            for key, raw in parser.items(section):
                if key not in _UNIT_KEYS:
                    raise ConfigError(f"unknown key {key!r} in [{section}]")
                field, factor = _UNIT_KEYS[key]
                if field in seen:
                    raise ConfigError(
                        f"duplicate setting for {field!r} in [{section}] "
                        "(two unit suffixes for the same quantity)"
                    )
                seen.add(field)
                values[section][field] = _parse_float(section, key, raw) * factor
        elif section == "bath":
            for key, raw in parser.items(section):
                if key != "r":
                    raise ConfigError(f"unknown key {key!r} in [bath]")
                r = _parse_float(section, key, raw)
        else:
            raise ConfigError(f"unknown section [{section}]")

    try:
        return _system_from_values(values, r)
    except ValueError as exc:
        raise ConfigError(f"invalid parameter value: {exc}") from exc


def _parse_float(section: str, key: str, raw: str) -> float:
    try:
        return float(raw)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key}: not a number: {raw!r}") from exc


def resolve_system(
    config_path: Optional[str] = None,
    preset: str = "fig2-text",
    r_override: Optional[float] = None,
    temperature_override: Optional[float] = None,
) -> SystemParams:
    """Config file (if any) over preset, with optional CLI-level overrides."""
    if config_path is not None:
        system = load_config(config_path, preset=preset)
    else:
        system = preset_system(preset)
    try:
        if r_override is not None:
            system = set_param(system, "bath.r", r_override)
        if temperature_override is not None:
            system = set_param(system, "temperature", temperature_override)
    except ValueError as exc:
        raise ConfigError(f"invalid override: {exc}") from exc
    return system
