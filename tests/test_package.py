"""The package's public names, each checked in a fresh interpreter.

The oracle and the selfcheck load on first use (``squeezelink._lazy``), so
what a name resolves to must not depend on what an earlier test imported.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

PUBLIC_API = [
    "BracketFailure", "DegenerateSqueeze", "DriftDiffusion", "DuanResult", "HBAR", "KB",
    "MirrorParams", "OptimizeSpec", "OptomechanicalUnit", "ResonatorParams", "SqueezedBath",
    "SteadyState", "SweepSpec", "SystemParams", "UnknownFigure", "UnstableDrift",
    "build_rwa_drift_diffusion", "closedform", "config",
    "duan_from_covariance", "duan_sum_adiabatic_general", "duan_sum_adiabatic_identical",
    "duan_sum_nonadiabatic", "duan_sum_strong_coupling_approx",
    "duan_sum_weak_coupling_approx", "field_sum_nonadiabatic", "figure_dataset",
    "is_entangled", "mean_fields_from_effective_detuning", "minimum_power", "model",
    "oracle", "run_sweep", "solve_lyapunov", "spectral_duan_sum", "stability_check", "sweep",
    "thermal_occupation", "threshold_cooperativity",
]


def fresh(code: str):
    """What ``code`` prints as JSON, run in a new interpreter."""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_all_is_pinned_and_every_name_resolves():
    # dir() lists the oracle's names, as help() and inspect.getmembers need,
    # without running the oracle (a run module holds __builtins__)
    names, undir, oracle_ran, missing = fresh(
        "import json, squeezelink\n"
        "undir = sorted(set(squeezelink.__all__) - set(dir(squeezelink)))\n"
        "ran = '__builtins__' in object.__getattribute__(squeezelink.oracle, '__dict__')\n"
        "missing = [n for n in squeezelink.__all__ if not hasattr(squeezelink, n)]\n"
        "print(json.dumps([sorted(squeezelink.__all__), undir, ran, missing]))\n"
    )
    assert names == PUBLIC_API
    assert undir == []
    assert oracle_ran is False
    assert missing == []


def test_star_import_and_oracle_names_are_the_oracles():
    assert fresh(
        "import json\n"
        "from squeezelink import *\n"
        "from squeezelink import oracle, solve_lyapunov\n"
        "print(json.dumps([solve_lyapunov is oracle.solve_lyapunov,\n"
        "                  spectral_duan_sum is oracle.spectral_duan_sum,\n"
        "                  DriftDiffusion is oracle.DriftDiffusion]))\n"
    ) == [True, True, True]


@pytest.mark.parametrize("name", ["UnstableDrift"])
def test_typed_errors_are_one_object(name):
    assert fresh(
        "import json, squeezelink\n"
        "from squeezelink import model, oracle\n"
        f"print(json.dumps(squeezelink.{name} is oracle.{name} is model.{name}))\n"
    ) is True


def test_unknown_name_is_an_attribute_error():
    assert fresh(
        "import json, squeezelink\n"
        "try:\n"
        "    squeezelink.covariance_chunks\n"
        "except AttributeError as exc:\n"
        "    print(json.dumps(str(exc)))\n"
    ) == "module 'squeezelink' has no attribute 'covariance_chunks'"


@pytest.mark.parametrize("access, name, attr", [
    ("import squeezelink.oracle as m", "oracle", "solve_lyapunov_stack"),
    ("from squeezelink import oracle as m", "oracle", "solve_lyapunov_stack"),
    ("import squeezelink; m = squeezelink.oracle", "oracle", "solve_lyapunov_stack"),
    ("import squeezelink.selfcheck as m", "selfcheck", "run_checks"),
    ("from squeezelink import selfcheck as m", "selfcheck", "run_checks"),
])
def test_lazy_modules_load_by_every_import_form(access, name, attr):
    assert fresh(
        "import json, sys\n"
        f"{access}\n"
        f"print(json.dumps([m is sys.modules['squeezelink.{name}'], callable(m.{attr})]))\n"
    ) == [True, True]


def test_closed_form_commands_import_no_typing():
    # python -S skips site, whose .pth files may import typing at every start-up;
    # the package and numpy are then found through PYTHONPATH alone
    import squeezelink

    path = os.pathsep.join(str(Path(origin).parents[1]) for origin in (
        squeezelink.__file__, importlib.util.find_spec("numpy").origin))
    proc = subprocess.run(
        [sys.executable, "-S", "-c",
         "import io, json, sys\n"
         "from squeezelink import cli\n"
         "codes = [cli.main(args, out=io.StringIO()) for args in (['duan'], ['threshold'])]\n"
         "print(json.dumps([codes, 'typing' in sys.modules]))\n"],
        capture_output=True, text=True, timeout=120, env=os.environ | {"PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[0, 0], False]
