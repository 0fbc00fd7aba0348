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
    "BracketFailure", "DegenerateSqueeze", "DuanResult", "HBAR", "KB",
    "MirrorParams", "OptimizeSpec", "OptomechanicalUnit", "ResonatorParams", "SqueezedBath",
    "SteadyState", "SweepSpec", "SystemParams", "UnknownFigure", "UnstableDrift",
    "closedform", "config", "duan_sum_adiabatic_general", "duan_sum_adiabatic_identical",
    "duan_sum_nonadiabatic", "duan_sum_strong_coupling_approx",
    "duan_sum_weak_coupling_approx", "field_sum_nonadiabatic", "figure_dataset",
    "mean_fields_from_effective_detuning", "minimum_power", "model",
    "oracle", "run_sweep", "stability_check", "sweep",
    "thermal_occupation", "threshold_cooperativity",
]

#: names the package no longer exports; the oracle's five stay in squeezelink.oracle
REMOVED = ["DriftDiffusion", "build_rwa_drift_diffusion", "duan_from_covariance",
           "solve_lyapunov", "spectral_duan_sum", "is_entangled"]


def fresh(code: str, **env: str):
    """What ``code`` prints as JSON, run in a new interpreter with the variables
    ``env`` added to its environment; every test that runs plain ``python -c``
    calls this."""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, env=os.environ | env)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_all_is_pinned_and_every_name_resolves():
    # dir() lists every name, as help() and inspect.getmembers need, without
    # running the oracle (a run module holds __builtins__)
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


def test_removed_names_are_import_errors():
    # a caller of a removed name fails at its import, not with other semantics;
    # a star import binds none of them, and the oracle's five stay in the oracle
    assert fresh(
        "import json\n"
        "from squeezelink import *\n"
        f"names = {REMOVED!r}\n"
        "failed = []\n"
        "for name in names:\n"
        "    try:\n"
        "        exec(f'from squeezelink import {name}', {})\n"
        "    except ImportError:\n"
        "        failed.append(name)\n"
        "starred = [name for name in names if name in globals()]\n"
        "print(json.dumps([failed, starred, [callable(getattr(oracle, name))\n"
        "                                    for name in names[:5]]]))\n"
    ) == [REMOVED, [], [True] * 5]


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
    ("import squeezelink.oracle as m", "oracle", "covariance_chunks"),
    ("from squeezelink import oracle as m", "oracle", "covariance_chunks"),
    ("import squeezelink; m = squeezelink.oracle", "oracle", "covariance_chunks"),
    ("import squeezelink.selfcheck as m", "selfcheck", "run_checks"),
    ("from squeezelink import selfcheck as m", "selfcheck", "run_checks"),
])
def test_lazy_modules_load_by_every_import_form(access, name, attr):
    assert fresh(
        "import json, sys\n"
        f"{access}\n"
        f"print(json.dumps([m is sys.modules['squeezelink.{name}'], callable(m.{attr})]))\n"
    ) == [True, True]


def fresh_without_site(code: str):
    """What ``code`` prints as JSON, run in a new ``python -S``, which skips site,
    whose .pth files may import modules at every start-up; the package and numpy
    are then found through PYTHONPATH alone."""
    import squeezelink

    path = os.pathsep.join(str(Path(origin).parents[1]) for origin in (
        squeezelink.__file__, importlib.util.find_spec("numpy").origin))
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          timeout=120, env=os.environ | {"PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_closed_form_commands_import_no_typing():
    assert fresh_without_site(
        "import io, json, sys\n"
        "from squeezelink import cli\n"
        "codes = [cli.main(args, out=io.StringIO()) for args in (['duan'], ['threshold'])]\n"
        "print(json.dumps([codes, 'typing' in sys.modules]))\n"
    ) == [[0, 0], False]


@pytest.mark.parametrize("call", [
    "cli.main(['selfcheck', '--only', 'separability'], out=io.StringIO()) == 0",
    "cli.main(['selfcheck', '--only', 'lyapunov'], out=io.StringIO()) == 0",
])
def test_seeded_checks_do_not_load_numpy_random(call):
    # the separability and lyapunov draws come from the standard library's
    # random.Random, so no command pays numpy.random's extension modules; the
    # full selfcheck's run is test_oracle's, which asserts this too
    assert fresh(
        "import io, json, sys\n"
        "from squeezelink import cli\n"
        f"passed = {call}\n"
        "print(json.dumps([passed, 'numpy.random' in sys.modules]))\n"
    ) == [True, False]


def test_numpy_free_check_does_not_load_random():
    # the draws' random module loads at their first use, not with the selfcheck
    assert fresh_without_site(
        "import io, json, sys\n"
        "from squeezelink import cli\n"
        "code = cli.main(['selfcheck', '--only', 'adiabatic-limit'], out=io.StringIO())\n"
        "print(json.dumps([code, 'random' in sys.modules]))\n"
    ) == [0, False]


def test_every_annotation_resolves():
    # each name an annotation uses is imported where it is used, so that
    # typing.get_type_hints, as documentation tools call it, resolves them all
    assert fresh(
        "import importlib, inspect, json, pkgutil, typing, squeezelink\n"
        "failed = []\n"
        "for info in pkgutil.iter_modules(squeezelink.__path__):\n"
        "    module = importlib.import_module('squeezelink.' + info.name)\n"
        "    objects = [module] + [obj for obj in vars(module).values()\n"
        "                          if (inspect.isfunction(obj) or inspect.isclass(obj))\n"
        "                          and obj.__module__ == module.__name__]\n"
        "    for obj in objects:\n"
        "        try:\n"
        "            typing.get_type_hints(obj)\n"
        "        except NameError as exc:\n"
        "            failed.append(f'{module.__name__}.{getattr(obj, \"__qualname__\", \"\")}: {exc}')\n"
        "print(json.dumps(failed))\n"
    ) == []
