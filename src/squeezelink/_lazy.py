"""Modules that load on first attribute access.

The closed-form routes (``duan`` by the adiabatic and nonadiabatic forms,
``threshold``, and ``selfcheck --only`` one of the closed-form checks, such
as ``adiabatic-limit``) need only :mod:`math`, while importing numpy costs
most of a CLI call's start-up. So the package binds numpy through
:func:`lazy_import` and loads it where an array is first made. The package
binds its ``oracle`` and ``selfcheck`` modules the same way, in its
``__init__`` before any module that uses them is imported, so that they
run at their first attribute access: ``duan --regime oracle`` runs the
oracle, ``selfcheck`` both, and a closed-form ``duan`` or ``threshold`` call
neither.
"""

from __future__ import annotations

import importlib.util
import sys
import types


def lazy_import(name: str) -> types.ModuleType:
    """Module ``name``, executed on its first attribute access.

    This is the lazy-import recipe of :mod:`importlib`
    (:class:`importlib.util.LazyLoader`). A module already in ``sys.modules``
    is returned as it is. A missing module raises
    :class:`ModuleNotFoundError` here, at import time, as a plain ``import``
    would; a module that fails while executing raises at first use instead.

    Three conditions must hold:

    - The first attribute access must not race between threads, since the
      lazy module executes in whichever thread touches it first (the package
      is single-threaded).
    - No module of the package may ``import numpy`` directly: the import
      statement reads the lazy module's ``__spec__``, and that read executes
      it, so every command would load numpy again.
    - For the same reason, no module that a closed-form call loads may
      ``from .oracle import ...`` or ``from .selfcheck import ...`` (that
      statement also reads the names from the lazy module). ``from . import
      oracle`` only reads the package's attribute, and is fine.
    """
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    if spec is None:
        raise ModuleNotFoundError(f"No module named {name!r}", name=name)
    loader = importlib.util.LazyLoader(spec.loader)
    spec.loader = loader
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    loader.exec_module(module)
    return module
