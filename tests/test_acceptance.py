"""Acceptance gate: every check in ``selfcheck.ALL_CHECKS``, at a pinned tolerance.

The checks in ``squeezelink.selfcheck`` are the one implementation of the
acceptance criteria; ``squeezelink selfcheck`` runs the same functions and
prints the same lines. Each test below runs one check with its default
arguments, prints the check's summary line on the real stdout so that it
survives pytest's capture, and asserts that

* the check passed, and
* the tolerance the check reports equals the literal pinned here, so that
  loosening a check in ``selfcheck`` cannot loosen this gate unnoticed.

The tests keep their criterion numbers; ``weak-coupling`` is criterion 14.
"""

import math
import sys
import time

from squeezelink import selfcheck


def criterion(check: str, tolerance: float, max_seconds: float = math.inf):
    """A test that runs ``ALL_CHECKS[check]`` and holds it to ``tolerance``."""

    def test():
        started = time.perf_counter()
        result = selfcheck.ALL_CHECKS[check]()
        elapsed = time.perf_counter() - started
        print(result.summary(), file=sys.__stdout__)
        assert result.tolerance == tolerance, f"{check} tolerance is now {result.tolerance!r}"
        assert result.passed, result.summary()
        assert elapsed < max_seconds, f"{check} took {elapsed:.2f}s (limit {max_seconds:g}s)"

    test.check = check
    return test


test_criterion_01_triple_agreement = criterion("triple", 1e-6, max_seconds=5.0)
test_criterion_02_adiabatic_reduction = criterion("adiabatic-limit", 1e-4)
test_criterion_03_threshold = criterion("threshold", 1e-10)
test_criterion_04_separability_floor = criterion("separability", 1e-9)
test_criterion_05_xy_symmetry = criterion("xy-symmetry", 1e-10)
test_criterion_06_strong_coupling_asymptote = criterion("strong-coupling", 1e-4)
test_criterion_07_symmetric_drive_optimum = criterion("symmetric-drive", 1e-3)
test_criterion_08_field_insensitivity = criterion("field-insensitivity", 2e-3)
test_criterion_09_dissipation_ordering = criterion("dissipation-ordering", 0.0)
test_criterion_10_thermal_occupation_figures = criterion("thermal-occupation", 0.10)
test_criterion_11_lyapunov_correctness = criterion("lyapunov", 1e-9)
test_criterion_12_power_threshold_root = criterion("power-threshold", 1e-8)
test_criterion_13_determinism = criterion("determinism", 0.0)
test_criterion_14_weak_coupling = criterion("weak-coupling", 1e-12)


def test_every_check_is_a_criterion():
    gated = [test.check for name, test in globals().items()
             if name.startswith("test_criterion_")]
    assert sorted(gated) == sorted(selfcheck.ALL_CHECKS)
