import hashlib
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from squeezelink import cli, closedform, config, model, oracle, selfcheck, sweep
from squeezelink.model import UnknownPath
from squeezelink.oracle import UnstableDrift
from squeezelink.sweep import (
    BracketFailure,
    OptimizeSpec,
    SweepRow,
    SweepSpec,
    UnknownFigure,
    evaluate_quantity,
    figure_dataset,
    run_sweep,
    set_param,
)

POSITIVE = st.floats(min_value=5e-324, max_value=1e300)
OMEGA_M = config.default_system().unit2.mirror.omega_M


@pytest.fixture(scope="module")
def base():
    return config.default_system()


class TestSetParam:
    def test_full_paths(self, base):
        sys2 = set_param(base, "unit2.resonator.power", 3e-3)
        assert sys2.unit2.resonator.power == 3e-3
        assert sys2.unit1.resonator.power == base.unit1.resonator.power
        sys3 = set_param(base, "unit1.mirror.omega_M", 1e6)
        assert sys3.unit1.mirror.omega_M == 1e6

    def test_short_paths(self, base):
        assert set_param(base, "unit2.power", 2e-3).unit2.resonator.power == 2e-3
        assert set_param(base, "unit1.gamma", 555.0).unit1.mirror.gamma == 555.0

    def test_bath_and_shared_temperature(self, base):
        assert set_param(base, "bath.r", 1.7).bath.r == 1.7
        sys_t = set_param(base, "temperature", 3e-4)
        assert sys_t.unit1.mirror.temperature == 3e-4
        assert sys_t.unit2.mirror.temperature == 3e-4

    def test_original_is_untouched(self, base):
        before = base.unit1.resonator.power
        set_param(base, "unit1.power", 99.0)
        assert base.unit1.resonator.power == before

    @pytest.mark.parametrize(
        "path",
        ["unit3.power", "unit1.bogus", "unit1.resonator.gamma",
         "bath.temperature", "unit1.mirror.power", "power"],
    )
    def test_bad_paths_rejected(self, base, path):
        with pytest.raises(ValueError):
            set_param(base, path, 1.0)


class TestSweepSpec:
    def test_validation(self, base):
        with pytest.raises(ValueError):
            SweepSpec(base, "bath.r", start=1.0, stop=0.5, count=10)
        with pytest.raises(ValueError):
            SweepSpec(base, "bath.r", start=0.0, stop=1.0, count=1)
        with pytest.raises(ValueError):
            SweepSpec(base, "bath.r", start=0.0, stop=1.0, count=5, scale="cubic")
        with pytest.raises(ValueError):
            SweepSpec(base, "bath.r", start=0.0, stop=1.0, count=5, quantity="bogus")

    def test_log_grid(self, base):
        spec = SweepSpec(base, "unit1.power", 1e-6, 1e-2, 5, scale="log")
        grid = spec.grid()
        assert grid[0] == pytest.approx(1e-6)
        assert grid[-1] == pytest.approx(1e-2)
        ratios = grid[1:] / grid[:-1]
        assert ratios == pytest.approx([10.0] * 4, rel=1e-12)

    @settings(max_examples=300, deadline=None)
    @given(ends=st.lists(POSITIVE, min_size=2, max_size=2, unique=True),
           count=st.integers(2, 1000))
    @example(ends=[1e-300, 1e300], count=2)
    @example(ends=[1e-300, 1e300], count=77)
    @example(ends=[1e299, 1e300], count=1000)
    @example(ends=[5e-324, 1e-300], count=3)
    def test_log_grid_equals_geomspace_bit_for_bit(self, base, ends, count):
        start, stop = sorted(ends)
        grid = SweepSpec(base, "unit1.power", start, stop, count, scale="log").grid()
        assert grid.tobytes() == np.geomspace(start, stop, count).tobytes()

    def test_log_grid_needs_positive_start(self, base):
        spec = SweepSpec(base, "bath.r", 0.0, 1.0, 5, scale="log")
        with pytest.raises(ValueError):
            spec.grid()

    @pytest.mark.parametrize("start, stop", [(0.0, math.inf), (-math.inf, 1.0),
                                             (math.nan, 1.0), (0.0, math.nan)])
    def test_non_finite_range_rejected(self, base, start, stop):
        with pytest.raises(ValueError, match="finite"):
            SweepSpec(base, "bath.r", start, stop, 3)

    def test_non_finite_width_rejected(self, base):
        with pytest.raises(ValueError, match="finite width"):
            SweepSpec(base, "bath.r", -1e308, 1e308, 3)

    def test_count_is_capped(self, base):
        SweepSpec(base, "bath.r", 0.5, 1.0, sweep.MAX_SWEEP_POINTS)
        with pytest.raises(ValueError, match="grid points"):
            SweepSpec(base, "bath.r", 0.5, 1.0, 10**12)

    @pytest.mark.parametrize("axis", ["bogus", "unit3.power", "bath.temperature", "power"])
    def test_unknown_axis_rejected(self, base, axis):
        with pytest.raises(UnknownPath, match=repr(axis).replace(".", r"\.")):
            SweepSpec(base, axis, 0.0, 1.0, 3)


class TestRunSweep:
    def test_rows_follow_axis_order_and_are_deterministic(self, base):
        spec = SweepSpec(base, "bath.r", 0.0, 2.0, 9)
        rows1 = run_sweep(spec)
        rows2 = run_sweep(spec)
        assert rows1 == rows2
        assert [row.axis_value for row in rows1] == pytest.approx(
            [0.25 * k for k in range(9)]
        )
        # more squeezing always helps in the adiabatic formula
        totals = [row.total for row in rows1]
        assert all(a > b for a, b in zip(totals, totals[1:]))

    def test_failures_become_error_rows(self, base):
        # negative squeeze parameters are invalid; the sweep must not abort
        spec = SweepSpec(base, "bath.r", -1.0, 1.0, 5)
        rows = run_sweep(spec)
        assert [row.error is not None for row in rows] == [True, True, False, False, False]
        assert all(math.isnan(row.total) for row in rows if row.error)

    def test_overflow_becomes_error_rows(self, base):
        rows = run_sweep(SweepSpec(base, "bath.r", 0.0, 1000.0, 3))
        assert [row.error is not None for row in rows] == [False, True, True]
        assert rows[1].error.startswith("OverflowError")

    @pytest.mark.parametrize("quantity", ["mirror-duan-nonadiabatic", "field-duan"])
    def test_nonadiabatic_quantity_takes_an_asymmetric_grid(self, base, quantity):
        spec = SweepSpec(base, "unit2.power", 1e-3, 5e-3, 3, quantity=quantity)
        rows = run_sweep(spec)
        assert all(row.error is None and row.C1 != row.C2 for row in rows)
        assert rows == [sweep._point_row(spec, x) for x in spec.grid().tolist()]
        pair = sweep.QUANTITIES[quantity][0]
        for row in rows:
            system = set_param(base, "unit2.power", row.axis_value)
            oracle_total = sweep.evaluate(system, pair, "oracle")[0].total
            assert row.total == pytest.approx(oracle_total, rel=1e-10)

    def test_oracle_matches_nonadiabatic_quantity(self, base):
        spec_c = SweepSpec(
            base, "bath.r", 0.0, 2.0, 5, quantity="mirror-duan-nonadiabatic"
        )
        spec_o = SweepSpec(base, "bath.r", 0.0, 2.0, 5, quantity="oracle-duan")
        for rc, ro in zip(run_sweep(spec_c), run_sweep(spec_o)):
            assert ro.total == pytest.approx(rc.total, rel=1e-9)
            assert ro.C1 == pytest.approx(rc.C1, rel=1e-12)


def scalar_sweep_rows(spec):
    """The per-point sweep loop that ``run_sweep`` replaced, verbatim."""
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


OMEGA_REF = config.default_system().unit2.mirror.omega_M
KAPPA_REF = config.default_system().unit1.resonator.kappa
#: sweep axis -> interval its range is drawn from; each reaches invalid or overflowing values
SWEEP_AXES = {
    "bath.r": (-2.0, 1000.0),
    "temperature": (-1e-3, 10.0),
    "unit1.power": (-1e-2, 1e300),
    "unit2.power": (-1e-2, 1e300),
    "unit2.mirror.omega_M": (-0.5 * OMEGA_REF, 20.0 * OMEGA_REF),
    "unit1.kappa": (-KAPPA_REF, 1e4 * KAPPA_REF),
    "unit2.gamma": (-1e3, 1e9),
}


@st.composite
def sweep_specs(draw):
    axis = draw(st.sampled_from(sorted(SWEEP_AXES)))
    lo, hi = SWEEP_AXES[axis]
    # a narrow range near either end of the interval, or one across it
    a, b = sorted(draw(st.lists(st.floats(lo, hi), min_size=2, max_size=2, unique=True)))
    if draw(st.booleans()):
        a, b = (lo, lo + (b - a) * 1e-3) if draw(st.booleans()) else (hi - (b - a) * 1e-3, hi)
        assume(a < b)
    base = config.default_system()
    if draw(st.booleans()):  # asymmetric units: unit 2 at its own drive power
        base = set_param(base, "unit2.power", draw(st.floats(1e-4, 1e-1)))
    if draw(st.booleans()):
        base = set_param(base, "bath.r", draw(st.floats(0.0, 400.0)))
    scale = "log" if a > 0 and draw(st.booleans()) else "linear"
    return SweepSpec(base, axis, a, b, draw(st.integers(2, 12)), scale=scale,
                     quantity=draw(st.sampled_from(sorted(sweep.QUANTITIES))))


class TestArraySweep:
    @settings(max_examples=150, deadline=None)
    @given(spec=sweep_specs())
    def test_rows_equal_the_per_point_loop(self, spec):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # the optical-ratio warning
            rows = run_sweep(spec)
            assert rows == scalar_sweep_rows(spec)
        # a named tuple equals a plain tuple of its values, so check the type too
        assert all(type(row) is SweepRow for row in rows)

    @pytest.mark.parametrize("quantity", sorted(sweep.QUANTITIES))
    @pytest.mark.parametrize("axis, start, stop", [
        ("bath.r", -1.0, 1000.0), ("unit1.power", -1e-2, 1e300),
        ("unit2.power", 1e-3, 1e-2), ("unit2.gamma", -1e3, 1e9),
    ])
    def test_fixed_ranges_equal_the_per_point_loop(self, base, quantity, axis, start, stop):
        spec = SweepSpec(base, axis, start, stop, 9, quantity=quantity)
        assert run_sweep(spec) == scalar_sweep_rows(spec)

    @pytest.mark.parametrize("quantity", sorted(sweep.QUANTITIES))
    @pytest.mark.parametrize("axis, start, stop", [
        ("bath.r", 0.0, 2.0), ("temperature", 1e-5, 1e-2), ("unit2.power", 1e-3, 1e-2),
    ])
    def test_a_valid_grid_never_takes_the_per_point_route(self, base, monkeypatch, quantity,
                                                          axis, start, stop):
        monkeypatch.setattr(oracle, "STACK_CHUNK", 4)  # 11 points span three chunks
        spec = SweepSpec(base, axis, start, stop, 11, quantity=quantity)
        expected = scalar_sweep_rows(spec)
        assert all(row.error is None for row in expected)

        def point_row(spec, x):
            raise AssertionError(f"per-point route at {x!r}")

        monkeypatch.setattr(sweep, "_point_row", point_row)
        assert run_sweep(spec) == expected

    @pytest.mark.parametrize("axis, quantity", [
        ("unit2.power", "mirror-duan-adiabatic"),  # unit 1 fixed
        ("unit1.power", "mirror-duan-nonadiabatic"),  # unit 2 fixed
        ("unit1.power", "oracle-duan"),  # var_Y a list of its own
        ("bath.r", "field-duan"),  # both units fixed
    ])
    def test_a_valid_grid_runs_no_numpy_wrapper(self, base, monkeypatch, axis, quantity):
        # the log grid and the row columns come without np.geomspace and
        # np.broadcast_arrays, whose Python-level set-up costs most of a small sweep
        spec = SweepSpec(base, axis, 1e-3, 1e-1, 40, scale="log", quantity=quantity)
        expected = scalar_sweep_rows(spec)

        class Numpy:
            def __getattr__(self, name):
                return getattr(np, name)

            def geomspace(self, *args, **kwargs):
                raise AssertionError("np.geomspace")

            def broadcast_arrays(self, *args, **kwargs):
                raise AssertionError("np.broadcast_arrays")

        monkeypatch.setattr(sweep, "np", Numpy())
        rows = run_sweep(spec)
        assert rows == expected and all(row.error is None for row in rows)
        # a fixed unit's cooperativity is repeated as a float, as an array's list holds
        assert all(type(value) is float for row in rows for value in (row.C1, row.C2))

    @pytest.mark.parametrize("axis, start, stop, quantity", [
        *(("temperature", 1e-5, 1e-2, quantity) for quantity in sorted(sweep.QUANTITIES)),
        *(("bath.r", 0.0, 2.0, quantity) for quantity in sorted(sweep.QUANTITIES)),
        # unit 2 alone varies, so the units differ
        *(("unit2.mirror.omega_M", OMEGA_M / 2.0, 2.0 * OMEGA_M, quantity)
          for quantity in sorted(sweep.QUANTITIES)),
    ])
    def test_a_valid_grid_runs_no_per_point_function(self, base, monkeypatch, axis, start,
                                                     stop, quantity):
        # none per grid point: only the records that the grid holds fixed are
        # evaluated, once each, as points
        calls = []
        for name in ("_occupation", "_squeezed_occupation", "_squeezed_correlation"):
            function = getattr(model, name)
            monkeypatch.setattr(model, name, lambda *args, name=name, function=function:
                                calls.append(name) or function(*args))

        def point_row(spec, x):
            raise AssertionError(f"per-point route at {x!r}")

        monkeypatch.setattr(sweep, "_point_row", point_row)
        per_grid = []
        for count in (3, 300):
            calls.clear()
            rows = run_sweep(SweepSpec(base, axis, start, stop, count, quantity=quantity))
            assert len(rows) == count and all(row.error is None for row in rows)
            per_grid.append(list(calls))
        assert per_grid[0] == per_grid[1]
        swept = (set() if axis == "bath.r"
                 else {unit for unit, _, _ in model.unit_targets(axis)})
        fixed_units, fixed_baths = 2 - len(swept), int(axis != "bath.r")
        assert calls.count("_occupation") <= fixed_units
        assert calls.count("_squeezed_occupation") <= fixed_baths
        assert calls.count("_squeezed_correlation") <= fixed_baths

    @pytest.mark.parametrize("make, builds", [
        (lambda base: run_sweep(SweepSpec(base, "temperature", 1e-5, 1e-2, 20,
                                          quantity="oracle-duan")), 1),
        (lambda base: run_sweep(SweepSpec(set_param(base, "unit2.power", 3e-3), "temperature",
                                          1e-5, 1e-2, 20, quantity="oracle-duan")), 2),
        (lambda base: figure_dataset("fig2", base), 1),  # both mirror baths
        (lambda base: figure_dataset("fig3", base), 1),  # both drive powers
    ], ids=["identical", "asymmetric", "fig2", "fig3"])
    def test_equal_units_given_the_same_arrays_share_one_build(self, base, monkeypatch, make,
                                                               builds):
        # a build is a call of the rate core, which every unit that a grid sets takes
        calls = []
        build = sweep.sideband_rate_arrays
        monkeypatch.setattr(sweep, "sideband_rate_arrays",
                            lambda *args: calls.append(args) or build(*args))
        make(base)
        assert len(calls) == builds

    @pytest.mark.parametrize("quantity", sorted(sweep.QUANTITIES))
    def test_one_failing_point_sends_every_point_the_per_point_route(self, base, monkeypatch,
                                                                     quantity):
        calls = []
        point_row = sweep._point_row
        monkeypatch.setattr(sweep, "_point_row",
                            lambda spec, x: calls.append(x) or point_row(spec, x))
        spec = SweepSpec(base, "bath.r", -0.25, 2.0, 10, quantity=quantity)  # r < 0 first
        rows = run_sweep(spec)
        assert [row.error is not None for row in rows] == [True] + [False] * 9
        assert calls == spec.grid().tolist()

    @pytest.mark.parametrize("axis, start, stop, errors", [
        ("temperature", 1e-5, 1e-2, [False] * 3),  # the array core
        ("bath.r", -0.25, 2.0, [True, False, False]),  # one failing point: per point
        ("unit2.mirror.omega_M", 1e-320, 1e6, [True, False, False]),  # the whole-grid fallback
    ])
    def test_every_route_returns_sweep_rows(self, base, axis, start, stop, errors):
        rows = run_sweep(SweepSpec(base, axis, start, stop, 3))
        assert [row.error is not None for row in rows] == errors
        assert all(type(row) is SweepRow for row in rows)

    def test_oracle_chunks_equal_the_per_point_loop(self, base, monkeypatch):
        monkeypatch.setattr(oracle, "STACK_CHUNK", 4)
        # a valid grid, so that the rows come from the chunks; asymmetric units
        spec = SweepSpec(base, "unit2.power", 1e-3, 3e-2, 11, quantity="oracle-duan")
        rows = run_sweep(spec)
        assert rows == scalar_sweep_rows(spec)
        assert all(row.error is None for row in rows)

    def test_a_system_keeps_its_oracle_bits_beside_others_in_its_chunk(self, base):
        # at r = 0 the bath has no x1-x2 term; the point is still solved as
        # it is beside the r = 1 point, so its row keeps the per-point bits
        for path in ("temperature", "unit1.power", "unit2.power"):
            value = 0.0043632957857657586 if path == "temperature" else 0.001917496255055943
            base = set_param(base, path, value)
        spec = SweepSpec(base, "bath.r", 0.0, 1.0, 2, quantity="oracle-duan")
        assert run_sweep(spec)[0] == sweep._point_row(spec, 0.0)

    def test_cancelled_oracle_digits_are_error_rows(self, base):
        spec = SweepSpec(base, "bath.r", 2.0, 18.0, 3, quantity="oracle-duan")
        rows = run_sweep(spec)
        assert rows == scalar_sweep_rows(spec)
        assert rows[0].error is None
        assert rows[2].error.startswith(
            "FloatingPointError: Duan variance lost its digits to cancellation")

    def test_a_grid_the_array_core_raises_for_goes_point_by_point(self, base):
        # hbar omega_M underflows to 0: the occupation diverges
        spec = SweepSpec(base, "unit2.mirror.omega_M", 1e-320, 1e6, 3)
        rows = run_sweep(spec)
        assert rows == scalar_sweep_rows(spec)
        assert rows[0].error.startswith("OverflowError: thermal occupation diverges")

    def test_an_underflowing_rate_denominator_is_a_named_error_row(self, base):
        # at T = 0 the occupation is 0; M omega_M underflows to 0
        base = set_param(base, "temperature", 0.0)
        spec = SweepSpec(base, "unit2.mirror.omega_M", 1e-320, 1e6, 2)
        rows = run_sweep(spec)
        assert rows == scalar_sweep_rows(spec)
        assert rows[0].error.startswith("OverflowError: steady-state rates diverge at ")
        assert rows[1].error is None


class TestEvaluateQuantity:
    def test_reports_both_cooperativities(self, base):
        asym = set_param(base, "unit2.power", 5e-3)
        _, c1, c2 = evaluate_quantity(asym, "mirror-duan-adiabatic")
        assert c2 == pytest.approx(c1 / 2.0, rel=1e-12)

    def test_unknown_quantity(self, base):
        with pytest.raises(ValueError):
            evaluate_quantity(base, "bogus")

    def test_quantities_name_table_entries(self):
        assert list(sweep.QUANTITIES) == [
            "mirror-duan-adiabatic", "mirror-duan-nonadiabatic", "field-duan", "oracle-duan",
        ]

    def test_field_adiabatic_is_the_field_nonadiabatic_form(self, base):
        system = set_param(base, "bath.r", 1.7)
        assert (sweep.evaluate(system, "field", "adiabatic")
                == sweep.evaluate(system, "field", "nonadiabatic"))

    @pytest.mark.parametrize("pair, route", [("bogus", "adiabatic"), ("mirror", "bogus")])
    def test_unknown_pair_or_route(self, base, pair, route):
        with pytest.raises(ValueError, match="unknown pair"):
            sweep.evaluate(base, pair, route)

    @settings(max_examples=60, deadline=None)
    @given(
        key=st.sampled_from([(pair, route) for pair in ("field", "mirror")
                             for route in ("adiabatic", "nonadiabatic", "oracle")]),
        r=POSITIVE, temperature=POSITIVE, power=POSITIVE,
        unit2=st.none() | st.tuples(POSITIVE, POSITIVE),
    )
    def test_every_entry_gives_a_finite_total_or_a_typed_error(
        self, key, r, temperature, power, unit2
    ):
        system = config.default_system()
        for path, value in (("bath.r", r), ("temperature", temperature),
                            ("unit1.power", power), ("unit2.power", power)):
            system = set_param(system, path, value)
        if unit2 is not None:  # otherwise the units are identical
            system = set_param(system, "unit2.power", unit2[0])
            system = set_param(system, "unit2.mirror.omega_M", unit2[1])
        try:
            result, _, _ = sweep.evaluate(system, *key)
        except (ValueError, ArithmeticError, UnstableDrift):
            return
        assert math.isfinite(result.total) and result.total >= 0.0
        assert isinstance(result.entangled, bool)

    @pytest.mark.parametrize("pair", ["mirror", "field"])
    @pytest.mark.parametrize("unit2", [{}, {"unit2.power": 4e-3, "unit2.kappa": 300e3,
                                           "unit2.gamma": 200.0, "unit2.temperature": 5e-4}],
                             ids=["identical", "mismatched"])
    def test_oracle_point_has_the_bits_of_the_shim_reference(self, base, pair, unit2):
        # the row kernel on the point's unit records gives what the one-system
        # shims give: the reference the benchmark holds `duan --regime oracle` to
        system = set_param(base, "bath.r", 1.3)
        for path, value in unit2.items():
            system = set_param(system, path, value)
        steady = tuple(model.mean_fields_from_effective_detuning(u, -u.mirror.omega_M)
                       for u in (system.unit1, system.unit2))
        dd = oracle.build_rwa_drift_diffusion(system, steady)
        want = oracle.duan_from_covariance(oracle.solve_lyapunov(dd), pair)
        got, _, _ = sweep.evaluate(system, pair, "oracle")
        assert [x.hex() for x in (got.var_X, got.var_Y, got.total)] == [
            x.hex() for x in (want.var_X, want.var_Y, want.total)]

    @pytest.mark.parametrize("pair", ["field", "mirror"])
    def test_overflowing_drift_norm_beside_a_zero_covariance_pair(self, pair):
        # unit 2's drift rows square to inf and a cross pair of V is 0: that
        # pair's residual bound was inf * 0 = NaN, which failed a residual of 0
        system = set_param(config.default_system(), "unit2.power", 1e10)
        system = set_param(system, "unit2.mirror.omega_M", 5e-275)
        result, _, _ = sweep.evaluate(system, pair, "oracle")
        assert math.isfinite(result.total) and result.total >= 0.0


class TestMinimizeScalar:
    def test_quadratic_minimum(self):
        (x,), (y,) = sweep._golden_searches(lambda x: (x - 3.0) ** 2 + 1.0,
                                            [OptimizeSpec(0.0, 10.0)])
        assert x == pytest.approx(3.0, abs=1e-4)
        assert y == pytest.approx(1.0, abs=1e-8)

    def test_tight_tolerance(self):
        (x,), _ = sweep._golden_searches(lambda x: np.cosh(x - 0.7),
                                         [OptimizeSpec(-2.0, 2.0, tolerance=1e-10)])
        assert x == pytest.approx(0.7, abs=1e-7)

    def test_tolerance_below_the_float_spacing_stops(self):
        # the bracket stops shrinking a few ulps wide, above 1e-17 * (hi - lo)
        calls = []

        def objective(x):
            calls.append(x)
            if len(calls) > 200:
                raise AssertionError("the search does not stop")
            return (x - 1.3) ** 2

        (x,), _ = sweep._golden_searches(objective, [OptimizeSpec(1.0, 2.0, tolerance=1e-17)])
        assert abs(x - 1.3) <= 4 * math.ulp(1.3)

    def test_monotone_objective_raises(self):
        with pytest.raises(BracketFailure):
            sweep._golden_searches(lambda x: x, [OptimizeSpec(0.0, 1.0)])
        with pytest.raises(BracketFailure):
            sweep._golden_searches(lambda x: -x, [OptimizeSpec(0.0, 1.0)])

    def test_bad_bracket(self):
        with pytest.raises(ValueError):
            OptimizeSpec(1.0, 1.0)
        with pytest.raises(ValueError):
            OptimizeSpec(0.0, 1.0, tolerance=0.0)

    @pytest.mark.parametrize("lo, hi, tolerance", [
        (0.0, 10.0, math.nan), (0.0, 10.0, math.inf), (0.0, 10.0, 1.0), (0.0, 10.0, -1e-6),
        (0.0, math.inf, 1e-6), (-math.inf, 0.0, 1e-6), (math.nan, 1.0, 1e-6),
        (-1e308, 1e308, 1e-6),  # the width hi - lo overflows
    ])
    def test_non_finite_or_out_of_range_spec_rejected(self, lo, hi, tolerance):
        with pytest.raises(ValueError):
            OptimizeSpec(lo, hi, tolerance=tolerance)


def _quadratic_family(shifts, widths):
    """(objective of every search, objective of search k alone) of shifted quartic bowls."""
    def batch(x):
        u = (x - shifts[:, None]) / widths[:, None]
        return u * u + 0.25 * u * u * u * u

    def one(k):
        def objective(x):
            u = (x - shifts[k]) / widths[k]
            return u * u + 0.25 * u * u * u * u
        return objective

    return batch, one


def _random_bowls(seed, tolerance):
    """(batch objective, lone objective of k, specs) of 40 bowls in random brackets;
    ``tolerance()`` gives each spec's tolerance."""
    rng = np.random.default_rng(seed)
    n = 40
    shifts = rng.uniform(-3.0, 3.0, n)
    widths = 10.0 ** rng.uniform(-2.0, 1.0, n)
    specs = [OptimizeSpec(s - w * rng.uniform(1.0, 4.0), s + w * rng.uniform(1.0, 4.0),
                          tolerance=tolerance(rng))
             for s, w in zip(shifts, widths)]
    return (*_quadratic_family(shifts, widths), specs)


class TestLockstepSearch:
    @pytest.mark.parametrize("tolerance", [1e-12, 1e-7, 1e-3])
    def test_batch_equals_searches_of_one_bit_for_bit(self, tolerance):
        # one tolerance for the batch: every search takes the steps it takes alone
        batch, one, specs = _random_bowls(11, lambda rng: tolerance)
        x_min, y_min = sweep._golden_searches(batch, specs)
        for k, spec in enumerate(specs):
            (x,), (y,) = sweep._golden_searches(one(k), [spec])
            assert (x_min[k], y_min[k]) == (x, y)

    def test_mixed_tolerances_narrow_each_search_at_least_as_far_as_alone(self):
        # a search whose bracket is small enough keeps stepping with the rest:
        # its argmin moves by less than its tolerance, and its minimum only falls
        batch, one, specs = _random_bowls(11, lambda rng: 10.0 ** rng.uniform(-12.0, -3.0))
        x_min, y_min = sweep._golden_searches(batch, specs)
        for k, spec in enumerate(specs):
            (x,), (y,) = sweep._golden_searches(one(k), [spec])
            assert abs(x_min[k] - x) <= spec.tolerance * (spec.hi - spec.lo)
            assert y_min[k] <= y

    def test_partner_batch_equals_partner_searches_of_one(self, base):
        base = set_param(base, "bath.r", 2.0)
        values1 = np.array([2e-3, 7e-3, 19e-3])
        temperatures = np.array([0.25e-3, 0.5e-3, 0.4e-3])
        specs = [OptimizeSpec(0.1 * v, 3.0 * v) for v in values1]
        x_min, y_min = sweep.optimize_partners(base, "power", values1, specs,
                                               {"temperature": temperatures})
        for k, (v1, T) in enumerate(zip(values1, temperatures)):
            alone = sweep.optimize_partners(set_param(base, "temperature", T), "power",
                                            [v1], [specs[k]])
            assert (x_min[k], y_min[k]) == (alone[0][0], alone[1][0])

    @pytest.mark.parametrize("field, values1", [
        ("power", np.array([2e-3, 7e-3, 19e-3])),
        ("mirror.omega_M", np.array([0.6, 1.0, 1.7]) * OMEGA_M),
    ])
    def test_partner_batch_equals_adiabatic_totals_bit_for_bit(self, base, field, values1):
        # unit 1's rates and the bath's terms are built once per batch; the
        # searches see the totals that adiabatic_totals gives at every step
        overrides = {"temperature": np.array([0.25e-3, 0.5e-3, 0.4e-3]),
                     "bath.r": np.array([1.0, 2.5, 2.0])}
        specs = [OptimizeSpec(0.2 * v, 3.0 * v) for v in values1.tolist()]
        x_min, y_min = sweep.optimize_partners(base, field, values1, specs, overrides)

        def objective(x):
            return sweep.adiabatic_totals(
                base, {path: values[:, None] for path, values in overrides.items()}
                | {f"unit1.{field}": values1[:, None], f"unit2.{field}": x})

        reference = sweep._golden_searches(objective, specs)
        assert x_min.tolist() == reference[0].tolist()
        assert y_min.tolist() == reference[1].tolist()
        for k, (x, y) in enumerate(zip(x_min.tolist(), y_min.tolist())):
            at_argmin = {path: values[k] for path, values in overrides.items()}
            at_argmin |= {f"unit1.{field}": values1[k], f"unit2.{field}": x}
            assert sweep.adiabatic_totals(base, at_argmin).item() == y

    @pytest.mark.parametrize("values1, overrides, message", [
        ([2e-3, -1.0, 7e-3], {}, "power must be > 0 and finite, got -1.0"),
        ([2e-3, 7e-3, 19e-3], {"temperature": [2.5e-4, 4e-4, -1.0]},
         "temperature must be >= 0 and finite, got -1.0"),
        ([2e-3, 7e-3, 19e-3], {"bath.r": [1.0, 2.0, -0.5]},
         "squeeze parameter r must be >= 0 and finite, got -0.5"),
        # unit 1 is checked before unit 2's points, and they before the bath
        ([2e-3, -2.0, 7e-3], {"unit2.temperature": [2.5e-4, 4e-4, -1.0]},
         "power must be > 0 and finite, got -2.0"),
        ([2e-3, 7e-3, 19e-3], {"unit2.temperature": [2.5e-4, 4e-4, -1.0],
                               "bath.r": [1.0, 2.0, -0.5]},
         "temperature must be >= 0 and finite, got -1.0"),
    ])
    def test_partner_batch_raises_the_first_invalid_value(self, base, values1, overrides,
                                                          message):
        base = set_param(base, "bath.r", 2.0)
        specs = [OptimizeSpec(1e-4, 3e-2)] * 3
        with pytest.raises(ValueError, match=f"^{message}$"):
            sweep.optimize_partners(base, "power", values1, specs, overrides)

    def test_partner_batch_keeps_the_searched_fields_precedence(self, base):
        # an override of the searched field yields to unit 1's values and unit 2's points
        values1 = np.array([5e-3, 10e-3])
        specs = [OptimizeSpec(0.2 * v, 3.0 * v, tolerance=1e-7) for v in values1.tolist()]
        plain = sweep.optimize_partners(base, "power", values1, specs)
        shadowed = sweep.optimize_partners(base, "power", values1, specs,
                                           {"unit1.resonator.power": [1.0, 1.0],
                                            "unit2.power": [2.0, 2.0]})
        assert [a.tolist() for a in shadowed] == [a.tolist() for a in plain]

    @pytest.mark.parametrize("fig", ["fig5b", "fig6b"])
    def test_optimized_figure_builds_unit_1_once(self, monkeypatch, fig):
        builds, scans, steps = [], [], []

        def counted(calls, fn):
            def wrapper(*args):
                calls.append(args)
                return fn(*args)
            return wrapper

        monkeypatch.setattr(sweep, "_sideband", counted(builds, sweep._sideband))
        monkeypatch.setattr(closedform, "duan_sum_adiabatic_arrays",
                            counted(scans, closedform.duan_sum_adiabatic_arrays))
        monkeypatch.setattr(closedform, "duan_sum_adiabatic_steps",
                            counted(steps, closedform.duan_sum_adiabatic_steps))
        searches = 3 * len(figure_dataset(fig).rows)
        # 25 evaluations: the scan, then the first (c, d) pair and 23 golden
        # steps; the scan's total is formed by the steps' function too
        assert (len(scans), len(steps)) == (1, 25)
        # unit 1 first, once, as columns over every search; then the scan's unit 2
        assert len(builds) == 2
        (_, fields1), (_, fields2) = builds
        assert {np.shape(values) for values in fields1.values()} == {(searches, 1)}
        assert {np.shape(values) for values in fields2.values()} == {
            (searches, 1), (searches, sweep.SCAN_POINTS)}

    @pytest.mark.parametrize("field, scale", [("power", 1e-2), ("mirror.omega_M", OMEGA_M)])
    def test_partner_searches_that_finish_apart_equal_adiabatic_totals(self, base, monkeypatch,
                                                                       field, scale):
        # tolerances from 1e-9 to 1e-3: the searches are done at different steps,
        # and every step still evaluates every search
        rng = np.random.default_rng(5)
        n = 12
        values1 = scale * rng.uniform(0.5, 1.5, n)
        overrides = {"temperature": rng.uniform(0.2e-3, 0.6e-3, n),
                     "bath.r": rng.uniform(1.0, 2.5, n)}
        tolerances = rng.permutation(np.geomspace(1e-9, 1e-3, n))
        specs = [OptimizeSpec(0.2 * v, 3.0 * v, t)
                 for v, t in zip(values1.tolist(), tolerances.tolist())]
        running = []
        steps = closedform.duan_sum_adiabatic_steps
        monkeypatch.setattr(closedform, "duan_sum_adiabatic_steps",
                            lambda held, unit2: running.append(len(held[0])) or steps(held, unit2))
        x_min, y_min = sweep.optimize_partners(base, field, values1, specs, overrides)

        def objective(x):
            return sweep.adiabatic_totals(
                base, {path: values[:, None] for path, values in overrides.items()}
                | {f"unit1.{field}": values1[:, None], f"unit2.{field}": x})

        reference = sweep._golden_searches(objective, specs)
        assert x_min.tolist() == reference[0].tolist()
        assert y_min.tolist() == reference[1].tolist()
        assert running and set(running) == {n}

    @pytest.mark.parametrize("check, builds, elements", [
        # unit 1's column and the scan's column of unit 2, 177 searches each
        (lambda: figure_dataset("fig5b"), 2, 2 * 3 * 59),
        # a power search of units at one temperature: the occupation is a point
        (lambda: selfcheck.run_checks(["symmetric-drive"]), 0, 0),
        # an omega_M search moves unit 2's occupation: the scan and every step build it
        (lambda: figure_dataset("fig6b"), 26, None),
    ], ids=["fig5b", "symmetric-drive", "fig6b"])
    def test_partner_batch_builds_unit_2_occupation_once(self, monkeypatch, check, builds,
                                                          elements):
        sizes = []
        occupation = model._occupation_arrays
        monkeypatch.setattr(model, "_occupation_arrays", lambda omega_M, temperature: (
            sizes.append(np.broadcast(omega_M, temperature).size)
            or occupation(omega_M, temperature)))
        check()
        assert len(sizes) == builds
        assert elements is None or sum(sizes) == elements

    @pytest.mark.parametrize("check", [
        lambda: figure_dataset("fig5b"), lambda: figure_dataset("fig6b"),
        lambda: selfcheck.run_checks(["symmetric-drive"]),
    ], ids=["fig5b", "fig6b", "symmetric-drive"])
    def test_figure_batch_searches_equal_searches_run_alone(self, monkeypatch, check):
        # each batch shares one tolerance, so its searches step as they do alone
        batches = []
        optimize = sweep.optimize_partners

        def recorded(base, field, values1, specs, overrides=None):
            found = optimize(base, field, values1, specs, overrides)
            batches.append((base, field, np.asarray(values1, dtype=float), specs,
                            overrides or {}, found))
            return found

        monkeypatch.setattr(sweep, "optimize_partners", recorded)
        check()
        (base, field, values1, specs, overrides, (x_min, y_min)), = batches
        for k in sorted(set(np.linspace(0, len(specs) - 1, 5).astype(int).tolist())):
            (x,), (y,) = optimize(base, field, values1[k:k + 1], specs[k:k + 1],
                                  {path: np.asarray(values)[k:k + 1]
                                   for path, values in overrides.items()})
            assert (x_min[k], y_min[k]) == (x, y)

    @pytest.mark.parametrize("bad", [0, 3, 6])
    def test_edge_minimum_names_its_search(self, bad):
        shifts = np.zeros(7)
        shifts[bad] = 50.0  # outside its bracket: the scan is smallest at the edge
        batch, _ = _quadratic_family(shifts, np.ones(7))
        specs = [OptimizeSpec(-2.0, 2.0)] * 7
        with pytest.raises(BracketFailure, match=f"search {bad} of 7"):
            sweep._golden_searches(batch, specs)


ARRAY_PATHS = ("unit1.power", "unit2.power", "unit2.mirror.omega_M", "temperature", "bath.r")
ARRAY_POINT = st.tuples(
    st.floats(1e-12, 10.0), st.floats(1e-12, 10.0),  # drive powers, W
    st.floats(0.05 * OMEGA_M, 20.0 * OMEGA_M),
    st.floats(0.0, 10.0),  # temperature, K
    st.floats(0.0, 3.0),  # squeeze parameter
)

# inf against finite, NaN, 0 against 0 (the 1e-300 floor), subnormals, and
# near-equal partners that sit on either side of the 1e-9 tolerance
class TestArrayCore:
    @settings(max_examples=80, deadline=None)
    @given(points=st.lists(ARRAY_POINT, min_size=1, max_size=8))
    def test_array_total_equals_per_point_route_bit_for_bit(self, base, points):
        per_point = []
        for point in points:
            system = base
            for path, value in zip(ARRAY_PATHS, point):
                system = set_param(system, path, value)
            per_point.append(sweep.evaluate(system, "mirror", "adiabatic")[0].total)
        columns = {path: np.array(values) for path, values in zip(ARRAY_PATHS, zip(*points))}
        assert sweep.adiabatic_totals(base, columns).tolist() == per_point

    @pytest.mark.parametrize("path, valid, bad, error", [
        ("unit1.power", 1e-3, -1e-3, ValueError),
        ("unit2.mirror.omega_M", OMEGA_M, math.nan, FloatingPointError),
        ("temperature", 1e-4, math.inf, FloatingPointError),
        ("unit2.temperature", 1e-4, -1.0, ValueError),
        ("bath.r", 1.0, 400.0, OverflowError),
        ("bath.r", 1.0, -0.5, ValueError),
        ("unit1.bogus", 1.0, 1.0, ValueError),
        # two failing elements: the first in flat order names the error
        pytest.param("temperature", 1e-3, [-1.0, -2.0], ValueError,
                     id="temperature-first-of-two-negative"),
        pytest.param("bath.r", 1.0, [-0.5, -2.0], ValueError, id="bath.r-first-of-two-negative"),
        pytest.param("bath.r", 1.0, [400.0, 360.0], OverflowError,
                     id="bath.r-first-of-two-overflowing"),
    ])
    def test_invalid_element_raises_what_the_point_raises(self, base, path, valid, bad,
                                                          error):
        bad = bad if isinstance(bad, list) else [bad]
        with pytest.raises(error) as per_point:
            evaluate_quantity(set_param(base, path, bad[0]), "mirror-duan-adiabatic")
        with pytest.raises(error) as array:
            sweep.adiabatic_totals(base, {path: np.array([valid, *bad, valid])})
        assert str(array.value) == str(per_point.value)

    def test_underflowing_rate_denominator_raises_like_the_point(self, base):
        base = set_param(base, "temperature", 0.0)
        with pytest.raises(OverflowError) as per_point:
            evaluate_quantity(set_param(base, "unit2.mirror.omega_M", 1e-320),
                              "mirror-duan-adiabatic")
        with pytest.raises(OverflowError) as array:
            sweep.adiabatic_totals(base, {"unit2.mirror.omega_M": np.array([OMEGA_M, 1e-320])})
        assert str(array.value) == str(per_point.value)
        assert "underflows to 0" in str(array.value)

    def test_non_finite_total_raises_like_the_point(self, base):
        huge = {"unit1.power": 1e300, "unit2.power": 1e300}
        system = base
        for path, value in huge.items():
            system = set_param(system, path, value)
        with pytest.raises(FloatingPointError):
            evaluate_quantity(system, "mirror-duan-adiabatic")
        with pytest.raises(FloatingPointError):
            sweep.adiabatic_totals(base, {path: np.array([1e-3, value])
                                          for path, value in huge.items()})

    def test_low_optical_ratio_warns(self, base):
        with pytest.warns(UserWarning, match="high-finesse"):
            sweep.adiabatic_totals(base, {"unit2.kappa": np.array([1.0, 1e13])})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sweep.adiabatic_totals(base, {"unit2.power": np.array([1e-3, 2e-3])})


def test_figure_csvs_match_the_pinned_hashes():
    """Every figure CSV is byte-identical to the benchmark's pinned digests."""
    path = Path(__file__).resolve().parents[1] / "bench" / "figure_sha256.json"
    pinned = json.loads(path.read_text())["sha256"]
    assert {fig: hashlib.sha256(cli.render_figure_csv(fig).encode()).hexdigest()
            for fig in pinned} == pinned


class TestFigureDatasets:
    def test_unknown_figure(self):
        with pytest.raises(UnknownFigure):
            figure_dataset("fig7")

    def test_fig2_no_squeezing_would_sit_at_floor(self):
        # every fig2 curve has r > 0 and beats the separable value at the
        # coldest point; the r = 0.5 curve crosses back above 2 first
        ds = figure_dataset("fig2")
        first, last = ds.rows[0], ds.rows[-1]
        assert all(v < 2.0 for v in first[1:])
        assert all(v > 2.0 for v in last[1:])
        assert first[1] > first[2] > first[3]  # more squeezing is better

    def test_fig4_crossing_matches_threshold(self):
        ds = figure_dataset("fig4")
        c_min = closedform.threshold_cooperativity(1.0, 1.0)
        below = max(row for row in ds.rows if row[0] < c_min)
        above = min(row for row in ds.rows if row[0] > c_min)
        assert below[1] > 2.0 > above[1]

    def test_fig8_ordering_everywhere(self):
        ds = figure_dataset("fig8")
        for _, adiab, gk1, gk5 in ds.rows:
            assert adiab <= gk1 + 1e-12 <= gk5 + 1e-12

    def test_fig9_field_flat_mirror_spread(self):
        ds = figure_dataset("fig9")
        row = next(r for r in ds.rows if abs(r[0] - 1.0) < 1e-9)
        _, m15, m30, m90, field = row
        assert m15 > m30 > m90  # mirror totals improve with cooperativity
        assert field == pytest.approx(
            closedform.field_sum_nonadiabatic(15.0, 1.0, 5.0, 6.5e-4, 1.0).total,
            rel=1e-12,
        )

    def test_fig5a_each_curve_minimizes_at_symmetric_power(self):
        ds = figure_dataset("fig5a")
        for k, p1 in enumerate(ds.metadata["p1_values"], start=1):
            best = min(ds.rows, key=lambda row: row[k])
            assert best[0] == pytest.approx(p1, rel=0.07)

    def test_fig6b_optimized_totals_are_monotone_in_temperature(self):
        ds = figure_dataset("fig6b")
        for row in ds.rows[:: len(ds.rows) // 4]:
            assert row[1] < row[2] < row[3]

    def test_metadata_carries_parameter_set(self):
        ds = figure_dataset("fig2")
        assert ds.metadata["unit1.resonator.length"] == pytest.approx(25e-3)
        assert ds.metadata["r_values"] == [0.5, 1.0, 2.0]
