import math

import pytest
from hypothesis import given, settings, strategies as st

from squeezelink import closedform, config, sweep
from squeezelink.model import NonConvergence
from squeezelink.oracle import UnstableDrift
from squeezelink.sweep import (
    BracketFailure,
    OptimizeSpec,
    SweepSpec,
    UnknownFigure,
    evaluate_quantity,
    figure_dataset,
    minimize_scalar,
    run_sweep,
    set_param,
)

POSITIVE = st.floats(min_value=5e-324, max_value=1e300)


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

    def test_log_grid_needs_positive_start(self, base):
        spec = SweepSpec(base, "bath.r", 0.0, 1.0, 5, scale="log")
        with pytest.raises(ValueError):
            spec.grid()


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

    def test_identical_only_quantity_rejects_asymmetric_grid(self, base):
        spec = SweepSpec(
            base, "unit2.power", 1e-3, 5e-3, 3, quantity="mirror-duan-nonadiabatic"
        )
        rows = run_sweep(spec)
        assert all(row.error is not None and "identical" in row.error for row in rows)

    def test_oracle_matches_nonadiabatic_quantity(self, base):
        spec_c = SweepSpec(
            base, "bath.r", 0.0, 2.0, 5, quantity="mirror-duan-nonadiabatic"
        )
        spec_o = SweepSpec(base, "bath.r", 0.0, 2.0, 5, quantity="oracle-duan")
        for rc, ro in zip(run_sweep(spec_c), run_sweep(spec_o)):
            assert ro.total == pytest.approx(rc.total, rel=1e-9)
            assert ro.C1 == pytest.approx(rc.C1, rel=1e-12)


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
        assert set(sweep.QUANTITIES.values()) <= set(sweep.EVALUATORS)

    @settings(max_examples=60, deadline=None)
    @given(
        key=st.sampled_from(sorted(sweep.EVALUATORS)),
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
        except (ValueError, ArithmeticError, UnstableDrift, NonConvergence):
            return
        assert math.isfinite(result.total) and result.total >= 0.0
        assert isinstance(result.entangled, bool)


class TestMinimizeScalar:
    def test_quadratic_minimum(self):
        x, y = minimize_scalar(lambda x: (x - 3.0) ** 2 + 1.0, OptimizeSpec(0.0, 10.0))
        assert x == pytest.approx(3.0, abs=1e-4)
        assert y == pytest.approx(1.0, abs=1e-8)

    def test_tight_tolerance(self):
        x, _ = minimize_scalar(
            lambda x: math.cosh(x - 0.7), OptimizeSpec(-2.0, 2.0, tolerance=1e-10)
        )
        assert x == pytest.approx(0.7, abs=1e-7)

    def test_monotone_objective_raises(self):
        with pytest.raises(BracketFailure):
            minimize_scalar(lambda x: x, OptimizeSpec(0.0, 1.0))
        with pytest.raises(BracketFailure):
            minimize_scalar(lambda x: -x, OptimizeSpec(0.0, 1.0))

    def test_bad_bracket(self):
        with pytest.raises(ValueError):
            OptimizeSpec(1.0, 1.0)
        with pytest.raises(ValueError):
            OptimizeSpec(0.0, 1.0, tolerance=0.0)


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
