import dataclasses
import math
import re
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, strategies as st

from squeezelink import closedform, config, model
from squeezelink.closedform import (
    DegenerateSqueeze,
    DuanResult,
    duan_sum_adiabatic_general,
    duan_sum_adiabatic_identical,
    duan_sum_nonadiabatic,
    duan_sum_strong_coupling_approx,
    duan_sum_weak_coupling_approx,
    field_sum_nonadiabatic,
    field_sum_strong_coupling_limit,
    is_entangled,
    minimum_power,
    threshold_cooperativity,
)
from squeezelink.model import SqueezedBath


class Rates(NamedTuple):
    """One unit's effective rates after the cavity field is eliminated."""

    Gamma_a: float
    Gamma: float
    n_th: float


def unit_rates(Gamma_a, gamma, n_th):
    return Rates(Gamma_a=Gamma_a, Gamma=Gamma_a + gamma, n_th=n_th)


def general(unit1, unit2, bath):
    return duan_sum_adiabatic_general(unit1, unit2, bath.N, bath.M_corr)


class TestAdiabaticGeneral:
    def test_vacuum_inputs_reproduce_vacuum_variance(self):
        unit = unit_rates(Gamma_a=1e4, gamma=100.0, n_th=0.0)
        result = general(unit, unit, SqueezedBath(r=0.0))
        assert result.total == pytest.approx(2.0, abs=1e-12)

    def test_symmetric_case_reduces_to_identical_formula(self):
        gamma, n_th, r = 880.0, 5.0, 1.3
        for C in (0.5, 3.0, 40.0):
            unit = unit_rates(Gamma_a=C * gamma, gamma=gamma, n_th=n_th)
            total = general(unit, unit, SqueezedBath(r=r)).total
            identical = duan_sum_adiabatic_identical(C, r, n_th).total
            assert total == pytest.approx(identical, abs=1e-12)

    def test_separability_floor_for_random_asymmetric_rates(self):
        # without squeezing, no pair of units reaches below the vacuum bound 2
        rng = np.random.default_rng(20240817)
        bath = SqueezedBath(r=0.0)
        lowest = math.inf
        for _ in range(10_000):
            gamma = 10.0 ** rng.uniform(1.0, 4.0)
            ga1, ga2 = gamma * 10.0 ** rng.uniform(-2.0, 3.0, size=2)
            n1, n2 = rng.uniform(0.0, 30.0, size=2)
            total = general(unit_rates(ga1, gamma, n1), unit_rates(ga2, gamma, n2), bath).total
            lowest = min(lowest, total)
        assert lowest >= 2.0 - 1e-12

    def test_asymmetric_drive_is_worse_than_symmetric(self):
        # brute-force scan: fixing the mean radiation-pressure rate, the
        # symmetric split minimizes the variance sum (gamma << Gamma_a)
        gamma, r, n_th = 1.0, 2.0, 0.0
        bath = SqueezedBath(r=r)
        mean_ga = 1e4
        unit = unit_rates(mean_ga, gamma, n_th)
        symmetric = general(unit, unit, bath).total
        for split in (0.25, 0.4, 2.0 / 3.0):
            ga1 = 2 * mean_ga * split
            ga2 = 2 * mean_ga - ga1
            result = general(unit_rates(ga1, gamma, n_th), unit_rates(ga2, gamma, n_th), bath)
            assert result.total > symmetric

    @pytest.mark.parametrize("unit2, message", [
        (Rates(Gamma_a=2.0, Gamma=1.0, n_th=0.0), "Gamma_a=2.0, Gamma=1.0"),
        (Rates(Gamma_a=0.0, Gamma=0.0, n_th=0.0), "Gamma_a=0.0, Gamma=0.0"),
        (Rates(Gamma_a=-1.0, Gamma=-0.5, n_th=0.0), "Gamma_a=-1.0, Gamma=-0.5"),
        (Rates(Gamma_a=-1.0, Gamma=1.0, n_th=0.0), "Gamma_a=-1.0, Gamma=1.0"),
    ])
    def test_rate_bounds_on_both_routes(self, unit2, message):
        unit1 = unit_rates(Gamma_a=1e4, gamma=100.0, n_th=1.0)
        text = re.escape(f"unit 2: need 0 <= Gamma_a <= Gamma and Gamma > 0, got {message}")
        with pytest.raises(ValueError, match=f"^{text}$"):
            duan_sum_adiabatic_general(unit1, unit2, 1.0, 1.0)
        # the array twin, with the bad element between good ones
        arrays = [Rates(*map(np.array, zip(unit1, unit, unit1))) for unit in (unit1, unit2)]
        with pytest.raises(ValueError, match=f"^{text}$"):
            closedform.duan_sum_adiabatic_arrays(*arrays, 1.0, 1.0)


class TestAdiabaticIdentical:
    def test_no_squeezing_floor(self):
        for C in (0.0, 1.0, 100.0):
            for n_th in (0.0, 2.0, 30.0):
                total = duan_sum_adiabatic_identical(C, 0.0, n_th).total
                assert total == pytest.approx(2.0 + 4.0 * n_th / (C + 1.0), rel=1e-12)
                assert total >= 2.0 - 1e-12

    def test_uncoupled_limit(self):
        for n_th in (0.0, 1.0, 7.5):
            total = duan_sum_adiabatic_identical(0.0, 1.7, n_th).total
            assert total == pytest.approx(2.0 * (1.0 + 2.0 * n_th), rel=1e-12)

    def test_reference_value(self):
        assert duan_sum_adiabatic_identical(15.0, 1.0, 5.0).total == pytest.approx(
            1.628754, abs=1e-6
        )

    @given(
        c1=st.floats(0.01, 1e4),
        factor=st.floats(1.01, 100.0),
        r=st.floats(0.01, 4.0),
        n_th=st.floats(0.0, 50.0),
    )
    def test_strictly_decreasing_in_cooperativity(self, c1, factor, r, n_th):
        lo = duan_sum_adiabatic_identical(c1, r, n_th).total
        hi = duan_sum_adiabatic_identical(c1 * factor, r, n_th).total
        assert hi < lo

    @given(st.lists(st.tuples(st.floats(0.0, 1e300), st.floats(0.0, 400.0),
                              st.floats(0.0, 1e300)), min_size=1, max_size=8))
    def test_arrays_equal_per_point_totals(self, points):
        C, r, n_th = (np.array(column) for column in zip(*points))
        totals = closedform.duan_sum_adiabatic_identical_arrays(C, r, n_th)
        assert totals.tolist() == [duan_sum_adiabatic_identical(*p).total for p in points]

    @pytest.mark.parametrize("args", [
        (np.array([1.0, -1.0]), 1.0, 1.0),
        (1.0, np.array([0.0, -800.0]), 1.0),
        (1.0, 1.0, np.array([1.0, -0.5])),
        (1.0, 1.0, np.array([1.0, math.inf])),
        (np.array([1.0, math.nan]), 1.0, 1.0),
    ])
    def test_arrays_reject_what_a_point_rejects(self, args):
        with pytest.raises((ValueError, FloatingPointError)) as expected:
            duan_sum_adiabatic_identical(*(float(np.ravel(a)[-1]) for a in args))
        with pytest.raises(type(expected.value), match=str(expected.value)):
            closedform.duan_sum_adiabatic_identical_arrays(*args)


class TestApproximations:
    def test_strong_coupling_limit(self):
        assert duan_sum_strong_coupling_approx(1e308, 1.0, 5.0) == pytest.approx(
            2.0 * math.exp(-2.0), rel=1e-12
        )

    def test_strong_coupling_close_to_exact(self):
        exact = duan_sum_adiabatic_identical(1e6, 1.0, 5.0).total
        approx = duan_sum_strong_coupling_approx(1e6, 1.0, 5.0)
        assert approx == pytest.approx(exact, abs=1e-4)

    def test_threshold_region_magnitude(self):
        approx = duan_sum_strong_coupling_approx(2.3, 1.0, 1.0)
        assert approx == pytest.approx(2.0 * math.exp(-2.0) + 4.0 / 2.3, rel=1e-12)
        assert 1.9 < approx < 2.1

    def test_weak_coupling_values(self):
        assert duan_sum_weak_coupling_approx(0.0, 1.0, 3.0) == pytest.approx(14.0)
        # overshoot above the exact value is first order in C
        exact = duan_sum_adiabatic_identical(0.01, 1.0, 0.0).total
        approx = duan_sum_weak_coupling_approx(0.01, 1.0, 0.0)
        assert approx - exact == pytest.approx(approx * 0.01 / 1.01, rel=1e-10)

    @given(C=st.floats(0.0, 1e6), r=st.floats(0.0, 10.0), n_th=st.floats(0.0, 100.0))
    def test_weak_coupling_never_below_two(self, C, r, n_th):
        assert duan_sum_weak_coupling_approx(C, r, n_th) >= 2.0


class TestNonadiabatic:
    def test_reference_value(self):
        total = duan_sum_nonadiabatic(15.0, 2.0, 5.0, 0.01, 1.0).total
        assert total == pytest.approx(1.613210, abs=1e-6)

    def test_reduces_to_adiabatic(self):
        for C in (0.5, 15.0, 90.0):
            full = duan_sum_nonadiabatic(C, 1.0, 5.0, 1e-8, 1.0).total
            adiab = duan_sum_adiabatic_identical(C, 1.0, 5.0).total
            assert full == pytest.approx(adiab, abs=1e-6)

    def test_more_dissipation_hurts(self):
        lo = duan_sum_nonadiabatic(15.0, 2.0, 5.0, 0.01, 1.0).total
        hi = duan_sum_nonadiabatic(15.0, 2.0, 5.0, 0.05, 1.0).total
        assert hi > lo

    @given(st.lists(st.tuples(st.floats(0.0, 1e4), st.floats(0.0, 5.0), st.floats(0.0, 50.0),
                              st.floats(1e-8, 10.0)), min_size=1, max_size=8))
    def test_arrays_equal_per_point_totals(self, points):
        C, r, n_th, gamma = (np.array(column) for column in zip(*points))
        totals = closedform.duan_sum_nonadiabatic_arrays(C, r, n_th, gamma, 1.0)
        assert totals.tolist() == [duan_sum_nonadiabatic(*p, 1.0).total for p in points]

    @pytest.mark.parametrize("args, message", [
        ((np.array([1.0, -1.0]), 1.0, 1.0, 0.1, 1.0), "C must be >= 0"),
        ((1.0, 1.0, 1.0, np.array([0.1, 0.0]), 1.0), "gamma must be > 0"),
        ((1.0, 1.0, 1.0, 0.1, np.array([1.0, math.nan])), "kappa must be > 0"),
        ((np.array([1.0, math.nan]), 1.0, 1.0, 0.1, 1.0), "total variance is NaN"),
        ((1.0, np.array([0.0, -800.0]), 1.0, 0.1, 1.0), "r must be >= 0"),
    ])
    def test_arrays_reject_what_a_point_rejects(self, args, message):
        with pytest.raises((ValueError, FloatingPointError), match=message):
            closedform.duan_sum_nonadiabatic_arrays(*args)


class TestFieldSum:
    def test_reference_value(self):
        total = field_sum_nonadiabatic(15.0, 1.0, 5.0, 6.5e-4, 1.0).total
        assert total == pytest.approx(0.283903, abs=1e-6)

    def test_lossless_mirror_limit(self):
        total = field_sum_nonadiabatic(15.0, 1.0, 5.0, 1e-15, 1.0).total
        assert total == pytest.approx(2.0 * math.exp(-2.0), rel=1e-9)

    @given(st.lists(st.tuples(st.floats(0.0, 1e4), st.floats(0.0, 400.0), st.floats(0.0, 50.0),
                              st.floats(1e-8, 10.0)), min_size=1, max_size=8))
    def test_arrays_equal_per_point_totals(self, points):
        C, r, n_th, gamma = (np.array(column) for column in zip(*points))
        totals = closedform.field_sum_nonadiabatic_arrays(C, r, n_th, gamma, 1.0)
        assert totals.tolist() == [field_sum_nonadiabatic(*p, 1.0).total for p in points]

    @pytest.mark.parametrize("args", [
        (np.array([1.0, -1.0]), 1.0, 1.0, 0.1, 1.0),
        (1.0, np.array([0.0, -800.0]), 1.0, 0.1, 1.0),
        (1.0, 1.0, np.array([1.0, math.inf]), 0.1, 1.0),
        (1.0, 1.0, 1.0, 0.1, np.array([1.0, 0.0])),
    ])
    def test_arrays_reject_what_a_point_rejects(self, args):
        with pytest.raises((ValueError, FloatingPointError)) as expected:
            field_sum_nonadiabatic(*(float(np.ravel(a)[-1]) for a in args))
        with pytest.raises(type(expected.value), match=str(expected.value)):
            closedform.field_sum_nonadiabatic_arrays(*args)

    def test_insensitive_to_cooperativity(self):
        t15 = field_sum_nonadiabatic(15.0, 1.0, 5.0, 6.5e-4, 1.0).total
        t90 = field_sum_nonadiabatic(90.0, 1.0, 5.0, 6.5e-4, 1.0).total
        assert abs(t90 - t15) <= 1e-3

    def test_strong_coupling_limit_form(self):
        limit = field_sum_strong_coupling_limit(1.0, 5.0, 6.5e-4, 1.0)
        assert limit == pytest.approx(0.2849612775110508, rel=1e-12)
        # the limit drops terms of order gamma/kappa, so the residual at
        # large C is set by the dissipation ratio, not by 1/C
        full = field_sum_nonadiabatic(1e6, 1.0, 5.0, 6.5e-4, 1.0).total
        assert full == pytest.approx(limit, abs=2 * math.exp(-2.0) * 6.5e-4)
        tight = field_sum_nonadiabatic(1e6, 1.0, 5.0, 1e-6, 1.0).total
        assert tight == pytest.approx(
            field_sum_strong_coupling_limit(1.0, 5.0, 1e-6, 1.0), abs=1e-5
        )

    def test_gamma_zero_in_limit_form(self):
        assert field_sum_strong_coupling_limit(0.7, 9.0, 0.0, 1.0) == pytest.approx(
            2.0 * math.exp(-1.4), rel=1e-12
        )


class TestThreshold:
    def test_reference_value(self):
        assert threshold_cooperativity(1.0, 1.0) == pytest.approx(2.313035, abs=1e-6)

    def test_zero_occupation_threshold_is_zero(self):
        for r in (0.1, 1.0, 3.0):
            assert threshold_cooperativity(r, 0.0) == 0.0

    def test_boundary_exactness(self):
        for r in (0.3, 1.0, 2.5):
            for n_th in (0.5, 1.0, 10.0):
                c_min = threshold_cooperativity(r, n_th)
                total = duan_sum_adiabatic_identical(c_min, r, n_th).total
                assert total == pytest.approx(2.0, abs=1e-10)
                assert duan_sum_adiabatic_identical(1.01 * c_min, r, n_th).total < 2.0
                assert duan_sum_adiabatic_identical(0.99 * c_min, r, n_th).total > 2.0

    def test_degenerate_squeeze(self):
        with pytest.raises(DegenerateSqueeze):
            threshold_cooperativity(0.0, 1.0)


class TestMinimumPower:
    def setup_method(self):
        self.unit = config.preset_system("fig3").unit1

    def test_doubling_occupation_doubles_power(self):
        omega_M = self.unit.mirror.omega_M
        t1 = model.temperature_for_occupation(omega_M, 2.0)
        t2 = model.temperature_for_occupation(omega_M, 4.0)
        p1 = minimum_power(self.unit, 1.0, t1)
        p2 = minimum_power(self.unit, 1.0, t2)
        assert p2 == pytest.approx(2.0 * p1, rel=1e-9)

    def test_more_squeezing_needs_less_power(self):
        powers = [minimum_power(self.unit, r, 50e-6) for r in (0.5, 1.0, 2.0)]
        assert powers[0] > powers[1] > powers[2]

    def test_boundary_root(self):
        for r in (0.5, 1.0, 2.0):
            p_min = minimum_power(self.unit, r, 50e-6)
            unit = dataclasses.replace(
                self.unit, resonator=dataclasses.replace(self.unit.resonator, power=p_min)
            )
            ss = model.mean_fields_from_effective_detuning(unit, -unit.mirror.omega_M)
            n_th = model.thermal_occupation(unit.mirror.omega_M, 50e-6)
            total = duan_sum_adiabatic_identical(ss.C, r, n_th).total
            assert total == pytest.approx(2.0, abs=1e-8)

    def test_diagnostic_ratio_is_two(self):
        p_min = minimum_power(self.unit, 1.0, 50e-6)
        p_diag = closedform.diagnostic_minimum_power(self.unit, 1.0, 50e-6)
        assert p_diag / p_min == pytest.approx(2.0, rel=1e-9)

    @pytest.mark.parametrize("gamma, power, slope", [(1e-300, 0.01, "inf"), (1e307, 1e-300, "0.0")])
    def test_degenerate_cooperativity_slope_is_a_named_error(self, gamma, power, slope):
        unit = dataclasses.replace(
            self.unit, mirror=dataclasses.replace(self.unit.mirror, gamma=gamma),
            resonator=dataclasses.replace(self.unit.resonator, power=power))
        with pytest.raises(OverflowError, match=f"C/P is {slope} /W, as C = Gamma_a / gamma"):
            minimum_power(unit, 1.0, 50e-6)


class TestVerdict:
    def test_boundary_semantics(self):
        assert is_entangled(0.0)
        assert is_entangled(1.9999)
        assert not is_entangled(2.0)
        assert not is_entangled(2.5)

    def test_negative_total_rejected(self):
        with pytest.raises(ValueError):
            is_entangled(-0.1)

    def test_nan_total_rejected(self):
        with pytest.raises(FloatingPointError):
            is_entangled(math.nan)

    def test_infinite_total_rejected(self):
        # an overflow upstream, as DuanResult rejects it; never "separable"
        with pytest.raises(FloatingPointError, match="total variance is inf"):
            is_entangled(math.inf)

    def test_non_finite_result_rejected(self):
        # sqrt(Gamma_a1 * Gamma_a2) overflows first at huge asymmetric drives
        for var_X in (math.nan, math.inf, -math.inf):
            with pytest.raises(FloatingPointError):
                DuanResult(var_X=var_X, var_Y=1.0)

    def test_negative_result_rejected(self):
        # (2N + 1) - 2M cancels at large r and can leave a negative total
        with pytest.raises(FloatingPointError, match="total variance is -"):
            DuanResult(var_X=-2.0, var_Y=1.0)

    def test_closed_form_total_is_kept_as_given(self):
        # halving a subnormal total and adding the halves back drops its last bit
        total = 1.191933759602653e-308
        assert DuanResult.from_total(total).total == total
        result = field_sum_nonadiabatic(2.225073858507203e-309, 355.0, 0.0, 2.0, 1.0)
        assert result.total == total
        assert result.var_X == result.var_Y == total / 2.0

    def test_result_exposes_xy_symmetry(self):
        result = duan_sum_adiabatic_identical(15.0, 1.0, 5.0)
        assert result.var_X == result.var_Y
        assert result.total == result.var_X + result.var_Y
